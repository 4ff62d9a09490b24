(** Cluster fault-tolerance sweep: a multi-node fleet behind the
    controller under seeded node-level faults, with the management plane
    (health checks, circuit breakers, restart supervision, failover
    retries, hedging) on and off over identical request streams.

    Each nonzero fault rate combines a per-tick crash probability with
    three scheduled crashes spread across the arrival span, so every
    cell exercises real fleet damage deterministically at any seed. *)

type row = {
  rate_per_min : float;  (** Per-node crash rate, fraction per minute. *)
  placement : Gh_faas.Cluster.placement;
  failover : bool;
  offered : int;
  served : int;
  failed : int;
  availability : float;  (** served / offered. *)
  goodput_rps : float;
  p50_ms : float;
  p99_ms : float;
  failover_p99_ms : float;  (** First failure signal to winning response. *)
  retries : int;
  hedges : int;
  cancelled : int;
  crashes : int;
  hangs : int;
  restarts : int;
  timeouts : int;
  wasted : int;
  lost : int;
  double_served : int;  (** Must be 0. *)
  shed_and_served : int;  (** Must be 0. *)
  conservation_residue : int;  (** Must be 0. *)
  inflight_residue : int;  (** Must be 0 (checked with failover on). *)
}

type cell
(** A ((rate, placement), failover) grid point. *)

val sweep : (cell, row) Gated_sweep.spec
(** Rates 0, 1, 5 and 20 %/min x least-loaded and warm-aware placement
    (smoke: rates 0 and 1 %/min, least-loaded), each cell with failover on
    and off. The gate sums the delivery-contract terms; its checks are the
    acceptance conditions on the 1 %/min cells: failover on keeps
    availability >= 99% and p99 within 8x the fault-free cell, failover
    off collapses below 90%. *)

(** {1 The fleet cell}

    Shared with {!Slo_exp}, which runs the same fleet with the full
    observability stack attached. *)

val n_nodes : int

val response_timeout : int -> Gh_sim.Time_ns.t
(** The attempt timeout for a mean service time. *)

type fleet = {
  cluster : Gh_faas.Cluster.t;
  arrivals : Gh_sim.Time_ns.t list;  (** Measured arrivals, after the warm-up. *)
  warmup : Gh_sim.Time_ns.t;  (** Measurement start. *)
  last_arrival : Gh_sim.Time_ns.t;
  ttl : Gh_sim.Time_ns.t;  (** The client deadline. *)
}

val fleet :
  Config.t ->
  Gh_faas.Function_model.spec ->
  Gh_sim.Engine.t ->
  seed:int ->
  salt:string ->
  service:int ->
  load:float ->
  cap_rps:float ->
  crashes:(int * float) list ->
  fault_per_min:float ->
  placement:Gh_faas.Cluster.placement ->
  failover:bool ->
  requests:int ->
  ?trace:Gh_sim.Trace.t ->
  ?spans:Gh_sim.Span.t ->
  ?series:Gh_sim.Timeseries.t ->
  ?slos:Gh_sim.Slo.t list ->
  ?recorder:Gh_sim.Flight_recorder.t ->
  metrics:Gh_sim.Metrics.t ->
  on_failed:(Gh_faas.Request.t -> unit) ->
  on_shed:(Gh_faas.Request.t -> unit) ->
  on_complete:(Gh_faas.Controller.completion -> unit) ->
  unit ->
  fleet
(** Runs one fleet cell to completion on [engine]: a 3-node, 2-core GH
    fleet behind the controller, one uncounted warm-up request per core at
    t = 0, then [requests] bursty arrivals at [min (load x capacity)
    cap_rps] from [service]. A nonzero [fault_per_min] adds node crashes
    and hangs at that per-node rate, message loss, heartbeat drops, and
    one scheduled crash per [(node, fraction of the arrival span)] in
    [crashes]. [salt] keys the arrival and fault-plan streams. *)
