(* Cluster fault-tolerance sweep: a 3-node fleet behind the controller,
   node-level faults (crashes, hangs, message loss, heartbeat drops)
   injected from the seeded plan, with the management plane — health
   checks, circuit breakers, restart supervision, failover retries and
   hedging — on and off over the same seeded request stream.

   The claim under test: with failover on, availability stays near 100%
   and p99 inflation is bounded even while nodes crash mid-run (lost
   work is re-dispatched within its deadline); with failover off the
   same crash schedule permanently removes capacity and goodput
   collapses. Either way the delivery contract holds: no request is
   served twice, none is both failed and served, and every node
   completion is accounted (served, suppressed duplicate, or died with
   its node).

   Crash schedule: a per-tick probability derived from the configured
   per-minute rate, plus three scheduled occurrences (the fault plan's
   [nth] rule) spread over the arrival span — so every nonzero-rate cell
   exercises real crashes deterministically, at any seed, and the two
   failover arms face the same early fleet damage. *)

module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Stats = Gh_sim.Stats
module Fault = Gh_sim.Fault
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Synthetic = Gh_workloads.Synthetic
module Fm = Gh_faas.Function_model
module Request = Gh_faas.Request
module Admission = Gh_faas.Admission
module Node = Gh_faas.Node
module Cluster = Gh_faas.Cluster
module Controller = Gh_faas.Controller

type row = {
  rate_per_min : float;
  placement : Cluster.placement;
  failover : bool;
  offered : int;
  served : int;
  failed : int;
  availability : float;
  goodput_rps : float;
  p50_ms : float;
  p99_ms : float;
  failover_p99_ms : float;  (** First failure signal to winning response. *)
  retries : int;
  hedges : int;
  cancelled : int;  (** Still-queued hedge losers removed after the win. *)
  crashes : int;
  hangs : int;
  restarts : int;
  timeouts : int;
  wasted : int;
  lost : int;
  double_served : int;  (** Requests delivered more than once. Must be 0. *)
  shed_and_served : int;  (** Requests both failed and served. Must be 0. *)
  conservation_residue : int;
      (** node completions - (served-by-response + wasted + lost). Must be 0. *)
  inflight_residue : int;
      (** Attempts/requests unaccounted after drain (failover on). Must be 0. *)
}

type cell = (float * Cluster.placement) * bool

let n_nodes = 3
let cores_per_node = 2

(* Attempt patience: generous against honest queueing (the fault-free p99
   is well under this), small against the deadline so a timed-out attempt
   leaves room to fail over and still serve. *)
let response_timeout service = max (Time_ns.of_ms 250.0) (6 * service)

type fleet = {
  cluster : Cluster.t;
  arrivals : Time_ns.t list;
  warmup : Time_ns.t;
  last_arrival : Time_ns.t;
  ttl : Time_ns.t;
}

let fleet cfg spec engine ~seed ~salt ~service ~load ~cap_rps ~crashes ~fault_per_min
    ~placement ~failover ~requests ?trace ?spans ?series ?slos ?recorder ~metrics ~on_failed
    ~on_shed ~on_complete () =
  let root = Rng.create seed in
  let fleet_cores = n_nodes * cores_per_node in
  let capacity_rps = float_of_int fleet_cores *. 1.0e9 /. float_of_int service in
  let rate_rps = Float.min (load *. capacity_rps) cap_rps in
  let hb = Time_ns.of_ms 100.0 in
  let response_timeout = response_timeout service in
  (* Client deadline: room for two timed-out attempts plus a served one
     even when a restart window (~1 s) sits in the middle. *)
  let ttl = max (Time_ns.of_sec 2.0) (8 * response_timeout) in
  let warmup = Time_ns.of_sec 2.0 in
  let arrivals =
    let arng = Rng.create (seed lxor Hashtbl.hash (salt ^ "-arrivals")) in
    List.map
      (fun t -> t + warmup)
      (Synthetic.burst ~duty:0.5 ~cycle_s:1.0 arng ~rate_rps ~n:requests)
  in
  let last_arrival = List.fold_left max warmup arrivals in
  let horizon = last_arrival + ttl + Time_ns.of_sec 2.0 in
  let fault =
    if fault_per_min <= 0.0 then Fault.none
    else begin
      let plan = Fault.create ~seed:(Hashtbl.hash (seed, salt ^ "-plan")) in
      let ticks_per_min = 60.0 *. 1.0e9 /. float_of_int hb in
      let per_tick = fault_per_min /. ticks_per_min in
      (* Scheduled crashes across the arrival span, on top of the
         rate-derived background probability. Crash draws advance n_nodes
         per tick whether members are up or not, so member [node]'s draw
         on tick k (1-based) is occurrence (k-1)*n_nodes + node + 1: one
         crash per listed member, at fixed times in both failover arms. *)
      let crash_nths =
        List.map
          (fun (node, f) ->
            let tick =
              max 1 ((warmup + int_of_float (f *. float_of_int (last_arrival - warmup))) / hb)
            in
            ((tick - 1) * n_nodes) + node + 1)
          crashes
      in
      Fault.set plan Fault.Node_crash ~prob:per_tick ~nth:crash_nths ();
      Fault.set plan Fault.Node_hang ~prob:(2.0 *. per_tick) ();
      Fault.set plan Fault.Cluster_msg_loss ~prob:0.002 ();
      Fault.set plan Fault.Heartbeat_drop ~prob:0.01 ();
      plan
    end
  in
  let builds = ref 0 in
  let make_strategy _name sp =
    incr builds;
    match
      Registry.make Registry.Gh ~rng:(Rng.named_split root (Printf.sprintf "c%d" !builds)) sp
    with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let cluster_config =
    {
      Cluster.n_nodes;
      node =
        {
          Node.total_cores = cores_per_node;
          memory_mb = 65_536;
          idle_timeout = Time_ns.of_sec 600.0;
          dispatch_ns = cfg.Config.dispatch_ns;
          recovery = None;
          admission = Admission.bounded ~policy:Admission.Edf_drop (10 * cores_per_node);
          brownout = None;
          scrub = None;
        };
      placement;
      failover;
      hb_interval = hb;
      hang_ns = 4 * hb;
      response_timeout;
      max_attempts = 4;
      (* Hedge just under the attempt timeout: only requests already far
         into the fault-free tail grow a second attempt, and a genuinely
         lost one still hedges before the timeout's breaker penalty. *)
      hedge_after = (if failover then Some (3 * response_timeout / 4) else None);
      restart_ns = Time_ns.of_ms 500.0;
      health = Gh_faas.Health.default_config;
      breaker = Gh_faas.Breaker.default_config;
    }
  in
  let cluster =
    Cluster.create ?trace ?spans ?series ?slos ?recorder ~metrics
      ~rng:(Rng.named_split root "cluster") ~fault engine cluster_config ~make_strategy
  in
  let fn = spec.Fm.name in
  Cluster.register cluster ~name:fn spec;
  let controller =
    Controller.create_sink ~ttl_ns:ttl engine
      ~rng:(Rng.named_split root "controller")
      (fun req ~on_response -> Cluster.submit cluster ~name:fn req ~on_response)
  in
  Cluster.set_on_failed cluster on_failed;
  Controller.set_on_shed controller on_shed;
  (* One warm-up request per core at t=0 (no deadline, uncounted) pays the
     fleet's container cold starts before measurement. *)
  for i = 1 to fleet_cores do
    Engine.at engine ~time:0 (fun () ->
        Cluster.submit cluster ~name:fn
          (Request.make ~id:(2_000_000 + i)
             ~principal:Gated_sweep.principals.(i land 1)
             ~input_kb:spec.Fm.input_kb ())
          ~on_response:(fun _ _ -> ()))
  done;
  Cluster.start cluster ~until:horizon;
  Engine.at_batch engine
    (List.mapi
       (fun i at ->
         let id = i + 1 in
         ( at,
           fun () ->
             let req =
               Request.make ~id
                 ~principal:Gated_sweep.principals.(i land 1)
                 ~input_kb:spec.Fm.input_kb ()
             in
             Controller.submit controller req ~on_complete ))
       arrivals);
  Engine.run_all engine;
  { cluster; arrivals; warmup; last_arrival; ttl }

let measure cfg (entry : Catalog.entry) ~requests ((rate_per_min, placement), failover) =
  let spec = entry.Catalog.spec in
  (* The seed is shared by the two failover arms: identical arrivals and
     an identical initial fault schedule, so the comparison isolates the
     management plane. *)
  let seed =
    cfg.Config.seed
    lxor Hashtbl.hash ("cluster", spec.Fm.name, Cluster.placement_name placement, rate_per_min)
  in
  let service = Gated_sweep.service_ns cfg Registry.Gh spec ~seed:(seed lxor 0x5eed) in
  let engine = Engine.create () in
  let served_ids = Hashtbl.create 256 in
  let failed_ids = Hashtbl.create 64 in
  let double_served = ref 0 in
  let e2e_ms = ref [] in
  let fail (req : Request.t) = Hashtbl.replace failed_ids req.Request.id () in
  let f =
    fleet cfg spec engine ~seed ~salt:"cluster" ~service
      (* Sized so the fleet minus one node still has burst headroom (the
         failover arms isolate fault handling, not overload — Overload_exp
         covers that), and so the arrival span holds three scheduled
         crashes spaced wider than one detect+restart+rejoin cycle
         (~1.1 s). *)
      ~load:0.45
      ~cap_rps:(float_of_int requests /. 4.5)
      (* Early enough that most of the stream faces a damaged fleet,
         spaced wider than one detect+restart+rejoin cycle so the failover
         arm rarely loses the whole fleet at once. *)
      ~crashes:[ (0, 0.05); (1, 0.35); (2, 0.65) ]
      ~fault_per_min:rate_per_min ~placement ~failover ~requests
      ~metrics:(Gh_sim.Metrics.create ()) ~on_failed:fail ~on_shed:fail
      ~on_complete:(fun (c : Controller.completion) ->
        if Hashtbl.mem served_ids c.Controller.request.Request.id then incr double_served
        else begin
          Hashtbl.replace served_ids c.Controller.request.Request.id ();
          e2e_ms := Time_ns.to_ms c.Controller.e2e_ns :: !e2e_ms
        end)
      ()
  in
  let s = Cluster.stats f.cluster in
  let offered = List.length f.arrivals in
  let served = Hashtbl.length served_ids in
  let shed_and_served =
    Hashtbl.fold
      (fun id () n -> if Hashtbl.mem served_ids id then n + 1 else n)
      failed_ids 0
  in
  let conservation_residue =
    s.Cluster.node_completions
    - (s.Cluster.served + s.Cluster.wasted_responses + s.Cluster.lost_responses)
  in
  (* With failover off, attempts on dead nodes legitimately never conclude
     (nothing times them out); the residue check only binds the arm that
     promises full accounting. *)
  let inflight_residue =
    if failover then s.Cluster.inflight + s.Cluster.pending_requests else 0
  in
  let duration_s =
    Float.max 1e-9 (Time_ns.to_ms (f.last_arrival - f.warmup + f.ttl) /. 1000.0)
  in
  let summary =
    match !e2e_ms with
    | [] -> None
    | samples -> Some (Stats.summarize (Array.of_list samples))
  in
  let failover_p99_ms =
    match s.Cluster.failover_ms with
    | [] -> Float.nan
    | samples -> (Stats.summarize (Array.of_list samples)).Stats.p99
  in
  {
    rate_per_min;
    placement;
    failover;
    offered;
    served;
    failed = Hashtbl.length failed_ids;
    availability =
      (if offered = 0 then Float.nan else float_of_int served /. float_of_int offered);
    goodput_rps = float_of_int served /. duration_s;
    p50_ms = (match summary with Some s -> s.Stats.median | None -> Float.nan);
    p99_ms = (match summary with Some s -> s.Stats.p99 | None -> Float.nan);
    failover_p99_ms;
    retries = s.Cluster.retries;
    hedges = s.Cluster.hedges;
    cancelled = s.Cluster.hedge_cancelled;
    crashes = s.Cluster.crashes;
    hangs = s.Cluster.hangs;
    restarts = s.Cluster.restarts;
    timeouts = s.Cluster.attempt_timeouts;
    wasted = s.Cluster.wasted_responses;
    lost = s.Cluster.lost_responses;
    double_served = !double_served;
    shed_and_served;
    conservation_residue;
    inflight_residue;
  }

(* The gate: every way a cell can violate the delivery contract.
   [double_served]: a response delivered twice; [shed_and_served]: a
   request both failed and served; [conservation_residue]: a node
   completion unaccounted for; [inflight_residue]: attempts or requests
   left dangling after drain with failover on. *)
let violations r =
  r.double_served + r.shed_and_served + abs r.conservation_residue + r.inflight_residue

(* Acceptance on the 1%/min cells (when present): failover on keeps
   availability >= 99% with bounded p99 inflation; failover off collapses
   on the same seeded streams. *)
let acceptance rows =
  let find ~rate ~failover =
    List.find_opt (fun r -> r.rate_per_min = rate && r.failover = failover) rows
  in
  match (find ~rate:0.01 ~failover:true, find ~rate:0.01 ~failover:false) with
  | Some on, Some off ->
      let baseline_p99 =
        match find ~rate:0.0 ~failover:true with
        | Some b when not (Float.is_nan b.p99_ms) -> b.p99_ms
        | _ -> Float.nan
      in
      let msgs = [] in
      let msgs =
        if on.availability < 0.99 then
          Printf.sprintf "failover-on availability %.2f%% < 99%%" (100.0 *. on.availability)
          :: msgs
        else msgs
      in
      let msgs =
        if
          (not (Float.is_nan baseline_p99))
          && (not (Float.is_nan on.p99_ms))
          && on.p99_ms > 8.0 *. baseline_p99
        then
          Printf.sprintf "failover-on p99 %.1f ms > 8x fault-free %.1f ms" on.p99_ms
            baseline_p99
          :: msgs
        else msgs
      in
      if off.availability > 0.90 then
        Printf.sprintf "failover-off availability %.2f%% did not collapse (> 90%%)"
          (100.0 *. off.availability)
        :: msgs
      else msgs
  | _ -> []

let grid rates placements =
  Gated_sweep.(product (product rates placements) [ true; false ])

let sweep =
  {
    Gated_sweep.name = "cluster";
    doc =
      "Sweep node-level fault rates through the multi-node fleet with failover (health \
       checks, breakers, restarts, retries, hedging) on and off; exits nonzero on any \
       delivery-contract violation or if failover fails to hold availability.";
    benchmark = "deltablue (p)";
    benchmark_doc = "Benchmark the fleet serves.";
    n = 200;
    n_doc = "Arrivals per (rate, placement, failover) cell.";
    grid = grid [ 0.0; 0.01; 0.05; 0.2 ] [ Cluster.Least_loaded; Cluster.Warm_aware ];
    smoke = grid [ 0.0; 0.01 ] [ Cluster.Least_loaded ];
    smoke_n = 150;
    smoke_doc = "Tiny CI run: one placement, rates 0 and 1%/min, few requests.";
    cell = (fun cfg entry ~requests cell -> Some (measure cfg entry ~requests cell));
    title =
      (fun entry ->
        Printf.sprintf
          "Cluster fault tolerance on %s: %d nodes, node crashes/hangs/message loss from \
           the seeded plan, failover (health checks, breakers, restarts, retries, \
           hedging) on vs off over identical request streams. 'viol' must be 0: no \
           double-serve, no shed-and-served, every node completion accounted."
          entry.Catalog.display n_nodes);
    columns =
      [
        ("rate/min", fun r -> Printf.sprintf "%.0f%%" (100.0 *. r.rate_per_min));
        ("placement", fun r -> Cluster.placement_name r.placement);
        ("fo", fun r -> if r.failover then "on" else "off");
        ("offered", fun r -> string_of_int r.offered);
        ("served", fun r -> string_of_int r.served);
        ("fail", fun r -> string_of_int r.failed);
        ("avail", fun r -> Printf.sprintf "%.1f%%" (100.0 *. r.availability));
        ("gp r/s", fun r -> Printf.sprintf "%.1f" r.goodput_rps);
        ("p50 ms", fun r -> Gated_sweep.fmt_opt 1 r.p50_ms);
        ("p99 ms", fun r -> Gated_sweep.fmt_opt 1 r.p99_ms);
        ("fo p99", fun r -> Gated_sweep.fmt_opt 1 r.failover_p99_ms);
        ("retry", fun r -> string_of_int r.retries);
        ("hedge", fun r -> string_of_int r.hedges);
        ("cancel", fun r -> string_of_int r.cancelled);
        ("crash", fun r -> string_of_int r.crashes);
        ("restart", fun r -> string_of_int r.restarts);
        ("tmo", fun r -> string_of_int r.timeouts);
        ("waste", fun r -> string_of_int r.wasted);
        ("lost", fun r -> string_of_int r.lost);
        ("viol", fun r -> string_of_int (violations r));
      ];
    violations;
    gate =
      Printf.sprintf
        "DELIVERY CONTRACT VIOLATION: %d breach(es) — double-serve, shed-and-served, \
         unaccounted completion, or dangling attempt";
    checks =
      (fun rows ->
        match acceptance rows with
        | [] -> []
        | msgs -> [ "ACCEPTANCE FAILED: " ^ String.concat "; " msgs ]);
  }
