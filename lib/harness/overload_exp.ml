(* Overload sweep: open-loop bursty arrivals at a multiple of each
   strategy's measured capacity, with the platform's overload protection
   (deadlines + bounded EDF admission + brownout) on and off.

   The claim under test: with protection on, goodput (completions within
   deadline) plateaus at capacity instead of collapsing, requests that
   cannot make their deadline are shed before they consume a core or a
   restore, and no request is ever served by a non-clean process — even
   while brownout defers Groundhog's restores. With protection off the
   same arrival stream (same seed, same instants) drives the queues to
   divergence and the tail to collapse.

   Determinism: arrivals are keyed by (seed, strategy, utilization) and
   shared between the protected and unprotected runs; shedding is
   policy-deterministic (no randomness), so the whole sweep — including
   every drop decision — replays bit-identically from the seed. *)

module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Stats = Gh_sim.Stats
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Synthetic = Gh_workloads.Synthetic
module Fm = Gh_faas.Function_model
module Request = Gh_faas.Request
module Principal = Gh_faas.Principal
module Admission = Gh_faas.Admission
module Brownout = Gh_faas.Brownout
module Node = Gh_faas.Node

type row = {
  strategy : Registry.id;
  protected : bool;
  util : float;
  offered : int;
  offered_rps : float;
  completed : int;
  goodput : int;  (** Completed within the deadline budget. *)
  goodput_rps : float;
  shed : int;
  expired : int;
  failed : int;
  deadline_misses : int;  (** Late completions, as counted by the node. *)
  miss_rate : float;  (** Late completions / completions. *)
  p50_ms : float;
  p99_ms : float;
  queue_high_water : int;
  cold_starts : int;
  brownout_escalations : int;
  unsafe_served : int;  (** Dispatches to a non-clean process. Must be 0. *)
  leaked_words : int;  (** Foreign residue words served by an isolating strategy. *)
  shed_served : int;  (** Shed requests that still consumed work. Must be 0. *)
  late_uncounted : int;  (** Late completions the node failed to count. Must be 0. *)
}

type cell = (float * Registry.id) * bool

let principals =
  Array.append Gated_sweep.principals
    (* Best-effort tenant: first to go when brownout reaches [Shedding]. *)
    [| Principal.with_priority (Principal.make ~id:3 ~name:"carol") 0 |]

let measure cfg strategy spec ~util ~requests ~protected =
  let seed =
    cfg.Config.seed lxor Hashtbl.hash ("overload", spec.Fm.name, Registry.to_string strategy)
  in
  let service = Gated_sweep.service_ns cfg strategy spec ~seed:(seed lxor 0x5eed) in
  let cores = cfg.Config.n_containers in
  let capacity_rps = float_of_int cores *. 1.0e9 /. float_of_int service in
  let rate_rps = util *. capacity_rps in
  (* Deadline budget: generous at light load (queueing headroom) but far
     below the divergence latencies an unbounded queue reaches. *)
  let ttl = max (Time_ns.of_ms 50.0) (8 * service) in
  (* One warm-up request per core at t=0 (no deadline, uncounted) pays the
     container cold starts before measurement; arrivals begin afterwards so
     every cell measures the steady warm pool, not the boot transient. *)
  let warmup = Time_ns.of_sec 30.0 in
  (* Protected and unprotected runs share the arrival stream verbatim. *)
  let arrivals =
    let arng = Rng.create (seed lxor Hashtbl.hash ("arrivals", util)) in
    List.map
      (fun t -> t + warmup)
      (Synthetic.burst ~duty:0.5 ~cycle_s:1.0 arng ~rate_rps ~n:requests)
  in
  let root = Rng.create seed in
  let engine = Engine.create () in
  let stats = Gated_sweep.guard_stats () in
  let builds = ref 0 in
  let make_strategy _name sp =
    incr builds;
    match
      Registry.make strategy ~rng:(Rng.named_split root (Printf.sprintf "c%d" !builds)) sp
    with
    | Ok s -> Gated_sweep.guard stats s
    | Error msg -> failwith ("Overload_exp: " ^ msg)
  in
  let node_config =
    {
      Node.total_cores = cores;
      memory_mb = 65_536;
      idle_timeout = Time_ns.of_sec 600.0;
      dispatch_ns = cfg.Config.dispatch_ns;
      recovery = None;
      admission =
        (if protected then Admission.bounded ~policy:Admission.Edf_drop (6 * cores)
         else Admission.unbounded);
      brownout =
        (if protected then
           Some
             {
               Brownout.target_delay_ns = max (Time_ns.of_ms 5.0) (ttl / 3);
               escalate_after = 6;
               recover_after = 8;
               hysteresis = 0.5;
               shed_below_priority = 1;
             }
         else None);
      scrub = None;
    }
  in
  (* Each (strategy, protection, utilization) cell gets its own metric
     namespace so one shared registry can hold the whole sweep. *)
  let metrics_prefix =
    Printf.sprintf "overload.%s.%s.u%.1f." (Registry.to_string strategy)
      (if protected then "prot" else "raw")
      util
  in
  let node =
    Node.create ?spans:cfg.Config.spans ?metrics:cfg.Config.metrics
      ?series:cfg.Config.series ~slos:cfg.Config.slos ~metrics_prefix engine node_config
      ~make_strategy
  in
  let fn = "overload-fn" in
  Node.register node ~name:fn spec;
  let shed_ids = Hashtbl.create 64 in
  Node.set_on_shed node (fun _reason req -> Hashtbl.replace shed_ids req.Request.id ());
  (* id -> (arrival, completion): the experiment's own late-completion
     recount, independent of the node's deadline_misses counter. *)
  let completions = Hashtbl.create 256 in
  for i = 1 to cores do
    Engine.at engine ~time:0 (fun () ->
        Node.submit node ~name:fn
          (Request.make ~id:(2_000_000 + i)
             ~principal:principals.(i mod Array.length principals)
             ~input_kb:spec.Fm.input_kb ()))
  done;
  (* Batch-admit the whole burst in one pass; list order keeps the FIFO
     tie-break identical to the per-arrival [Engine.at] loop it replaces. *)
  Engine.at_batch engine
    (List.mapi
       (fun i at ->
         let id = i + 1 in
         ( at,
           fun () ->
             let req =
               Request.make ~id
                 ~principal:principals.(i mod Array.length principals)
                 ~input_kb:spec.Fm.input_kb
                 ?deadline:(if protected then Some (at + ttl) else None)
                 ()
             in
             Node.submit node ~name:fn req ~on_complete:(fun rq _inv ->
                 Hashtbl.replace completions rq.Request.id (at, Engine.now engine)) ))
       arrivals);
  Engine.run_all engine;
  let offered = List.length arrivals in
  let duration_s =
    let last = List.fold_left max 0 arrivals and first = List.fold_left min max_int arrivals in
    Float.max 1e-9 (Time_ns.to_ms (last - first + ttl) /. 1000.0)
  in
  let completed = Hashtbl.length completions in
  let e2e_ms = ref [] in
  let misses_recounted = ref 0 in
  Hashtbl.iter
    (fun _ (arrival, finish) ->
      e2e_ms := Time_ns.to_ms (finish - arrival) :: !e2e_ms;
      if finish > arrival + ttl then incr misses_recounted)
    completions;
  let goodput = completed - !misses_recounted in
  let shed_served =
    Hashtbl.fold
      (fun id () n -> if Hashtbl.mem stats.Gated_sweep.served id then n + 1 else n)
      shed_ids 0
  in
  let reported_misses = Node.total_deadline_misses node in
  let late_uncounted = if protected then abs (!misses_recounted - reported_misses) else 0 in
  let failed =
    List.fold_left (fun n (s : Node.fn_stats) -> n + s.Node.failed_requests) 0 (Node.stats node)
  in
  let qhw =
    List.fold_left (fun n (s : Node.fn_stats) -> max n s.Node.queue_high_water) 0
      (Node.stats node)
  in
  let summary =
    match !e2e_ms with
    | [] -> None
    | samples -> Some (Stats.summarize (Array.of_list samples))
  in
  {
    strategy;
    protected;
    util;
    offered;
    offered_rps = rate_rps;
    completed;
    goodput;
    goodput_rps = float_of_int goodput /. duration_s;
    shed = Node.total_shed node;
    expired = Node.total_expired node;
    failed;
    deadline_misses = reported_misses;
    miss_rate =
      (if completed = 0 then 0.0
       else float_of_int !misses_recounted /. float_of_int completed);
    p50_ms = (match summary with Some s -> s.Stats.median | None -> Float.nan);
    p99_ms = (match summary with Some s -> s.Stats.p99 | None -> Float.nan);
    queue_high_water = qhw;
    cold_starts = Node.total_cold_starts node;
    brownout_escalations = Node.brownout_escalations node;
    unsafe_served = stats.Gated_sweep.unsafe;
    leaked_words = stats.Gated_sweep.leaks;
    shed_served;
    late_uncounted;
  }

(* The gate: every way a run can violate the overload contract, summed.
   [unsafe_served]: a request dispatched into a non-clean process;
   [leaked_words]: cross-principal residue served by an isolating strategy;
   [shed_served]: a shed request that nevertheless consumed work;
   [late_uncounted]: a completion past its deadline the node missed. *)
let violations r = r.unsafe_served + r.leaked_words + r.shed_served + r.late_uncounted

let grid utils =
  Gated_sweep.(product (product utils [ Registry.Base; Registry.Gh ]) [ true; false ])

let sweep =
  {
    Gated_sweep.name = "overload";
    doc =
      "Sweep offered load past capacity with overload protection (deadlines, bounded EDF \
       admission, brownout) on and off; exits nonzero if any request was served by a \
       non-clean process, a shed request consumed work, or a late completion went \
       uncounted.";
    benchmark = "deltablue (p)";
    benchmark_doc = "Benchmark to overload.";
    n = 240;
    n_doc = "Arrivals per (strategy, protection, utilization) cell.";
    grid = grid [ 0.5; 0.8; 1.1; 1.5; 2.0 ];
    smoke = grid [ 0.8; 1.6 ];
    smoke_n = 90;
    smoke_doc = "Tiny CI run: two utilization points, few requests.";
    cell =
      (fun cfg entry ~requests ((util, strategy), protected) ->
        let spec = entry.Catalog.spec in
        if Registry.supports strategy spec then
          Some (measure cfg strategy spec ~util ~requests ~protected)
        else None);
    title =
      (fun entry ->
        Printf.sprintf
          "Overload sweep on %s: bursty open-loop arrivals at a multiple of measured \
           capacity, protection (deadlines + bounded EDF admission + brownout) on vs off. \
           Goodput = completions within deadline; with protection on it plateaus at \
           capacity instead of collapsing. 'unsafe' must be 0: no request is ever served \
           by a non-clean process, shed requests consume no work, late completions are \
           always counted."
          entry.Catalog.display);
    columns =
      [
        ("util", fun r -> Printf.sprintf "%.1fx" r.util);
        ("strategy", fun r -> String.uppercase_ascii (Registry.to_string r.strategy));
        ("prot", fun r -> if r.protected then "on" else "off");
        ("offered", fun r -> string_of_int r.offered);
        ("done", fun r -> string_of_int r.completed);
        ("goodput", fun r -> string_of_int r.goodput);
        ("gp r/s", fun r -> Printf.sprintf "%.1f" r.goodput_rps);
        ("shed", fun r -> string_of_int r.shed);
        ("expired", fun r -> string_of_int r.expired);
        ("fail", fun r -> string_of_int r.failed);
        ("late", fun r -> string_of_int r.deadline_misses);
        ("p50 ms", fun r -> Gated_sweep.fmt_opt 1 r.p50_ms);
        ("p99 ms", fun r -> Gated_sweep.fmt_opt 1 r.p99_ms);
        ("q hi", fun r -> string_of_int r.queue_high_water);
        ("cold", fun r -> string_of_int r.cold_starts);
        ("brown", fun r -> string_of_int r.brownout_escalations);
        ("unsafe", fun r -> string_of_int (violations r));
      ];
    violations;
    gate =
      Printf.sprintf
        "OVERLOAD CONTRACT VIOLATION: %d breach(es) — non-clean serve, leaked residue, \
         shed request consuming work, or uncounted late completion";
    checks = (fun _ -> []);
  }
