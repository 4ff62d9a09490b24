(* fleet-open: an open loop driving a multi-node cluster with failover on.
   A few hundred small C-like functions run under GH on 4 nodes of 8
   cores; Poisson arrivals, generated here from the seed, are submitted at
   their due times and timed from them. Each pass offers a fixed ladder of
   rates, one fresh fleet per rung. Tiny address spaces leave placement,
   queues, heartbeats and cold starts a large share of host time — the
   workload where an engine or plumbing change shows. *)

module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Metrics = Gh_sim.Metrics
module Registry = Gh_isolation.Registry
module Fm = Gh_faas.Function_model
module Intf = Common.Intf
module Request = Gh_faas.Request
module Node = Gh_faas.Node
module Cluster = Gh_faas.Cluster

type params = {
  n_functions : int;
  n_nodes : int;
  cores_per_node : int;
  rungs_rps : float list;  (** The fixed rate ladder, ascending. *)
  nominal_rps : float;  (** The rung whose latency is reported. *)
  requests_per_rung : int;
  p99_limit_ms : float;
}

let params = function
  | Common.Normal ->
      {
        n_functions = 256;
        n_nodes = 4;
        cores_per_node = 8;
        rungs_rps = [ 1000.0; 2000.0; 3000.0; 4000.0; 5000.0; 6000.0 ];
        nominal_rps = 3000.0;
        requests_per_rung = 4000;
        p99_limit_ms = 100.0;
      }
  | Common.Tiny ->
      {
        n_functions = 8;
        n_nodes = 2;
        cores_per_node = 2;
        rungs_rps = [ 200.0; 400.0 ];
        nominal_rps = 200.0;
        requests_per_rung = 40;
        p99_limit_ms = 100.0;
      }

let warmup_ns = Time_ns.of_sec 1.0
let hb_ns = Time_ns.of_ms 100.0

(* Small C functions: ~1 ms of compute (lognormal), 400-1500 mapped
   pages, a few dozen dirtied. *)
let specs ~seed p =
  let rng = Rng.create (seed lxor 0xf1ee7) in
  Array.init p.n_functions (fun i ->
      let mapped = Rng.int_in rng 400 1500 in
      {
        Fm.default_spec with
        Fm.name = Printf.sprintf "f%03d" i;
        exec_ns = Time_ns.of_ms (Float.min 8.0 (Rng.lognormal rng ~mu:0.0 ~sigma:0.6));
        exec_jitter = 0.05;
        mapped_pages = mapped;
        dirtied_pages = Rng.int_in rng 4 40;
        read_pages = Rng.int_in rng 50 (mapped / 4);
        input_kb = Rng.int_in rng 1 4;
      })

(* Zipf(0.9) popularity over the functions: a hot head stays warm, the
   tail keeps cold-starting containers mid-run. *)
let popularity n =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** 0.9)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* The first function whose cumulative share reaches [u]. *)
let pick cdf u =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cdf - 1)

(* Arrivals of one rung: (due instant, function index), Poisson. *)
let arrivals ~seed p ~rate =
  let rng = Rng.create (seed lxor Hashtbl.hash ("arrivals", rate)) in
  let cdf = popularity p.n_functions in
  let mean_gap = 1e9 /. rate in
  let t = ref (float_of_int warmup_ns) in
  List.init p.requests_per_rung (fun _ ->
      t := !t +. Rng.exponential rng ~mean:mean_gap;
      (int_of_float !t, pick cdf (Rng.float rng 1.0)))

type rung = {
  rate : float;
  e2e_ns : int array;  (** Per served request, from its due time. *)
  served : int;
  failed : int;
  backlog_growing : bool;
  outstanding_high_water : int;
  stats : Cluster.stats;
  cold_starts : int;
  completed : int;
}

(* A per-function node counter ([n<i>.node.<fn>.<field>]) summed over the
   fleet's members and functions. *)
let node_counter metrics field =
  let is_node_counter name =
    String.starts_with ~prefix:"n" name
    && String.ends_with ~suffix:("." ^ field) name
    && List.mem "node" (String.split_on_char '.' name)
  in
  List.fold_left
    (fun acc (name, m) ->
      match m with
      | Metrics.Counter c when is_node_counter name ->
          acc + Metrics.counter_value c
      | _ -> acc)
    0 (Metrics.snapshot metrics)

let cluster_config p =
  {
    Cluster.default_config with
    Cluster.n_nodes = p.n_nodes;
    node =
      {
        Node.default_config with
        Node.total_cores = p.cores_per_node;
        memory_mb = 65_536;
        dispatch_ns = Common.dispatch_ns;
      };
    placement = Cluster.Warm_aware;
    failover = true;
    hb_interval = hb_ns;
    response_timeout = Time_ns.of_sec 2.0;
  }

(* The delivery contract of one drained rung: the generator was never
   late, every request settled exactly once, node completions are
   conserved, and nothing is left in flight. *)
let check_delivery out ~name ~offered ~served ~failed ~double ~late (s : Cluster.stats) =
  Out.check out (late = 0) "%s: the generator ran late %d times" name late;
  Out.check out (double = 0) "%s: %d requests delivered twice or both served and failed" name
    double;
  Out.check out (served + failed = offered) "%s: %d of %d requests settled" name
    (served + failed) offered;
  Out.check out
    (s.Cluster.node_completions
    = s.Cluster.served + s.Cluster.wasted_responses + s.Cluster.lost_responses)
    "%s: conservation broken: %d node completions vs %d served + %d wasted + %d lost" name
    s.Cluster.node_completions s.Cluster.served s.Cluster.wasted_responses
    s.Cluster.lost_responses;
  Out.check out
    (s.Cluster.inflight = 0 && s.Cluster.pending_requests = 0)
    "%s: not drained (inflight %d, pending %d)" name s.Cluster.inflight s.Cluster.pending_requests

(* One rung: set-up (fleet, deployment, one warm-up request per function)
   then the measured open loop, drained. *)
let rung ?tr out ~seed p specs ~gh ~rate =
  let measuring = ref false in
  let (engine, cluster, arrivals), setup =
    Common.measure (fun () ->
        let arrivals = arrivals ~seed p ~rate in
        let last = List.fold_left (fun acc (t, _) -> max acc t) warmup_ns arrivals in
        let horizon = last + Time_ns.of_sec 3.0 in
        let engine = Engine.create () in
        let root = Rng.create (seed lxor Hashtbl.hash ("fleet", rate)) in
        let builds = ref 0 in
        let make_strategy _name spec =
          incr builds;
          let rng = Rng.named_split root (Printf.sprintf "c%d" !builds) in
          match
            Layer.wrap tr ~layer:"isolation" "init" (fun () ->
                Registry.make Registry.Gh ~verify:Groundhog_core.Manager.Verify_full ~rng spec)
          with
          | Ok s ->
              if !measuring then Common.built gh s;
              Common.instrument ?tr s ~on_invoke:(fun inv ->
                  Out.check out inv.Intf.isolated "fleet: GH invocation not isolated";
                  (match inv.Intf.verify with
                  | Intf.Verify_failed msg ->
                      Out.check out false "fleet: restore audit failed: %s" msg
                  | _ -> ());
                  if !measuring then Common.tally gh inv)
          | Error msg -> failwith ("fleet-open: " ^ msg)
        in
        let cluster =
          Cluster.create ~rng:(Rng.named_split root "cluster") engine (cluster_config p)
            ~make_strategy
        in
        Array.iter (fun spec -> Cluster.register cluster ~name:spec.Fm.name spec) specs;
        Cluster.start cluster ~until:horizon;
        Array.iteri
          (fun i spec ->
            Engine.at engine ~time:0 (fun () ->
                Cluster.submit cluster ~name:spec.Fm.name
                  (Request.make ~id:(1_000_000 + i) ~principal:Common.principals.(i land 1)
                     ~input_kb:spec.Fm.input_kb ())
                  ~on_response:(fun _ _ -> ())))
          specs;
        Layer.wrap tr ~layer:"faas_engine" "run" (fun () -> Engine.run engine ~until:warmup_ns);
        (engine, cluster, arrivals))
  in
  measuring := true;
  let n = List.length arrivals in
  let e2e = Array.make n (-1) in
  let served = ref 0 and failed = ref 0 and double = ref 0 and late = ref 0 in
  let failed_ids = Hashtbl.create 16 in
  let outstanding = ref 0 and high_water = ref 0 in
  let samples = Array.make n 0 in
  Cluster.set_on_failed cluster (fun req ->
      Layer.wrap tr ~layer:"bench" "on_failed" (fun () ->
          let id = req.Request.id in
          if id < n then begin
            if e2e.(id) >= 0 || Hashtbl.mem failed_ids id then incr double;
            Hashtbl.replace failed_ids id ();
            incr failed;
            decr outstanding
          end
          else Out.check out false "fleet: warm-up request %d failed" id));
  let (), host =
    Common.measure (fun () ->
        Engine.at_batch engine
          (List.mapi
             (fun id (due, fn) ->
               ( due,
                 fun () ->
                   if Engine.now engine <> due then incr late;
                   samples.(id) <- !outstanding;
                   incr outstanding;
                   high_water := max !high_water !outstanding;
                   let spec = specs.(fn) in
                   Cluster.submit cluster ~name:spec.Fm.name
                     (Request.make ~id ~principal:Common.principals.(id land 1)
                        ~input_kb:spec.Fm.input_kb ())
                     ~on_response:(fun _ _ ->
                       Layer.wrap tr ~layer:"bench" "on_response" (fun () ->
                           if e2e.(id) >= 0 || Hashtbl.mem failed_ids id then incr double
                           else begin
                             e2e.(id) <- Engine.now engine - due;
                             incr served;
                             decr outstanding
                           end)) ))
             arrivals);
        Layer.wrap tr ~layer:"faas_engine" "run_all" (fun () -> Engine.run_all engine))
  in
  let s = Cluster.stats cluster in
  let name = Printf.sprintf "fleet %.0f rps" rate in
  check_delivery out ~name ~offered:n ~served:!served ~failed:!failed ~double:!double ~late:!late s;
  (* A growing backlog: requests outstanding at arrival keep climbing —
     the last quarter's mean is well above the second quarter's. *)
  let quarter k =
    let lo = k * n / 4 and hi = (k + 1) * n / 4 in
    let sum = ref 0 in
    for i = lo to hi - 1 do
      sum := !sum + samples.(i)
    done;
    float_of_int !sum /. float_of_int (max 1 (hi - lo))
  in
  let fleet_cores = p.n_nodes * p.cores_per_node in
  let backlog_growing = quarter 3 > (1.5 *. quarter 1) +. float_of_int fleet_cores in
  let metrics = Cluster.metrics cluster in
  ( {
      rate;
      e2e_ns = Array.of_list (List.filter (fun x -> x >= 0) (Array.to_list e2e));
      served = !served;
      failed = !failed;
      backlog_growing;
      outstanding_high_water = !high_water;
      stats = s;
      cold_starts = node_counter metrics "cold_starts";
      completed = node_counter metrics "completed";
    },
    setup,
    host )

type sim = { p : params; rungs : rung list; gh : Common.gh_tally }

let ms_of ns = float_of_int ns /. 1e6

(* A failed request counts as missing any latency limit: it enters the
   quantiles as the largest float. *)
let latencies_ms r =
  List.map ms_of (Array.to_list r.e2e_ns) @ List.init r.failed (fun _ -> Float.max_float)

let p99_ms r = Common.quantile 99.0 (latencies_ms r)
let meets p r = (not r.backlog_growing) && p99_ms r <= p.p99_limit_ms

let digest rungs gh =
  let b = Buffer.create 65536 in
  List.iter
    (fun r ->
      let s = r.stats in
      Printf.bprintf b "%h served=%d failed=%d growing=%b hw=%d cold=%d completed=%d" r.rate
        r.served r.failed r.backlog_growing r.outstanding_high_water r.cold_starts r.completed;
      Printf.bprintf b " retries=%d hedges=%d wasted=%d lost=%d node_completions=%d timeouts=%d:"
        s.Cluster.retries s.Cluster.hedges s.Cluster.wasted_responses s.Cluster.lost_responses
        s.Cluster.node_completions s.Cluster.attempt_timeouts;
      Array.iter (Printf.bprintf b " %d") r.e2e_ns;
      Buffer.add_char b '\n')
    rungs;
  Common.digest_gh b gh;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pass ?tr out ~seed p specs =
  let gh = Common.gh_tally () in
  let results = List.map (fun rate -> rung ?tr out ~seed p specs ~gh ~rate) p.rungs_rps in
  let rungs = List.map (fun (r, _, _) -> r) results in
  let sum f = List.fold_left (fun acc x -> Common.add_cost acc (f x)) Common.zero_cost results in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rungs in
  ( {
      Workload.setup = sum (fun (_, s, _) -> s);
      host = sum (fun (_, _, h) -> h);
      digest = digest rungs gh;
      measured = total (fun r -> r.served + r.failed);
      failed = total (fun r -> r.failed);
      engine_requests = total (fun r -> r.served + r.failed) + (List.length rungs * p.n_functions);
    },
    { p; rungs; gh } )

let report out { p; rungs; gh } ~requests ~host_s =
  let at rate = List.find (fun r -> r.rate = rate) rungs in
  let nominal = at p.nominal_rps in
  let first = List.hd rungs and last = List.nth rungs (List.length rungs - 1) in
  Out.metric out "sim_p50_ms" "sim_ms" (Common.median (latencies_ms nominal));
  Out.metric out "sim_p99_ms" "sim_ms" (p99_ms nominal);
  Out.metric out "sim_p99_ms.low" "sim_ms" (p99_ms first);
  Out.metric out "sim_p99_ms.high" "sim_ms" (p99_ms last);
  Out.note out "sim_p50_ms/sim_p99_ms at the nominal %.0f rps rung over %d served requests"
    p.nominal_rps (Array.length nominal.e2e_ns);
  let max_rps = List.fold_left (fun acc r -> if meets p r then r.rate else acc) 0.0 rungs in
  Out.metric out "sim_max_rps" "req/s" max_rps;
  Out.metric out "sim_req_per_host_s" "req/s" (float_of_int requests /. host_s);
  List.iter
    (fun r ->
      let s = r.stats in
      Out.note out
        "rung %6.0f rps: served %d failed %d p50 %.3f ms p99 %.3f ms outstanding<=%d \
         growing=%b cold %d retries %d %s"
        r.rate r.served r.failed (Common.median (latencies_ms r)) (p99_ms r) r.outstanding_high_water
        r.backlog_growing r.cold_starts s.Cluster.retries
        (if meets p r then "meets" else "misses"))
    rungs;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rungs in
  let fsum f = float_of_int (sum f) in
  Out.metric out "cluster.retries" "count" (fsum (fun r -> r.stats.Cluster.retries));
  Out.metric out "cluster.hedges" "count" (fsum (fun r -> r.stats.Cluster.hedges));
  Out.metric out "cluster.wasted_responses" "count"
    (fsum (fun r -> r.stats.Cluster.wasted_responses));
  Out.metric out "cluster.lost_responses" "count" (fsum (fun r -> r.stats.Cluster.lost_responses));
  Out.metric out "cluster.useful_ratio" "ratio"
    (fsum (fun r -> r.stats.Cluster.served)
    /. Float.max 1.0 (fsum (fun r -> r.stats.Cluster.node_completions)));
  Out.metric out "node.cold_starts" "count" (fsum (fun r -> r.cold_starts));
  Out.metric out "node.warm_ratio" "ratio"
    (1.0 -. (fsum (fun r -> r.cold_starts) /. Float.max 1.0 (fsum (fun r -> r.completed))));
  Out.metric out "cluster.outstanding_high_water" "requests"
    (float_of_int (List.fold_left (fun acc r -> max acc r.outstanding_high_water) 0 rungs));
  Common.gh_metrics out gh

let workload ~seed ~size =
  let p = params size in
  let specs = specs ~seed p in
  {
    Workload.verify_is_free = true;
    pass = (fun ?tr out ~verify:_ -> pass ?tr out ~seed p specs);
    report;
    probe_specs = [ specs.(0); specs.(p.n_functions / 2) ];
    deploy_probe = None;
  }
