(* Helpers shared by the workloads: host-side measurement of a pass, the
   repeat-until-deadline loop, quantiles, and the strategy wrapper that
   checks and tallies every invocation. *)

module Intf = Gh_faas.Strategy_intf
module Breakdown = Groundhog_core.Breakdown

type size = Normal | Tiny

(* The invoker dispatch overhead the harness configs use. *)
let dispatch_ns = Gh_sim.Time_ns.of_us 800.0

let principals =
  [| Gh_faas.Principal.make ~id:1 ~name:"alice"; Gh_faas.Principal.make ~id:2 ~name:"bob" |]

(* Host cost of one call: wall seconds, the same scaled to the reference
   speed ({!Calib}), words allocated, collections. *)
type cost = {
  host_s : float;
  scaled_s : float;
  words : float;
  minor_gcs : int;
  major_gcs : int;
}

let measure f =
  let before = Calib.last () in
  let s0 = Gc.quick_stat () and w0 = Layer.alloc_words () in
  let t0 = Layer.now_ns () in
  let v = f () in
  let t1 = Layer.now_ns () in
  let s1 = Gc.quick_stat () and w1 = Layer.alloc_words () in
  let host_s = float_of_int (t1 - t0) /. 1e9 in
  ( v,
    {
      host_s;
      scaled_s = Calib.scale ~before ~after:(Calib.sample ()) host_s;
      words = w1 -. w0;
      minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let add_cost a b =
  {
    host_s = a.host_s +. b.host_s;
    scaled_s = a.scaled_s +. b.scaled_s;
    words = a.words +. b.words;
    minor_gcs = a.minor_gcs + b.minor_gcs;
    major_gcs = a.major_gcs + b.major_gcs;
  }

let zero_cost = { host_s = 0.0; scaled_s = 0.0; words = 0.0; minor_gcs = 0; major_gcs = 0 }

(* Run [f] until [seconds] of host time have passed since the call, at
   least [min_runs] times; results in run order. *)
let repeat ?(min_runs = 1) ~seconds f =
  let deadline = Layer.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go i acc =
    if i >= min_runs && Layer.now_ns () >= deadline then List.rev acc else go (i + 1) (f i :: acc)
  in
  go 0 []

let quantile q xs =
  match xs with
  | [] -> nan
  | _ -> Gh_sim.Stats.percentile (Array.of_list (List.sort Float.compare xs)) q

let median xs = quantile 50.0 xs
let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

(* The end-to-end host metrics every workload reports: medians over the
   run's (set-up, measured part) pairs. [setup_s] and [host_s] are scaled
   to the reference speed; the wall medians are reported beside them. *)
let host_metrics out passes =
  let med f = median (List.map f passes) in
  Out.metric out "setup_s" "s" (med (fun (s, _) -> s.scaled_s));
  Out.metric out "host_s" "s" (med (fun (_, h) -> h.scaled_s));
  Out.metric out "alloc_mwords" "Mwords" (med (fun (_, h) -> h.words /. 1e6));
  Out.metric out "peak_heap_mb" "MiB" (peak_heap_mb ());
  Out.metric out "setup_wall_s" "s" (med (fun (s, _) -> s.host_s));
  Out.metric out "host_wall_s" "s" (med (fun (_, h) -> h.host_s));
  Out.metric out "calib_kernel_s" "s" (median !Calib.samples);
  let show f = String.concat " " (List.map (fun p -> Printf.sprintf "%.6f" (f p)) passes) in
  Out.note out "%d passes; scaled host_s: %s" (List.length passes)
    (show (fun (_, h) -> h.scaled_s));
  Out.note out "wall host_s: %s" (show (fun (_, h) -> h.host_s));
  Out.note out "wall setup_s: %s" (show (fun (s, _) -> s.host_s))

(* Exact simulated tallies over GH invocations: the restore counts and
   step times of [invocation.breakdown], the audit's verified blocks, and
   the critical-path attribution. *)
type gh_tally = {
  mutable invocations : int;
  mutable restores : int;
  mutable breakdown : Breakdown.t;
  mutable verified_blocks : int;
  mutable on_path_ns : int;
  mutable post_ns : int;
  mutable containers : int;
  mutable init_ns : int;
}

let gh_tally () =
  {
    invocations = 0;
    restores = 0;
    breakdown = Breakdown.zero;
    verified_blocks = 0;
    on_path_ns = 0;
    post_ns = 0;
    containers = 0;
    init_ns = 0;
  }

(* A GH container was built: its one-time initialization is what a cold
   start puts on a request's critical path. *)
let built g (s : Intf.t) =
  g.containers <- g.containers + 1;
  g.init_ns <- g.init_ns + s.Intf.init_ns

let tally g (inv : Intf.invocation) =
  g.invocations <- g.invocations + 1;
  g.on_path_ns <- g.on_path_ns + inv.Intf.on_path_ns;
  g.post_ns <- g.post_ns + inv.Intf.post_ns;
  (match inv.Intf.breakdown with
  | Some b ->
      g.restores <- g.restores + 1;
      g.breakdown <- Breakdown.add g.breakdown b
  | None -> ());
  match inv.Intf.verify with Intf.Verified n -> g.verified_blocks <- g.verified_blocks + n | _ -> ()

(* Every tally as text, for a pass's simulated digest. *)
let digest_gh b g =
  let d = g.breakdown in
  Printf.bprintf b
    "gh invocations=%d restores=%d containers=%d init=%d on_path=%d post=%d verified=%d \
     scanned=%d restored=%d madvised=%d syscalls=%d threads=%d steps:"
    g.invocations g.restores g.containers g.init_ns g.on_path_ns g.post_ns g.verified_blocks
    d.Breakdown.pages_scanned d.Breakdown.pages_restored d.Breakdown.pages_madvised
    d.Breakdown.syscalls_injected d.Breakdown.threads;
  List.iter (fun (_, ns) -> Printf.bprintf b " %d" ns) (Breakdown.steps d);
  Buffer.add_char b '\n'

let step_metric_name label =
  "restore.sim_"
  ^ String.map (fun c -> if c = '-' then '_' else c) (String.lowercase_ascii label)
  ^ "_us"

(* Per-GH-request simulated values (exact: they repeat bit for bit). *)
let gh_metrics out g =
  let per_req n = float_of_int n /. float_of_int (max 1 g.invocations) in
  let b = g.breakdown in
  Out.metric out "restore.pages_scanned" "pages" (per_req b.Breakdown.pages_scanned);
  Out.metric out "restore.pages_restored" "pages" (per_req b.Breakdown.pages_restored);
  Out.metric out "restore.pages_madvised" "pages" (per_req b.Breakdown.pages_madvised);
  Out.metric out "restore.syscalls_injected" "count" (per_req b.Breakdown.syscalls_injected);
  Out.metric out "restore.verified_blocks" "blocks" (per_req g.verified_blocks);
  List.iter
    (fun (label, ns) -> Out.metric out (step_metric_name label) "sim_us" (per_req ns /. 1e3))
    (Breakdown.steps b);
  Out.metric out "isolation.sim_on_path_ms" "sim_ms" (per_req g.on_path_ns /. 1e6);
  Out.metric out "isolation.sim_post_ms" "sim_ms" (per_req g.post_ns /. 1e6);
  Out.metric out "isolation.sim_cold_ms" "sim_ms"
    (float_of_int g.init_ns /. float_of_int (max 1 g.containers) /. 1e6);
  Out.note out "GH tallies over %d invocations (%d restores, %d containers built)" g.invocations
    g.restores g.containers

(* The strategy as the workload deploys it: [on_invoke] sees every
   invocation (output checks, tallies); with a tracer attached, the call
   is an "isolation" span. *)
let instrument ?tr ~on_invoke (s : Intf.t) =
  {
    s with
    Intf.invoke =
      (fun req ->
        let inv = Layer.wrap tr ~layer:"isolation" "invoke" (fun () -> s.Intf.invoke req) in
        on_invoke inv;
        inv);
  }

(* The per-layer host metrics of a traced, engine-driven pass: isolation
   init and invoke spans, and the engine's self time (its [run_all] time
   minus strategy closures and the benchmark's own callbacks). *)
let engine_layer_metrics out (tr : Layer.t) ~requests =
  let invokes = Layer.samples tr ~layer:"isolation" ~name:"invoke" in
  let inits = Layer.samples tr ~layer:"isolation" ~name:"init" in
  let us = List.map (fun (ns, _) -> ns /. 1e3) invokes in
  Out.metric out "isolation.init_ms" "ms" (mean (List.map (fun (ns, _) -> ns /. 1e6) inits));
  Out.metric out "isolation.invoke_us.p50" "us" (quantile 50.0 us);
  Out.metric out "isolation.invoke_us.p99" "us" (quantile 99.0 us);
  Out.metric out "isolation.alloc_words_per_invoke" "words" (mean (List.map snd invokes));
  let total_ns, self_ns, self_words =
    match List.assoc_opt "faas_engine" (Layer.by_layer tr) with
    | Some t -> (t.Layer.total_ns, t.Layer.self_ns, t.Layer.self_words)
    | None -> (0.0, 0.0, 0.0)
  in
  let invoke_ns = List.fold_left (fun acc (ns, _) -> acc +. ns) 0.0 invokes in
  Out.metric out "isolation.invoke_share" "ratio" (invoke_ns /. Float.max 1.0 total_ns);
  let requests = float_of_int (max 1 requests) in
  Out.metric out "faas_engine.us_per_req" "us" (self_ns /. 1e3 /. requests);
  Out.metric out "faas_engine.alloc_words_per_req" "words" (self_words /. requests);
  Out.note out "isolation: %d init spans, %d invoke spans" (List.length inits) (List.length invokes)

(* Self time per layer over the whole traced forest, plus the export. *)
let trace_metrics out (tr : Layer.t) ~trace_out ~untraced_s ~traced_s =
  List.iter
    (fun (layer, (t : Layer.totals)) ->
      Out.metric out (layer ^ ".self_s") "s" (t.Layer.self_ns /. 1e9))
    (Layer.by_layer tr);
  Out.metric out "trace.overhead_pct" "%" (100.0 *. ((traced_s /. untraced_s) -. 1.0));
  match Layer.export tr with
  | Error msg -> Out.check out false "trace export: %s" msg
  | Ok (doc, events) ->
      Out.note out "span forest: %d spans, %d chrome events, Span.check ok"
        (Gh_sim.Span.count tr.Layer.spans) events;
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc -> output_string oc doc);
          Out.note out "chrome trace written to %s" path)
        trace_out
