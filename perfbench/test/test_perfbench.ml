(* The benchmark's own tests, at the smallest input size: every workload
   emits every metric BENCHMARK.json declares, with a valid name and the
   declared unit, and a broken output fails the run. *)

open Perfbench
module Json = Gh_sim.Json

let spec =
  lazy
    (let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
     match Json.of_string text with
     | Ok j -> j
     | Error msg -> failwith ("BENCHMARK.json: " ^ msg))

let declared key =
  let str k m = Option.get (Option.bind (Json.member k m) Json.to_str) in
  List.map
    (fun m -> (str "name" m, str "unit" m))
    (Option.get (Option.bind (Json.member key (Lazy.force spec)) Json.to_list))

let name_ok s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let unit_ok s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       s

let options ?expect_md5 workload ~trace =
  {
    Bench.workload;
    seed = 7;
    seconds = 0.0;
    trace;
    size = Common.Tiny;
    profile = "quick";
    expect_md5;
    trace_out = None;
    provenance = [];
  }

let check_declared workload ~trace out =
  Alcotest.(check bool) "attempted some work" true (out.Out.attempted >= 1);
  List.iter
    (fun (name, _, unit) ->
      Alcotest.(check bool) (name ^ " is a valid name") true (name_ok name);
      Alcotest.(check bool) (name ^ " has a valid unit") true (unit_ok unit))
    (Out.metrics out);
  let names = List.map (fun (n, _, _) -> n) (Out.metrics out) in
  Alcotest.(check bool) "every metric reported once" true
    (List.length (List.sort_uniq compare names) = List.length names);
  List.iter
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) (Out.metrics out) with
      | None -> Alcotest.failf "%s: declared metric %s not emitted" workload name
      | Some (_, _, u) -> Alcotest.(check string) (name ^ " unit") unit u)
    (declared (if trace then "per_layer" else "end_to_end"))

let emits_declared workload ~trace () =
  let out = Bench.run (options workload ~trace) in
  Alcotest.(check (list string)) "no failed check" [] out.Out.errors;
  check_declared workload ~trace out

(* The tiny profile has no committed baseline, so the untraced runall run
   is given a wrong one: it must still emit every metric, and fail. *)
let runall_wrong_md5 () =
  let out = Bench.run (options ~expect_md5:(String.make 32 '0') "runall" ~trace:false) in
  check_declared "runall" ~trace:false out;
  Alcotest.(check bool) "run marked incorrect" false (Out.correct out);
  Alcotest.(check int) "only the md5 check failed" 1 (List.length out.Out.errors)

let stats ~node_completions =
  {
    Gh_faas.Cluster.submitted = 10;
    served = 10;
    late_served = 0;
    failed = 0;
    retries = 0;
    hedges = 0;
    hedge_cancelled = 0;
    wasted_responses = 1;
    lost_responses = 0;
    msg_lost = 0;
    attempt_timeouts = 0;
    crashes = 0;
    hangs = 0;
    restarts = 0;
    node_completions;
    inflight = 0;
    pending_requests = 0;
    failover_ms = [];
  }

let conservation_checked () =
  let check s =
    let out = Out.create "fleet-open" in
    Fleet.check_delivery out ~name:"t" ~offered:10 ~served:10 ~failed:0 ~double:0 ~late:0 s;
    Out.correct out
  in
  Alcotest.(check bool) "balanced books pass" true (check (stats ~node_completions:11));
  Alcotest.(check bool) "a missing completion fails" false (check (stats ~node_completions:12))

let double_delivery_checked () =
  let out = Out.create "fleet-open" in
  Fleet.check_delivery out ~name:"t" ~offered:10 ~served:10 ~failed:0 ~double:1 ~late:0
    (stats ~node_completions:11);
  Alcotest.(check bool) "a double delivery fails" false (Out.correct out)

let trace_exported () =
  let path = "test_perfbench.trace.json" in
  let out = Bench.run { (options "bigheap-read" ~trace:true) with Bench.trace_out = Some path } in
  Alcotest.(check (list string)) "no failed check" [] out.Out.errors;
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error msg -> Alcotest.fail msg
  | Ok json -> (
      Sys.remove path;
      match Gh_sim.Span.validate_chrome json with
      | Ok n -> Alcotest.(check bool) "has events" true (n > 0)
      | Error msg -> Alcotest.fail msg)

let () =
  let case w ~trace =
    Alcotest.test_case (w ^ if trace then " traced" else "") `Quick (emits_declared w ~trace)
  in
  Alcotest.run "perfbench"
    [
      ( "end-to-end metrics",
        [
          Alcotest.test_case "runall, and a wrong md5 fails the run" `Quick runall_wrong_md5;
          case "fleet-open" ~trace:false;
          case "bigheap-read" ~trace:false;
        ] );
      ("per-layer metrics", List.map (case ~trace:true) Bench.workloads);
      ( "checks",
        [
          Alcotest.test_case "broken conservation fails the run" `Quick conservation_checked;
          Alcotest.test_case "double delivery fails the run" `Quick double_delivery_checked;
          Alcotest.test_case "chrome trace validates" `Quick trace_exported;
        ] );
    ]
