(* runall: the paper sweep as [gh-bench run all --seed S] runs it (the
   body of [Experiments.run_all], one domain), its report checked against
   the committed md5 at seed 42 and for byte identity across passes. About
   85% of its host time is the fig5/fig7 saturation cells over the
   catalog, so the restore copy, the hash audit and the memory model's
   page writes dominate. *)

module Config = Gh_harness.Config
module Experiments = Gh_harness.Experiments
module Catalog = Gh_workloads.Catalog
module Registry = Gh_isolation.Registry
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model

(* The smallest configuration the sweep accepts, for the benchmark's own
   tests; it has no committed baseline. *)
let tiny =
  {
    Config.quick with
    Config.latency_requests = 1;
    latency_requests_medium = 1;
    latency_requests_long = 1;
    tput_requests = 2;
    microbench_requests = 1;
    breakdown_requests = 1;
  }

let config ~seed ~size ~profile =
  let base =
    match (size, profile) with
    | Common.Tiny, _ -> tiny
    | Common.Normal, "full" -> Config.full
    | Common.Normal, _ -> Config.quick
  in
  { base with Config.seed }

(* The full profile's md5 is recorded in ROADMAP.md; the quick profile's
   is the CI gate's file. *)
let full_md5 = "09fde233dc7f8a93b99557ab479b780f"
let quick_md5_file = "ci/runall_quick.md5"

let baseline ~seed ~size ~profile =
  match size with
  | Common.Tiny -> None
  | Common.Normal when seed <> 42 -> None
  | Common.Normal when profile = "full" -> Some full_md5
  | Common.Normal -> (
      match In_channel.with_open_text quick_md5_file In_channel.input_all with
      | s -> Some (String.trim s)
      | exception Sys_error msg -> Some ("unreadable baseline: " ^ msg))

(* Set-up: deploy the catalog — one GH container (build, warm-up,
   snapshot) per entry, the step every sweep cell starts with. A pass
   deploys it five times and keeps the median. *)
let deploy_catalog ~seed =
  List.iteri
    (fun i (e : Catalog.entry) ->
      match
        Registry.make Registry.Gh ~verify:Groundhog_core.Manager.Verify_full
          ~rng:(Rng.create (seed + i)) e.Catalog.spec
      with
      | Ok _ -> ()
      | Error msg -> failwith ("runall: deploy " ^ e.Catalog.display ^ ": " ^ msg))
    Catalog.all

(* The report as [Experiments.run_all] renders it — this is the body of
   [Experiments.run_list]: each experiment of [Experiments.all] behind its
   header, all sharing one cache, concatenated in order. The md5 check
   holds the result to the same bytes. Each experiment is measured on its
   own, so the reference kernel runs between experiments and the scaled
   host time follows the host's speed within the pass. Traced, every
   experiment is also a "harness" span; a cache fill is charged to the
   first experiment that needs it. *)
let report ?tr cfg =
  let cache = Experiments.cache cfg in
  let buf = Buffer.create 65536 in
  let cost =
    List.fold_left
      (fun acc id ->
        let name = Experiments.to_string id in
        let (), c =
          Common.measure (fun () ->
              Layer.wrap tr ~layer:"harness" name (fun () ->
                  let ppf = Format.formatter_of_buffer buf in
                  Format.fprintf ppf "@.#### %s: %s@." name (Experiments.describe id);
                  Experiments.run ~cache id cfg ppf;
                  Format.pp_print_flush ppf ()))
        in
        Common.add_cost acc c)
      Common.zero_cost Experiments.all
  in
  (Buffer.contents buf, cost)

let pass ?tr out ~seed ~size ~profile ~expect =
  let cfg = config ~seed ~size ~profile in
  let deploys = List.init 5 (fun _ -> snd (Common.measure (fun () -> deploy_catalog ~seed))) in
  let setup =
    List.nth (List.sort (fun a b -> Float.compare a.Common.scaled_s b.Common.scaled_s) deploys) 2
  in
  let report, host = report ?tr cfg in
  let md5 = Digest.to_hex (Digest.string report) in
  Option.iter
    (fun want -> Out.check out (md5 = want) "runall report md5 %s, expected %s" md5 want)
    expect;
  Option.iter
    (fun tr ->
      List.iter
        (fun id ->
          let name = Experiments.to_string id in
          match Layer.samples tr ~layer:"harness" ~name with
          | [ (ns, words) ] ->
              Out.metric out ("harness." ^ name ^ "_s") "s" (ns /. 1e9);
              Out.metric out ("harness." ^ name ^ "_mwords") "Mwords" (words /. 1e6)
          | _ -> Out.check out false "harness span %s missing" name)
        Experiments.all)
    tr;
  ( {
      Workload.setup;
      host;
      digest = md5;
      measured = List.length Experiments.all;
      failed = 0;
      engine_requests = 0;
    },
    String.length report )

(* A seeded sample of catalog entries: the probe's inputs. *)
let sample ~seed size =
  let entries = Array.of_list Catalog.all in
  let rng = Rng.create (seed lxor 0x5a3f1e) in
  Rng.shuffle rng entries;
  let k = match size with Common.Normal -> 3 | Common.Tiny -> 1 in
  List.map (fun (e : Catalog.entry) -> e.Catalog.spec) (Array.to_list (Array.sub entries 0 k))

(* [run_all] gives no handle inside it, so the engine and isolation layers
   are traced on a deployment of the sampled entries: GH behind one
   invoker, driven back to back. *)
let deploy_probe ~seed ~size specs tr out =
  let gh = Common.gh_tally () in
  let n = match size with Common.Normal -> 20 | Common.Tiny -> 3 in
  List.iteri
    (fun i spec ->
      let strat =
        match
          Layer.span tr ~layer:"isolation" "init" (fun () ->
              Registry.make Registry.Gh ~verify:Groundhog_core.Manager.Verify_full
                ~rng:(Rng.create (seed + i)) spec)
        with
        | Ok s -> s
        | Error msg -> failwith ("runall probe: " ^ msg)
      in
      Common.built gh strat;
      let loop =
        Closed.create
          (Common.instrument ~tr strat ~on_invoke:(Common.tally gh))
          ~input_kb:spec.Fm.input_kb
      in
      Closed.drive ~tr loop ~n ~on_sample:(fun _ _ -> ()))
    specs;
  Common.gh_metrics out gh;
  n * List.length specs

let workload ~seed ~size ~profile ~expect_md5 =
  let expect =
    match expect_md5 with Some m -> Some m | None -> baseline ~seed ~size ~profile
  in
  let specs = sample ~seed size in
  {
    Workload.verify_is_free = true;
    pass = (fun ?tr out ~verify:_ -> pass ?tr out ~seed ~size ~profile ~expect);
    report =
      (fun out bytes ~requests:_ ~host_s:_ ->
        Out.note out "report: %d bytes, md5 checked against %s" bytes
          (match expect with
          | Some m -> m
          | None -> "itself across passes (no baseline at this seed)"));
    probe_specs = specs;
    deploy_probe = Some (deploy_probe ~seed ~size specs);
  }
