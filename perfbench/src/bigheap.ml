(* bigheap-read: Fig. 3's high-load lines on big address spaces. One
   client, no think time, microbenchmark specs with 100K-256K mapped
   pages, a small fraction of them dirtied and every page read, under
   BASE, GH and FORK with the restore-time hash audit on (as the harness
   sweeps run it). Host cost grows with mapped pages — page reads,
   pagemap scan, audit hashing — not with dirtied pages. *)

module Registry = Gh_isolation.Registry
module Microbench = Gh_workloads.Microbench
module Fm = Gh_faas.Function_model
module Intf = Common.Intf
module Rng = Gh_sim.Rng

let strategies = [ Registry.Base; Registry.Gh; Registry.Fork ]
let warmup_requests = 2

let requests = function Common.Normal -> 40 | Common.Tiny -> 3

(* Two address-space sizes spanning the range, 100K and 256K mapped pages
   (tiny: 2K and 4K); the seed draws the dirtied share, 0.1-0.4% of the
   pages. Host cost follows the mapped size, which the seed leaves alone,
   so runs at different seeds measure the same amount of work. *)
let specs ~seed size =
  let rng = Rng.create (seed lxor 0xb16ea9) in
  let sizes =
    match size with Common.Normal -> [ 100_000; 256_000 ] | Common.Tiny -> [ 2_000; 4_000 ]
  in
  List.map
    (fun mapped ->
      let dirtied = max 16 (mapped * Rng.int_in rng 10 40 / 10_000) in
      Microbench.spec ~mapped_pages:mapped ~dirtied_pages:dirtied)
    sizes

type sim = {
  cells : (Registry.id * Fm.spec * int list) list;  (** Back-to-back latencies, ns. *)
  gh : Common.gh_tally;
}

let check_invocation out ~audit (s : Intf.t) id (inv : Intf.invocation) =
  let name = Registry.to_string id in
  if id <> Registry.Base then Out.check out inv.Intf.isolated "%s invocation not isolated" name;
  (match inv.Intf.verify with
  | Intf.Verify_failed msg -> Out.check out false "%s restore audit failed: %s" name msg
  | Intf.Unverified | Intf.Verified _ -> ());
  Out.check out (inv.Intf.outcome = Intf.Completed) "%s outcome %s" name
    (Intf.outcome_name inv.Intf.outcome);
  if audit && id = Registry.Gh && inv.Intf.breakdown <> None then
    match s.Intf.audit () with
    | Some `Intact -> ()
    | Some (`Corrupt msg) -> Out.check out false "GH audit after restore: %s" msg
    | None -> Out.check out false "GH audit oracle unavailable after a restore"

let pass ?tr out ~seed ~size ~audit specs =
  let gh = Common.gh_tally () in
  let setup = ref Common.zero_cost and host = ref Common.zero_cost in
  let n = requests size in
  let cells =
    List.concat
      (List.mapi
         (fun i spec ->
           List.map
             (fun id ->
               let measuring = ref false in
               let loop, c =
                 Common.measure (fun () ->
                     let rng = Rng.create (seed lxor Hashtbl.hash (i, Registry.to_string id)) in
                     let strat =
                       match
                         Layer.wrap tr ~layer:"isolation" "init" (fun () ->
                             Registry.make id ~verify:Groundhog_core.Manager.Verify_full ~rng spec)
                       with
                       | Ok s -> s
                       | Error msg -> failwith ("bigheap-read: " ^ msg)
                     in
                     if id = Registry.Gh then Common.built gh strat;
                     let on_invoke inv =
                       check_invocation out ~audit strat id inv;
                       if !measuring && id = Registry.Gh then Common.tally gh inv
                     in
                     let loop =
                       Closed.create
                         (Common.instrument ?tr ~on_invoke strat)
                         ~input_kb:spec.Fm.input_kb
                     in
                     Closed.drive ?tr loop ~n:warmup_requests ~on_sample:(fun _ _ -> ());
                     loop)
               in
               setup := Common.add_cost !setup c;
               measuring := true;
               let lat = ref [] in
               let (), c =
                 Common.measure (fun () ->
                     Closed.drive ?tr loop ~n ~on_sample:(fun _ ns -> lat := ns :: !lat))
               in
               host := Common.add_cost !host c;
               Out.check out (List.length !lat = n) "%s: %d of %d requests answered"
                 (Registry.to_string id) (List.length !lat) n;
               (id, spec, List.rev !lat))
             strategies)
         specs)
  in
  let sim = { cells; gh } in
  let digest =
    let b = Buffer.create 4096 in
    List.iter
      (fun (id, spec, lat) ->
        Printf.bprintf b "%s %d %d:" (Registry.to_string id) spec.Fm.mapped_pages
          spec.Fm.dirtied_pages;
        List.iter (Printf.bprintf b " %d") lat;
        Buffer.add_char b '\n')
      cells;
    Common.digest_gh b gh;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let answered = List.fold_left (fun acc (_, _, lat) -> acc + List.length lat) 0 cells in
  let expected = n * List.length cells in
  ( {
      Workload.setup = !setup;
      host = !host;
      digest;
      measured = expected;
      failed = expected - answered;
      engine_requests = (warmup_requests + n) * List.length cells;
    },
    sim )

let latencies_ms sim id =
  List.concat_map
    (fun (s, _, lat) -> if s = id then List.map (fun ns -> float_of_int ns /. 1e6) lat else [])
    sim.cells

let report out sim ~requests ~host_s =
  let gh = latencies_ms sim Registry.Gh and base = latencies_ms sim Registry.Base in
  Out.metric out "sim_p50_ms" "sim_ms" (Common.median gh);
  Out.metric out "sim_p99_ms" "sim_ms" (Common.quantile 99.0 gh);
  Out.note out "sim_p50_ms/sim_p99_ms over %d GH back-to-back requests" (List.length gh);
  Out.metric out "sim_gh_overhead_pct" "%"
    (100.0 *. ((Common.median gh /. Common.median base) -. 1.0));
  Out.metric out "sim_req_per_host_s" "req/s" (float_of_int requests /. host_s);
  List.iter
    (fun (id, spec, lat) ->
      let ms = List.map (fun ns -> float_of_int ns /. 1e6) lat in
      Out.note out "%-5s mapped=%d dirtied=%d  p50 %.4f ms  p99 %.4f ms  (n=%d)"
        (Registry.to_string id) spec.Fm.mapped_pages spec.Fm.dirtied_pages (Common.median ms)
        (Common.quantile 99.0 ms) (List.length ms))
    sim.cells;
  Common.gh_metrics out sim.gh

let workload ~seed ~size =
  let specs = specs ~seed size in
  {
    Workload.verify_is_free = false;
    pass = (fun ?tr out ~verify -> pass ?tr out ~seed ~size ~audit:verify specs);
    report;
    probe_specs = specs;
    deploy_probe = None;
  }
