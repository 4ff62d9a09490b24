(* The layer probe: public functions of the memory model, procfs, snapshot
   and manager layers, called directly on a sample of the workload's own
   specs. Two instances of each spec are built from identical seeds — one
   manager audits every restore (Verify_full), its twin does not
   (Verify_off) — so the difference of their restore times is the audit's
   host cost. *)

module Fm = Gh_faas.Function_model
module Manager = Groundhog_core.Manager
module Procfs = Gh_proc.Procfs

let build spec ~seed =
  let inst = Fm.build spec in
  let acct = Gh_sim.Account.create () in
  let rng = Gh_sim.Rng.create seed in
  ignore (Fm.warmup inst acct rng : Gh_sim.Time_ns.t);
  Fm.mark_clean inst;
  (inst, acct, rng)

let ok what = function Ok v -> v | Error _ -> failwith ("probe: " ^ what ^ " failed")

let probe_spec tr ~seed ~reps spec =
  let span layer name f = Layer.span tr ~layer name f in
  let a, acct_a, rng_a = build spec ~seed and b, acct_b, rng_b = build spec ~seed in
  let full = Manager.create ~verify:Manager.Verify_full (Fm.proc a) in
  let off = Manager.create ~verify:Manager.Verify_off (Fm.proc b) in
  ignore (span "manager" "take_snapshot" (fun () -> ok "snapshot" (Manager.take_snapshot full)));
  ignore (ok "snapshot" (Manager.take_snapshot off));
  for k = 1 to reps do
    let req =
      Gh_faas.Request.make ~id:k ~principal:Common.principals.(k land 1) ~input_kb:spec.Fm.input_kb
        ()
    in
    let post_restore = k > 1 in
    ignore (span "function_model" "invoke" (fun () -> Fm.invoke a acct_a rng_a ~post_restore req));
    ignore (Fm.invoke b acct_b rng_b ~post_restore req);
    Manager.mark_dirty full;
    Manager.mark_dirty off;
    let proc = Fm.proc a in
    ignore
      (span "procfs" "scan_soft_dirty" (fun () -> ok "scan" (Procfs.scan_soft_dirty acct_a proc)));
    ignore (span "procfs" "read_maps" (fun () -> ok "read_maps" (Procfs.read_maps acct_a proc)));
    ignore (span "manager" "restore_full" (fun () -> ok "restore" (Manager.restore full)));
    ignore (span "manager" "restore_off" (fun () -> ok "restore" (Manager.restore off)))
  done

let run tr out ~seed ~reps specs =
  List.iteri (fun i spec -> probe_spec tr ~seed:(seed + i) ~reps spec) specs;
  let med layer name scale =
    Common.median (List.map (fun (ns, _) -> ns /. scale) (Layer.samples tr ~layer ~name))
  in
  Out.metric out "function_model.invoke_us" "us" (med "function_model" "invoke" 1e3);
  Out.metric out "procfs.scan_soft_dirty_us" "us" (med "procfs" "scan_soft_dirty" 1e3);
  Out.metric out "procfs.read_maps_us" "us" (med "procfs" "read_maps" 1e3);
  Out.metric out "snapshot.capture_ms" "ms" (med "manager" "take_snapshot" 1e6);
  let restore = med "manager" "restore_full" 1e3 in
  Out.metric out "manager.restore_us" "us" restore;
  Out.metric out "manager.audit_us" "us" (restore -. med "manager" "restore_off" 1e3);
  Out.note out "layer probe: %d specs x %d requests" (List.length specs) reps
