module Account = Gh_sim.Account
module Cost = Gh_kernel.Cost
module Procfs = Gh_proc.Procfs

type change =
  | Added of Procfs.maps_entry
  | Removed of Snapshot.region
  | Resized of { now : Procfs.maps_entry; snap : Snapshot.region }
  | Prot_changed of { now : Procfs.maps_entry; snap : Snapshot.region }

(* Regions are found through the snapshot's own start-address index. VMAs
   never overlap, so distinct entries of [maps] match distinct regions:
   when every region matched, none was removed and the second pass is
   skipped. *)
let diff acct ~cost (snapshot : Snapshot.t) (maps : Procfs.maps_entry list) =
  let n_snap = List.length snapshot.Snapshot.regions in
  let n_now = List.length maps in
  Account.charge acct (max n_snap n_now * cost.Cost.layout_diff_per_vma_ns);
  let changes = ref [] in
  let n_matched = ref 0 in
  List.iter
    (fun (e : Procfs.maps_entry) ->
      match Snapshot.find_region snapshot ~start_addr:e.Procfs.start_addr with
      | None -> changes := Added e :: !changes
      | Some snap ->
          incr n_matched;
          if e.Procfs.n_pages <> snap.Snapshot.n_pages then
            changes := Resized { now = e; snap } :: !changes;
          if not (Gh_mem.Prot.equal e.Procfs.prot snap.Snapshot.prot) then
            changes := Prot_changed { now = e; snap } :: !changes)
    maps;
  if !n_matched < n_snap then begin
    let now_starts = Hashtbl.create n_now in
    List.iter (fun (e : Procfs.maps_entry) -> Hashtbl.replace now_starts e.Procfs.start_addr ()) maps;
    List.iter
      (fun (r : Snapshot.region) ->
        if not (Hashtbl.mem now_starts r.Snapshot.start_addr) then changes := Removed r :: !changes)
      snapshot.Snapshot.regions
  end;
  List.rev !changes

let count changes =
  List.fold_left
    (fun (a, rm, rs, pc) -> function
      | Added _ -> (a + 1, rm, rs, pc)
      | Removed _ -> (a, rm + 1, rs, pc)
      | Resized _ -> (a, rm, rs + 1, pc)
      | Prot_changed _ -> (a, rm, rs, pc + 1))
    (0, 0, 0, 0) changes
