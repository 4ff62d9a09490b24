module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Fault = Gh_sim.Fault
module Stats = Gh_sim.Stats
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Invoker = Gh_faas.Invoker
module Container = Gh_faas.Container
module Manager = Groundhog_core.Manager
module Snapshot = Groundhog_core.Snapshot
module Dedup = Groundhog_core.Dedup
module Cost = Gh_kernel.Cost

type policy = Off | Scrub_only | Sampled of int | Full

let policy_name = function
  | Off -> "off"
  | Scrub_only -> "scrub"
  | Sampled k -> Printf.sprintf "sampled-%d" k
  | Full -> "full"

type row = {
  strategy : Registry.id;
  rate : float;
  policy : policy;
  offered : int;
  delivered : int;
  corrupted_served : int;
  verify_detections : int;
  scrub_detections : int;
  verified_blocks : int;
  scrubbed_blocks : int;
  detect_ms : float;
  mttr_ms : float;
  quarantined : int;
  replacements : int;
  overhead_ms : float;
  dedup_saved_pages : int option;
  dedup_shared_blocks : int option;
}

type cell = (float * policy) * Registry.id

(* The ground-truth oracle, checked at every dispatch: a strategy that can
   prove what its process should contain (eager GH after a real restore,
   CRIU between restores) audits the process against the snapshot hashes.
   [Some `Corrupt] at dispatch means the next response would be computed
   from corrupted state — the event the integrity machinery exists to
   prevent. Strategies without a valid reference ([None]) are exempt. The
   oracle itself reads memory only; it never alters the run it judges. *)
type cell_stats = {
  mutable corrupted_served : int;
  mutable verify_detections : int;
  mutable verified_blocks : int;
  mutable detect_ns : Time_ns.t list;
}

let observe engine stats (s : Intf.t) =
  let born = Engine.now engine in
  {
    s with
    Intf.invoke =
      (fun req ->
        (match s.Intf.audit () with
        | Some (`Corrupt _) -> stats.corrupted_served <- stats.corrupted_served + 1
        | Some `Intact | None -> ());
        let inv = s.Intf.invoke req in
        (match inv.Intf.verify with
        | Intf.Verify_failed _ ->
            stats.verify_detections <- stats.verify_detections + 1;
            stats.detect_ns <- (Engine.now engine - born) :: stats.detect_ns
        | Intf.Verified blocks -> stats.verified_blocks <- stats.verified_blocks + blocks
        | Intf.Unverified -> ());
        inv);
    scrub =
      (fun blocks ->
        match s.Intf.scrub blocks with
        | Intf.Scrub_corrupt why ->
            (* Counted per container below; only the latency sample needs
               the snapshot's birth time, which lives in this closure. *)
            stats.detect_ns <- (Engine.now engine - born) :: stats.detect_ns;
            Intf.Scrub_corrupt why
        | r -> r);
  }

let n_containers = 2

let measure cfg (entry : Catalog.entry) ~requests:n_requests ((rate, policy), strategy) =
  let spec = entry.Catalog.spec in
  if not (Registry.supports strategy spec) then None
  else begin
    let seed =
      cfg.Config.seed
      lxor Hashtbl.hash
             ("scrub", spec.Fm.name, Registry.to_string strategy, rate, policy_name policy)
    in
    let root = Rng.create seed in
    let engine = Engine.create () in
    let stats =
      { corrupted_served = 0; verify_detections = 0; verified_blocks = 0; detect_ns = [] }
    in
    let verify =
      match policy with
      | Off | Scrub_only -> Manager.Verify_off
      | Sampled k -> Manager.Verify_sampled k
      | Full -> Manager.Verify_full
    in
    (* One dedup index per cell: both containers of the function register
       their snapshots and share identical blocks. *)
    let dedup = Dedup.create () in
    let builds = Array.make n_containers 0 in
    let make_strategy i =
      let b = builds.(i) in
      builds.(i) <- b + 1;
      (* Corruption sites only: captures can silently flip a bit or tear a
         block in the stored snapshot, restores can silently skip writes.
         Unlike crash faults these never fail the build — that is the
         point: the damage is invisible until something checks hashes. *)
      let fault =
        if rate > 0.0 then
          Fault.uniform ~seed:(Hashtbl.hash (seed, i, b)) ~prob:rate Fault.corruption_sites
        else Fault.none
      in
      match
        Registry.make strategy ~fault ~verify ~dedup
          ~rng:(Rng.named_split root (Printf.sprintf "c%d.%d" i b))
          spec
      with
      | Ok s -> observe engine stats s
      | Error msg -> failwith msg
    in
    let scrub = match policy with Off -> None | _ -> Some Container.default_scrub in
    let invoker =
      Invoker.create ~recovery:(Gated_sweep.recovery spec) ~rng:(Rng.split root) ?scrub engine
        ~n_containers ~dispatch_ns:cfg.Config.dispatch_ns ~make_strategy
    in
    let delivered = ref 0 in
    let interval_ns = max (Time_ns.of_ms 1.0) (2 * spec.Fm.exec_ns / n_containers) in
    Engine.at_batch engine
      (List.init n_requests (fun j ->
           let i = j + 1 in
           ( i * interval_ns,
             fun () ->
               let req =
                 Gh_faas.Request.make ~id:i
                   ~principal:Gated_sweep.principals.(i land 1)
                   ~input_kb:spec.Fm.input_kb ()
               in
               Invoker.submit invoker req ~on_response:(fun _ _ -> incr delivered) )));
    Engine.run_all engine;
    let rs = Invoker.recovery_stats invoker in
    let containers = Invoker.containers invoker in
    let scrub_detections =
      Array.fold_left (fun n c -> n + Container.scrub_corruptions c) 0 containers
    in
    let scrubbed_blocks =
      Array.fold_left (fun n c -> n + Container.scrubbed_blocks c) 0 containers
    in
    let mean_ms samples =
      match samples with
      | [] -> Float.nan
      | l -> Stats.mean (Array.of_list (List.map Time_ns.to_ms l))
    in
    (* The integrity tax, had it been charged: every audited or scrubbed
       block is [block_pages] page hashes at the modelled per-page rate.
       It is tallied here — never injected into the timeline — which is
       why every verified table in the suite is bit-identical to its
       unverified ancestor. *)
    let overhead_ms =
      Time_ns.to_ms
        ((stats.verified_blocks + scrubbed_blocks)
        * Snapshot.block_pages * Cost.default.Cost.hash_per_page_ns)
    in
    let with_dedup = Dedup.registrations dedup > 0 in
    Some
      {
        strategy;
        rate;
        policy;
        offered = n_requests;
        delivered = !delivered;
        corrupted_served = stats.corrupted_served;
        verify_detections = stats.verify_detections;
        scrub_detections;
        verified_blocks = stats.verified_blocks;
        scrubbed_blocks;
        detect_ms = mean_ms stats.detect_ns;
        mttr_ms = mean_ms rs.Invoker.mttr_ns;
        quarantined = rs.Invoker.quarantined;
        replacements = rs.Invoker.replacements;
        overhead_ms;
        dedup_saved_pages = (if with_dedup then Some (Dedup.saved_pages dedup) else None);
        dedup_shared_blocks = (if with_dedup then Some (Dedup.shared_blocks dedup) else None);
      }
  end

let grid rates policies = Gated_sweep.(product (product rates policies) Registry.all)

let sweep =
  {
    Gated_sweep.name = "scrub";
    doc =
      "Sweep seeded snapshot-corruption rates against the verification policies (off, \
       scrub-only, sampled, full); exits nonzero if any request is served from corrupted \
       state under full verification, or if the unverified baseline fails to demonstrate \
       the hazard.";
    benchmark = "deltablue (p)";
    benchmark_doc = "Benchmark to corrupt.";
    n = 60;
    n_doc = "Requests per (strategy, rate, policy) cell.";
    grid = grid [ 0.0; 0.02; 0.1 ] [ Off; Scrub_only; Sampled 4; Full ];
    smoke = grid [ 0.0; 0.05 ] [ Off; Full ];
    smoke_n = 30;
    smoke_doc = "Tiny CI run: policies off and full, rates 0 and 5%, few requests.";
    cell = measure;
    title =
      (fun entry ->
        Printf.sprintf
          "Snapshot integrity on %s: corruption rate x verification policy. 'CORRUPT' \
           counts requests dispatched to a process whose restored state no longer matches \
           the snapshot hashes (the oracle; must be 0 under policy 'full'); 'tax ms' is \
           the modelled hashing cost, tallied off the timeline."
          entry.Catalog.display);
    columns =
      [
        ("rate", fun r -> Printf.sprintf "%.0f%%" (100.0 *. r.rate));
        ("policy", fun r -> policy_name r.policy);
        ("strategy", fun r -> String.uppercase_ascii (Registry.to_string r.strategy));
        ("served", fun r -> Printf.sprintf "%d/%d" r.delivered r.offered);
        ("CORRUPT", fun r -> string_of_int r.corrupted_served);
        ("vdetect", fun r -> string_of_int r.verify_detections);
        ("sdetect", fun r -> string_of_int r.scrub_detections);
        ("vblocks", fun r -> string_of_int r.verified_blocks);
        ("sblocks", fun r -> string_of_int r.scrubbed_blocks);
        ("detect ms", fun r -> Gated_sweep.fmt_opt 1 r.detect_ms);
        ("MTTR ms", fun r -> Gated_sweep.fmt_opt 1 r.mttr_ms);
        ("quar", fun r -> string_of_int r.quarantined);
        ("rebuild", fun r -> string_of_int r.replacements);
        ("tax ms", fun r -> Printf.sprintf "%.1f" r.overhead_ms);
        ( "dedup pg",
          fun r -> match r.dedup_saved_pages with Some n -> string_of_int n | None -> "-" );
      ];
    (* The fail-closed gate: a corrupted serve under full verification. *)
    violations = (fun r -> if r.policy = Full then r.corrupted_served else 0);
    gate =
      Printf.sprintf
        "INTEGRITY VIOLATION: %d request(s) served from corrupted state under full \
         verification";
    (* The sweep must also prove the hazard is real: with verification off
       and corruption injected, the oracle has to catch at least one
       corrupted serve, or the protected zero above means nothing. *)
    checks =
      (fun rows ->
        let off = List.filter (fun r -> r.policy = Off) rows in
        if
          List.exists (fun r -> r.rate > 0.0) off
          && List.for_all (fun (r : row) -> r.corrupted_served = 0) off
        then
          [
            "VACUOUS SWEEP: corruption injected but the unverified baseline served \
             nothing corrupt — the zero under full verification proves nothing";
          ]
        else []);
  }
