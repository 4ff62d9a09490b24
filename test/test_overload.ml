(* Overload protection: admission policies, brownout hysteresis, deadline
   shedding, the bounded latency reservoir, bursty arrivals, the engine's
   runaway guard, backoff properties, and Groundhog's degraded-mode restore
   deferral (which must never weaken isolation). *)

module Engine = Gh_sim.Engine
module Time_ns = Gh_sim.Time_ns
module Rng = Gh_sim.Rng
module Reservoir = Gh_sim.Reservoir
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Request = Gh_faas.Request
module Principal = Gh_faas.Principal
module Admission = Gh_faas.Admission
module Brownout = Gh_faas.Brownout
module Backoff = Gh_faas.Backoff
module Node = Gh_faas.Node
module Synthetic = Gh_workloads.Synthetic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let alice = Principal.make ~id:1 ~name:"alice"
let bob = Principal.make ~id:2 ~name:"bob"
let carol = Principal.with_priority (Principal.make ~id:3 ~name:"carol") 0
let req ?deadline ?(principal = alice) id = Request.make ~id ~principal ?deadline ()

(* -- Admission -- *)

type shed_log = { mutable events : (Admission.reason * int) list }

let make_queue ?policy capacity =
  let log = { events = [] } in
  let q =
    Admission.create
      ~on_shed:(fun reason r () -> log.events <- (reason, r.Request.id) :: log.events)
      (match policy with
      | None -> Admission.bounded capacity
      | Some p -> Admission.bounded ~policy:p capacity)
  in
  (q, log)

let drain q ~now =
  let rec go acc = match Admission.take q ~now with
    | Some (r, ()) -> go (r.Request.id :: acc)
    | None -> List.rev acc
  in
  go []

let test_unbounded_is_fifo () =
  let q = Admission.create Admission.unbounded in
  for i = 1 to 100 do
    check_bool "admitted" true (Admission.admit q ~now:0 (req i) ())
  done;
  check_int "fifo order" 1
    (match Admission.take q ~now:0 with Some (r, ()) -> r.Request.id | None -> 0);
  check_int "no shed" 0 (Admission.shed_count q);
  check_int "high water" 100 (Admission.high_water q)

let test_fifo_drop_tail () =
  let q, log = make_queue 2 in
  check_bool "a" true (Admission.admit q ~now:0 (req 1) ());
  check_bool "b" true (Admission.admit q ~now:0 (req 2) ());
  (* Drop-tail: the newcomer is the victim. *)
  check_bool "c rejected" false (Admission.admit q ~now:0 (req 3) ());
  check_int "still two queued" 2 (Admission.length q);
  check_bool "shed event for 3" true (List.mem (Admission.Capacity, 3) log.events);
  check_int "served oldest first" 1
    (match Admission.take q ~now:0 with Some (r, ()) -> r.Request.id | None -> 0)

let test_lifo_drops_oldest_serves_newest () =
  let q, log = make_queue ~policy:Admission.Lifo 2 in
  ignore (Admission.admit q ~now:0 (req 1) ());
  ignore (Admission.admit q ~now:0 (req 2) ());
  check_bool "newcomer admitted" true (Admission.admit q ~now:0 (req 3) ());
  check_bool "oldest shed" true (List.mem (Admission.Capacity, 1) log.events);
  check_bool "lifo service order" true (drain q ~now:0 = [ 3; 2 ])

let test_edf_drops_earliest_expiry () =
  let q, log = make_queue ~policy:Admission.Edf_drop 2 in
  ignore (Admission.admit q ~now:0 (req ~deadline:100 1) ());
  ignore (Admission.admit q ~now:0 (req ~deadline:50 2) ());
  (* No deadline = infinitely patient: the doomed soonest-expiry entry
     (id 2) is the victim, not the newcomer. *)
  check_bool "newcomer admitted" true (Admission.admit q ~now:0 (req 3) ());
  check_bool "earliest expiry shed" true (List.mem (Admission.Capacity, 2) log.events);
  check_bool "survivors" true (drain q ~now:0 = [ 1; 3 ])

let test_fair_share_drops_heaviest_tenant () =
  let q, log = make_queue ~policy:Admission.Fair_share 2 in
  ignore (Admission.admit q ~now:0 (req ~principal:alice 1) ());
  ignore (Admission.admit q ~now:0 (req ~principal:alice 2) ());
  (* Alice holds the whole queue; her newest entry makes room for Bob. *)
  check_bool "bob admitted" true (Admission.admit q ~now:0 (req ~principal:bob 3) ());
  check_bool "alice's newest shed" true (List.mem (Admission.Capacity, 2) log.events);
  check_bool "one entry each" true (drain q ~now:0 = [ 1; 3 ])

let test_dead_on_arrival_rejected () =
  let q, log = make_queue 8 in
  check_bool "expired at submit" false (Admission.admit q ~now:200 (req ~deadline:100 1) ());
  check_int "not queued" 0 (Admission.length q);
  check_int "expired counter" 1 (Admission.expired_count q);
  check_bool "expired event" true (List.mem (Admission.Expired, 1) log.events)

let test_queued_requests_expire () =
  let q, log = make_queue 8 in
  ignore (Admission.admit q ~now:0 (req ~deadline:100 1) ());
  ignore (Admission.admit q ~now:0 (req ~deadline:1_000 2) ());
  (* By the time a core frees up, request 1's deadline has passed: it must
     be purged, never served. *)
  check_int "still-live entry served" 2
    (match Admission.take q ~now:500 with Some (r, ()) -> r.Request.id | None -> 0);
  check_int "expired counter" 1 (Admission.expired_count q);
  check_bool "expired event" true (List.mem (Admission.Expired, 1) log.events);
  check_bool "queue drained" true (Admission.is_empty q)

let test_shed_all () =
  let q, log = make_queue 8 in
  ignore (Admission.admit q ~now:0 (req 1) ());
  ignore (Admission.admit q ~now:0 (req 2) ());
  Admission.shed_all q Admission.Brownout;
  check_bool "emptied" true (Admission.is_empty q);
  check_int "both shed" 2 (Admission.shed_count q);
  check_bool "brownout reason" true (List.mem (Admission.Brownout, 1) log.events)

(* -- Admission against a reference queue -- *)

(* The queue skips its expiry purge while no queued entry has a deadline.
   The reference below purges by partition on every call and picks
   capacity victims straight from each policy's definition; random
   sequences of admits (with and without deadlines), takes, cancels,
   [shed_all] and purges must behave the same on both. *)

type op =
  | Admit of int * int option  (* principal id, deadline offset from now *)
  | Take
  | Cancel of int  (* request id, possibly not queued *)
  | Shed_all
  | Purge
  | Advance of int

type ref_queue = {
  policy : Admission.policy;
  capacity : int;
  mutable items : (Request.t * int) list;  (* oldest first, with arrival seq *)
  mutable seq : int;
  mutable r_shed : int;
  mutable r_expired : int;
  mutable r_log : (Admission.reason * int) list;
}

let ref_drop q reason (r, _) =
  (match reason with
  | Admission.Expired -> q.r_expired <- q.r_expired + 1
  | _ -> q.r_shed <- q.r_shed + 1);
  q.r_log <- (reason, r.Request.id) :: q.r_log

let ref_purge q ~now =
  let live, dead = List.partition (fun (r, _) -> not (Request.expired r ~now)) q.items in
  q.items <- live;
  List.iter (ref_drop q Admission.Expired) dead

let ref_victim q =
  let newest_of es =
    List.fold_left (fun v e -> if snd e > snd v then e else v) (List.hd es) es
  in
  match q.policy with
  | Admission.Fifo -> newest_of q.items
  | Admission.Lifo -> List.hd q.items
  | Admission.Edf_drop ->
      let key (r, _) = Option.value ~default:max_int r.Request.deadline in
      let earliest = List.fold_left (fun k e -> min k (key e)) max_int q.items in
      newest_of (List.filter (fun e -> key e = earliest) q.items)
  | Admission.Fair_share ->
      let pid (r, _) = r.Request.principal.Principal.id in
      let count id = List.length (List.filter (fun e -> pid e = id) q.items) in
      let heaviest =
        List.fold_left
          (fun best e ->
            let c = count (pid e) and cb = count best in
            if c > cb || (c = cb && pid e < best) then pid e else best)
          (pid (List.hd q.items)) q.items
      in
      newest_of (List.filter (fun e -> pid e = heaviest) q.items)

let ref_admit q ~now r =
  ref_purge q ~now;
  if Request.expired r ~now then begin
    q.r_expired <- q.r_expired + 1;
    q.r_log <- (Admission.Expired, r.Request.id) :: q.r_log
  end
  else begin
    q.items <- q.items @ [ (r, q.seq) ];
    q.seq <- q.seq + 1;
    if List.length q.items > q.capacity then begin
      let victim = ref_victim q in
      q.items <- List.filter (fun e -> e != victim) q.items;
      ref_drop q Admission.Capacity victim
    end
  end

let ref_take q ~now =
  ref_purge q ~now;
  match q.policy, q.items with
  | _, [] -> None
  | Admission.Lifo, items ->
      let r, _ = List.nth items (List.length items - 1) in
      q.items <- List.filteri (fun i _ -> i < List.length items - 1) items;
      Some r.Request.id
  | _, (r, _) :: rest ->
      q.items <- rest;
      Some r.Request.id

let policies =
  [ Admission.Fifo; Admission.Lifo; Admission.Edf_drop; Admission.Fair_share ]

let admission_case_gen =
  QCheck2.Gen.(
    let op =
      frequency
        [
          ( 5,
            map2
              (fun p d -> Admit (p, d))
              (int_range 1 3)
              (option ~ratio:0.4 (int_range 0 40)) );
          (2, return Take);
          (1, map (fun id -> Cancel id) (int_range 1 40));
          (1, return Shed_all);
          (1, return Purge);
          (2, map (fun dt -> Advance dt) (int_range 1 25));
        ]
    in
    triple (oneofl policies) (int_range 1 5) (list_size (int_range 0 60) op))

let print_admission_case (policy, capacity, ops) =
  let op = function
    | Admit (p, None) -> Printf.sprintf "admit p%d" p
    | Admit (p, Some d) -> Printf.sprintf "admit p%d +%d" p d
    | Take -> "take"
    | Cancel id -> Printf.sprintf "cancel %d" id
    | Shed_all -> "shed-all"
    | Purge -> "purge"
    | Advance dt -> Printf.sprintf "advance %d" dt
  in
  Printf.sprintf "%s cap=%d [%s]" (Admission.policy_name policy) capacity
    (String.concat "; " (List.map op ops))

let admission_matches_reference =
  QCheck2.Test.make ~name:"admission matches a partition-every-call reference" ~count:500
    ~print:print_admission_case admission_case_gen (fun (policy, capacity, ops) ->
      let log = ref [] in
      let q =
        Admission.create
          ~on_shed:(fun reason r () -> log := (reason, r.Request.id) :: !log)
          (Admission.bounded ~policy capacity)
      in
      let m =
        { policy; capacity; items = []; seq = 0; r_shed = 0; r_expired = 0; r_log = [] }
      in
      let now = ref 0 and next_id = ref 0 and ok = ref true in
      let principal id = Principal.make ~id ~name:(Printf.sprintf "p%d" id) in
      List.iter
        (fun op ->
          (match op with
          | Admit (p, d) ->
              incr next_id;
              let r =
                Request.make ~id:!next_id ~principal:(principal p)
                  ?deadline:(Option.map (fun d -> !now + d) d)
                  ()
              in
              ignore (Admission.admit q ~now:!now r ());
              ref_admit m ~now:!now r
          | Take ->
              let got = Option.map (fun (r, ()) -> r.Request.id) (Admission.take q ~now:!now) in
              if got <> ref_take m ~now:!now then ok := false
          | Cancel id ->
              let got = Admission.cancel q ~req_id:id <> None in
              let queued = List.exists (fun (r, _) -> r.Request.id = id) m.items in
              m.items <- List.filter (fun (r, _) -> r.Request.id <> id) m.items;
              if got <> queued then ok := false
          | Shed_all ->
              Admission.shed_all q Admission.Brownout;
              List.iter (ref_drop m Admission.Brownout) m.items;
              m.items <- []
          | Purge ->
              Admission.purge_expired q ~now:!now;
              ref_purge m ~now:!now
          | Advance dt -> now := !now + dt);
          if Admission.length q <> List.length m.items then ok := false)
        ops;
      !ok
      && drain q ~now:!now = List.filter_map (fun _ -> ref_take m ~now:!now) m.items
      && Admission.shed_count q = m.r_shed
      && Admission.expired_count q = m.r_expired
      && !log = m.r_log)

(* -- Brownout -- *)

let bcfg =
  {
    Brownout.target_delay_ns = Time_ns.of_ms 10.0;
    escalate_after = 3;
    recover_after = 2;
    hysteresis = 0.5;
    shed_below_priority = 1;
  }

let over = Time_ns.of_ms 20.0 (* above target *)
let under = Time_ns.of_ms 1.0 (* below hysteresis * target *)
let dead_band = Time_ns.of_ms 8.0 (* between the two *)

let test_brownout_escalates_after_streak () =
  let b = Brownout.create bcfg in
  check_bool "one sample is noise" false (Brownout.observe b over);
  ignore (Brownout.observe b over);
  check_bool "third over-sample escalates" true (Brownout.observe b over);
  check_bool "degraded" true (Brownout.level b = Brownout.Degraded);
  ignore (Brownout.observe b over);
  ignore (Brownout.observe b over);
  check_bool "escalates again" true (Brownout.observe b over);
  check_bool "shedding" true (Brownout.level b = Brownout.Shedding);
  check_int "two escalations" 2 (Brownout.escalations b)

let test_brownout_recovers_hysteretically () =
  let b = Brownout.create bcfg in
  for _ = 1 to 3 do ignore (Brownout.observe b over) done;
  check_bool "degraded" true (Brownout.level b = Brownout.Degraded);
  (* Samples merely below target but above the hysteresis band must NOT
     recover — that is the Schmitt trigger's whole point. *)
  for _ = 1 to 10 do ignore (Brownout.observe b dead_band) done;
  check_bool "dead band holds level" true (Brownout.level b = Brownout.Degraded);
  ignore (Brownout.observe b under);
  check_bool "second calm sample recovers" true (Brownout.observe b under);
  check_bool "normal again" true (Brownout.level b = Brownout.Normal);
  check_int "one recovery" 1 (Brownout.recoveries b)

let test_brownout_dead_band_resets_streaks () =
  let b = Brownout.create bcfg in
  ignore (Brownout.observe b over);
  ignore (Brownout.observe b over);
  ignore (Brownout.observe b dead_band);
  (* The over-streak was broken: two more over-samples are not enough. *)
  ignore (Brownout.observe b over);
  check_bool "streak restarted" false (Brownout.observe b over);
  check_bool "still normal" true (Brownout.level b = Brownout.Normal)

let test_brownout_sheds_only_low_priority_at_top_level () =
  let b = Brownout.create bcfg in
  check_bool "normal sheds nobody" false (Brownout.should_shed b carol);
  for _ = 1 to 3 do ignore (Brownout.observe b over) done;
  check_bool "degraded sheds nobody" false (Brownout.should_shed b carol);
  check_bool "degraded defers restores" true (Brownout.defer_restores b);
  for _ = 1 to 3 do ignore (Brownout.observe b over) done;
  check_bool "shedding drops best-effort" true (Brownout.should_shed b carol);
  check_bool "paying tenants still served" false (Brownout.should_shed b alice)

(* -- Reservoir -- *)

let test_reservoir_exact_below_capacity () =
  let r = Reservoir.create 8 in
  List.iter (Reservoir.add r) [ 1.0; 2.0; 3.0 ];
  check_bool "newest first, exact" true (Reservoir.to_list r = [ 3.0; 2.0; 1.0 ]);
  check_int "seen" 3 (Reservoir.seen r);
  check_int "stored" 3 (Reservoir.stored r)

let test_reservoir_bounds_memory () =
  let r = Reservoir.create ~seed:7 16 in
  for i = 1 to 10_000 do
    Reservoir.add r (float_of_int i)
  done;
  check_int "stored capped" 16 (Reservoir.stored r);
  check_int "seen everything" 10_000 (Reservoir.seen r);
  List.iter
    (fun v -> check_bool "sample came from the stream" true (v >= 1.0 && v <= 10_000.0))
    (Reservoir.to_list r);
  (* A uniform sample over 1..10000 is overwhelmingly unlikely to stay in
     the first thousand. *)
  check_bool "keeps late elements" true (List.exists (fun v -> v > 1_000.0) (Reservoir.to_list r))

let test_reservoir_deterministic () =
  let fill seed =
    let r = Reservoir.create ~seed 32 in
    for i = 1 to 5_000 do Reservoir.add r (float_of_int i) done;
    Reservoir.to_list r
  in
  check_bool "same seed, same sample" true (fill 3 = fill 3);
  check_bool "different seed, different sample" true (fill 3 <> fill 4)

(* -- Bursty arrivals -- *)

let test_burst_deterministic_and_ascending () =
  let gen seed = Synthetic.burst (Rng.create seed) ~rate_rps:50.0 ~n:200 in
  let a = gen 11 and b = gen 11 in
  check_bool "deterministic" true (a = b);
  check_bool "different seed differs" true (a <> gen 12);
  check_int "count" 200 (List.length a);
  let ascending =
    List.for_all2 (fun x y -> x < y) (List.filteri (fun i _ -> i < 199) a) (List.tl a)
  in
  check_bool "strictly ascending" true ascending

let test_burst_validates_arguments () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bad rate" (Invalid_argument "Synthetic.burst: rate_rps must be positive")
    (fun () -> ignore (Synthetic.burst rng ~rate_rps:0.0 ~n:1));
  Alcotest.check_raises "bad duty" (Invalid_argument "Synthetic.burst: duty outside (0,1]")
    (fun () -> ignore (Synthetic.burst ~duty:1.5 rng ~rate_rps:1.0 ~n:1))

(* -- Engine runaway guard -- *)

let test_run_all_guard_trips () =
  let engine = Engine.create () in
  let rec tick () = Engine.schedule engine ~after:1 tick in
  Engine.schedule engine ~after:1 tick;
  check_bool "runaway loop detected" true
    (match Engine.run_all ~max_events:1_000 engine with
    | () -> false
    | exception Failure _ -> true)

let test_run_all_guard_spares_finite_runs () =
  let engine = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 100 do
    Engine.at engine ~time:i (fun () -> incr fired)
  done;
  Engine.run_all ~max_events:100 engine;
  check_int "all events ran" 100 !fired;
  check_bool "non-positive budget rejected" true
    (match Engine.run_all ~max_events:0 engine with
    | () -> false
    | exception Invalid_argument _ -> true)

(* -- Backoff properties -- *)

let backoff_gen =
  QCheck2.Gen.(
    quad (int_range 0 1_000_000) (int_range 0 2_000_000) (float_range 1.0 4.0)
      (float_range 0.0 0.9))

let print_backoff (base, extra, m, j) =
  Printf.sprintf "base=%d cap=base+%d mult=%.2f jitter=%.2f" base extra m j

let backoff_monotone_to_cap =
  QCheck2.Test.make ~name:"backoff delays are monotone and capped" ~count:200
    ~print:print_backoff backoff_gen (fun (base, extra, multiplier, jitter) ->
      let t = Backoff.make ~base_ns:base ~cap_ns:(base + extra) ~multiplier ~jitter () in
      let delays = List.init 30 (fun i -> Backoff.delay t ~attempt:(i + 1)) in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      (* Without an rng the sequence is deterministic, nondecreasing, and
         never exceeds the cap; huge attempt numbers must stay monotone and
         capped rather than overflow. (Exact saturation at the cap is not
         guaranteed for multipliers barely above 1, where the delay can
         still creep between consecutive huge attempts.) *)
      let d1000 = Backoff.delay t ~attempt:1_000 in
      let d1001 = Backoff.delay t ~attempt:1_001 in
      monotone delays
      && List.for_all (fun d -> d >= 0 && d <= base + extra) delays
      && d1000 <= d1001
      && d1001 <= base + extra
      && Backoff.delay t ~attempt:max_int <= base + extra)

let backoff_jitter_stays_in_band =
  QCheck2.Test.make ~name:"backoff jitter stays inside its band" ~count:200
    ~print:print_backoff backoff_gen (fun (base, extra, multiplier, jitter) ->
      let t = Backoff.make ~base_ns:base ~cap_ns:(base + extra) ~multiplier ~jitter () in
      let rng = Rng.create (base + extra) in
      List.for_all
        (fun attempt ->
          let pure = float_of_int (Backoff.delay t ~attempt) in
          let d = float_of_int (Backoff.delay ~rng t ~attempt) in
          d >= 0.0
          && d <= float_of_int t.Backoff.cap_ns
          && d >= Float.of_int (int_of_float (pure *. (1.0 -. jitter))) -. 1.0)
        (List.init 20 (fun i -> i + 1)))

let backoff_rejects_bad_attempts =
  QCheck2.Test.make ~name:"backoff rejects attempt < 1" ~count:50
    ~print:string_of_int QCheck2.Gen.(int_range (-100) 0) (fun attempt ->
      match Backoff.delay Backoff.default ~attempt with
      | _ -> false
      | exception Invalid_argument _ -> true)

(* -- Request deadlines -- *)

let test_request_deadline_semantics () =
  let r = req 1 in
  check_bool "no deadline never expires" false (Request.expired r ~now:max_int);
  let d = Request.with_deadline r 1_000 in
  check_bool "before" false (Request.expired d ~now:999);
  check_bool "at the instant" true (Request.expired d ~now:1_000);
  check_bool "remaining" true (Request.remaining_ns d ~now:400 = Some 600)

(* -- Groundhog degraded mode must not weaken isolation -- *)

let foreign_residue principal (inv : Intf.invocation) =
  List.filter
    (fun w -> w <> 0 && not (Principal.owns_word principal w))
    inv.Intf.response.Fm.residue

let test_gh_degraded_defers_but_never_leaks () =
  let strategy, state =
    Gh_isolation.Gh.make_with_state ~rng:(Rng.create 99) Fm.default_spec
  in
  strategy.Intf.degrade true;
  let inv1 = strategy.Intf.invoke (req ~principal:alice 1) in
  check_int "restore deferred off the critical path" 0 inv1.Intf.post_ns;
  check_int "one deferral" 1 (Gh_isolation.Gh.deferred_restores state);
  check_bool "validated skip reports clean" true (strategy.Intf.status () = Some `Clean);
  (* Same principal back-to-back: the §4.4 argument makes the skip free. *)
  let inv2 = strategy.Intf.invoke (req ~principal:alice 2) in
  check_bool "no foreign residue for alice" true (foreign_residue alice inv2 = []);
  (* Pressure passes, then a different principal arrives: the deferred
     restore must be settled before bob's code runs. *)
  strategy.Intf.degrade false;
  let inv3 = strategy.Intf.invoke (req ~principal:bob 3) in
  check_bool "no cross-principal residue ever" true (foreign_residue bob inv3 = []);
  check_bool "bob's own run is isolated too"
    true
    (foreign_residue carol (strategy.Intf.invoke (req ~principal:carol 4)) = [])

let test_gh_crossing_principals_while_degraded () =
  let strategy, _ = Gh_isolation.Gh.make_with_state ~rng:(Rng.create 7) Fm.default_spec in
  strategy.Intf.degrade true;
  (* Alternate principals while degraded the whole time: every deferral is
     settled with an on-path restore, so isolation must hold throughout. *)
  for i = 1 to 8 do
    let p = if i mod 2 = 0 then bob else alice in
    let inv = strategy.Intf.invoke (req ~principal:p i) in
    check_bool "isolated while degraded" true (foreign_residue p inv = [])
  done

(* -- Node-level deadline shedding -- *)

let test_node_sheds_expired_never_serves_them () =
  let engine = Engine.create () in
  let root = Rng.create 5 in
  let node =
    Node.create engine
      { Node.default_config with Node.dispatch_ns = Time_ns.of_ms 1.0 }
      ~make_strategy:(fun name spec ->
        Gh_isolation.Base.make ~rng:(Rng.named_split root name) spec)
  in
  Node.register node ~name:"fn" Fm.default_spec;
  let shed = ref [] and completed = ref [] in
  Node.set_on_shed node (fun reason r -> shed := (reason, r.Request.id) :: !shed);
  (* Request 1 is already dead on arrival; request 2 has plenty of time. *)
  Engine.at engine ~time:(Time_ns.of_ms 10.0) (fun () ->
      Node.submit node ~name:"fn"
        (req ~deadline:(Time_ns.of_ms 5.0) 1)
        ~on_complete:(fun r _ -> completed := r.Request.id :: !completed);
      Node.submit node ~name:"fn"
        (req ~deadline:(Time_ns.of_sec 30.0) 2)
        ~on_complete:(fun r _ -> completed := r.Request.id :: !completed));
  Engine.run_all engine;
  check_bool "dead-on-arrival shed" true (List.mem (Admission.Expired, 1) !shed);
  check_bool "live request served" true (!completed = [ 2 ]);
  check_int "expired counted" 1 (Node.total_expired node);
  check_int "no deadline miss" 0 (Node.total_deadline_misses node)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "overload"
    [
      ( "admission",
        [
          Alcotest.test_case "unbounded stays pure fifo" `Quick test_unbounded_is_fifo;
          Alcotest.test_case "fifo drop-tail" `Quick test_fifo_drop_tail;
          Alcotest.test_case "lifo" `Quick test_lifo_drops_oldest_serves_newest;
          Alcotest.test_case "edf drop" `Quick test_edf_drops_earliest_expiry;
          Alcotest.test_case "fair share" `Quick test_fair_share_drops_heaviest_tenant;
          Alcotest.test_case "dead on arrival" `Quick test_dead_on_arrival_rejected;
          Alcotest.test_case "queued expiry" `Quick test_queued_requests_expire;
          Alcotest.test_case "shed all" `Quick test_shed_all;
          to_alcotest admission_matches_reference;
        ] );
      ( "brownout",
        [
          Alcotest.test_case "escalation streak" `Quick test_brownout_escalates_after_streak;
          Alcotest.test_case "hysteretic recovery" `Quick test_brownout_recovers_hysteretically;
          Alcotest.test_case "dead band" `Quick test_brownout_dead_band_resets_streaks;
          Alcotest.test_case "priority shedding" `Quick
            test_brownout_sheds_only_low_priority_at_top_level;
        ] );
      ( "reservoir",
        [
          Alcotest.test_case "exact below capacity" `Quick test_reservoir_exact_below_capacity;
          Alcotest.test_case "bounded memory" `Quick test_reservoir_bounds_memory;
          Alcotest.test_case "deterministic" `Quick test_reservoir_deterministic;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "burst determinism" `Quick test_burst_deterministic_and_ascending;
          Alcotest.test_case "burst validation" `Quick test_burst_validates_arguments;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runaway guard trips" `Quick test_run_all_guard_trips;
          Alcotest.test_case "finite runs unaffected" `Quick test_run_all_guard_spares_finite_runs;
        ] );
      ( "backoff",
        [
          to_alcotest backoff_monotone_to_cap;
          to_alcotest backoff_jitter_stays_in_band;
          to_alcotest backoff_rejects_bad_attempts;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "request semantics" `Quick test_request_deadline_semantics;
          Alcotest.test_case "node sheds expired" `Quick test_node_sheds_expired_never_serves_them;
        ] );
      ( "degraded-gh",
        [
          Alcotest.test_case "defers without leaking" `Quick test_gh_degraded_defers_but_never_leaks;
          Alcotest.test_case "crossing principals" `Quick test_gh_crossing_principals_while_degraded;
        ] );
    ]
