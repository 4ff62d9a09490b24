(* The shape every workload shares, and the run that drives it.

   A pass is one fixed amount of simulated work: its set-up (inputs,
   deployment, warm-up requests) and its measured part are timed
   separately. The first pass verifies every output (some checks cost
   host time of their own, so a workload may keep that pass out of the
   medians); every later pass must reproduce its simulated digest bit for
   bit. An untraced run repeats passes until the run's time is up and
   reports medians; a traced run makes one untraced and one traced pass
   after the verifying one (so neither pays the process's one-time costs)
   and derives the per-layer metrics from the traced one. *)

type pass = {
  setup : Common.cost;
  host : Common.cost;
  digest : string;  (** md5 over every simulated statistic the pass reports. *)
  measured : int;  (** Simulated requests in the measured part. *)
  failed : int;  (** Of those: failed, shed or expired. *)
  engine_requests : int;  (** Every request the pass drove through the engine. *)
}

type 'sim t = {
  verify_is_free : bool;  (** The verifying pass costs no extra host time. *)
  pass : ?tr:Layer.t -> Out.t -> verify:bool -> pass * 'sim;
  report : Out.t -> 'sim -> requests:int -> host_s:float -> unit;
      (** The simulated metrics of a verified pass. *)
  probe_specs : Gh_faas.Function_model.spec list;
  deploy_probe : (Layer.t -> Out.t -> int) option;
      (** Traced engine-driven work beyond the pass, for a workload whose
          pass cannot be traced inside (returns the requests it drove). *)
}

let probe_reps = function Common.Normal -> 8 | Common.Tiny -> 2

let run w out ~seed ~size ~seconds ~trace ~trace_out =
  let start = Layer.now_ns () in
  let v, vsim = w.pass out ~verify:true in
  let same_digest (p : pass) =
    Out.check out (p.digest = v.digest) "simulated digest moved between passes: %s vs %s"
      p.digest v.digest
  in
  let attempt (p : pass) =
    out.Out.attempted <- out.Out.attempted + p.measured;
    out.Out.failed <- out.Out.failed + p.failed
  in
  attempt v;
  Out.note out "sim_digest %s" v.digest;
  Out.metric out "failed_frac" "ratio" (float_of_int v.failed /. float_of_int (max 1 v.measured));
  if not trace then begin
    let elapsed = float_of_int (Layer.now_ns () - start) /. 1e9 in
    let more =
      Common.repeat
        ~min_runs:(if w.verify_is_free then 0 else 1)
        ~seconds:(seconds -. elapsed)
        (fun _ -> fst (w.pass out ~verify:false))
    in
    List.iter same_digest more;
    List.iter attempt more;
    let passes = if w.verify_is_free then v :: more else more in
    Common.host_metrics out (List.map (fun p -> (p.setup, p.host)) passes);
    w.report out vsim ~requests:v.measured
      ~host_s:(Common.median (List.map (fun p -> p.host.Common.host_s) passes))
  end
  else begin
    let u = fst (w.pass out ~verify:false) in
    let tr = Layer.create () in
    let t, _ = w.pass ~tr out ~verify:false in
    List.iter same_digest [ u; t ];
    let requests =
      match w.deploy_probe with Some deploy -> deploy tr out | None -> t.engine_requests
    in
    Probe.run tr out ~seed ~reps:(probe_reps size) w.probe_specs;
    Common.engine_layer_metrics out tr ~requests;
    Out.metric out "gc.minor_collections" "count" (float_of_int u.host.Common.minor_gcs);
    Out.metric out "gc.major_collections" "count" (float_of_int u.host.Common.major_gcs);
    Common.trace_metrics out tr ~trace_out ~untraced_s:u.host.Common.scaled_s
      ~traced_s:t.host.Common.scaled_s;
    w.report out vsim ~requests:v.measured ~host_s:u.host.Common.host_s
  end
