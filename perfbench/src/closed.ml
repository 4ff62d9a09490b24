(* A closed loop: one client, no think time, one prestarted container.
   The next request is sent the moment the previous response arrives, so
   the strategy's deferred work (GH's restore, FORK's reap) sits in front
   of it — Fig. 3's back-to-back ("high load") latency. *)

module Engine = Gh_sim.Engine
module Invoker = Gh_faas.Invoker
module Request = Gh_faas.Request

type t = { engine : Engine.t; invoker : Invoker.t; input_kb : int; mutable next_id : int }

let create strategy ~input_kb =
  let engine = Engine.create () in
  let invoker =
    Invoker.create engine ~n_containers:1 ~dispatch_ns:Common.dispatch_ns
      ~make_strategy:(fun _ -> strategy)
  in
  { engine; invoker; input_kb; next_id = 0 }

(* Send [n] requests back to back and run the engine dry; [on_sample]
   receives each invocation and its latency from send to response. *)
let drive ?tr t ~n ~on_sample =
  let rec send i =
    if i < n then begin
      t.next_id <- t.next_id + 1;
      let sent = Engine.now t.engine in
      let req =
        Request.make ~id:t.next_id ~principal:Common.principals.(t.next_id land 1)
          ~input_kb:t.input_kb ()
      in
      Invoker.submit t.invoker req ~on_response:(fun _ inv ->
          Layer.wrap tr ~layer:"bench" "on_response" (fun () ->
              on_sample inv (Engine.now t.engine - sent));
          send (i + 1))
    end
  in
  Engine.at t.engine ~time:(Engine.now t.engine) (fun () -> send 0);
  Layer.wrap tr ~layer:"faas_engine" "run_all" (fun () -> Engine.run_all t.engine)
