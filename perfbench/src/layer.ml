(* Host-time spans around the benchmark's calls into the program's layers.

   A span's [cat] names the layer it charges ("faas_engine", "isolation",
   "harness", ...) and its timestamps are the host monotonic clock in
   nanoseconds since the tracer was created. The benchmark runs on one
   domain, so spans nest by call order: a layer's self time is its spans'
   durations minus the part their child spans cover. Every span also
   records the words the process allocated while it was open. *)

module Span = Gh_sim.Span

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far by this domain: minor + major - promoted counts
   each allocated word exactly once. [Gc.quick_stat] folds the minor heap
   in only at collections, so the minor part comes from [Gc.minor_words],
   which is exact at any instant. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

type t = {
  spans : Span.t;
  t0 : int;
  mutable stack : (Span.record * float) list;
  words : (int, float) Hashtbl.t;  (** Span id -> words allocated while open. *)
}

let create () =
  { spans = Span.create (); t0 = now_ns (); stack = []; words = Hashtbl.create 4096 }

let span t ~layer name f =
  let parent = match t.stack with (p, _) :: _ -> Some p | [] -> None in
  let r = Span.start t.spans ~at:(now_ns () - t.t0) ?parent ~track:1 ~name ~cat:layer () in
  t.stack <- (r, alloc_words ()) :: t.stack;
  let close () =
    (match t.stack with
    | (_, w0) :: rest ->
        t.stack <- rest;
        Hashtbl.replace t.words r.Span.id (alloc_words () -. w0)
    | [] -> assert false);
    Span.finish t.spans ~at:(now_ns () - t.t0) r
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* [wrap None] is the untraced path: a plain call, no clock reads. *)
let wrap tr ~layer name f = match tr with None -> f () | Some t -> span t ~layer name f

let duration r = float_of_int (r.Span.stop_ns - r.Span.start_ns)

type totals = {
  mutable total_ns : float;
  mutable self_ns : float;
  mutable self_words : float;
}

(* Per-layer totals over the whole forest. *)
let by_layer t =
  let records = Span.records t.spans in
  let child_ns = Hashtbl.create 1024 and child_words = Hashtbl.create 1024 in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let words r = get t.words r.Span.id in
  let bump tbl k v = Hashtbl.replace tbl k (v +. get tbl k) in
  List.iter
    (fun r ->
      Option.iter
        (fun p ->
          bump child_ns p (duration r);
          bump child_words p (words r))
        r.Span.parent)
    records;
  let layers = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let tot =
        match Hashtbl.find_opt layers r.Span.cat with
        | Some tot -> tot
        | None ->
            let tot = { total_ns = 0.0; self_ns = 0.0; self_words = 0.0 } in
            Hashtbl.replace layers r.Span.cat tot;
            tot
      in
      tot.total_ns <- tot.total_ns +. duration r;
      tot.self_ns <- tot.self_ns +. duration r -. get child_ns r.Span.id;
      tot.self_words <- tot.self_words +. words r -. get child_words r.Span.id)
    records;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers [])

(* Durations (ns) and allocations (words) of the spans named [name] in
   [layer], oldest first. *)
let samples t ~layer ~name =
  List.filter_map
    (fun r ->
      if r.Span.cat = layer && r.Span.name = name then
        Some (duration r, Option.value ~default:0.0 (Hashtbl.find_opt t.words r.Span.id))
      else None)
    (Span.records t.spans)

(* The Chrome trace-event export, checked the way [gh-bench trace-validate]
   checks a file: the forest must be well formed and the document must
   re-parse against the trace-event schema. *)
let export t =
  match Span.check t.spans with
  | Error msg -> Error ("span forest: " ^ msg)
  | Ok () -> (
      let doc = Span.chrome_json t.spans in
      match Gh_sim.Json.of_string doc with
      | Error msg -> Error ("chrome json does not re-parse: " ^ msg)
      | Ok json -> (
          match Span.validate_chrome json with
          | Error msg -> Error ("chrome trace: " ^ msg)
          | Ok events -> Ok (doc, events)))
