(* What one benchmark run reports: every metric it measured (name, value,
   unit), free-form notes for the human-readable listing, the outcome of
   every output check, and the operation counts. *)

type t = {
  workload : string;
  mutable metrics : (string * float * string) list;  (** Newest first. *)
  mutable notes : string list;  (** Newest first. *)
  mutable errors : string list;  (** Failed checks, newest first. *)
  mutable attempted : int;
  mutable failed : int;
}

let create workload =
  { workload; metrics = []; notes = []; errors = []; attempted = 0; failed = 0 }

let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt

(* Record a failed check when [ok] is false. *)
let check t ok fmt = Printf.ksprintf (fun s -> if not ok then t.errors <- s :: t.errors) fmt

let metric t name unit value =
  check t (Float.is_finite value) "metric %s is not a finite number" name;
  t.metrics <- (name, (if Float.is_finite value then value else 0.0), unit) :: t.metrics

let correct t = t.errors = []
let metrics t = List.rev t.metrics

let to_json ~meta t =
  let open Gh_sim.Json in
  let num v = if Float.is_integer v && Float.abs v < 1e15 then Int (int_of_float v) else Float v in
  Assoc
    [
      ("correct", Bool (correct t));
      ("attempted", Int t.attempted);
      ("failed", Int t.failed);
      ( "metrics",
        Assoc
          (List.map
             (fun (name, v, unit) -> (name, Assoc [ ("value", num v); ("unit", String unit) ]))
             (metrics t)) );
      ("errors", List (List.rev_map (fun e -> String e) t.errors));
      ("notes", List (List.rev_map (fun n -> String n) t.notes));
      ("meta", Assoc (List.map (fun (k, v) -> (k, String v)) meta));
    ]

let print_human oc ~meta t =
  Printf.fprintf oc "workload %s\n" t.workload;
  List.iter (fun (k, v) -> Printf.fprintf oc "  %-22s %s\n" k v) meta;
  List.iter
    (fun (name, v, unit) -> Printf.fprintf oc "  %-36s %16.6g %s\n" name v unit)
    (metrics t);
  List.iter (fun n -> Printf.fprintf oc "  note: %s\n" n) (List.rev t.notes);
  List.iter (fun e -> Printf.fprintf oc "  CHECK FAILED: %s\n" e) (List.rev t.errors)
