module Catalog = Gh_workloads.Catalog
module Registry = Gh_isolation.Registry
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Invoker = Gh_faas.Invoker
module Request = Gh_faas.Request

type ('cell, 'row) spec = {
  name : string;
  doc : string;
  benchmark : string;
  benchmark_doc : string;
  n : int;
  n_doc : string;
  grid : 'cell list;
  smoke : 'cell list;
  smoke_n : int;
  smoke_doc : string;
  cell : Config.t -> Catalog.entry -> requests:int -> 'cell -> 'row option;
  title : Catalog.entry -> string;
  columns : (string * ('row -> string)) list;
  violations : 'row -> int;
  gate : int -> string;
  checks : 'row list -> string list;
}

type t = Sweep : (_, _) spec -> t

let run s cfg ?(smoke = false) ?(requests = s.n) entry =
  let grid, requests = if smoke then (s.smoke, s.smoke_n) else (s.grid, requests) in
  List.filter_map (s.cell cfg entry ~requests) grid

let print s ppf entry rows =
  Report.table ppf ~title:(s.title entry) ~header:(List.map fst s.columns)
    (List.map (fun r -> List.map (fun (_, col) -> col r) s.columns) rows)

let gate s rows =
  match List.fold_left (fun n r -> n + s.violations r) 0 rows with
  | 0 -> ( match s.checks rows with [] -> Ok () | msgs -> Error (String.concat "; " msgs))
  | n -> Error (s.gate n)

(* -- shared cell pieces -- *)

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs
let fmt_opt digits v = if Float.is_nan v then "-" else Printf.sprintf "%.*f" digits v

let principals =
  [| Gh_faas.Principal.make ~id:1 ~name:"alice"; Gh_faas.Principal.make ~id:2 ~name:"bob" |]

let recovery (spec : Fm.spec) =
  let d = Invoker.default_recovery in
  let timeout = Gh_sim.Time_ns.of_sec 1.0 + (8 * spec.Fm.exec_ns) in
  { d with Invoker.container = { d.container with Gh_faas.Container.timeout_ns = Some timeout } }

type guard = { served : (int, unit) Hashtbl.t; mutable unsafe : int; mutable leaks : int }

let guard_stats () = { served = Hashtbl.create 256; unsafe = 0; leaks = 0 }

(* The fail-closed checker: every dispatch is gated on the strategy's own
   lifecycle state, and an isolating strategy serving a word tagged with
   another principal's id is a cross-domain leak. A strategy without a
   lifecycle state (fork, base) reports [None] and is exempt — it has no
   provably-clean notion to violate. *)
let guard stats (s : Intf.t) =
  {
    s with
    Intf.invoke =
      (fun req ->
        let status = s.Intf.status () in
        (match status with
        | Some `Clean | None -> ()
        | Some _ -> stats.unsafe <- stats.unsafe + 1);
        Hashtbl.replace stats.served req.Request.id ();
        let inv = s.Intf.invoke req in
        if status <> None then
          List.iter
            (fun w ->
              if w <> 0 && not (Gh_faas.Principal.owns_word req.Request.principal w) then
                stats.leaks <- stats.leaks + 1)
            inv.Intf.response.Fm.residue;
        inv);
  }

let service_ns cfg strategy spec ~seed =
  match Registry.make strategy ~rng:(Gh_sim.Rng.create seed) spec with
  | Error msg -> failwith ("cannot build probe strategy: " ^ msg)
  | Ok s ->
      let n = 8 in
      let total = ref 0 in
      for i = 1 to n do
        let req =
          Request.make ~id:(1_000_000 + i)
            ~principal:principals.(i land 1)
            ~input_kb:spec.Fm.input_kb ()
        in
        let inv = s.Intf.invoke req in
        total := !total + inv.Intf.on_path_ns + inv.Intf.post_ns
      done;
      (!total / n) + cfg.Config.dispatch_ns
