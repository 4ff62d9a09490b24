(** Gated sweeps: a grid of cells, one table, and a fail-closed gate.

    A gated sweep runs one cell per grid point, prints one row per cell,
    and fails when a contract is broken. Each sweep declares only what
    differs: its cell, its full and smoke grids, its columns, the
    per-row [violations] its gate sums and any sweep-level [checks]. The
    same [violations] renders the table's violation column, so the table
    and the gate cannot disagree. The [gh-bench] subcommands are built
    from these declarations; the [run extras] reports print the full
    grid without gating. *)

type ('cell, 'row) spec = {
  name : string;  (** Subcommand name. *)
  doc : string;  (** Subcommand description. *)
  benchmark : string;  (** Default [-b]. *)
  benchmark_doc : string;
  n : int;  (** Default [-n]: requests per cell on the full grid. *)
  n_doc : string;
  grid : 'cell list;  (** The full grid, in row order. *)
  smoke : 'cell list;  (** The CI grid. *)
  smoke_n : int;  (** Requests per cell on the smoke grid ([-n] is ignored). *)
  smoke_doc : string;
  cell : Config.t -> Gh_workloads.Catalog.entry -> requests:int -> 'cell -> 'row option;
      (** One measurement; [None] skips the cell (a strategy the
          benchmark does not support). *)
  title : Gh_workloads.Catalog.entry -> string;
  columns : (string * ('row -> string)) list;  (** Header and cell of each column. *)
  violations : 'row -> int;  (** Contract breaches in one row; the gate sums them. *)
  gate : int -> string;  (** The failure for a nonzero violation total. *)
  checks : 'row list -> string list;
      (** Sweep-level failures, evaluated only when no row violates;
          joined with ["; "]. *)
}

type t = Sweep : (_, _) spec -> t

val run :
  ('cell, 'row) spec ->
  Config.t ->
  ?smoke:bool ->
  ?requests:int ->
  Gh_workloads.Catalog.entry ->
  'row list
(** Every cell of the full grid ([smoke] = false, the default) with
    [requests] (default [n]) per cell, or of the smoke grid with
    [smoke_n]. Cells run in grid order. *)

val print :
  ('cell, 'row) spec -> Format.formatter -> Gh_workloads.Catalog.entry -> 'row list -> unit

val gate : ('cell, 'row) spec -> 'row list -> (unit, string) result
(** [Error (gate total)] when any row violates, else the joined
    [checks], else [Ok ()]. *)

(** {1 Shared cell pieces} *)

val product : 'a list -> 'b list -> ('a * 'b) list
(** Grid product, first list outermost. *)

val fmt_opt : int -> float -> string
(** [fmt_opt digits v]: [v] with [digits] decimals, ["-"] for NaN. *)

val principals : Gh_faas.Principal.t array
(** Alice and bob; requests alternate between them. *)

val recovery : Gh_faas.Function_model.spec -> Gh_faas.Invoker.recovery
(** The default recovery policy with the hang timeout scaled to the
    workload ([1 s + 8 x exec]), so slow benchmarks are not killed while
    legitimately computing. *)

type guard = {
  served : (int, unit) Hashtbl.t;  (** Ids of requests dispatched. *)
  mutable unsafe : int;  (** Dispatches into a non-clean process. *)
  mutable leaks : int;  (** Foreign residue words an isolating strategy served. *)
}

val guard_stats : unit -> guard

val guard : guard -> Gh_faas.Strategy_intf.t -> Gh_faas.Strategy_intf.t
(** Checks every dispatch against the strategy's own lifecycle state
    (not [`Clean] is unsafe) and its response against the caller's
    principal (a foreign residue word is a leak). A strategy without a
    lifecycle state is exempt from both. *)

val service_ns :
  Config.t -> Gh_isolation.Registry.id -> Gh_faas.Function_model.spec -> seed:int -> int
(** Mean per-request core occupancy (critical path + deferred work, plus
    dispatch), probed on a throwaway instance seeded with [seed]. The
    probe alternates principals so a restore is always charged. *)
