(** Overload-protection sweep: open-loop bursty arrivals at multiples of
    each strategy's measured capacity, with the platform's protection stack
    (deadlines + bounded EDF admission + brownout) on and off over the same
    deterministic arrival stream.

    Reports goodput (completions within deadline), shed/expired/failed
    counts, deadline-miss rate, and p50/p99 latency per utilization point,
    and cross-checks the overload contract: no request served by a
    non-clean process, no cross-principal residue from an isolating
    strategy, no shed request that consumed work, no late completion the
    node failed to count. *)

type row = {
  strategy : Gh_isolation.Registry.id;
  protected : bool;
  util : float;  (** Offered load as a multiple of measured capacity. *)
  offered : int;
  offered_rps : float;
  completed : int;
  goodput : int;  (** Completed within the deadline budget. *)
  goodput_rps : float;
  shed : int;
  expired : int;
  failed : int;
  deadline_misses : int;  (** Late completions, as counted by the node. *)
  miss_rate : float;  (** Late completions / completions. *)
  p50_ms : float;
  p99_ms : float;
  queue_high_water : int;
  cold_starts : int;
  brownout_escalations : int;
  unsafe_served : int;  (** Dispatches to a non-clean process. Must be 0. *)
  leaked_words : int;  (** Foreign residue served by an isolating strategy. Must be 0. *)
  shed_served : int;  (** Shed requests that still consumed work. Must be 0. *)
  late_uncounted : int;  (** Late completions the node failed to count. Must be 0. *)
}

type cell
(** A (utilization, strategy, protection) grid point. *)

val sweep : (cell, row) Gated_sweep.spec
(** Utilizations 0.5x to 2.0x of measured capacity (smoke: 0.8x and 1.6x)
    over BASE and GH, each protected and unprotected over the identical
    arrival stream (keyed by seed, strategy, util). Strategies the spec
    does not support are skipped. Fully deterministic — including every
    shed decision — per [cfg.seed]. The gate sums [unsafe_served],
    [leaked_words], [shed_served] and [late_uncounted]; the table's
    'unsafe' column shows the same sum. *)
