(** Fault injection (robustness extension): the fail-closed recovery
    pipeline under seeded faults.

    Each container gets a deterministic fault plan (every injection site —
    ptrace stops, /proc reads, snapshot page copies, restore syscalls,
    function crashes and hangs — fails with the swept probability, from its
    own seeded stream), and the invoker runs with recovery enabled: hung
    requests are killed at a timeout and retried under capped backoff,
    poisoned containers are cold-restarted (kill + re-exec + warm-up +
    re-snapshot, off the critical path), and repeat offenders are
    quarantined. The experiment reports availability, goodput, MTTR and
    p99 latency per strategy and fault rate.

    The fail-closed property is checked on every dispatch: a strategy with
    a lifecycle state must report [`Clean] at the instant a request enters
    it. Any violation is counted in [unsafe_served] — the harness treats a
    nonzero total as a hard failure. *)

type row = {
  strategy : Gh_isolation.Registry.id;
  fault_rate : float;
  offered : int;
  delivered : int;  (** Responses produced (including crash-error ones' complement). *)
  crashed : int;  (** Error responses from mid-request crashes. *)
  failed : int;  (** Abandoned after the retry budget, plus lost in wedges. *)
  timeouts : int;
  retries : int;
  quarantined : int;
  replacements : int;  (** Successful cold restarts. *)
  unsafe_served : int;  (** Requests served by a non-clean process — must be 0. *)
  availability : float;  (** delivered / offered. *)
  goodput_rps : float;  (** Delivered responses per simulated second. *)
  mttr_ms : float;  (** Mean failure-to-serving-again time; NaN without samples. *)
  p99_ms : float;  (** Of delivered end-to-end latencies; NaN without samples. *)
}

type cell
(** A (fault rate, strategy) grid point. *)

val sweep : (cell, row) Gated_sweep.spec
(** Rates 0, 1e-4, 1e-3 and 1e-2 per site (smoke: 0 and 1e-3) over BASE,
    GH, GH_NOP and FORK; the gate sums [unsafe_served]. *)
