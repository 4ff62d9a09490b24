#!/bin/sh
# Tier-1 CI gate: build everything, run every test suite, then exercise
# the fault-injection pipeline.
# Usage: sh ci/check.sh
set -eu
cd "$(dirname "$0")/.."
dune build
dune build bench/main.exe
dune runtest

# Page-data moves go through the barrier-free Gh_sim.Words kernels: the
# polymorphic Array.blit/Array.fill pay the write barrier on every word of
# a major-heap array. Fail if one reappears in the page-data modules. The
# only allowed hits are Address_space's blits of its Vma.t array (t.arr),
# which holds pointers and needs the barrier.
if grep -n 'Array\.\(blit\|fill\)' lib/mem/vma.ml lib/mem/bitmap.ml \
     lib/core/snapshot.ml lib/sim/buffer_pool.ml; then
  echo "ci/check.sh: use Gh_sim.Words.blit/fill for page data" >&2
  exit 1
fi
if grep -n 'Array\.\(blit\|fill\)' lib/mem/address_space.ml \
     | grep -v 'Array\.blit t\.arr '; then
  echo "ci/check.sh: use Gh_sim.Words.blit/fill for page data" >&2
  exit 1
fi

# Fault suite under three fixed seeds: the plan schedules and the whole
# recovery pipeline must replay bit-identically from each.
for seed in 1 42 1337; do
  GH_FAULT_SEED=$seed dune exec test/test_fault.exe >/dev/null
done

# End-to-end smoke sweep. The subcommand exits nonzero if any request was
# served by a non-clean process (the fail-closed gate).
dune exec bin/gh_bench.exe -- fault --smoke --seed 42 >/dev/null

# Cluster fault sweep under three fixed seeds. The subcommand exits
# nonzero on any delivery violation (double-serve, serve-after-fail,
# unaccounted request, conservation breach) or if the failover arm
# misses its availability/latency acceptance gates.
for seed in 1 42 1337; do
  dune exec bin/gh_bench.exe -- cluster --smoke --seed $seed >/dev/null
done

# Snapshot-integrity smoke sweep under three fixed seeds. The subcommand
# exits nonzero if any request is served from corrupted state under full
# verification (fail-closed), or if the unverified baseline fails to
# demonstrate the hazard the verification machinery closes.
for seed in 1 42 1337; do
  dune exec bin/gh_bench.exe -- scrub --smoke --seed $seed >/dev/null
done

# Overload smoke sweep. The subcommand exits nonzero on any overload
# contract breach: a request completing after its deadline without being
# counted a miss, a shed request that consumed restore work, a non-clean
# serve, or cross-principal residue.
dune exec bin/gh_bench.exe -- overload --smoke --seed 42 >/dev/null

# SLO observability smoke under three fixed seeds. The subcommand exits
# nonzero on any observability contract breach on the failover-on arm: a
# gated objective (availability, sustained latency) breached with no
# prior burn-rate alert, a flight-recorder dump that fails schema
# validation or does not cover its pre-failure window, or an unclosed
# span tree.
for seed in 1 42 1337; do
  dune exec bin/gh_bench.exe -- slo --smoke --seed $seed >/dev/null
done

# Engine hot-loop bench: the calendar-queue vs reference-heap group must
# build and run (the differential ordering property itself runs under
# `dune runtest` above), and it records the trajectory in BENCH_engine.json.
dune exec bench/main.exe -- --engine-only >/dev/null
test -s BENCH_engine.json

# Bit-identity gate: the quick-profile evaluation sweep must replay
# byte-for-byte against the committed baseline — the determinism contract
# (time, seq) event order, RNG streams, formatting — all of it. The run
# collects windowed time series and SLO state on the side: observability
# only reads the clock, so stdout must not move by a byte with the
# collectors attached. Regenerate ci/runall_quick.md5 only with an
# intentional, reviewed behavior change.
dune exec bin/gh_bench.exe -- run all --seed 42 --profile quick \
  --series-out /tmp/gh_ci_series.txt --slo /tmp/gh_ci_slo.json \
  > /tmp/gh_ci_runall_quick.txt
md5sum /tmp/gh_ci_runall_quick.txt | awk '{print $1}' \
  | diff - ci/runall_quick.md5
test -s /tmp/gh_ci_series.txt
test -s /tmp/gh_ci_slo.json

# Byte-identity gates for the Node/Cluster/Admission paths: quick
# `run all` never builds a Node, so the extras sweep and the stdout of
# every gated sweep at seed 42 are pinned too, on the smoke grid
# (ci/<sweep>_smoke.md5) and on the full default grid
# (ci/<sweep>_full.md5). Each run must also exit 0: its contract gate
# holds. Regenerate these files only with an intentional, reviewed
# behavior change.
dune exec bin/gh_bench.exe -- run extras --seed 42 --profile quick \
  > /tmp/gh_ci_runall_extras.txt
md5sum /tmp/gh_ci_runall_extras.txt | awk '{print $1}' | diff - ci/runall_extras.md5
for sweep in fault scrub overload cluster slo; do
  dune exec bin/gh_bench.exe -- $sweep --smoke --seed 42 > /tmp/gh_ci_${sweep}_smoke.txt
  md5sum /tmp/gh_ci_${sweep}_smoke.txt | awk '{print $1}' | diff - ci/${sweep}_smoke.md5
  dune exec bin/gh_bench.exe -- $sweep --seed 42 > /tmp/gh_ci_${sweep}_full.txt
  md5sum /tmp/gh_ci_${sweep}_full.txt | awk '{print $1}' | diff - ci/${sweep}_full.md5
done

# Allocation gate: a serial quick sweep allocates a deterministic number
# of words, so a rise over the committed counts in
# ci/runall_quick_alloc.txt is an allocation regression. Promotion into
# the major heap shifts by some thousands of words with the length of
# argv, the environment and the checkout path, so both counts get 0.1%
# slack. Lower the committed counts when a change cuts allocation.
dune exec bin/gh_bench.exe -- run all --seed 42 --profile quick --gc-stats \
  2>/tmp/gh_ci_alloc.txt >/dev/null
awk 'NR == FNR { limit[$1] = $2; next }
     /^gc-stats: minor_words=/ {
       for (i = 2; i <= 3; i++) {
         split($i, kv, "=")
         seen++
         if (!(kv[1] in limit)) { bad = 1; continue }
         if (kv[2] > limit[kv[1]] * 1.001) {
           printf "ci/check.sh: %s = %d exceeds %d\n", kv[1], kv[2], limit[kv[1]] \
             > "/dev/stderr"
           bad = 1
         }
       }
     }
     END { exit (bad || seen != 2) }' ci/runall_quick_alloc.txt /tmp/gh_ci_alloc.txt

# Parallel bit-identity gate: the same sweep fanned across 4 domains must
# be byte-for-byte identical to the serial run (and hence to the committed
# baseline) — cells seed their own RNGs and merge in input order, so any
# difference means shared state leaked into a sweep.
dune exec bin/gh_bench.exe -- run all --seed 42 --profile quick -j 4 \
  > /tmp/gh_ci_runall_quick_j4.txt
diff /tmp/gh_ci_runall_quick.txt /tmp/gh_ci_runall_quick_j4.txt
md5sum /tmp/gh_ci_runall_quick_j4.txt | awk '{print $1}' \
  | diff - ci/runall_quick.md5

# Full-profile bit-identity gate: the paper-sized sweep, fanned over 2
# domains (byte-identical to a serial run, as the gate above shows for
# the quick profile), must replay the committed ci/runall_full.md5.
dune exec bin/gh_bench.exe -- run all --seed 42 -j 2 > /tmp/gh_ci_runall_full.txt
md5sum /tmp/gh_ci_runall_full.txt | awk '{print $1}' | diff - ci/runall_full.md5

# Domain-pool suite once more with an oversubscribed job count: the
# List.map-equivalence properties must hold when workers outnumber cores.
GH_JOBS=8 dune exec test/test_parallel.exe >/dev/null

# Observability smoke: export a trace + metrics snapshot from a fixed-seed
# run, validate the Chrome trace JSON against our own parser/schema check,
# and diff the metrics snapshot against the committed baseline — any
# counting drift (or nondeterminism) in the instrumented stack fails CI.
dune exec bin/gh_bench.exe -- trace "json (n)" --seed 42 \
  --trace-out /tmp/gh_ci_trace.json --metrics-out /tmp/gh_ci_metrics.txt \
  >/dev/null
dune exec bin/gh_bench.exe -- trace-validate /tmp/gh_ci_trace.json >/dev/null
diff -u ci/metrics_baseline.txt /tmp/gh_ci_metrics.txt

# Shared-collector downgrade: asking for -j with a collector attached
# must keep the run serial and say so on stderr, naming the causing flag.
dune exec bin/gh_bench.exe -- run all --seed 42 --profile quick -j 4 \
  --series-out /tmp/gh_ci_series_warn.txt \
  >/dev/null 2>/tmp/gh_ci_downgrade_warn.txt
grep -q -- '--series-out' /tmp/gh_ci_downgrade_warn.txt
grep -q 'ignoring -j 4' /tmp/gh_ci_downgrade_warn.txt

echo "ci/check.sh: OK"
