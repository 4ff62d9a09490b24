#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload runall --seed 42 --seconds 30 --trace 0

`--workload all` runs the three workloads one after another, each in a
process of its own so that its heap peak is its own, and prints each
listing with its result line.

The OCaml program (perfbench/bin/main.exe) is built with dune, run once,
and its human-readable listing is passed through. Its last line carries
every metric it measured; this script keeps the ones BENCHMARK.json
declares for the mode (end_to_end without --trace, per_layer with
--trace 1), checks each is present with its declared unit, writes the
full result to perfbench/out/, and prints the selected result as the
last line. Exit status: 0 when every output check passed, 1 when a check
failed, 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
OUT_DIR = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, **kwargs):
    """Run cmd to completion in its own process group; if it overruns,
    kill the whole group (dune's compilers too) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: dune-project or lib/ is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_child(
        ["dune", "build", "--root", ".", "./perfbench/bin/main.exe"],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed")


def commit():
    """The checked-out commit when this is a git work tree, else "none"."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "none"


def source_digest():
    """md5 over the program's sources, so a result names the code it measured."""
    h = hashlib.md5()
    for top in ("lib", "perfbench/src", "perfbench/bin"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def run_timeout(args):
    """Seconds the program may take. An untraced run measures for
    --seconds, then finishes the pass it is in; besides, the verifying pass
    may fall outside the measured time. A traced run makes four fixed
    passes (verifying, untraced, traced, layer probe) instead. A quick
    pass takes about 12 s here, a full one about 55 s; the allowance
    leaves room for the host's slow spells (1.6x)."""
    per_pass = 90 if args.profile == "full" else 35
    if args.trace:
        return 4 * per_pass
    return args.seconds + 2 * per_pass


def run_workload(workload, args, spec):
    """Run one workload; print its listing and its result line. Returns
    whether every check passed."""
    stem = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}")
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--profile", args.profile,
        "--meta", f"commit={commit()}",
        "--meta", f"source_md5={source_digest()}",
    ]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    code, out = run_child(cmd, run_timeout(args), stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    try:
        full = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail(f"benchmark exited {code} without a result")
    if code not in (0, 1):
        sys.stdout.write(out)
        fail(f"benchmark exited {code}")
    print("\n".join(lines[:-1]))
    with open(stem + ".json", "w") as f:
        json.dump(full, f, indent=1)
        f.write("\n")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = full["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} measured in {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {
        "correct": bool(full["correct"]) and code == 0,
        "attempted": int(full["attempted"]),
        "failed": int(full["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return result["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("quick", "full"), default="quick")
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        fail(f"unknown workload {args.workload!r}")
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    ok = [run_workload(w, args, spec) for w in workloads]
    sys.exit(0 if all(ok) else 1)


if __name__ == "__main__":
    main()
