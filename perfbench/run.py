"""Benchmark of the lieclassical verification engine.

    python3 perfbench/run.py --workload gfp-series --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Each workload runs in its own
single-threaded process (perfbench/worker.py) as a closed loop with one
caller: whole rounds of the workload's operations, one after the other,
until --seconds have passed (at least one round).  Every output is checked
against the paper's formulas (perfbench/oracle.py).  The last line of
standard output is one JSON object: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced round.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# each set-up is timed in SETUP_PROBES extra processes as well as in the
# measured one, and setup_s is the median
SETUP_PROBES = 4
DEADLINE_S = 170
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker(args, deadline, setup_only=False):
    """Run one workload process; returns its JSON result and spawn time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({k: "1" for k in THREAD_ENV})
    # set-up imports cached bytecode, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "lieclassical", "cli.py")):
        print(f"error: no lieclassical sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, spawned = worker(args, deadline, setup_only=True)
                setups.append(probe["ready"] - spawned)
        res, spawned = worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["ready"] - spawned)

    for err in res["errors"]:
        print(f"incorrect: {err}", file=sys.stderr)
    correct = not res["errors"] and len(set(res["claims"])) == 1
    if args.trace:
        measured = dict(res["layers"])
        measured.update({f"verify.{op}.s": s for op, s in res["op_s"].items()})
        metrics = {name: {"value": measured.get(name, 0), "unit": unit}
                   for name, unit in tracer.layer_metric_names(workloads.op_names())}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
            "claims_checked": {"value": res["claims"][0], "unit": "count"},
        }
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
