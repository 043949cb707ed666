"""One workload's process: import the program, build the inputs, run rounds.

Started by run.py with BLAS/OpenMP threads pinned to 1.  A round runs every
operation of the workload once, one after the other, each in-process through
`lieclassical.cli.main`.  Prints one JSON line of raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads
from tracer import Tracer
from workloads import Mismatch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def run_round(cli_main, ops):
    """Run every op once; returns the round's wall time and its per-op records."""
    records = []
    t_first = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(op.argv + ["--output", "json"])
        except Exception as exc:  # an uncaught error is a failed operation
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        records.append((op, code, out.getvalue(), err.getvalue(), time.perf_counter() - t0))
    return time.perf_counter() - t_first, records


def check_round(records):
    """Check each verdict; returns (claims checked, failed ops, errors)."""
    claims, failed, errors, factors = 0, 0, [], {}
    for op, code, out, err, _ in records:
        if code != 0 and code != 1:
            failed += 1
            if not (op.known_fault and op.known_fault in err):
                print(f"{op.name}: failed: {err.strip()}", file=sys.stderr)
            continue
        try:
            data = json.loads(out)
            if code == 1:
                raise Mismatch("some claim of the report failed")
            claims += op.check(data)
            factors[op.name] = sorted(data.get("factor dims", []))
        except (Mismatch, ValueError, KeyError, TypeError) as exc:
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
    for op, *_ in records:
        ref = op.same_factors_as
        if ref and op.name in factors and ref in factors and factors[op.name] != factors[ref]:
            errors.append(f"{op.name}: factors {factors[op.name]} differ from {ref}'s {factors[ref]}")
    return claims, failed, errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lieclassical.cli import main as cli_main

    form_dir = os.path.join(OUT, f"forms-{os.getpid()}")
    os.makedirs(form_dir, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, 0, form_dir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return
        result = {"ready": ready, "rounds": [], "claims": [], "attempted": 0,
                  "failed": 0, "errors": []}
        t_start = time.perf_counter()
        while True:
            wall, records = run_round(cli_main, ops)
            _tally(result, wall, records)
            if args.trace or time.perf_counter() - t_start >= args.seconds:
                break
            ops = workloads.build(args.workload, args.seed, len(result["rounds"]), form_dir)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            result["op_s"] = {op.name: s for op, _, _, _, s in records}
            result["layers"] = _traced_round(ops, result, args)
        print(json.dumps(result))
    finally:
        shutil.rmtree(form_dir, ignore_errors=True)


def _tally(result, wall, records):
    claims, failed, errors = check_round(records)
    result["rounds"].append(wall)
    result["claims"].append(claims)
    result["attempted"] += len(records)
    result["failed"] += failed
    result["errors"] += errors


def _traced_round(ops, result, args):
    tracer = Tracer()
    tracer.install()
    cli_main = sys.modules["lieclassical.cli"].main  # now the traced one
    wall, records = run_round(cli_main, ops)
    _tally(result, wall, records)
    layers = tracer.metrics()
    layers["trace.overhead_s"] = wall - statistics.median(result["rounds"][:-1])
    tracer.save(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"))
    return layers


if __name__ == "__main__":
    main()
