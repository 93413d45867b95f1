"""One workload in one fresh interpreter.

Started by run.py.  It imports framefree from the checkout's src/, builds the
workload's round from the seed, runs one warm-up operation and prints READY.
With --setup-only it stops there; otherwise it runs whole rounds until
--seconds have passed and at least MIN_OPS operations were attempted, then
prints one JSON line with the raw measurements.  With --trace 1 the rounds
run with framefree's public functions wrapped (tracing.py), and one more
round runs with tracemalloc on to record the memory peaks.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import framefree  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_OPS = 100


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(framefree.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"framefree was imported from {src}, not from this checkout", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        index = tuple(workloads.WORKLOADS).index(args.workload)
        rng = np.random.default_rng([args.seed, index])
        ops = workloads.WORKLOADS[args.workload](rng, workdir, args.seed)
        ops[0].run()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return measure(ops, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(ops, args) -> int:
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(framefree)
    latencies, round_walls = [], []
    failed = 0
    unexpected = {}
    reported = set()
    clock = time.perf_counter
    start = clock()
    while True:
        round_wall = 0.0
        for op in ops:
            t0 = clock()
            out = op.run()
            dt = clock() - t0
            latencies.append(dt)
            round_wall += dt
            problems = op.check(out)
            if not problems:
                continue
            failed += 1
            allowed = workloads.FAULT_TAGS.get(op.fault, ())
            stray = [p for p in problems if p[0] not in allowed]
            if stray:
                unexpected.setdefault(op.name, stray[0][1])
            elif op.name not in reported:
                reported.add(op.name)
                print(f"[fault {op.fault}] {op.name}: {problems[0][1]}", file=sys.stderr)
        round_walls.append(round_wall)
        if clock() - start >= args.seconds and len(latencies) >= MIN_OPS:
            break
    if tracer is not None:
        timing = {name: list(entry) for name, entry in tracer.totals.items()}
        tracer.memory = True
        tracemalloc.start()
        for op in ops:
            op.run()
        tracemalloc.stop()
    lat_ms = 1e3 * np.array(latencies)
    result = {
        "attempted": len(latencies),
        "failed": failed,
        "unexpected": [f"{name}: {msg}" for name, msg in unexpected.items()],
        "rounds": len(round_walls),
        "wall_s": float(np.median(round_walls)),
        "op_ms_p50": float(np.percentile(lat_ms, 50)),
        "op_ms_p90": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(timing, len(round_walls))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
