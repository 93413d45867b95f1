"""framefree benchmark: one workload per call, or all four in turn.

    python3 perfbench/run.py --workload scan_grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Each workload runs in fresh interpreters (worker.py) with BLAS pinned to one
thread.  `setup_s` is the time from spawning an interpreter until it has
imported framefree and numpy, built the workload's inputs and finished one
warm-up operation: the median over SETUP_SAMPLES - 1 interpreters that stop
there (one more goes first, untimed, and writes the bytecode caches) and the
interpreter that goes on to measure.  With --trace 1 the public functions are
wrapped and the per-layer metrics are printed instead.

The last line printed for a workload is its JSON result.  Exit code 2 means
the benchmark could not run (for example, no framefree sources in ./src).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 7
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for key in SINGLE_THREAD:
        env[key] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, timeout: float):
    """Start a worker; return (process, seconds until it printed READY)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            proc.wait(timeout=timeout)
            raise BenchError(f"worker did not start (exit code {proc.returncode})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready


def _finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return out


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    timeout = seconds + 120.0
    setups = []
    if not trace:
        # the first interpreter also writes bytecode caches; it is not timed
        for i in range(SETUP_SAMPLES):
            proc, ready = _spawn(args + ["--setup-only"], timeout)
            _finish(proc, timeout)
            if i:
                setups.append(ready)
    proc, ready = _spawn(args, timeout)
    setups.append(ready)
    lines = _finish(proc, timeout).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    raw = json.loads(lines[-1])
    correct = not raw["unexpected"]
    if trace:
        layers = raw["layers"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        raw["setup_s"] = statistics.median(setups)
        metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for line in raw["unexpected"]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(f"{workload}: {raw['rounds']} rounds, {raw['attempted']} ops, wall per round "
          f"{raw['wall_s']:.3f} s", file=sys.stderr)
    return {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "framefree" / "__init__.py").is_file():
        print(f"error: no framefree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        for name in [args.workload] if args.workload else names:
            result = run_workload(spec, name, args.seed, seconds, args.trace)
            if not args.workload:
                print(f"== {name}: {result['attempted']} operations attempted, "
                      f"{result['failed']} failed, correct={result['correct']}")
                for metric, entry in result["metrics"].items():
                    print(f"   {metric:48s} {entry['value']:.6g} {entry['unit']}")
            print(json.dumps(result), flush=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
