"""Collect sets of benchmark runs and compare them.

    python3 perfbench/sets.py collect --seeds 1-10 --out perfbench/results/a.jsonl
    python3 perfbench/sets.py collect --seeds 11-20 --workloads scan_grid --trace 1 \\
        --out perfbench/results/trace.jsonl
    python3 perfbench/sets.py compare perfbench/results/a.jsonl [perfbench/results/b.jsonl]

`collect` runs run.py once per workload and seed, each in its own process,
and appends one JSON line per run.  `compare` prints, per workload and
metric, the median and the quartile spread (Q3 - Q1 over the median) of
each set; with two sets it also prints the shift of the second median over
the first and the failed-operation shares.  It exits 1 when a spread
(setup_s excepted) or a shift in the worse direction exceeds the metric's
bound in BENCHMARK.json, or when the failed shares differ.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in _seeds(args.seeds):
        for name in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            record = {"workload": name, "seed": seed, "trace": args.trace, "result": result}
            with open(out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
    return status


def _load(path: str) -> dict:
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def _summary(values: list):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def compare(args) -> int:
    sets = [_load(p) for p in args.files]
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    status = 0
    for name in sorted(sets[0]):
        runs = [s.get(name, []) for s in sets]
        if not all(runs):
            print(f"== {name}: not in every set, skipped")
            continue
        print(f"== {name}  ({', '.join(str(len(r)) for r in runs)} runs)")
        shares = [sorted({r["failed"] / r["attempted"] for r in rs}) for rs in runs]
        print(f"   failed share per set: {shares}")
        if any(len(s) > 1 for s in shares) or (len(shares) == 2 and shares[0] != shares[1]):
            status = 1
        if not all(r["correct"] for rs in runs for r in rs):
            print("   some runs are not correct")
            status = 1
        metrics = runs[0][0]["metrics"]
        for metric in metrics:
            cols = []
            meds = []
            for rs in runs:
                med, spread = _summary([r["metrics"][metric]["value"] for r in rs])
                meds.append(med)
                cols.append(f"median {med:11.5g}  spread {spread:6.1%}")
                spec = bounds.get(metric)
                if spec and metric != "setup_s" and spread > spec["bound"]:
                    status = 1
            line = f"   {metric:44s} " + " | ".join(cols)
            spec = bounds.get(metric)
            if len(meds) == 2 and meds[0]:
                shift = meds[1] / meds[0] - 1.0
                line += f" | shift {shift:+.1%}"
                if spec:
                    worse = shift if spec["better"] == "lower" else -shift
                    line += f" (bound {spec['bound']:.0%})"
                    if worse > spec["bound"]:
                        status = 1
            print(line)
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    c.add_argument("--workloads", default="all")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("files", nargs="+")
    args = ap.parse_args()
    if args.cmd == "compare" and len(args.files) > 2:
        ap.error("compare takes one or two files")
    return collect(args) if args.cmd == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
