#!/usr/bin/env python3
"""Run the benchmark on seeds 1..10 and report each metric's spread.

    python3 perfbench/steadiness.py [--workload suite-cold ...]

For every workload (default: all of BENCHMARK.json), runs
`perfbench/run.py` once per seed with BENCHMARK.json's run_seconds and
prints, per end-to-end metric, the median of the ten values and the
distance between their first and third quartiles as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for wl in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print(f"{wl} seed {seed}: correct={result['correct']} " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()),
                  flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            print(f"  {wl:14s} {m['name']:22s} median {med:12.6g} "
                  f"{m['unit']:10s} spread {spread:7.2%} "
                  f"(bound {m['bound']:.0%}, target < {m['bound'] / 3:.1%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
