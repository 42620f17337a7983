#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload with several seeds,
one run at a time, and report each metric's median, quartiles and
spread (quartile distance over median) next to its bound.

    python3 perfbench/steady.py [--workloads demo04,fine_grid] [--runs 10]
                                [--first-seed 1]

Each run measures BENCHMARK.json's run_seconds, untraced.  Run from the
root of a checkout; the runs write only to temporary directories
.perfbench-*/ in it, which each run removes.  The spreads set the bounds in BENCHMARK.json: a bound should
be at least three times the spread seen here.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    summary = {}
    for workload in args.workloads.split(","):
        values, shares = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            shares.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {args.runs} runs, failed share {sorted(set(shares))}")
        summary[workload] = {"failed_shares": sorted(set(shares))}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            verdict = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:38s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}  {verdict}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
