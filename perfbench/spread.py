"""Repeat runs over several seeds and report each end-to-end metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload NAME ...]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time, with
``run_seconds`` from BENCHMARK.json, then prints per workload and metric the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, and the metric's bound.  A spread above a third of the
bound is flagged; ``setup_s`` is only compared between runs, not bounded by
its spread.  Exits 1 when a run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=False, timeout=600)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                status = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f}s "
                  + " ".join(f"{n}={result['metrics'][n]['value']:.4f}" for n in bounds),
                  flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  above a third of the bound" if spread <= bounds[name] else "  ABOVE BOUND"
            print(f"  {workload:<8} {name:<12} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"spread {spread:.4f}  bound {bounds[name]}{flag}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
