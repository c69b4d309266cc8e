"""Run one workload of the cedga benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bridge --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, wall time of the
workload's fixed work, peak RSS); ``--trace 1`` records spans around every
call into a ``cedga`` module and prints the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full result, with
run metadata and quartiles, is written under ``perfbench/results/``
(spans too, gzipped, for a traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import harness
from workloads import WORKLOADS

METRICS = harness.load_json("metrics.json")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _layer_metrics(workload, doc, inputs) -> dict:
    """Every per-layer metric: the median over traced passes of what the
    workload measured, 0 for a layer this workload does not call."""
    rows = doc["layers"]
    measured = {}
    for key in rows[0]:
        measured[key] = statistics.median(row[key] for row in rows)
    run_metrics = getattr(workload, "run_metrics", None)
    if run_metrics is not None:
        measured.update(run_metrics(inputs, doc["samples"]))
    measured["trace.overhead_s"] = doc["pass_s_traced"]["median"] - doc["pass_s"]["median"]
    measured["trace.spans"] = len(doc["tracer"].start)
    return {m["name"]: measured.get(m["name"], 0) for m in METRICS["per_layer"]}


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cedga", "__init__.py")):
        print(f"error: no cedga sources under {os.path.join(root, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    results_dir = os.path.join(harness.BENCH_DIR, "results")
    workdir = os.path.join(harness.BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(workdir)
    try:
        doc, inputs = harness.measure(workload, root, workdir, args.seed,
                                      args.seconds, bool(args.trace))
        units = {m["name"]: m["unit"] for m in METRICS["end_to_end"] + METRICS["per_layer"]}
        if args.trace:
            values = _layer_metrics(workload, doc, inputs)
        else:
            values = {"setup_s": doc["setup_s"]["median"], "wall_s": doc["wall_s"],
                      "peak_rss_mb": doc["peak_rss_mb"]}
        extra = workload.latency(doc["samples"]) if hasattr(workload, "latency") else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tracer = doc.pop("tracer", None)
    if tracer is not None:
        tracer.write(stem + ".spans.tsv.gz")
    doc["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    doc["latency"] = extra
    doc.pop("samples")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {doc['passes']}  measured {doc['measured_s']:.1f}s  "
          f"python {doc['python']}  nproc {doc['machine']['nproc']}  "
          f"commit {doc['commit']}")
    for name in ("setup_s", "pass_s", "pass_s_traced"):
        if name in doc:
            q = doc[name]
            print(f"  {name:<36} median {q['median']:.4f} s  q1 {q['q1']:.4f}  "
                  f"q3 {q['q3']:.4f}  n {q['n']}")
    print(f"  {'wall_s':<36} {doc['wall_s']:.4f} s  (from {doc['chunks']} chunks "
          f"x {doc['untraced_passes']} untraced passes)")
    for name, value in extra.items():
        print(f"  {name:<36} {value:.4f}")
    print(f"  {'failed_frac':<36} {doc['failed_frac']:.6f} "
          f"({doc['failed']} of {doc['attempted']} operations)")
    for error in doc["errors"]:
        print(f"  FAILED: {error}")
    for name, metric in doc["metrics"].items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
              "failed": doc["failed"], "metrics": doc["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
