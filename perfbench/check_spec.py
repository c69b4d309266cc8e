"""Check BENCHMARK.json against the benchmark's own definitions.

Usage, from the root of a checkout:  python3 perfbench/check_spec.py

It checks the file's shape (keys, name and unit syntax, bounds, run length),
that its workloads are the ones ``run.py`` knows, and that its metrics match
``perfbench/metrics.json``, which also records for every per-layer metric
the workloads it is measured on and the end-to-end metrics it should move.
Exits 1 listing every problem, 0 when there are none.
"""

from __future__ import annotations

import json
import re
import sys

import harness
from workloads import WORKLOADS

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


def problems(spec: dict, metrics: dict) -> list[str]:
    out = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        out.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return out
    command = spec["command"]
    if not (1 <= len(command) <= 32) or any(len(a) > 200 for a in command):
        out.append("command: 1 to 32 strings of at most 200 characters")
    for path in spec["paths"]:
        if not PATH_RE.match(path) or path.startswith("/") or ".." in path.split("/"):
            out.append(f"bad path {path!r}")
    if not (1 <= len(spec["paths"]) <= 16):
        out.append("paths: 1 to 16 entries")
    seconds = spec["run_seconds"]
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        out.append("run_seconds: a whole number from 1 to 60")
    names = []
    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        out.append("workloads: 2 to 8")
    for w in workloads:
        if set(w) != {"name", "why"}:
            out.append(f"workload keys {sorted(w)}")
        if len(w.get("why", "")) > 200 or "\n" in w.get("why", ""):
            out.append(f"workload {w.get('name')}: why longer than one 200-character line")
        names.append(w.get("name", ""))
    if {w["name"] for w in workloads} != set(WORKLOADS):
        out.append(f"workloads {sorted(w['name'] for w in workloads)} != {sorted(WORKLOADS)}")
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            if set(m) != keys:
                out.append(f"{section} {m.get('name')}: keys {sorted(m)}")
            if not UNIT_RE.match(m.get("unit", "")):
                out.append(f"{m.get('name')}: bad unit {m.get('unit')!r}")
            if m.get("better") not in ("lower", "higher"):
                out.append(f"{m.get('name')}: better must be lower or higher")
            names.append(m.get("name", ""))
        mine = [{k: m[k] for k in keys} for m in metrics[section]]
        if spec[section] != mine:
            out.append(f"{section} differs from perfbench/metrics.json")
    for name in names:
        if not NAME_RE.match(name):
            out.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        out.append("a name is used twice")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        out.append("every bound must be in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        out.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(bounds.values()):
        out.append("setup_s must have the largest bound")
    for m in metrics["per_layer"]:
        unknown = set(m["workload"]) - set(WORKLOADS)
        moves = set(m["moves"]) - set(bounds) - {x["name"] for x in metrics["per_layer"]}
        if unknown or moves:
            out.append(f"{m['name']}: unknown workload {unknown} or moved metric {moves}")
    return out


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        text = handle.read()
    found = problems(json.loads(text), harness.load_json("metrics.json"))
    if len(text.encode("utf-8")) > 64 * 1024:
        found.append("BENCHMARK.json is larger than 64 KiB")
    for problem in found:
        print(problem)
    print("BENCHMARK.json: " + ("ok" if not found else f"{len(found)} problem(s)"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
