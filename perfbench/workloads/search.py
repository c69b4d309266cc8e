"""``search``: the exhaustive pearly-tree and broken-trajectory
counterexample searches at the acceptance bounds.

Almost all of its time is in ``pearly``; it bypasses ``poly``, ``bridge``
and ``surgery``.  The bounds are fixed, so the seed changes nothing here.
"""

from __future__ import annotations

from harness import PassResult, load_json, run_op

NAME = "search"
MIN_PASSES = 2
POOLED_CHUNKS = False
CHILD_PROCESSES = False
EXPECTED = load_json("expected.json")["search"]


def make_inputs(cedga, seed: int, workdir: str):
    return {
        "trees": cedga.TreeSearchBounds(max_disks=4, max_inputs_per_disk=3,
                                        degree_range=(-3, 4)),
        "trajectories": cedga.TrajectorySearchBounds(
            max_strips=3, max_attached_disks=2, degree_range=(-3, 4)),
    }


def _check_search(cedga, tr, mode, bounds, counters):
    report = tr.call(f"pearly.{mode}", cedga.exhaustive_search, bounds)
    counters[f"{mode}.configs"] = report.enumerated
    counters[f"{mode}.materialized"] = report.materialized
    return (report.mode == EXPECTED[mode]["mode"]
            and report.enumerated == report.estimated_configs == EXPECTED[mode]["configs"]
            and not report.counterexamples
            and report.telescope_failures == 0
            and report.materialized > 0)


def run_pass(cedga, inputs, tr) -> PassResult:
    result = PassResult()
    for mode in ("trees", "trajectories"):
        run_op(result, tr, f"search.{mode}", f"{mode} search", _check_search,
               cedga, tr, mode, inputs[mode], result.counters)
        result.lap()
    return result


def layer_metrics(calls, self_s, result) -> dict:
    row = {}
    for mode in ("trees", "trajectories"):
        busy = self_s.get(f"pearly.{mode}", 0.0)
        configs = result.counters.get(f"{mode}.configs", 0)
        row[f"pearly.{mode}.self_s"] = busy
        row[f"pearly.{mode}.configs"] = configs
        row[f"pearly.{mode}.configs_per_s"] = configs / busy if busy else 0.0
        row[f"pearly.{mode}.materialized"] = result.counters.get(f"{mode}.materialized", 0)
    return row
