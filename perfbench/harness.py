"""Measurement loop, span tracer and result document shared by every workload.

A workload module provides:

* ``make_inputs(cedga, seed, workdir)``: the raw inputs of one run, made
  from the seed (set-up; timed as ``setup_s`` together with the import of
  ``cedga``); files it writes go in ``workdir``;
* ``run_pass(cedga, inputs, tracer)``: the workload's fixed work, with every
  output checked; returns a ``PassResult``;
* ``layer_metrics(calls, self_s, result)``: the per-layer metrics of one
  traced pass, from span aggregates and the pass's counters;
* ``MIN_PASSES``: passes a run makes even past its deadline;
* ``CHILD_PROCESSES``: whether peak RSS is that of child processes.

Every call the benchmark makes into a ``cedga`` module goes through
``tracer.call(name, fn, *args)``.  Untraced, that is a plain call; traced, it
records a span (name, start, end, parent span, operation id) in memory.
Nothing inside ``src/cedga`` is patched.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_FIRST = 3  # set-ups before the first pass
SETUP_BETWEEN = 2  # set-ups after each pass but the last
SETUP_MIN = 5


def load_json(name: str):
    with open(os.path.join(BENCH_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


# -- spans ---------------------------------------------------------------------


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def begin(self, name):
        return -1

    def end(self, span):
        pass


class Tracer:
    """Spans kept in flat arrays: name id, start and end (ns), parent span
    and operation id.  A pass span is the root, each operation (one table,
    one instance, one invocation, one search) is a child of it, and each call
    into a module is a child of its operation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.stop = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._open: list[int] = []

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _record(self, nid: int, t0: int, t1: int) -> int:
        span = len(self.start)
        parent = self._open[-1] if self._open else -1
        self.name_id.append(nid)
        self.start.append(t0)
        self.stop.append(t1)
        self.parent.append(parent)
        # operation id: the span directly under the pass span
        if len(self._open) >= 2:
            self.op.append(self._open[1])
        elif len(self._open) == 1:
            self.op.append(span)
        else:
            self.op.append(-1)
        return span

    def call(self, name, fn, *args):
        nid = self._name(name)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._record(nid, t0, time.perf_counter_ns())

    def begin(self, name) -> int:
        span = self._record(self._name(name), time.perf_counter_ns(), 0)
        self._open.append(span)
        return span

    def end(self, span: int) -> None:
        self.stop[span] = time.perf_counter_ns()
        self._open.pop()

    def aggregate(self, first: int = 0) -> tuple[dict, dict]:
        """Call counts and self time (s) per span name, over spans from
        index ``first`` on.  Self time is a span's duration minus the
        durations of its direct children."""
        n = len(self.start)
        child = [0] * (n - first)
        start, stop, parent = self.start, self.stop, self.parent
        for i in range(first, n):
            p = parent[i]
            if p >= first:
                child[p - first] += stop[i] - start[i]
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        names, name_id = self.names, self.name_id
        for i in range(first, n):
            name = names[name_id[i]]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + stop[i] - start[i] - child[i - first]
        return calls, {k: v / 1e9 for k, v in self_ns.items()}

    def write(self, path: str) -> None:
        """Gzipped TSV, one span per line; times in ns from the first
        span's start."""
        origin = self.start[0] if self.start else 0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            handle.writelines(
                f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name_id[i]]}\t"
                f"{self.start[i] - origin}\t{self.stop[i] - origin}\n"
                for i in range(len(self.start)))


# -- passes --------------------------------------------------------------------


@dataclass
class PassResult:
    """Outcome of one pass: operations attempted and failed, the first few
    failure messages, and workload counters (solutions, configs, bytes...)."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    laps: list = field(default_factory=list)
    units: list = field(default_factory=list)

    def lap(self, units: int = 1) -> None:
        """Mark the end of a chunk of the pass's work holding ``units`` like
        operations.  A workload marks the same chunks in every pass, the
        last one at the end of its work, so chunk times line up across
        passes."""
        self.laps.append(time.perf_counter())
        self.units.append(units)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)


def run_op(result: PassResult, tracer, name: str, what: str, fn, *args) -> None:
    """One operation: ``fn(*args)`` returns True when every output check
    holds; a raise or a False counts the operation as failed."""
    span = tracer.begin(name)
    try:
        ok = fn(*args)
    except Exception as exc:  # an operation that raises is a failed operation
        ok = False
        what = f"{what}: {type(exc).__name__}: {exc}"
    finally:
        tracer.end(span)
    result.check(bool(ok), what)


def import_cedga(src: str):
    """Import ``cedga`` from ``src`` afresh: drop every loaded ``cedga``
    module first, so that each set-up repeat pays the import again."""
    for name in [m for m in sys.modules if m == "cedga" or m.startswith("cedga.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    module = importlib.import_module("cedga")
    if not os.path.abspath(module.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"cedga imported from {module.__file__}, not from {src}")
    return module


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_commit(root: str) -> str | None:
    """The commit of the checkout, read from .git without running git;
    None outside a git repository."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload, root: str, workdir: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, object]:
    """One run: make passes over the workload's fixed work until the next
    one would end past ``seconds`` (at least ``workload.MIN_PASSES``).

    Set-up (a fresh import of ``cedga`` plus ``make_inputs``) is repeated
    before the first pass and between passes, so that its samples spread
    over the run; ``setup_s`` is their median.  ``wall_s`` is the time of
    the fixed work from the chunks a workload marks with ``PassResult.lap``
    in its untraced passes: the sum over chunks of each chunk's median time,
    or, when ``workload.POOLED_CHUNKS`` says the chunks are like samples of
    one operation mix, the median time per unit over all chunks times the
    units of a pass.  The median and quartiles of whole-pass times are kept
    as ``pass_s``.

    Traced, passes alternate untraced and traced, starting untraced, so
    that the run itself gives the tracing overhead (median traced minus
    median untraced pass time).  Returns the result document and the
    inputs of the run."""
    src = os.path.join(root, "src")
    setup_times: list[float] = []
    state = {}

    def set_up(times: int) -> None:
        for _ in range(times):
            state.clear()
            gc.collect()
            t0 = time.perf_counter()
            cedga = import_cedga(src)
            inputs = workload.make_inputs(cedga, seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            state.update(cedga=cedga, inputs=inputs)

    tracer = Tracer() if trace else None
    null = NullTracer()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    chunks: list[list[float]] = []
    layer_rows: list[dict] = []
    results: list[PassResult] = []
    min_passes = max(workload.MIN_PASSES, 2) if trace else workload.MIN_PASSES
    set_up(SETUP_FIRST)
    began = time.perf_counter()
    deadline = began + seconds
    while True:
        use_trace = trace and len(results) % 2 == 1
        gc.collect()
        if use_trace:
            first = len(tracer.start)
            root_span = tracer.begin("pass")
        t0 = time.perf_counter()
        result = workload.run_pass(state["cedga"], state["inputs"],
                                   tracer if use_trace else null)
        t1 = time.perf_counter()
        results.append(result)
        if use_trace:
            tracer.end(root_span)
            traced_walls.append(t1 - t0)
            calls, self_s = tracer.aggregate(first)
            layer_rows.append(workload.layer_metrics(calls, self_s, result))
        else:
            plain_walls.append(t1 - t0)
            marks = [t0] + result.laps[:-1] + [t1]  # the tail joins the last chunk
            chunks.append([b - a for a, b in zip(marks, marks[1:])])
        if len(results) >= min_passes and (
                time.perf_counter() + statistics.median(plain_walls + traced_walls) > deadline):
            break
        set_up(SETUP_BETWEEN)
    measured_s = time.perf_counter() - began
    set_up(max(0, SETUP_MIN - len(setup_times)))
    if len({len(c) for c in chunks}) != 1:
        raise RuntimeError(f"{workload.NAME}: passes marked different chunk counts")
    if workload.POOLED_CHUNKS:
        # chunks are like samples of one operation mix: the time per unit is
        # the median over every chunk of every untraced pass
        units = results[0].units
        per_unit = statistics.median(t / u for times in chunks for t, u in zip(times, units))
        wall = per_unit * sum(units)
    else:
        wall = sum(statistics.median(times) for times in zip(*chunks))

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    doc = {
        "workload": workload.NAME,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "measured_s": measured_s,
        "passes": len(results),
        "untraced_passes": len(plain_walls),
        "chunks": len(chunks[0]),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": [e for r in results for e in r.errors][:10],
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "machine": platform.machine()},
        "python": platform.python_version(),
        "commit": git_commit(root),
        "setup_s": quartiles(setup_times),
        "wall_s": wall,
        "pass_s": quartiles(plain_walls),
        "chunk_s": chunks,
        "peak_rss_mb": peak_rss_mb(children=workload.CHILD_PROCESSES),
        "counters": results[-1].counters,
        "samples": _merge_samples(results),
    }
    if trace:
        doc["pass_s_traced"] = quartiles(traced_walls)
        doc["tracer"] = tracer
        doc["layers"] = layer_rows
    return doc, state["inputs"]


def _merge_samples(results: list[PassResult]) -> dict:
    merged: dict[str, list] = {}
    for r in results:
        for key, values in r.samples.items():
            merged.setdefault(key, []).extend(values)
    return merged
