"""Print one SHA-256 per family of cedga's observable results, so that a
change can show in one command that it gives the same results as its parent.

Standard library only; pytest does not collect this file.  Run from the
repository root:

    PYTHONPATH=src python tests/same_results.py > tests/same_results.json
    python tests/same_results.py --against PATH

The first form prints every family's digest as JSON; a change that alters a
family on purpose regenerates the committed file this way and names the
family in CHANGES.md.  ``--against PATH`` computes the digests of this
checkout's ``src`` and of ``PATH/src`` (a checkout made with ``git archive``
or ``git clone``), each in a child process, prints whether each family is
the same, then both checkouts' ``src`` line counts (what ``cat
src/cedga/*.py src/cedga/corpus/*.py | wc -l`` prints), and exits 1 if any
family differs, 0 if none does, and 2 when PATH holds no ``src/cedga``.
``test_same_results.py`` checks the first four families
against the committed digests in tier-1, in about 2 s together; ``bounds``
and ``instances`` take about 3 minutes and 7 s on a 2-vCPU machine, so only
the first form and ``--against`` compute them.

The families:

- ``corpus``: the exit code, text and ``--json -`` report of every corpus
  case and of ``cedga corpus``, run in a directory holding the corpus files
  and named by bare file name, so that no path enters;
- ``help``: ``cedga --help`` and every subcommand's ``--help``, at
  ``COLUMNS=80``; argparse's layout depends on the Python version, which the
  committed file records;
- ``search``: ``cedga search`` text and ``--json -`` reports over a fixed
  grid of small bounds in both modes, refused bounds (a vacuous count, an
  empty degree range, work past ``--max-configs``) included;
- ``reprs``: the reprs of ``NcPoly``, ``Augmentation``, ``BoundingCochain``
  and ``ChordMap`` built from a seeded grid of raw dicts (negative, huge
  and multiple-of-p values, empty dicts), with the polynomials' sums,
  differences and products;
- ``bounds``: ``exhaustive_search(bounds)._asdict()``, or the refusal text,
  for 1,888 bounds: trees ``max_disks`` 1-3 x ``max_inputs_per_disk`` 0-2 and
  trajectories ``max_strips`` 1-3 x ``max_marked_per_strip`` 0-2 x
  ``max_total_marked`` 2, 3 x ``max_attached_disks`` 0-2 x
  ``max_inputs_per_disk`` 0, 2, each on the windows (-1, 1), (0, 2), (-2, 2),
  (1, 1) at strides 1, 3, 97 and 20,000; both default bounds at strides
  20,000, 1, 97 and 10^9; trees ``max_disks`` 5 and 6 and trajectories
  ``max_strips`` 4 and 5 (``max_configs`` 10^15) at strides 20,000 and 10^9;
- ``instances``: 3,150 seeded surgery algebras (k 1-7 x chords 0-5 x p 2, 3,
  5 x seeds 0-24), each as its text, role order, differential terms and
  repr, with every generator's degree, action and kind.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "same_results.json")
TIER1 = ("corpus", "help", "search", "reprs")  # the families tier-1 checks
FAMILIES = TIER1 + ("bounds", "instances")
# argparse lays out help text differently across Python versions
PYTHON = "{}.{}".format(*sys.version_info)

# (flags, values) of the search grid; a value of None leaves the default
TREE_GRID = (("--max-disks", (0, 1, 2, 3, 4)), ("--max-inputs", (None, 0, 1, 3)),
             ("--degree-lo", (None, 2)), ("--degree-hi", (None, 1)),
             ("--max-configs", (None, 1000)))
TRAJECTORY_GRID = (("--max-strips", (1, 2, 3)), ("--max-inputs", (None, 0, 2)),
                   ("--degree-lo", (None, 2)), ("--degree-hi", (None, 1)),
                   ("--max-configs", (None, 1000)))


def _cli(argv: list[str]) -> list:
    """[argv, exit code, stdout, stderr] of one in-process ``cedga`` run;
    an argparse exit (``--help``) counts as its code."""
    from cedga.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [argv, code, out.getvalue(), err.getvalue()]


def corpus_records():
    from cedga.corpus import CASES, FILES, corpus_text
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in FILES:
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(corpus_text(name))
        os.chdir(tmp)
        try:
            return [_cli(argv) for _, argv, _, _ in CASES + [("", ["corpus"], 0, "")]
                    for argv in (argv, [*argv, "--json", "-"])]
        finally:
            os.chdir(here)


def help_records():
    from cedga.cli import build_parser
    commands = build_parser()._subparsers._group_actions[0].choices
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return [_cli(argv) for argv in [["--help"]] + [[c, "--help"] for c in commands]]
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def search_records():
    for mode, grid in (("trees", TREE_GRID), ("trajectories", TRAJECTORY_GRID)):
        flags = [flag for flag, _ in grid]
        for values in itertools.product(*(values for _, values in grid)):
            argv = ["search", "--mode", mode]
            for flag, value in zip(flags, values):
                if value is not None:
                    argv += [flag, str(value)]
            yield _cli(argv)
            yield _cli([*argv, "--json", "-"])


def _raw_values(rng: random.Random, p: int, keys: list) -> dict:
    draws = (lambda: rng.randint(-p, 2 * p), lambda: rng.randint(-10**40, 10**40),
             lambda: p * rng.randint(-3, 3), lambda: 0)
    return {key: rng.choice(draws)() for key in rng.sample(keys, rng.randint(0, len(keys)))}


def repr_records():
    from cedga import Augmentation, BoundingCochain, ChordMap, NcPoly
    rng = random.Random(27)
    names = ["x", "y", "z", "w"]
    words = [word for n in range(4) for word in itertools.product(names[:3], repeat=n)]
    pairs = list(itertools.product(names, repeat=2))
    for _ in range(600):
        p = rng.choice((2, 3, 5, 7, 97))
        f = NcPoly(p, _raw_values(rng, p, words))
        g = NcPoly(p, _raw_values(rng, p, words))
        records = [f, g, f + g, f - g, f * g, g * f, -f, f * rng.randint(-200, 200),
                   Augmentation(p, _raw_values(rng, p, names)),
                   BoundingCochain(p, _raw_values(rng, p, names)),
                   ChordMap(p, _raw_values(rng, p, pairs))]
        yield [repr(record) for record in records]


def bound_records():
    from cedga import InputError, TrajectorySearchBounds, TreeSearchBounds, exhaustive_search
    shapes = [(TreeSearchBounds, {"max_disks": m, "max_inputs_per_disk": n})
              for m, n in itertools.product((1, 2, 3), (0, 1, 2))]
    shapes += [(TrajectorySearchBounds, dict(zip(
        ("max_strips", "max_marked_per_strip", "max_total_marked", "max_attached_disks",
         "max_inputs_per_disk"), values)))
        for values in itertools.product((1, 2, 3), (0, 1, 2), (2, 3), (0, 1, 2), (0, 2))]
    grid = [(make, dict(fields, degree_range=window, materialize_stride=stride))
            for make, fields in shapes for window in ((-1, 1), (0, 2), (-2, 2), (1, 1))
            for stride in (1, 3, 97, 20_000)]
    grid += [(make, {"materialize_stride": stride})
             for make in (TreeSearchBounds, TrajectorySearchBounds)
             for stride in (20_000, 1, 97, 10**9)]
    grid += [(make, {field: size, "max_configs": 10**15, "materialize_stride": stride})
             for make, field, sizes in ((TreeSearchBounds, "max_disks", (5, 6)),
                                        (TrajectorySearchBounds, "max_strips", (4, 5)))
             for size in sizes for stride in (20_000, 10**9)]
    for make, fields in grid:
        try:
            outcome = exhaustive_search(make(**fields))._asdict()
        except InputError as exc:
            outcome = str(exc)
        yield [make.__name__, fields, outcome]


def instance_records():
    from cedga import random_surgery_instance
    from cedga.textio import DgaDocument, serialize_dga
    for k, chords, p, seed in itertools.product(range(1, 8), range(6), (2, 3, 5), range(25)):
        algebra = random_surgery_instance(k, chords, seed, p)
        yield [serialize_dga(DgaDocument(algebra.dga, (), algebra.roles)),
               repr(list(algebra.roles.items())),
               repr([(name, list(poly.terms.items()))
                     for name, poly in algebra.dga.nonzero_differentials().items()]),
               repr(algebra),
               [[gen.name, gen.degree, str(gen.action), gen.kind.value]
                for gen in algebra.dga.generators.values()]]


RECORDS = {"corpus": corpus_records, "help": help_records, "search": search_records,
           "reprs": repr_records, "bounds": bound_records, "instances": instance_records}


def digest(family: str) -> str:
    lines = (json.dumps(record) for record in RECORDS[family]())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests_of(src: str) -> dict[str, str]:
    """Every family's digest, computed in a child process that imports cedga
    from ``src``; refuses a child that imported cedga from anywhere else."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"], env=env,
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    report = json.loads(out)
    package = os.path.join(os.path.realpath(src), "cedga")
    if os.path.dirname(os.path.realpath(report["package"])) != package:
        raise SystemExit(f"the child imported cedga from {report['package']}, not {src}")
    return report["digests"]


def src_lines(src: str) -> int:
    """The lines of the package's and the corpus package's modules under ``src``."""
    total = 0
    for path in glob.glob(os.path.join(src, "cedga", "*.py")) + glob.glob(
            os.path.join(src, "cedga", "corpus", "*.py")):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        import cedga
        print(json.dumps({"package": cedga.__file__,
                          "digests": {family: digest(family) for family in FAMILIES}}))
        return 0
    if not argv:
        print(json.dumps({"python": PYTHON, **{family: digest(family) for family in FAMILIES}},
                         indent=1))
        return 0
    if len(argv) != 2 or argv[0] != "--against":
        print("usage: same_results.py [--against PATH]", file=sys.stderr)
        return 2
    other = os.path.join(os.path.abspath(argv[1]), "src")
    if not os.path.isdir(os.path.join(other, "cedga")):
        print(f"no cedga package under {other}", file=sys.stderr)
        return 2
    here = os.path.join(ROOT, "src")
    ours, theirs = digests_of(here), digests_of(other)
    differ = [family for family in FAMILIES if ours[family] != theirs[family]]
    for family in FAMILIES:
        print(f"{family}: {'differs' if family in differ else 'same'}")
    print(f"src lines: {src_lines(here)} here, {src_lines(other)} at {argv[1]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
