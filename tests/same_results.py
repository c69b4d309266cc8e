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
the same, and exits 1 if any differs, 0 if none does, and 2 when PATH holds
no ``src/cedga``.  ``test_same_results.py`` checks every family against the
committed digests in tier-1; together they take about 2 s.

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
  differences and products.
"""

from __future__ import annotations

import contextlib
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
FAMILIES = ("corpus", "help", "search", "reprs")
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


RECORDS = {"corpus": corpus_records, "help": help_records,
           "search": search_records, "reprs": repr_records}


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
    ours, theirs = digests_of(os.path.join(ROOT, "src")), digests_of(other)
    differ = [family for family in FAMILIES if ours[family] != theirs[family]]
    for family in FAMILIES:
        print(f"{family}: {'differs' if family in differ else 'same'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
