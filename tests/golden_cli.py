"""Golden CLI outputs: the exit code, the text output and the ``--json -``
output of every bundled corpus case, of ``cedga corpus``, of ``cedga search``
in both modes at its default bounds and past them, and of the searches it
refuses.

    PYTHONPATH=src python tests/golden_cli.py > tests/golden_cli.json

regenerates the golden file; ``test_cli.py`` compares its output with that
file byte for byte.  Corpus files are written to a temporary directory whose
path reads ``<dir>`` in the output.  A change that rewrites the golden file
changes what a user sees.
"""

import contextlib
import io
import json
import os
import tempfile

from cedga.cli import main
from cedga.corpus import CASES, FILES, corpus_text


def _run(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


# the default searches, two that sample many tuples in one structure, then
# refused ones: work past the limit, a vacuous bound, an empty degree range
# and each mode's count flag in the other mode
SEARCHES = [["--mode", "trees"], ["--mode", "trajectories"],
            ["--mode", "trees", "--max-disks", "5", "--max-configs", "1000000000"],
            ["--mode", "trajectories", "--max-strips", "4"],
            ["--mode", "trees", "--max-disks", "99"],
            ["--mode", "trajectories", "--max-strips", "99"],
            ["--mode", "trees", "--max-disks", "0"],
            ["--mode", "trees", "--degree-lo", "2", "--degree-hi", "1"],
            ["--mode", "trajectories", "--max-strips", "1", "--max-disks", "0"],
            ["--mode", "trees", "--max-disks", "1", "--max-strips", "5"]]


def collect() -> list[dict]:
    cases = ([(name, argv) for name, argv, _, _ in CASES] + [("corpus", ["corpus"])]
             + [(" ".join(["search", *flags]), ["search", *flags]) for flags in SEARCHES])
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in FILES:
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(corpus_text(name))
        for name, argv in cases:
            resolved = [os.path.join(tmp, a) if a in FILES else a for a in argv]
            code, text = _run(resolved)
            json_code, json_text = _run([*resolved, "--json", "-"])
            assert json_code == code, name
            records.append({"name": name, "argv": argv, "exit": code,
                            "stdout": text.replace(tmp, "<dir>"),
                            "json_stdout": json_text.replace(tmp, "<dir>")})
    return records


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1, ensure_ascii=False))
