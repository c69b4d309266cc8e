"""List every line of ``src/cedga`` that the tier-1 tests never run.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer,
then compares the lines that ran with the lines each module's code objects
hold (``co_lines``).  Standard library only; pytest does not collect this
file.  Run from the repository root:

    PYTHONPATH=src python tests/unrun_lines.py [extra pytest arguments]

It prints one ``path:line: source`` line per unrun line and a count, and
exits 0.  Child processes (the subprocess CLI tests) are not traced, and
``test_enumeration_leaves_no_reference_cycles`` is deselected because the
tracer's frame references defeat its garbage-collection check.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cedga") + os.sep
DESELECTED = "tests/test_augment.py::test_enumeration_leaves_no_reference_cycles"


def code_lines(code) -> set[int]:
    """Line numbers a code object and its nested code objects can run.  A
    function's own first line is the ``def`` (or decorator) line, which runs in
    the enclosing code, so it is left to that code."""
    own_first = None if code.co_name == "<module>" else code.co_firstlineno
    lines = {line for _, _, line in code.co_lines() if line not in (None, own_first)}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main(argv: list[str]) -> int:
    import pytest

    ran: dict[str, set[int]] = {}
    lines_of: dict[str, set[int] | None] = {}  # co_filename -> its ran set, if ours

    def local(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in lines_of:
            path = os.path.abspath(filename)
            lines_of[filename] = (ran.setdefault(path, set())
                                  if path.startswith(PACKAGE) else None)
        if lines_of[filename] is None:
            return None
        lines_of[filename].add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     "--deselect", DESELECTED, *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = 0
    for dirpath, _, filenames in sorted(os.walk(PACKAGE)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            missing = code_lines(compile(source, path, "exec")) - ran.get(path, set())
            text = source.splitlines()
            for line in sorted(missing):
                print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}")
            unrun += len(missing)
    print(f"{unrun} unrun line(s)")
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main(sys.argv[1:]))
