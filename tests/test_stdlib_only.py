"""The runtime is pure standard library: every absolute import in the
package names a standard-library module or cedga itself.  Every exported
name resolves, and ``import cedga`` loads its submodules only on use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cedga"


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports cedga from this
    checkout; return its standard output."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_stdlib():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "cli.py" in sources
    foreign = [f"{path.relative_to(PACKAGE)}:{lineno}: {name}"
               for path in sources for lineno, name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"cedga"}]
    assert foreign == []


def test_package_imports_no_dataclasses():
    # records are NamedTuples; dataclasses would cost every process its import
    users = [f"{path.relative_to(PACKAGE)}:{lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for lineno, name in _absolute_imports(path) if name == "dataclasses"]
    assert users == []


def test_package_exports_resolve():
    cedga = importlib.import_module("cedga")
    assert cedga.__all__
    missing = [name for name in cedga.__all__ if not hasattr(cedga, name)]
    assert missing == []
    assert len(set(cedga.__all__)) == len(cedga.__all__)


def test_import_cedga_loads_no_submodule():
    # everything but __version__ loads on first use
    out = run_fresh("import sys, cedga\n"
                    "print(sorted(m for m in sys.modules if m.startswith('cedga')))")
    assert out == "['cedga']\n"


def test_import_cedga_loads_neither_hashlib_nor_json():
    # what the import itself adds, so that a module a site hook loads first cannot mask it
    out = run_fresh("import sys\nbefore = set(sys.modules)\nimport cedga\n"
                    "print(sorted({'hashlib', 'json'} & (set(sys.modules) - before)))")
    assert out == "[]\n"


def test_star_import_binds_every_export():
    out = run_fresh("from cedga import *\nimport cedga\n"
                    "print([n for n in cedga.__all__ if n not in globals()])")
    assert out == "[]\n"


def test_submodule_resolves_after_bare_import():
    out = run_fresh("import sys, cedga\n"
                    "assert 'cedga.surgery' not in sys.modules\n"
                    "print(cedga.surgery.__name__, cedga.surgery.ChordRole is cedga.ChordRole)")
    assert out == "cedga.surgery True\n"


def test_unknown_name_raises_attribute_error():
    out = run_fresh("import cedga\n"
                    "try:\n    getattr(cedga, 'nope')\n"
                    "except AttributeError as exc:\n    print(exc)")
    assert out == "module 'cedga' has no attribute 'nope'\n"


def test_cli_start_up_loads_no_dataclasses():
    # no subcommand loads dataclasses or inspect, and search loads no text parser
    cases = [["validate", "surgery_k2.txt"], ["augment", "ce_two_point.txt"],
             ["ce-lift", "mc_two_points.txt"],
             ["mc-check", "mc_two_points.txt", "--cochain", "cochain_x1.txt"],
             ["deform", "strip_small.txt", "--cochain0", "cochain_empty.txt",
              "--cochain1", "cochain_empty.txt"],
             ["surgery", "surgery_k2.txt", "--base-aug", "cochain_x1.txt"],
             ["quotient", "quotient_demo.txt"], ["tree-check", "tree_single.txt"],
             ["traj-check", "traj_pair.txt"], ["search", "--mode", "trees"],
             ["search", "--mode", "trajectories"], ["corpus"]]
    out = run_fresh("import contextlib, io, os, sys, tempfile\n"
                    "from cedga.cli import main\n"
                    "from cedga.corpus import FILES, corpus_text\n"
                    "tmp = tempfile.mkdtemp()\n"
                    "for name in FILES:\n"
                    "    with open(os.path.join(tmp, name), 'w') as handle:\n"
                    "        handle.write(corpus_text(name))\n"
                    "codes = []\n"
                    f"for argv in {cases!r}:\n"
                    "    argv = [os.path.join(tmp, a) if a in FILES else a for a in argv]\n"
                    "    with contextlib.redirect_stdout(io.StringIO()):\n"
                    "        codes.append(main(argv))\n"
                    "print(codes, sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] []\n"
    out = run_fresh("import contextlib, io, sys\n"
                    "from cedga.cli import main\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    "    assert main(['search', '--mode', 'trees', '--max-disks', '2']) == 0\n"
                    "print('cedga.textio' in sys.modules)")
    assert out == "False\n"
