"""The runtime is pure standard library: every absolute import in the
package names a standard-library module or cedga itself.  Every exported
name resolves."""

import ast
import importlib
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cedga"


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


def test_package_exports_resolve():
    cedga = importlib.import_module("cedga")
    assert cedga.__all__
    missing = [name for name in cedga.__all__ if not hasattr(cedga, name)]
    assert missing == []
    assert len(set(cedga.__all__)) == len(cedga.__all__)
