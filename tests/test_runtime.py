"""The runtime stays pure stdlib: every module of the package imports only
standard-library modules and the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "minkarr"


def imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_are_stdlib():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    for path in files:
        for name in imported_modules(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "minkarr", \
                "%s imports %s" % (path.name, name)
