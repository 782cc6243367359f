"""The runtime stays pure stdlib: every module of the package imports only
standard-library modules and the package itself.  And it holds only code
the program uses: every top-level function and class, and every method of
its classes but the dunders, has a caller in src/ or bench/."""

import ast
import os
import subprocess
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


ROOT = PACKAGE.parents[1]


def test_start_without_dataclasses():
    """No module imports ``dataclasses``, and importing the CLI in a fresh
    interpreter loads neither it nor ``inspect``: together with the
    decorators they were about a fifth of the CLI's start."""
    for path in sorted(PACKAGE.glob("*.py")):
        assert "dataclasses" not in set(imported_modules(path)), path.name
    code = ("import sys, minkarr.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"

# top-level names kept without a caller in the program, each for a reason
NO_CALLER_ALLOWED = {
    # ROADMAP item 8 bridges a chain to an arrangement and partitions its
    # ratios, and reports against the exact floor of the chain bound
    "chain_to_arrangement",
    "partition_classes",
    "chain_bound_floor",
}


def referenced_names(tree, definitions):
    """Names read anywhere in tree, as a Name or an attribute, except
    inside the definition in ``definitions`` that binds the same name."""
    names = set()
    stack = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()
        if node in definitions:
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            names.add(node.attr)
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return names


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def src_definitions(tree):
    """The module's top-level functions and classes, and the methods and
    properties of its classes that are not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not is_dunder(m.name))


def test_every_src_function_has_a_caller():
    """Every top-level function and class of the package, and every method
    and property of its classes but the dunders, is referenced in src/ or
    bench/ outside its own definition; a re-export in __init__ is not a
    reference.  Code only the tests call belongs in tests/."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))
             + sorted((ROOT / "bench").glob("*.py"))}
    definitions = {node for path, tree in trees.items()
                   if path.parent == PACKAGE
                   for node in src_definitions(tree)}
    assert len(definitions) > 100
    assert "boundary_frame" in {node.name for node in definitions}
    used = set().union(*(referenced_names(tree, definitions)
                         for tree in trees.values()))
    orphans = sorted(node.name for node in definitions
                     if node.name not in used | NO_CALLER_ALLOWED)
    assert not orphans


def test_no_module_writes_another_objects_dict():
    """No module calls ``vars`` or reaches an object's ``__dict__``: an
    object computes its cached values itself, and no other module writes
    them in its place."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            assert not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "vars"), where + " calls vars()"
            assert not (isinstance(node, ast.Attribute)
                        and node.attr == "__dict__"), \
                where + " reaches __dict__"
