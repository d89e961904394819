"""Every name a library or test module imports is used there.

No linter ships with the project's toolchain, so this is the check that
keeps unused imports out of ``src/cuspfol`` and ``tests``: each module is
parsed with ``ast`` and every imported name must be read somewhere in it,
exported through ``__all__``, or named in a string annotation.
``from __future__`` imports are directives, not names, and are skipped.
The tests are scanned too because an unused test import would otherwise
count as a reference and keep dead library code past test_definitions.
"""

import ast
from pathlib import Path

import pytest

import cuspfol

PACKAGE = Path(cuspfol.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def imported_names(tree):
    """{bound name: line} for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree):
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    trees = [tree]
    for ann in annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            trees.append(ast.parse(ann.value, mode="eval"))
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree) | exported_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


def test_the_scan_sees_every_kind_of_use():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import B, C, D, E as F, G\n"
        "__all__ = ['C']\n"
        "def f(x: 'D') -> None:\n"
        "    return os.path, F\n"
    )
    assert unused_imports(source) == [(3, "B"), (3, "G")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )
