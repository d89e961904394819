"""Every function, method and class in the library is referenced by name.

A definition that nothing names is dead code: it is neither called nor
tested, so it can only rot.  Each ``src/cuspfol`` module is parsed with
``ast`` and every definition must be named somewhere outside its own body.
A name counts wherever it is read (a bare name or an attribute), imported,
or written as a whole string such as an ``__all__`` entry, in the library,
in the tests, or in the entry points ``perfbench/spans.py`` traces.
Dunders are called by the language, and ``cli.main`` by the console
script, so they are exempt.

A field of a class, an entry of its ``__slots__`` or an attribute its
``__init__`` sets on ``self``, is dead in the same way when nothing outside
its class body reads it: loads it as an attribute, passes it as a keyword,
or names it in ``getattr``, ``hasattr`` or ``setattr``.  A store such as
``p.pos = 2``, a keyword passed to the constructor of the field's own class
(a write, as ``Report(pos=2)``) and a string that only happens to spell the
name do not count.
"""

import ast
from collections import defaultdict
from pathlib import Path

import cuspfol
from test_bench_contract import _load_spans

PACKAGE = Path(cuspfol.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
EXEMPT = {("cli.py", "main")}


def definitions(tree):
    """(name, first line, last line) of every def and class in a module."""
    return [
        (node.name, node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def references(tree):
    """(name, line) for every way a module can name a definition."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def traced_names():
    return {part for _, _, path in _load_spans().TRACED for part in path.split(".")}


def dead_definitions(sources, outside=frozenset(), defs=definitions):
    """Definitions in ``sources`` ({file: text}) that nothing names.

    Every file in ``sources`` is scanned for references, and for the
    definitions ``defs`` lists in its tree; ``outside`` holds further names
    that count as references.
    """
    trees = {fname: ast.parse(text) for fname, text in sources.items()}
    refs = defaultdict(list)
    for fname, tree in trees.items():
        for name, line in references(tree):
            refs[name].append((fname, line))
    dead = []
    for fname, tree in trees.items():
        for name, lo, hi in defs(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if (fname, name) in EXEMPT or name in outside:
                continue
            if all(other == fname and lo <= line <= hi for other, line in refs[name]):
                dead.append((fname, name))
    return sorted(dead)


def assigned_attributes(function):
    """Names ``n`` of every ``self.n`` that ``function`` assigns."""
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.attr


def class_fields(tree):
    """(field, class, first line, last line of the class) of every field a
    class declares: a ``__slots__`` entry or an attribute its ``__init__``
    sets."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        names = []
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                names.extend(assigned_attributes(stmt))
            elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            ):
                names.extend(e.value for e in stmt.value.elts)
        for name in dict.fromkeys(names):
            yield name, node.name, node.lineno, node.end_lineno


ATTRIBUTE_BUILTINS = {"getattr", "hasattr", "setattr"}


def callee(call):
    """The name a call is made by: ``f`` in ``f(...)`` and ``m.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def field_references(tree):
    """(name, line, callee) for every attribute load, keyword, and string
    naming an attribute in a ``getattr``, ``hasattr`` or ``setattr`` call in
    a module; ``callee`` names the call a keyword is passed to, and is None
    for the others."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, None
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg:
                    yield kw.arg, kw.lineno, callee(node)
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ATTRIBUTE_BUILTINS
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                yield node.args[1].value, node.lineno, None


def dead_fields(sources):
    """Class fields in ``sources`` ({file: text}) that nothing reads; a
    keyword passed to the constructor of the field's own class writes it."""
    trees = {fname: ast.parse(text) for fname, text in sources.items()}
    refs = defaultdict(list)
    for fname, tree in trees.items():
        for name, line, call in field_references(tree):
            refs[name].append((fname, line, call))
    dead = []
    for fname, tree in trees.items():
        for name, cls, lo, hi in class_fields(tree):
            if all(
                (other == fname and lo <= line <= hi) or call == cls
                for other, line, call in refs[name]
            ):
                dead.append((fname, name))
    return sorted(dead)


def test_the_field_scan_sees_attributes_keywords_and_strings():
    sources = {
        "lib.py": (
            "class Report:\n"
            "    def __init__(self, read, keyword=0, named=0, self_read=0, built=0):\n"
            "        self.read = read\n"
            "        self.keyword, self.named = keyword, named\n"
            "        self.self_read = self_read\n"
            "        self.built = built\n"
            "    def double(self): return 2 * self.self_read\n"
            "class Slotted:\n"
            "    __slots__ = ('unread', 'stored', 'spelled')\n"
            "class Plain:\n"
            "    ignored: int = 0\n"
            "    def reset(self): self.ignored_too = 0\n"
            "def make(unread): return Report(1, keyword=2, built=3)\n"
            "def show(keyword): return keyword\n"
        ),
        "test_lib.py": (
            "from lib import make, Slotted\n"
            "make(0).read\n"
            "getattr(make(0), 'named')\n"
            "Slotted().stored = 2\n"
            "print('spelled')\n"
            "show(keyword=make(0))\n"
            "lib.Report(0, built=1)\n"
        ),
    }
    assert dead_fields(sources) == [
        ("lib.py", "built"), ("lib.py", "self_read"), ("lib.py", "spelled"), ("lib.py", "stored"),
        ("lib.py", "unread"),
    ]


# the modules whose result and report types are plain classes with fields
FIELD_MODULES = (
    "firstintegral.py", "forms.py", "gluing.py", "linalg.py", "moduli.py",
    "normalform.py", "parametric.py", "parsing.py", "transversal.py",
)


def test_no_dead_dataclass_fields():
    sources = {f"tests/{p.name}": p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))}
    library = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    blind = [f for f in FIELD_MODULES if not any(class_fields(ast.parse(library[f])))]
    assert not blind, "the field scan sees no field in " + ", ".join(blind)
    dead = [(f, n) for f, n in dead_fields({**library, **sources}) if f in library]
    assert not dead, "never read: " + ", ".join(f"{f}: {n}" for f, n in dead)


def test_the_scan_sees_every_kind_of_reference():
    sources = {
        "lib.py": (
            "__all__ = ['Exported']\n"
            "class Exported: pass\n"
            "class Kept:\n"
            "    def used(self): return 1\n"
            "    def recursive(self): return self.recursive()\n"
            "    def __repr__(self): return ''\n"
            "def imported(): pass\n"
            "def traced(): pass\n"
            "def dead(): return dead()\n"
        ),
        "test_lib.py": "from lib import imported\nKept().used()\n",
    }
    assert dead_definitions(sources, {"traced"}) == [("lib.py", "dead"), ("lib.py", "recursive")]


def test_no_dead_definitions():
    sources = {f"tests/{p.name}": p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))}
    library = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    dead = [(f, n) for f, n in dead_definitions({**library, **sources}, traced_names()) if f in library]
    assert not dead, "never referenced: " + ", ".join(f"{f}: {n}" for f, n in dead)
