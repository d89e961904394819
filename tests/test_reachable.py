"""Every module-level function and class of the library is reached by a
question the program answers.

``test_definitions`` counts a unit test as a reference, so a function that
only its own tests call passes there while no CLI question and no
acceptance criterion reaches it.  This scan is stricter: a module-level
``def`` or ``class`` in ``src/cuspfol`` must be named by another library
module, elsewhere in its own module (outside its own body), by
``tests/test_acceptance.py``, or as an entry point ``perfbench/spans.py``
traces.  Methods are left to ``test_definitions``.
"""

import ast

from test_definitions import PACKAGE, ROOT, dead_definitions, traced_names


def module_definitions(tree):
    """(name, first line, last line) of every module-level def and class."""
    return [
        (node.name, node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def test_the_scan_skips_methods_and_unit_tests():
    sources = {
        "lib.py": (
            "class Kept:\n"
            "    def only_tested(self): pass\n"
            "def helper(): return Kept()\n"
            "def entry(): return helper()\n"
            "def only_tested(): pass\n"
        ),
        "tests/test_acceptance.py": "from lib import entry\n",
    }
    assert dead_definitions(sources, defs=module_definitions) == [("lib.py", "only_tested")]


def test_every_definition_is_reached_without_unit_tests():
    library = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    sources = {**library, "tests/test_acceptance.py": acceptance}
    dead = [
        (f, n)
        for f, n in dead_definitions(sources, traced_names(), defs=module_definitions)
        if f in library
    ]
    assert not dead, "reached only by unit tests: " + ", ".join(f"{f}: {n}" for f, n in dead)
