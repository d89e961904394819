"""Each refusal message of the library is raised at one site.

A rule written at two sites can be changed at one and silently stay old at
the other, so each precondition is stated once, in the module that owns
it, and called from everywhere else.  Each ``src/cuspfol`` module is parsed
with ``ast``; every string or f-string passed to the exception a ``raise``
builds is reduced to its template (an f-string's replacement fields become
``{}``), and no template may occur at two sites.
"""

import ast
from collections import defaultdict

from test_imports import PACKAGE


def template(node):
    """The text of a string literal, or of an f-string with ``{}`` for
    each replacement field; None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def raise_sites(sources):
    """{template: [(module, line), ...]} over every ``raise`` of an
    exception built from string arguments, in the modules ``sources``
    ({module name: source text})."""
    sites = defaultdict(list)
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                for arg in node.exc.args:
                    text = template(arg)
                    if text is not None:
                        sites[text].append((name, node.lineno))
    return sites


def repeated(sites):
    return {text: sorted(where) for text, where in sites.items() if len(where) > 1}


def test_the_scan_finds_a_message_raised_at_two_sites():
    one = (
        "def f(x, n):\n"
        "    if x:\n"
        "        raise ValueError('ragged matrix')\n"
        "    raise JetError(f'index {n} outside order {x}')\n"
    )
    two = (
        "def g(k, m):\n"
        "    if k:\n"
        "        raise ValueError('ragged' ' matrix')\n"
        "    if m:\n"
        "        raise AssertionError('a re-check failed')\n"
        "    raise JetError(f'index {k + 1} outside order {m}')\n"
        "def h(e):\n"
        "    raise ValueError(e)\n"
    )
    assert repeated(raise_sites({"one": one, "two": two})) == {
        "ragged matrix": [("one", 3), ("two", 3)],
        "index {} outside order {}": [("one", 4), ("two", 6)],
    }


def test_each_refusal_message_is_raised_at_one_site():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert repeated(raise_sites(sources)) == {}
