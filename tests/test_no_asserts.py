"""The library raises its internal checks; it holds no ``assert`` statement.

``python -O`` strips ``assert`` statements, and some of the library's
checks re-check a verdict before it is reported (a reduced Pade pair
expanded again, a C* witness applied again), so each is written
``if ...: raise AssertionError(...)``.  Each library module is parsed with
``ast`` and may hold no ``assert``.
"""

import ast

import pytest

from test_imports import PACKAGE


def assert_lines(source):
    """The line of every ``assert`` statement in the module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_the_scan_sees_every_assert():
    source = "assert a\ndef f(x):\n    if x:\n        assert x, 'm'\n    raise AssertionError('m')\n"
    assert assert_lines(source) == [1, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_in_the_library(path):
    assert assert_lines(path.read_text()) == []
