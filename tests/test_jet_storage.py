"""Only ``jets`` reads the storage of a jet.

``Jet1`` keeps its coefficients in ``_c`` and ``Jet2`` in ``_d``; every other
module goes through the public surface (``items``, ``coeff``, ``coeffs``),
so the storage can change without touching callers.  Each library and test
module is parsed with ``ast`` and may not read an attribute named ``_c`` or
``_d``.
"""

import ast

import pytest

from test_imports import MODULES

STORAGE = {"_c", "_d"}
EXEMPT = {"jets.py"}


def storage_reads(source):
    """(line, attribute) for every ``._c`` or ``._d`` in the module."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in STORAGE
    )


def test_the_scan_sees_every_storage_read():
    source = (
        "def f(j, k):\n"
        "    keys = sorted(j._d)\n"
        "    return [k._c[0], j.items(), getattr(j, '_d'), j._dx]\n"
    )
    assert storage_reads(source) == [(2, "_d"), (3, "_c")]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in EXEMPT], ids=lambda p: p.name
)
def test_no_jet_storage_read_outside_jets(path):
    reads = storage_reads(path.read_text())
    assert not reads, f"{path.name}: reads jet storage " + ", ".join(
        f"{attr} (line {line})" for line, attr in reads
    )
