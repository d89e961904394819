"""The benchmark under ``perfbench/`` reaches into the package by name.

``perfbench/spans.py`` wraps functions it finds by module and attribute, and
``perfbench/run.py`` records ``cuspfol.kernel_backend``.  A rename that drops
one of those names would only surface when the benchmark runs; these checks
make it fail the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import cuspfol
import cuspfol.cli  # noqa: F401  (loads every module the benchmark traces)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_entry_point_resolves():
    for metric, modname, path in _load_spans().TRACED:
        owner = importlib.import_module(modname)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{metric}: {modname}.{path} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), f"{metric}: {modname}.{path} is not callable"


def test_kernel_names_the_benchmark_reads():
    from cuspfol import _backend

    for name in ("jet1_mul", "jet2_mul", "rref"):
        assert callable(getattr(_backend, name))
    assert cuspfol.kernel_backend == "python"
