"""Spans recorded around calls into cuspfol's public functions.

The wrappers live here, outside the library: ``Tracer.install`` replaces a
function in every ``cuspfol`` module that bound it (``from ... import``
copies the name into the importing module) and ``uninstall`` puts the
originals back.  Spans are kept in memory as tuples

    (span_id, name, start, end, parent_id, question_id)

and summarized into per-layer metrics by :func:`summarize`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path) for every traced entry point.
TRACED = [
    ("cli.main", "cuspfol.cli", "main"),
    ("parsing.parse_form", "cuspfol.parsing", "parse_form"),
    ("forms.reduce_cusp", "cuspfol.forms", "reduce_cusp"),
    ("forms.pullback_map", "cuspfol.forms", "pullback_map"),
    ("transversal.regular_first_integral", "cuspfol.transversal", "regular_first_integral"),
    ("transversal.sigma_of_integral", "cuspfol.transversal", "sigma_of_integral"),
    ("normalform.normalize", "cuspfol.normalform", "normalize"),
    ("moduli.schwarzian", "cuspfol.moduli", "schwarzian"),
    ("moduli.homographic_symmetries", "cuspfol.moduli", "homographic_symmetries"),
    ("moduli.normal_pair_equivalent", "cuspfol.moduli", "normal_pair_equivalent"),
    ("gluing.coboundary_solve", "cuspfol.gluing", "coboundary_solve"),
    ("gluing.cohomology_dimension", "cuspfol.gluing", "cohomology_dimension"),
    ("gluing.build_cocycle", "cuspfol.gluing", "build_cocycle"),
    ("firstintegral.no_first_integral_witness", "cuspfol.firstintegral", "no_first_integral_witness"),
    ("linalg.solve", "cuspfol.linalg", "solve"),
    ("linalg.matrix_rank", "cuspfol.linalg", "matrix_rank"),
    ("jets.Jet1.comp_inverse", "cuspfol.jets", "Jet1.comp_inverse"),
    ("jets.Jet1.compose", "cuspfol.jets", "Jet1.compose"),
    ("jets.Jet2.substitute", "cuspfol.jets", "Jet2.substitute"),
    ("gaussint.gi_factor", "cuspfol.gaussint", "gi_factor"),
    ("kernel.jet1_mul", "cuspfol._backend", "jet1_mul"),
    ("kernel.jet2_mul", "cuspfol._backend", "jet2_mul"),
    ("kernel.rref", "cuspfol._backend", "rref"),
]


def _matrix_shape(args, kwargs):
    rows = args[0] if args else kwargs.get("rows", [])
    return len(rows), (len(rows[0]) if rows else 0)


def _corner_order(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs.get("order")
    return args[0].order if order is None else order


_SHAPE = [
    ("linalg.rows_max", lambda a, k: _matrix_shape(a, k)[0]),
    ("linalg.cols_max", lambda a, k: _matrix_shape(a, k)[1]),
]

# Sizes read off a traced function's arguments: prefix -> [(metric, probe)].
SIZE_PROBES = {
    "linalg.solve": _SHAPE,
    "linalg.matrix_rank": _SHAPE,
    "transversal.regular_first_integral": [("transversal.corner_order_max", _corner_order)],
}
SIZE_METRICS = sorted({metric for probes in SIZE_PROBES.values() for metric, _ in probes})


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self):
        self.spans = []
        self.sizes = defaultdict(int)
        self.question = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn):
        probes = SIZE_PROBES.get(name, ())
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        sizes = self.sizes

        def traced(*args, **kwargs):
            for metric, probe in probes:
                value = probe(args, kwargs)
                if value > sizes[metric]:
                    sizes[metric] = value
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.question))

        return traced

    def install(self):
        """Patch every binding of every traced function in loaded cuspfol modules."""
        modules = [m for k, m in sys.modules.items() if k.startswith("cuspfol") and m is not None]
        for name, modname, path in TRACED:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _union_length(children.get(span_id, ()))
        for span_id, _, start, end, _, _ in spans
    }


def summarize(spans):
    """Per traced name: ``calls``, ``busy_s`` (union of its spans) and ``self_s``."""
    selfs = self_times(spans)
    intervals = defaultdict(list)
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for span_id, name, start, end, _, _ in spans:
        intervals[name].append((start, end))
        out[name]["calls"] += 1
        out[name]["self_s"] += selfs[span_id]
    for name, ivs in intervals.items():
        out[name]["busy_s"] = _union_length(ivs)
    return dict(out)
