"""The benchmark's workloads: endless seeded streams of CLI questions.

A question is one subcommand on one input (two for ``equiv``) at one order,
with the answer known in advance.  A workload is a fixed cycle of *slots*;
question ``i`` of the stream draws its input from ``Random(f"{name}/{seed}/{i}")``
so the same seed always gives the same questions, while the mix of
subcommands and orders is the same for every seed.  Slots with a fixed input
(the README and ROADMAP examples, the two known defects) are *anchors*: they
are :class:`Question` objects rather than functions of the generator.

Stdlib only, like :mod:`gen`: nothing here imports ``cuspfol``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import gen
from gen import GQ, ZERO

README_MERO = "mero:(y^2+x^3)/(x*y)"
ROADMAP_MERO = "mero:(y^2+x^3+x^2*y)/(x*y+x^3)"
SINH = "(-y^3 + 2*x^3*y + x^4*y) dx + (x*y^2 - x^4) dy"

# Defect (a): reduce calls this form cusp type, but normal-form raises
# "elimination system is infeasible at degree 3".
DEFECT_A = "mero:(y^2+x^3+y^3)/(x*y)"

# Known answers, as sets of allowed verdicts and exit codes.
OK = {"exit": {0}}  # a computing subcommand on a cusp-type input
CUSP = {"verdict": {"CuspTypeAbsolutelyDicritical"}, "exit": {0}}
NOT_CUSP = {"verdict": {"NotDicritical", "WrongReductionTree"}, "exit": {1}}
IDENTITY = {"verdict": {"Identity"}, "exit": {0}}
HOMOGRAPHIC = {"verdict": {"Homographic"}, "exit": {0}}
EQUIVALENT = {"verdict": {"Equivalent"}, "exit": {0}}
DECIDED = {"verdict": {"RelationFound", "NoRelationWithinBound"}, "exit": {0, 1}}
OBSTRUCTED = {"verdict": {"ObstructedDimensionOne"}, "exit": {1}, "corank": 1, "certified": True}
NORMALIZED = {"verdict": {"Normalized"}, "exit": {0}}

FI3 = ("--degree", "3")
# Fixed tail positions (m, k) of the seeded templates, k = 0..3 for a, b, c, d.
SWEEP_TAIL = {(5, 1), (6, 0)}
SERIES_TAIL = {(5, 2), (6, 1)}
DENSE_TAIL = {(5, 1), (5, 2), (6, 0), (6, 3), (7, 1), (8, 2)}
# Monomials of p and q in the changes phi = (x + p, y + q).
CHANGE2 = ({(2, 0), (0, 2)}, {(1, 1), (2, 0)})
CHANGE3 = ({(2, 0), (1, 2)}, {(0, 2), (3, 0)})


@dataclass(frozen=True)
class Question:
    argv: tuple
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def question(command, forms, order, expect=None, extra=()):
    return Question((command, *forms, "--order", str(order), *extra), expect or {})


def template_expect(template, order, command):
    """Known answers for a subcommand on a template or on a moved template."""
    if command == "normal-form":
        return dict(NORMALIZED, normal_form=template.expected_normal_form(order))
    return {"reduce": CUSP, "cohomology": OBSTRUCTED, "equiv": EQUIVALENT,
            "first-integral": DECIDED}.get(command, OK)


def on_template(command, order, top, density=0.4, moved=0, extra=(), pattern=None,
                change=None):
    """A slot asking ``command`` about a fresh template (moved by a change of
    degree ``moved`` and truncated at ``order``, when ``moved`` is set)."""

    def slot(rng):
        t = gen.random_template(rng, top, density, pattern)
        form = t.form()
        if moved:
            phi = gen.random_change(rng, moved, change)
            form = gen.form_truncate(gen.pullback(form, *phi), order)
        return question(command, [gen.form_text(form)], order,
                        template_expect(t, order, command), extra)

    return slot


def _equiv_pullback_question(t, phi, order):
    moved = gen.pullback(t.form(), *phi)
    if gen.form_degree(moved) > order:
        raise ValueError("phi*T must be exact at the order asked")
    forms = [gen.form_text(t.form()), gen.form_text(moved)]
    return question("equiv", forms, order, EQUIVALENT)


def same_form_equiv(order, top):
    def slot(rng):
        text = gen.form_text(gen.random_template(rng, top, pattern=SWEEP_TAIL).form())
        return question("equiv", [text, text], order, EQUIVALENT)

    return slot


def on_raw_mero(command, order):
    """No known answer: the question fails only by raising or a bad exit."""
    return lambda rng: question(command, [gen.raw_mero(rng)], order)


def on_non_cusp(command, order):
    return lambda rng: question(command, [gen.form_text(gen.non_cusp(rng))], order, NOT_CUSP)


# Defect (b): equiv says NotEquivalent for this template T and its exact
# pullback phi*T, although normal-form gives both the same data.
DEFECT_B_TEMPLATE = gen.Template(GQ(2), GQ(-1), {5: (ZERO, GQ(1), ZERO, ZERO)})
DEFECT_B_CHANGE = ({(0, 2): GQ(2)}, {(2, 0): GQ(-1), (3, 0): GQ(-2)})
DEFECT_B_MOVED = gen.form_text(gen.pullback(DEFECT_B_TEMPLATE.form(), *DEFECT_B_CHANGE))


def moved_defect_b(command, order):
    """An anchor on the exact pullback of defect (b), whose normal form is known."""
    return question(command, [DEFECT_B_MOVED], order,
                    template_expect(DEFECT_B_TEMPLATE, order, command))


WORKLOADS = {
    # Many cheap questions at order 8 over all nine subcommands: per-question
    # overhead (cli, parsing, reduce_cusp, root finding, serialization).
    # Wherever a question's cost grows fast with the input (everything past
    # reduce and normal-form), templates use a fixed sparsity pattern, so
    # that every seed asks questions of about the same cost.
    "sweep": [
        on_template("reduce", 8, 6),
        on_template("normal-form", 8, 7),
        on_template("reduce", 8, 8, moved=2),
        on_template("normal-form", 8, 8, moved=2),
        on_raw_mero("reduce", 8),
        on_raw_mero("normal-form", 8),
        on_non_cusp("reduce", 8),
        on_template("sigma", 8, 6, pattern=SWEEP_TAIL),
        question("sigma", [README_MERO], 8, IDENTITY),
        on_template("normal-form", 8, 8, moved=2),
        on_raw_mero("reduce", 8),
        on_template("schwarzian", 8, 6, pattern=SWEEP_TAIL),
        on_template("reduce", 8, 7, moved=2),
        on_raw_mero("normal-form", 8),
        on_non_cusp("sigma", 8),
        on_template("symmetries", 8, 6, pattern=SWEEP_TAIL),
        question("normal-form", [DEFECT_A], 8, NORMALIZED),
        on_template("first-integral", 8, 6, pattern=SWEEP_TAIL, extra=FI3),
        on_non_cusp("reduce", 8),
        on_template("cohomology", 8, 6, pattern=SWEEP_TAIL),
        on_raw_mero("sigma", 8),
        on_template("glue", 8, 6, pattern=SWEEP_TAIL),
        same_form_equiv(8, 6),
        on_template("normal-form", 8, 6),
        # The cheap seeded questions once more, so that the median of a run
        # sits among twice as many seeded draws.
        on_template("reduce", 8, 6),
        on_template("normal-form", 8, 7),
        on_template("reduce", 8, 8, moved=2),
        on_template("normal-form", 8, 8, moved=2),
        on_raw_mero("reduce", 8),
        on_raw_mero("normal-form", 8),
        on_non_cusp("reduce", 8),
        on_template("normal-form", 8, 8, moved=2),
        on_raw_mero("reduce", 8),
        on_template("reduce", 8, 7, moved=2),
        on_raw_mero("normal-form", 8),
        on_non_cusp("sigma", 8),
        on_non_cusp("reduce", 8),
        on_raw_mero("sigma", 8),
        on_template("normal-form", 8, 6),
    ],
    # Series reversion (sparse inputs) and the corner first integral (dense
    # equiv questions); linalg is idle.
    "series": [
        question("sigma", [README_MERO], 20, IDENTITY),
        on_template("sigma", 10, 6, pattern=SERIES_TAIL),
        question("sigma", [ROADMAP_MERO], 16, OK),
        question("schwarzian", [README_MERO], 16, HOMOGRAPHIC),
        on_template("schwarzian", 10, 6, pattern=SERIES_TAIL),
        question("schwarzian", [ROADMAP_MERO], 16, OK),
        question("symmetries", [README_MERO], 20, OK),
        on_template("symmetries", 10, 6, pattern=SERIES_TAIL),
        question("symmetries", [ROADMAP_MERO], 16, OK),
        question("sigma", [SINH], 16, OK),
        question("first-integral", [README_MERO], 16, DECIDED, FI3),
        on_template("first-integral", 10, 6, pattern=SERIES_TAIL, extra=FI3),
        question("first-integral", [ROADMAP_MERO], 16, DECIDED, FI3),
        question("sigma", [ROADMAP_MERO], 20, OK),
        question("sigma", [README_MERO], 16, IDENTITY),
        on_template("sigma", 10, 6, pattern=SERIES_TAIL),
        question("schwarzian", [SINH], 16, OK),
        question("schwarzian", [README_MERO], 20, HOMOGRAPHIC),
        _equiv_pullback_question(DEFECT_B_TEMPLATE, DEFECT_B_CHANGE, 12),
        question("symmetries", [README_MERO], 16, OK),
        on_template("symmetries", 10, 6, pattern=SERIES_TAIL),
        question("first-integral", [README_MERO], 20, DECIDED, FI3),
    ],
    # normalize -> Jet2.substitute -> jet2_mul on moved templates; reversion
    # and rref do no work here.
    "dense-nf": [
        moved_defect_b("normal-form", 12),
        on_template("normal-form", 12, 8, moved=2, pattern=DENSE_TAIL, change=CHANGE2),
        on_template("reduce", 12, 8, moved=3, pattern=DENSE_TAIL, change=CHANGE3),
        on_template("normal-form", 14, 8, moved=3, pattern=DENSE_TAIL, change=CHANGE3),
        on_template("normal-form", 16, 8, moved=2, pattern=DENSE_TAIL, change=CHANGE2),
        on_template("reduce", 16, 8, moved=2, pattern=DENSE_TAIL, change=CHANGE2),
        on_template("normal-form", 13, 8, moved=3, pattern=DENSE_TAIL, change=CHANGE3),
        # The costliest question twice, so that the tail percentile of a run
        # falls inside its group of times rather than at the group's edge.
        on_template("normal-form", 16, 8, moved=2, pattern=DENSE_TAIL, change=CHANGE2),
        moved_defect_b("normal-form", 16),
    ],
    # Exact elimination (solve and matrix_rank -> rref), reversion second.
    "cohomology": [
        question("cohomology", [README_MERO], 12, OBSTRUCTED),
        question("glue", [ROADMAP_MERO], 14, OK),
        on_template("cohomology", 10, 6, pattern=SERIES_TAIL),
        question("glue", [README_MERO], 12, OK),
        question("cohomology", [README_MERO], 14, OBSTRUCTED),
        on_template("glue", 10, 6, pattern=SERIES_TAIL),
        question("cohomology", [ROADMAP_MERO], 12, OBSTRUCTED),
        question("glue", [README_MERO], 16, OK),
        question("glue", [ROADMAP_MERO], 12, OK),
        question("cohomology", [README_MERO], 16, OBSTRUCTED),
        question("glue", [README_MERO], 14, OK),
    ],
}


def stream(name, seed):
    """Yield the workload's questions forever, deterministically in ``seed``."""
    slots = WORKLOADS[name]
    i = 0
    while True:
        slot = slots[i % len(slots)]
        yield slot if isinstance(slot, Question) else slot(random.Random(f"{name}/{seed}/{i}"))
        i += 1


def anchors(name):
    """The workload's fixed-input questions, in slot order."""
    return [slot for slot in WORKLOADS[name] if isinstance(slot, Question)]
