"""The CLI's answers about a cusp-type form do not move under the group
actions that leave its foliation unchanged.

Three kinds of action are applied to seeded forms: changes of coordinates
tangent to the identity (of degree 2 and 3), diagonal and other linear
changes, and unit factors.  After each one, ``reduce`` gives the same
verdict, ``equiv`` finds the moved form equivalent to the original,
``cohomology`` gives the same verdict and corank, ``symmetries`` the same
number of candidates and the same answer to "infinite", and
``first-integral`` the same verdict.  Templates that differ in one tail
modulus are told apart: ``equiv`` says ``NotEquivalent`` on each pair.
"""

import contextlib
import io
import itertools
import json
import random

import pytest

from cuspfol.cli import _as_oneform, main
from cuspfol.coeff import Coeff
from cuspfol.forms import linear_change, pullback_map
from cuspfol.jets import Jet2
from cuspfol.normalform import NormalFormData, reconstruct_normal_form

from oracles import form_at_order, form_scale, format_form
from test_cli import raw_mero
from test_transversal import SINH, seeded_template

ORDER = 12


def answer(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--order", str(ORDER), "--json"])
    return code, json.loads(buf.getvalue())


def invariants(text):
    """What the five questions say about a form, in a comparable shape."""
    code, rep = answer("reduce", text)
    assert code == 0, rep
    _, coh = answer("cohomology", text)
    _, sym = answer("symmetries", text)
    _, fi = answer("first-integral", text, "--degree", "3")
    return {
        "reduce": rep["verdict"],
        "cohomology": (coh["verdict"], coh["data"]["corank"]),
        "symmetries": (len(sym["data"]["candidates"]), sym["data"]["infinite"]),
        "first-integral": fi["verdict"],
    }


def small(rng):
    return Coeff(rng.randint(-2, 2), rng.choice((0, 0, 1, -1)))


def nonzero(rng):
    c = small(rng)
    while c.is_zero():
        c = small(rng)
    return c


def homogeneous(rng, degree):
    return Jet2({(i, degree - i): small(rng) for i in range(degree + 1)}, ORDER)


def tangent_change(rng, w):
    p = homogeneous(rng, 2) + homogeneous(rng, 3)
    q = homogeneous(rng, 2) + homogeneous(rng, 3)
    return pullback_map(w, Jet2.var_x(ORDER) + p, Jet2.var_y(ORDER) + q, order=ORDER)


def diagonal_change(rng, w):
    return linear_change(w, ((nonzero(rng), 0), (0, nonzero(rng))))


def linear(rng, w):
    while True:
        m = ((small(rng), small(rng)), (small(rng), small(rng)))
        if not (m[0][0] * m[1][1] - m[0][1] * m[1][0]).is_zero():
            return linear_change(w, m)


def unit_factor(rng, w):
    u = Jet2({(0, 0): nonzero(rng)}, ORDER)
    for d in (1, 2, 3):
        u = u + homogeneous(rng, d)
    return form_scale(w, u)


def base_forms():
    rng = random.Random(0x1A7)
    forms = [_as_oneform(SINH, ORDER)]
    forms += [form_at_order(seeded_template(rng, 8), ORDER) for _ in range(3)]
    while len(forms) < 7:
        w = _as_oneform(raw_mero(rng), ORDER)
        if answer("reduce", format_form(w))[0] == 0:
            forms.append(w)
    return forms


ACTIONS = {
    "tangent": tangent_change,
    "diagonal": diagonal_change,
    "linear": linear,
    "unit": unit_factor,
}


@pytest.mark.parametrize("action", ACTIONS)
def test_answers_do_not_move_under_the_action(action):
    rng = random.Random(f"invariance/{action}")
    for w in base_forms():
        text = format_form(w)
        want = invariants(text)
        for _ in range(2):
            moved = format_form(ACTIONS[action](rng, w))
            assert invariants(moved) == want, (action, text, moved)
            code, rep = answer("equiv", text, moved)
            assert (code, rep["verdict"]) == (0, "Equivalent"), (action, text, moved)


# Templates with alpha = 2 and a = -1 that each set one tail modulus.
TAIL_MODULI = {
    "b5=1": (5, 1, 1),
    "b5=2": (5, 1, 2),
    "c5=1": (5, 2, 1),
    "a6=1": (6, 0, 1),
    "b6=1": (6, 1, 1),
    "d6=1": (6, 3, 1),
    "b7=1": (7, 1, 1),
}


def tail_template(m, k, c):
    t = [Coeff(0)] * 4
    t[k] = Coeff(c)
    data = NormalFormData(order=ORDER, alpha=Coeff(2), a=Coeff(-1), tail={m: tuple(t)})
    return format_form(reconstruct_normal_form(data))


@pytest.mark.parametrize(
    "first, second",
    list(itertools.combinations(TAIL_MODULI, 2)),
    ids=lambda name: name,
)
def test_templates_with_distinct_tails_are_not_equivalent(first, second):
    code, rep = answer("equiv", *(tail_template(*TAIL_MODULI[name]) for name in (first, second)))
    assert (code, rep["verdict"]) == (1, "NotEquivalent")
