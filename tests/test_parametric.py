"""Tests for the exact one-parameter family machinery."""

import random

import pytest

from cuspfol.coeff import Coeff
from cuspfol.firstintegral import Rational1
from cuspfol.forms import exceptional_divide, pullback_blowup
from cuspfol.parametric import (
    ParamForm3,
    ParamPoly2,
    exceptional_divide_param,
    family_form,
    param_form_of_meromorphic,
    pullback_blowup_param,
)

import oracles
from test_forms import cusp_family_form

RNG = random.Random(0x9A43)

Z = Rational1.variable()


def rat(num, den=(1,)):
    return Rational1(num, den)


# ---------------------------------------------------------------------------
# the parameter field


def test_rational_field_arithmetic():
    a = rat((1,), (1, -1))  # 1/(1-z)
    b = rat((1,), (1, 1))  # 1/(1+z)
    s = a + b
    assert s.num == (Coeff(2),)
    assert s.den == (Coeff(1), Coeff(0), Coeff(-1))  # 1 - z^2
    p = a * b
    assert p.num == (Coeff(1),)
    assert p.den == (Coeff(1), Coeff(0), Coeff(-1))
    assert (a - a).is_zero()
    q = a / b  # (1+z)/(1-z)
    assert q.num == (Coeff(1), Coeff(1))
    assert q.den == (Coeff(1), Coeff(-1))
    assert a + 0 == a
    assert hash(ParamPoly2({(1, 0): a + 0})) == hash(ParamPoly2({(1, 0): a}))
    assert (Z * Z).num == (Coeff(0), Coeff(0), Coeff(1))


def test_rational_field_derivative():
    a = rat((1,), (1, -1))
    d = a.derivative()  # 1/(1-z)^2
    assert d.num == (Coeff(1),)
    assert d.den == (Coeff(1), Coeff(-2), Coeff(1))
    assert rat((0, 0, 1)).derivative() == rat((0, 2))
    assert rat((5,)).derivative().is_zero()


def test_rational_field_scale_and_evaluate():
    r = rat((0, 0, 1), (1, 1))  # z^2/(1+z)
    flipped = r.scale_variable(Coeff(-1))
    assert flipped.num == (Coeff(0), Coeff(0), Coeff(1))
    assert flipped.den == (Coeff(1), Coeff(-1))
    assert r.evaluate(Coeff(2)) == Coeff(4) / Coeff(3)
    with pytest.raises(ValueError):
        r.evaluate(Coeff(-1))


# ---------------------------------------------------------------------------
# parametric polynomials


def test_parampoly_arithmetic():
    p = ParamPoly2({(1, 0): 1, (0, 1): Z})  # x + z*y
    q = ParamPoly2({(1, 0): 1, (0, 1): -Z})
    prod = p * q  # x^2 - z^2 y^2
    assert prod == ParamPoly2({(2, 0): 1, (0, 2): -(Z * Z)})
    assert p + q == ParamPoly2({(1, 0): 2})
    assert (p - p).is_zero()
    assert p * Coeff(3) == ParamPoly2({(1, 0): 3, (0, 1): Z * 3})
    assert ParamPoly2({(0, 0): 1}).degree() == 0
    assert ParamPoly2().degree() is None


def test_parampoly_derivatives():
    p = ParamPoly2({(2, 1): Z, (0, 3): 1})
    assert p.dx() == ParamPoly2({(1, 1): Z * 2})
    assert p.dy() == ParamPoly2({(2, 0): Z, (0, 2): 3})
    assert p.dz() == ParamPoly2({(2, 1): 1})


def test_parampoly_param_evaluation():
    p = ParamPoly2({(1, 1): rat((1,), (1, -1))})
    jet = p.evaluate_param(Coeff(3), 8)
    assert jet.coeff(1, 1) == Coeff(-1) / Coeff(2)
    with pytest.raises(ValueError):
        p.evaluate_param(Coeff(1), 8)  # pole of the coefficient


# ---------------------------------------------------------------------------
# the family form


def test_family_form_slots():
    om = family_form()
    assert om.variables == ("x", "y", "z")
    assert om.a == ParamPoly2({(3, 1): 2, (2, 2): Z, (0, 3): -1})
    assert om.b == ParamPoly2({(1, 2): 1, (4, 0): -1})
    assert om.c == ParamPoly2({(3, 2): 1})


def test_family_form_singular_along_parameter_axis():
    om = family_form()
    for slot in (om.a, om.b):
        assert all(key != (0, 0) for key in slot.support())
    # valuation of the slice part is 3
    val = min(i + j for p in (om.a, om.b) for (i, j) in p.support())
    assert val == 3


def test_family_slice_matches_plain_forms():
    om = family_form()
    for zval in (0, 1, 2):
        plain = cusp_family_form(Coeff(zval))
        sl = oracles.slice_form(om, Coeff(zval), plain.a.order)
        assert sl.a == plain.a
        assert sl.b == plain.b
        assert sl.variables == plain.variables


# ---------------------------------------------------------------------------
# blow-ups


def blown_family():
    om = family_form()
    w1, k1 = exceptional_divide_param(pullback_blowup_param(om, "x"), "x")
    w2, k2 = exceptional_divide_param(
        pullback_blowup_param(w1, "y", new_var="x"), "t"
    )
    return w1, k1, w2, k2


def test_first_blowup_divided():
    w1, k1, _, _ = blown_family()
    assert k1 == 4
    assert w1.variables == ("x", "t", "z")
    assert w1.a == ParamPoly2({(0, 1): 1, (0, 2): Z})  # t*(1 + z*t)
    assert w1.b == ParamPoly2({(0, 2): 1, (1, 0): -1})  # t^2 - x
    assert w1.c == ParamPoly2({(1, 2): 1})  # t^2*x


def test_second_blowup_divided():
    _, _, w2, k2 = blown_family()
    assert k2 == 2
    assert w2.variables == ("x", "t", "z")
    assert w2.a == ParamPoly2({(0, 0): 1, (0, 1): Z})  # 1 + z*t
    assert w2.b == ParamPoly2({(0, 0): 1, (1, 0): Z})  # 1 + z*x
    assert w2.c == ParamPoly2({(1, 1): 1})  # x*t
    # regular at the origin of the corner chart: the constant slots of the
    # two chart differentials are nonzero, the dz-slot vanishes there
    assert not w2.a.coeff(0, 0).is_zero()
    assert not w2.b.coeff(0, 0).is_zero()
    assert w2.c.coeff(0, 0).is_zero()


def test_blowups_match_reference_series():
    # reference formulas for the same family written with the parameter
    # negated: substituting z -> -z in our exact result must reproduce them
    # coefficient for coefficient
    w1, _, w2, _ = blown_family()

    def neg(p):
        return p.scale_param(Coeff(-1))

    assert neg(w1.a) == ParamPoly2({(0, 1): 1, (0, 2): -Z})  # t*(1 - z*t)
    assert neg(w1.b) == ParamPoly2({(0, 2): 1, (1, 0): -1})  # t^2 - x
    assert neg(w1.c) == ParamPoly2({(1, 2): 1})  # t^2*x
    assert neg(w2.a) == ParamPoly2({(0, 0): 1, (0, 1): -Z})  # 1 - z*t
    assert neg(w2.b) == ParamPoly2({(0, 0): 1, (1, 0): -Z})  # 1 - z*x
    assert neg(w2.c) == ParamPoly2({(1, 1): 1})  # t*x


def test_blowup_commutes_with_slicing():
    om = family_form()
    w1, _, _, _ = blown_family()
    for zval in (0, 1, 2):
        plain = cusp_family_form(Coeff(zval))
        moved, k = exceptional_divide(pullback_blowup(plain, "x"), "x")
        assert k == 4
        sl = oracles.slice_form(w1, Coeff(zval), moved.a.order)
        assert sl.a == moved.a
        assert sl.b == moved.b


def test_exceptional_divide_param_noop():
    p = ParamForm3(
        ParamPoly2({(0, 1): 1}), ParamPoly2({(1, 0): 1}), ParamPoly2(), ("x", "t", "z")
    )
    out, k = exceptional_divide_param(p, "x")
    assert k == 0
    assert out is p
    with pytest.raises(ValueError):
        exceptional_divide_param(p, "z")


def test_param_form_validates():
    with pytest.raises(ValueError):
        param_form_of_meromorphic(ParamPoly2(), ParamPoly2({(0, 0): 1}))
    with pytest.raises(ValueError):
        pullback_blowup_param(family_form(), "q")
