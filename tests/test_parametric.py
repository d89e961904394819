"""Tests for the exact one-parameter family machinery."""

import random

import pytest

from cuspfol import poly
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
    assert (a + -a).is_zero()
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
    # a value is the quotient of the values of num and den; z = -1 is a pole
    assert poly.evaluate(r.num, Coeff(2)) / poly.evaluate(r.den, Coeff(2)) == Coeff(4) / Coeff(3)
    assert poly.evaluate(r.den, Coeff(-1)).is_zero()


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


def test_parampoly_derivatives():
    p = ParamPoly2({(2, 1): Z, (0, 3): 1})
    assert p.dx() == ParamPoly2({(1, 1): Z * 2})
    assert p.dy() == ParamPoly2({(2, 0): Z, (0, 2): 3})
    assert p.dz() == ParamPoly2({(2, 1): 1})


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


def assert_slices_match(form3, plain):
    """The (x, y)-slots of ``form3`` are linear in z, and so are the plain
    forms at z = 0, 1, 2: the slots are the polynomials through the first
    two, and the third lies on that line."""
    for slot in ("a", "b"):
        j0, j1, j2 = (getattr(w, slot) for w in plain)
        assert j2 == j1 * 2 - j0
        assert getattr(form3, slot) == oracles.param_poly_through(j0, j1)
    assert form3.variables[:2] == plain[0].variables


def test_family_slice_matches_plain_forms():
    assert_slices_match(family_form(), [cusp_family_form(Coeff(z)) for z in (0, 1, 2)])


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
    assert (0, 0) in w2.a.support() and (0, 0) in w2.b.support()
    assert (0, 0) not in w2.c.support()


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
    w1, _, _, _ = blown_family()
    moved = []
    for zval in (0, 1, 2):
        plain = cusp_family_form(Coeff(zval))
        w, k = exceptional_divide(pullback_blowup(plain, "x"), "x")
        assert k == 4
        moved.append(w)
    assert_slices_match(w1, moved)


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
