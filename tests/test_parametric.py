"""Tests for the exact one-parameter family machinery."""

import pytest

from cuspfol.coeff import Coeff
from cuspfol.forms import OneForm, exceptional_divide, pullback_blowup
from cuspfol.jets import Jet2
from cuspfol.parametric import (
    ParamForm3,
    exceptional_divide_param,
    family_form,
    pullback_blowup_param,
)

from test_forms import cusp_family_form


def slot(f, name, sign=1):
    """The polynomial of one slot ("a", "b" or "c", the dz-slot) per power
    k of z, times sign^k, trailing zero components dropped."""
    polys = [
        {key: v * sign**k for key, v in (c if name == "c" else getattr(w, name)).items()}
        for k, (w, c) in enumerate(f.components)
    ]
    while polys and not polys[-1]:
        polys.pop()
    return polys


# ---------------------------------------------------------------------------
# the family form


def test_family_form_slots():
    om = family_form()
    assert om.variables == ("x", "y", "z")
    assert slot(om, "a") == [{(3, 1): 2, (0, 3): -1}, {(2, 2): 1}]
    assert slot(om, "b") == [{(1, 2): 1, (4, 0): -1}]
    assert slot(om, "c") == [{(3, 2): 1}]


def test_family_form_singular_along_parameter_axis():
    om = family_form()
    for w, _ in om.components:
        assert w.a.coeff(0, 0).is_zero() and w.b.coeff(0, 0).is_zero()
    # valuation of the slice part is 3
    assert min(w.valuation() for w, _ in om.components) == 3


def assert_slices_match(form3, plain):
    """The slice of ``form3`` at z = 0, 1, 2, the sum of z^k times its
    components, is the plain form at that z."""
    for z0, w in enumerate(plain):
        for name in ("a", "b"):
            at = Jet2.zero(form3.components[0][0].order)
            for k, (part, _) in enumerate(form3.components):
                at = at + getattr(part, name) * Coeff(z0) ** k
            assert dict(at.items()) == dict(getattr(w, name).items())
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
    assert slot(w1, "a") == [{(0, 1): 1}, {(0, 2): 1}]  # t*(1 + z*t)
    assert slot(w1, "b") == [{(0, 2): 1, (1, 0): -1}]  # t^2 - x
    assert slot(w1, "c") == [{(1, 2): 1}]  # t^2*x


def test_second_blowup_divided():
    _, _, w2, k2 = blown_family()
    assert k2 == 2
    assert w2.variables == ("x", "t", "z")
    assert slot(w2, "a") == [{(0, 0): 1}, {(0, 1): 1}]  # 1 + z*t
    assert slot(w2, "b") == [{(0, 0): 1}, {(1, 0): 1}]  # 1 + z*x
    assert slot(w2, "c") == [{(1, 1): 1}]  # x*t
    # regular at the origin of the corner chart: the constant slots of the
    # two chart differentials are nonzero, the dz-slot vanishes there
    (w, c), _ = w2.components
    assert not w.a.coeff(0, 0).is_zero() and not w.b.coeff(0, 0).is_zero()
    assert c.coeff(0, 0).is_zero()


def test_blowups_match_reference_series():
    # reference formulas for the same family written with the parameter
    # negated: substituting z -> -z in our exact result, component k times
    # (-1)^k, must reproduce them coefficient for coefficient
    w1, _, w2, _ = blown_family()
    assert slot(w1, "a", -1) == [{(0, 1): 1}, {(0, 2): -1}]  # t*(1 - z*t)
    assert slot(w1, "b", -1) == [{(0, 2): 1, (1, 0): -1}]  # t^2 - x
    assert slot(w1, "c", -1) == [{(1, 2): 1}]  # t^2*x
    assert slot(w2, "a", -1) == [{(0, 0): 1}, {(0, 1): -1}]  # 1 - z*t
    assert slot(w2, "b", -1) == [{(0, 0): 1}, {(1, 0): -1}]  # 1 - z*x
    assert slot(w2, "c", -1) == [{(1, 1): 1}]  # t*x


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
    w = OneForm(Jet2({(0, 1): 1}), Jet2({(1, 0): 1}), ("x", "t"))
    p = ParamForm3([(w, Jet2.zero())], ("x", "t", "z"))
    out, k = exceptional_divide_param(p, "x")
    assert k == 0
    assert out is p
    with pytest.raises(ValueError):
        exceptional_divide_param(p, "z")


def test_param_form_validates():
    with pytest.raises(ValueError):
        pullback_blowup_param(family_form(), "q")
