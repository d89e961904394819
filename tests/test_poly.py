"""Edge cases of the dense univariate polynomial layer ``cuspfol.poly``."""

import random
from fractions import Fraction

import pytest

from cuspfol import Coeff, Jet1
from cuspfol import poly

I = Coeff(0, 1)


def from_roots(*roots):
    """The monic polynomial with the given roots, lowest degree first."""
    p = (Coeff(1),)
    for r in roots:
        p = poly.mul(p, (-Coeff(r), 1))
    return p


def test_trim_converts_and_strips_trailing_zeros():
    assert poly.trim([1, 0, 2, 0, 0]) == (Coeff(1), Coeff(0), Coeff(2))
    assert poly.trim([0, Coeff(0)]) == ()
    assert poly.add((1, 2), (-1, -2)) == ()
    assert poly.scale((1, 2), 0) == ()


def test_trim_takes_coeffs_ints_and_fractions_alike():
    half = Fraction(1, 2)
    want = (Coeff(half), Coeff(0), Coeff(2, 1))
    assert poly.trim([half, 0, Coeff(2, 1), Fraction(0), Coeff(0)]) == want
    assert poly.trim((Coeff(half), Coeff(0), Coeff(2, 1))) == want
    assert all(type(c) is Coeff for c in poly.trim([half, 3, I]))


def test_divmod_by_a_divisor_with_trailing_zeros():
    a = from_roots(1, 2, 3)
    b = from_roots(1, 2) + (Coeff(0), Coeff(0))
    q, r = poly.divmod(a, b)
    assert q == from_roots(3)
    assert r == ()


def test_divmod_reconstructs_the_dividend():
    rng = random.Random(0x9017)
    for _ in range(30):
        a = poly.trim(Coeff(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(0, 7)))
        b = poly.trim(Coeff(rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 3)) for _ in range(rng.randint(1, 4)))
        if not b:
            continue
        q, r = poly.divmod(a, b)
        assert len(r) < len(b)
        assert poly.add(poly.mul(q, b), r) == a


@pytest.mark.parametrize("zero", [(), (0,), (Coeff(0), Coeff(0))])
def test_divmod_by_the_zero_polynomial_raises(zero):
    with pytest.raises(ZeroDivisionError):
        poly.divmod((1, 2), zero)


def test_gcd_with_a_zero_operand_is_the_monic_other():
    b = (Coeff(2), Coeff(4))  # 4z + 2
    assert poly.gcd((), b) == (Coeff(Fraction(1, 2)), Coeff(1))
    assert poly.gcd(b, (0, 0)) == (Coeff(Fraction(1, 2)), Coeff(1))
    assert poly.gcd((), ()) == ()


def test_gcd_is_monic():
    a = poly.scale(from_roots(1, I, 5), Coeff(3, -2))
    b = poly.scale(from_roots(I, 1, -7), Coeff(0, 4))
    g = poly.gcd(a, b)
    assert g[-1] == Coeff(1)
    assert g == from_roots(1, I)
    assert poly.gcd(from_roots(1), from_roots(2)) == (Coeff(1),)


def test_evaluate_at_a_coeff():
    p = (1, 0, 1)  # 1 + z^2
    assert poly.evaluate(p, I) == 0
    assert poly.evaluate(p, Coeff(2)) == 5
    assert poly.evaluate((), Coeff(2)) == 0


def test_evaluate_at_a_jet1_point():
    s = Jet1([0, 1, 1], 4)  # z + z^2
    got = poly.evaluate((1, 0, 1), s)  # 1 + (z + z^2)^2
    assert isinstance(got, Jet1)
    assert got == Jet1([1, 0, 1, 2, 1], 4)
    zero = poly.evaluate((), s)
    assert isinstance(zero, Jet1) and zero.is_zero() and zero.order == 4
    assert poly.evaluate((3,), s) == Jet1([3], 4)
