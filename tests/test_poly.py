"""Edge cases of the univariate polynomial steps that reduce a ``Rational1``.

``firstintegral._trim``, ``_divmod`` and ``_gcd`` work on lists of kernel
triples, lowest degree first, with trailing zeros trimmed, so ``[]`` is the
zero polynomial.  A polynomial is evaluated at a series point as the
composition of its coefficient jet.
"""

import random
from fractions import Fraction

import pytest

from cuspfol import Coeff, Jet1
from cuspfol._backend import QZERO, jet1_mul, qadd, qmul
from cuspfol.firstintegral import Rational1, _divmod, _gcd, _trim

I = Coeff(0, 1)


def coeffs(p):
    return [Coeff.from_triple(t) for t in p]


def mul(a, b):
    """The exact product of two trimmed triple lists: its top term is the
    product of theirs, so it needs no trim."""
    return jet1_mul(a, b, len(a) + len(b) - 2) if a and b else []


def add(a, b):
    n = max(len(a), len(b))
    a, b = (p + [QZERO] * (n - len(p)) for p in (a, b))
    return _trim(coeffs(qadd(x, y) for x, y in zip(a, b)))


def from_roots(*roots):
    """The monic polynomial with the given roots, lowest degree first."""
    p = _trim([1])
    for r in roots:
        p = mul(p, _trim([-Coeff(r), 1]))
    return p


def test_trim_converts_and_strips_trailing_zeros():
    assert _trim([1, 0, 2, 0, 0]) == [(1, 0, 1), (0, 0, 1), (2, 0, 1)]
    assert _trim([0, Coeff(0)]) == []
    assert _trim(()) == []


def test_trim_takes_coeffs_ints_and_fractions_alike():
    half = Fraction(1, 2)
    want = [(1, 0, 2), (0, 0, 1), (2, 1, 1)]
    assert _trim([half, 0, Coeff(2, 1), Fraction(0), Coeff(0)]) == want
    assert _trim((Coeff(half), Coeff(0), Coeff(2, 1))) == want
    assert _trim([half, 3, I]) == [(1, 0, 2), (3, 0, 1), (0, 1, 1)]


def test_divmod_by_a_divisor_with_trailing_zeros():
    # trimming comes first, so trailing zeros of a divisor are harmless
    a = from_roots(1, 2, 3)
    b = _trim(coeffs(from_roots(1, 2)) + [0, Coeff(0)])
    q, r = _divmod(a, b)
    assert q == from_roots(3)
    assert r == []
    assert Rational1(coeffs(a), coeffs(b) + [0, 0]) == Rational1(coeffs(from_roots(3)))


def test_divmod_reconstructs_the_dividend():
    rng = random.Random(0x9017)
    for _ in range(30):
        a = _trim(Coeff(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(0, 7)))
        b = _trim(Coeff(rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 3)) for _ in range(rng.randint(1, 4)))
        if not b:
            continue
        q, r = _divmod(a, b)
        assert len(r) < len(b)
        assert add(mul(q, b), r) == a


@pytest.mark.parametrize("zero", [(), (0,), (Coeff(0), Coeff(0))])
def test_divmod_by_the_zero_polynomial_raises(zero):
    # a zero denominator, however it is spelled, is refused before any division
    with pytest.raises(ValueError):
        Rational1((1, 2), zero)


def test_gcd_with_a_zero_operand_is_the_monic_other():
    b = _trim([2, 4])  # 4z + 2
    assert _gcd([], b) == [(1, 0, 2), (1, 0, 1)]
    assert _gcd(b, _trim([0, 0])) == [(1, 0, 2), (1, 0, 1)]
    assert Rational1((), (2, 4)) == Rational1((0,))


def test_gcd_is_monic():
    a = [qmul(t, Coeff(3, -2).triple) for t in from_roots(1, I, 5)]
    b = [qmul(t, Coeff(0, 4).triple) for t in from_roots(I, 1, -7)]
    g = _gcd(a, b)
    assert g[-1] == (1, 0, 1)
    assert g == from_roots(1, I)
    assert _gcd(from_roots(1), from_roots(2)) == [(1, 0, 1)]


def test_evaluate_at_a_jet1_point():
    s = Jet1([0, 1, 1], 4)  # z + z^2
    got = Jet1((1, 0, 1), 4).compose(s)  # 1 + (z + z^2)^2
    assert got == Jet1([1, 0, 1, 2, 1], 4)
    zero = Jet1((), 4).compose(s)
    assert zero.is_zero() and zero.order == 4
    assert Jet1((3,), 4).compose(s) == Jet1([3], 4)
