"""Grammar, error-position, and round-trip checks for the form syntax."""

import random
from fractions import Fraction

import pytest

from cuspfol.coeff import Coeff, format_coeff
from cuspfol.jets import Jet2
from cuspfol.forms import OneForm
from cuspfol.parsing import (
    MeromorphicPair,
    ParseError,
    _Parser,
    _tokenize,
    format_form,
    format_poly,
    parse_form,
)

RNG = random.Random(0x50A1)


def rand_coeff():
    re = Fraction(RNG.randint(-5, 5), RNG.randint(1, 4))
    im = Fraction(RNG.randint(-3, 3), RNG.randint(1, 3)) if RNG.random() < 0.3 else 0
    return Coeff(re, im)


def rand_poly_dict(max_deg, density=0.4):
    d = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            if RNG.random() < density:
                c = rand_coeff()
                if not c.is_zero():
                    d[(i, j)] = c
    return d


def test_printed_example_coefficients():
    w = parse_form("(2*x^3*y - y^3) dx + (x*y^2 - x^4) dy", order=8)
    assert isinstance(w, OneForm)
    assert w.a == Jet2({(3, 1): 2, (0, 3): -1}, 8)
    assert w.b == Jet2({(1, 2): 1, (4, 0): -1}, 8)
    assert w.variables == ("x", "y")


def test_meromorphic_example():
    m = parse_form("mero: (y^2 + x^3) / (x*y)", order=8)
    assert isinstance(m, MeromorphicPair)
    num, den = m
    assert num == Jet2({(0, 2): 1, (3, 0): 1}, 8)
    assert den == Jet2({(1, 1): 1}, 8)


def test_repeated_slot_terms_merge():
    w = parse_form("dx + dx")
    assert w.a == Jet2({(0, 0): 2})
    assert w.b.is_zero()
    assert parse_form("dx - dx").a.is_zero()


def test_signed_and_starred_terms():
    w = parse_form("-x dx + dy")
    assert w.a == Jet2({(1, 0): -1})
    assert w.b == Jet2({(0, 0): 1})
    assert parse_form("3*dx").a == Jet2({(0, 0): 3})
    assert parse_form("x*y dx").a == Jet2({(1, 1): 1})


def test_rational_and_gaussian_literals():
    assert parse_form("1/2*x^2 dx").a == Jet2({(2, 0): Coeff(Fraction(1, 2))})
    assert parse_form("x/2 dx").a == Jet2({(1, 0): Coeff(Fraction(1, 2))})
    assert parse_form("i dx").a == Jet2({(0, 0): Coeff(0, 1)})
    assert parse_form("(1-i)*y dy").b == Jet2({(0, 1): Coeff(1, -1)})


def test_unparenthesized_coefficient_is_greedy():
    # the whole sum binds to the nearest following dx/dy
    w = parse_form("y^2 - x^4 dy")
    assert w.a.is_zero()
    assert w.b == Jet2({(0, 2): 1, (4, 0): -1})


def test_power_and_unary_precedence():
    assert parse_form("-x^2 dx").a == Jet2({(2, 0): -1})
    assert parse_form("2^3 dx").a == Jet2({(0, 0): 8})
    assert parse_form("--x dx").a == Jet2({(1, 0): 1})


def test_power_equals_the_repeated_product():
    # the unreduced (num, den) pair of a power is exactly the e-fold
    # product's, so a polynomial keeps its denominator 1
    bases = ("x", "2*i*x*y^2", "x + y - 1/2", "(y^2+x^3)/(x*y)", "(1+i*x)/(3 - 2*y^2)")
    for text in bases:
        base = _Parser(_tokenize(text)).parse_sum()
        product = _Parser(_tokenize("1")).parse_sum()
        for e in range(13):
            power = base.pow(e)
            assert (power.num, power.den) == (product.num, product.den)
            product = product.mul(base)


def test_mero_field_arithmetic_is_exact():
    num, den = parse_form("mero: 1/2*x^2/y")
    assert num == Jet2({(2, 0): Coeff(Fraction(1, 2))})
    assert den == Jet2({(0, 1): 1})
    num, den = parse_form("mero: (x+y)^2/(x*y)")
    assert num == Jet2({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    num, den = parse_form("mero: 1/x + 1/y")
    assert num == Jet2({(1, 0): 1, (0, 1): 1})
    assert den == Jet2({(1, 1): 1})


def test_roundtrip_random_forms():
    for _ in range(25):
        a = rand_poly_dict(4)
        b = rand_poly_dict(4)
        w = OneForm(Jet2(a, 9), Jet2(b, 9))
        back = parse_form(format_form(w), order=9)
        assert back == w


def test_roundtrip_random_meromorphic():
    for _ in range(20):
        num = rand_poly_dict(3) or {(1, 0): Coeff(1)}
        den = rand_poly_dict(2) or {(0, 0): Coeff(1)}
        # the parser pins the pair's free constant: lowest den monomial monic
        kmin = min(den, key=lambda k: (k[0] + k[1], k[0], k[1]))
        inv = Coeff(1) / den[kmin]
        num = {k: c * inv for k, c in num.items()}
        den = {k: c * inv for k, c in den.items()}
        m = MeromorphicPair(Jet2(num, 9), Jet2(den, 9))
        back = parse_form(format_form(m), order=9)
        assert back == m


def test_long_polynomial_sum_parses_to_its_monomials():
    """A 150-term sum, with '+' and '-' between terms, in both slots and as
    a mero: numerator, is the sum of its monomials."""
    rng = random.Random(0x150)
    monos = rng.sample([(i, d - i) for d in range(17) for i in range(d + 1)], 150)
    expected = Jet2.zero(16)
    terms = []
    for k, (i, j) in enumerate(monos):
        c = Coeff(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-3, 3))
        if c.is_zero():
            c = Coeff(1)
        expected = expected + Jet2.monomial(i, j, c, 16)
        sign, shown = ("-", -c) if k and k % 3 == 0 else ("+", c)
        terms.append((sign, f"({format_coeff(shown)})*x^{i}*y^{j}"))
    text = terms[0][1] + "".join(f" {sign} {term}" for sign, term in terms[1:])
    w = parse_form(f"({text}) dx + ({text}) dy", order=16)
    assert w.a == expected and w.b == expected
    num, den = parse_form(f"mero: ({text}) / (x + y)", order=16)
    assert num == expected and den == Jet2({(1, 0): 1, (0, 1): 1}, 16)


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_form("1.5*x dx")
    assert (e.value.line, e.value.col) == (1, 2)
    with pytest.raises(ParseError) as e:
        parse_form("x dx +\n  1.5 dy")
    assert (e.value.line, e.value.col) == (2, 4)
    with pytest.raises(ParseError) as e:
        parse_form("(x + z) dx")
    assert e.value.col == 6
    with pytest.raises(ParseError) as e:
        parse_form("mero: 1/(x - x)")
    assert e.value.col == 8


def test_error_messages():
    with pytest.raises(ParseError, match="expected 'dx' or 'dy'"):
        parse_form("x^3")
    with pytest.raises(ParseError, match="trailing input"):
        parse_form("mero: x/y dx")
    with pytest.raises(ParseError, match="empty input"):
        parse_form("   ")
    with pytest.raises(ParseError, match="inside a coefficient"):
        parse_form("(dx) dx")
    with pytest.raises(ParseError, match="floating-point"):
        parse_form("2.0 dx")
    with pytest.raises(ParseError, match="non-constant denominator"):
        parse_form("x/(1+y) dx")
    with pytest.raises(ParseError, match="identically zero"):
        parse_form("mero: (x - x)/y")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_form("x % y dx")


def test_degree_must_fit_the_order():
    with pytest.raises(ParseError, match="--order"):
        parse_form("x^5 dx", order=4)
    with pytest.raises(ParseError, match="--order"):
        parse_form("mero: x^6/y", order=5)
    # at a big enough order the same strings are fine
    parse_form("x^5 dx", order=5)
    parse_form("mero: x^6/y", order=6)


def test_exponent_must_be_integer_literal():
    with pytest.raises(ParseError, match="exponent"):
        parse_form("x^y dx")
    with pytest.raises(ParseError, match="exponent"):
        parse_form("x^-2 dx")


def test_format_poly_names_and_zero():
    d = {(1, 0): Coeff(1), (0, 2): Coeff(-3)}
    assert format_poly(d, ("u", "v")) == "u - 3*v^2"
    assert format_poly({}) == "0"


def test_format_zero_form_roundtrips():
    z = OneForm(Jet2.zero(7), Jet2.zero(7))
    s = format_form(z)
    assert parse_form(s, order=7) == z
