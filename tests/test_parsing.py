"""Grammar, error-position, and round-trip checks for the form syntax."""

import contextlib
import io
import random
import sys
import time
from fractions import Fraction

import pytest

from cuspfol import parsing
from cuspfol.cli import main
from cuspfol.coeff import Coeff
from cuspfol.jets import Jet2, format_poly
from cuspfol.forms import OneForm
import oracles
from oracles import (
    ONE, ZERO, eval_expr, format_form, gadd, gdiv, ginv, gsub, jet2_pairs, p2_eval, p2_mul,
    p2_scal,
)
from cuspfol.parsing import (
    _MAX_NESTING,
    MeromorphicPair,
    ParseError,
    _parse_expr,
    _tokenize,
    parse_form,
)
from test_cli import fuzz_argvs

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


def expr_value(text, order=64):
    """The unreduced (num, den) pair of a mero:-style expression."""
    num, den, _ = _parse_expr(_tokenize(text), 0, order, None)
    return num, den


def _past_order(what, degree):
    return (
        f"the {what} has a degree-{degree} monomial; raise --order (currently 8) to keep "
        "the computation exact"
    )


_BITS = "the power's coefficient may need 199998 bits; at most 65536 are allowed"


# (text, the canonical print of its value at order 8, or the bare message,
# line and column of its error), pinned so that the precedence loop keeps
# how signs, powers and the '*' of a term bind
UNARY_AND_PRECEDENCE = [
    ("-x^2 dx", "(-x^2) dx"),
    ("--x dx", "(x) dx"),
    ("2*-x dx", "(-2*x) dx"),
    ("+-+x dx", "(-x) dx"),
    ("-(x+y)^2*y dx", "(-y^3 - 2*x*y^2 - x^2*y) dx"),
    ("-2^2 dx", "(-4) dx"),
    ("x*-y^2 dx", "(-x*y^2) dx"),
    ("x - -y dx", "(y + x) dx"),
    ("x/-2 dx", "(-1/2*x) dx"),
    ("x/2/3*6 dx", "(x) dx"),
    ("(-1)^3*x dx", "(-x) dx"),
    ("3*dx", "(3) dx"),
    ("mero: -1/-x", "mero: (1) / (x)"),
    ("mero: -(x)/(-(y))^3", "mero: (x) / (y^3)"),
    ("x^2^3 dx", ("expected 'dx' or 'dy' after the coefficient", 1, 4)),
    ("2^3^2 dx", ("expected 'dx' or 'dy' after the coefficient", 1, 4)),
    ("x/dx", ("expected 'dx' or 'dy' after the coefficient", 1, 2)),
    ("mero: x*dx", ("unexpected trailing input in a mero: expression", 1, 8)),
    ("- dx", ("'dx' cannot appear inside a coefficient", 1, 3)),
    ("x -", ("expected a number, 'i', a variable, or '('", 1, 4)),
    # at the boundaries of the literal and x^e words: a parenthesized
    # Gaussian rational and a variable power are single tokens only where
    # they read as the plain words they cover
    ("(1+2*i)^2*x dx", "((-3+4*i)*x) dx"),
    # no '^' follows either word even past whitespace, which is skipped
    ("(1+2*i) ^2*x dx", "((-3+4*i)*x) dx"),
    ("x*(3) ^2 dx", "(9*x) dx"),
    ("(3)\r\n^2*x dx", "(9*x) dx"),
    ("x^2 ^3 dx", ("expected 'dx' or 'dy' after the coefficient", 1, 5)),
    ("x^2\t^3 dx", ("expected 'dx' or 'dy' after the coefficient", 1, 5)),
    ("1/x^2\n^3 dx", ("expected 'dx' or 'dy' after the coefficient", 2, 1)),
    ("(1/05)*x dx", "(1/5*x) dx"),
    ("(-2*i)*x dx", "(-2*i*x) dx"),
    ("(-5+4*i)*x dx", "((-5+4*i)*x) dx"),
    ("(-54*i)*x dx", "(-54*i*x) dx"),
    ("1/(2)*x^2*y dx", "(1/2*x^2*y) dx"),
    ("(1234567890123456789)*x dx", "(1234567890123456789*x) dx"),
    ("(1/1234567890123456789)*x dx", "(1/1234567890123456789*x) dx"),
    ("(123456789012345678/3-1/123456789012345678*i)*x dx",
     "((41152263004115226-1/123456789012345678*i)*x) dx"),
    ("(0)*x^2 + (0/7-0*i)*y dx", "0 dx"),
    ("(+3)*x - (+1/2*i)*y^0 dx", "(-1/2*i + 3*x) dx"),
    ("mero: (1/2)/x^3*(5-i)", "mero: (5/2-1/2*i) / (x^3)"),
    ("x*(2/4-6/8*i)*x^2 dx", "((1/2-3/4*i)*x^3) dx"),
    ("x^007 dx", "(x^7) dx"),
    ("(1/23/4*i)*x dx", "(1/92*i*x) dx"),
    ("(1/2/3)*x dx", "(1/6*x) dx"),
    ("(1+2+3*i)*x dx", "((3+3*i)*x) dx"),
    ("(1-2/3-4*i)*y dx", "((1/3-4*i)*y) dx"),
    ("x^(2) dx", ("exponent must be a nonnegative integer literal", 1, 3)),
    ("x^2y dx", ("expected 'dx' or 'dy' after the coefficient", 1, 4)),
    ("x^1.5 dx", ("floating-point literals are not supported; write an exact rational p/q", 1, 4)),
    ("x^2(3) dx", ("expected 'dx' or 'dy' after the coefficient", 1, 4)),
    ("(3)(4) dx", ("expected 'dx' or 'dy' after the coefficient", 1, 4)),
    ("(3)x dx", ("expected 'dx' or 'dy' after the coefficient", 1, 4)),
    ("(3).5 dx", ("unexpected character '.'", 1, 4)),
    ("1/(0) dx", ("division by zero", 1, 2)),
    ("(1/0)*x dx", ("division by zero", 1, 3)),
    ("(*i)*x dx", ("expected a number, 'i', a variable, or '('", 1, 2)),
    pytest.param("(" * 199 + "(3)" + ")" * 199 + " dx", "(3) dx", id="literal-at-depth-200"),
    pytest.param("(" * 199 + "x*(3)" + ")" * 199 + " dx", "(3*x) dx", id="factor-at-depth-200"),
    pytest.param("(" * 200 + "(3)" + ")" * 200 + " dx",
                 ("parentheses nest deeper than 200", 1, 201), id="literal-at-depth-201"),
    pytest.param("(" * 200 + "x*(3)" + ")" * 200 + " dx",
                 ("parentheses nest deeper than 200", 1, 203), id="factor-at-depth-201"),
    # a '^' after a one-term value (a parenthesized variable, the unit i, a
    # product) takes the path of every other power: its value, its
    # bit-budget refusal and the degree refusal at the end of its term
    ("(x)^5 dx", "(x^5) dx"),
    ("(y)^0*x dy", "(x) dy"),
    ("((x))^3*y dx", "(x^3*y) dx"),
    ("(x)^9 dx", (_past_order("dx coefficient", 9), 1, 1)),
    ("(x)^99999 dx", (_past_order("dx coefficient", 99999), 1, 1)),
    ("x^99999 dx", (_past_order("dx coefficient", 99999), 1, 1)),
    ("y^99999 dy", (_past_order("dy coefficient", 99999), 1, 1)),
    ("x^99999*0 dx", "0 dx"),
    ("(x)^99999 - (x)^99999 dx", "0 dx"),
    ("i^2 dx", "(-1) dx"),
    ("i^3*y dx", "(-i*y) dx"),
    ("i^0 dx", "(1) dx"),
    ("i^99999*x dx", "(-i*x) dx"),
    ("-i^2 dx", "(1) dx"),
    ("(i)^5 dx", "(i) dx"),
    ("(2*x)^3 dx", "(8*x^3) dx"),
    ("(3*x)^99999 dx", (_BITS, 1, 6)),
    ("(x/3)^99999 dy", (_BITS, 1, 6)),
    ("x^99999/x^99999 dx", (parsing._NOT_POLYNOMIAL, 1, 1)),
    ("mero: (x)^3/(y)", "mero: (x^3) / (y)"),
    ("mero: x^99999/y", (_past_order("numerator", 99999), 1, 7)),
    ("mero: y/(x)^99999", (_past_order("denominator", 99999), 1, 7)),
    ("mero: i^7*x/(x+y)", "mero: (-i*x) / (y + x)"),
    ("mero: (3*x)^99999/y", (_BITS, 1, 12)),
]


@pytest.mark.parametrize("text, want", UNARY_AND_PRECEDENCE)
def test_unary_and_precedence_edge_cases_are_pinned(text, want):
    if isinstance(want, str):
        assert format_form(parse_form(text, order=8)) == want
        return
    with pytest.raises(ParseError) as e:
        parse_form(text, order=8)
    assert (e.value.bare_message, e.value.line, e.value.col) == want


def three_hundred_terms():
    """A 1-form whose coefficients are 300-term sums of ``(c)*x^i*y^j``."""
    rng = random.Random(0x300)
    terms = []
    for _ in range(300):
        i, j = rng.randint(0, 8), rng.randint(0, 8)
        c = rng.choice([str(rng.randint(-9, 9)), f"{rng.randint(-9, 9)}+{rng.randint(1, 9)}*i"])
        terms.append(f"({c})*x^{i}*y^{j}")
    return f"({' + '.join(terms)}) dx + ({' - '.join(terms)}) dy"


def test_the_loop_is_entered_once_per_operand(monkeypatch):
    """Precedence climbing makes one call per operand, an atom, a literal
    or variable-power word, or a parenthesized sum, on a 300-term sum of
    ``(c)*x^i*y^j`` terms; but a word right of a ``*`` whose left value is
    one nonzero term is folded into it with no call."""
    text = three_hundred_terms()
    toks = _tokenize(text)
    operands = folded = 0
    zero = False  # whether the product the '*' continues is zero
    for (_, prev), (kind, value) in zip([toks[-1]] + toks, toks):
        operands += value == "(" or kind in ("int", "name", "lit", "pow") and prev != "^"
        if kind in ("lit", "pow") and prev == "*":
            folded += not zero
        elif kind == "lit":
            zero = value is None
    calls = 0
    loop = parsing._parse_expr

    def counted(*args):
        nonlocal calls
        calls += 1
        return loop(*args)

    monkeypatch.setattr(parsing, "_parse_expr", counted)
    parse_form(text, order=16)
    # one call for each slot's parenthesis and one per term, whose (c) is a
    # literal; x^i and y^j are folded, except after a zero literal (0),
    # where each takes one call
    zeros = text.count("(0)*")
    assert folded == 2 * (600 - zeros) and zeros > 0
    assert calls == operands - folded == 2 + 600 + 2 * zeros


def test_a_sum_of_rational_monomials_is_added_term_by_term(monkeypatch):
    """All 561 monomials of degree at most 32, each with a rational Gaussian
    coefficient written ``(p/q+r*i)*x^i*y^j``: the literal and the powers are
    single tokens folded into one term, and a constant divisor would scale a
    one-term numerator, so no product or scaling ever touches a value of two
    or more terms and the sum is never cross-multiplied; the parsed value is
    the text's at points."""
    rng = random.Random(0x561)
    terms = [
        f"({rng.randint(-999, 999)}/{rng.randint(1, 9)}{rng.choice('+-')}{rng.randint(1, 99)}*i)*x^{i}*y^{d - i}"
        for d in range(33)
        for i in range(d + 1)
    ]
    text = " + ".join(terms)
    sizes = []
    for name in ("jet2_mul", "_pscale"):
        real = getattr(parsing, name)

        def recorded(p, q, *order, real=real, name=name):
            sizes.append(max(len(p), len(q)) if name == "jet2_mul" else len(p))
            return real(p, q, *order)

        monkeypatch.setattr(parsing, name, recorded)
    w = parse_form(f"({text}) dx", order=32)
    assert len(terms) == 561 and len(w.a.items()) == 561
    assert all(size <= 1 for size in sizes)
    for x, y in [(rand_point(rng), rand_point(rng)) for _ in range(2)]:
        assert value_at(w.a, x, y) == eval_expr(text, x, y)


def test_power_equals_the_repeated_product():
    # the unreduced (num, den) pair of a power is exactly the e-fold
    # product's, so a polynomial keeps its denominator 1
    bases = ("x", "2*i*x*y^2", "x + y - 1/2", "(y^2+x^3)/(x*y)", "(1+i*x)/(3 - 2*y^2)")
    for text in bases:
        for e in range(13):
            product = "*".join([f"({text})"] * e) or "1"
            assert expr_value(f"({text})^{e}") == expr_value(product)


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


def literal_text(c):
    """``c`` as one literal word: (p), (p/q), (r/s*i) or (p/q+r/s*i)."""
    def part(f):
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    if not c.im:
        return f"({part(c.re)})"
    im = f"{part(c.im)}*i"
    return f"({im})" if not c.re else f"({part(c.re)}{'' if c.im < 0 else '+'}{im})"


def test_dense_gaussian_forms_round_trip():
    """Dense 1-forms with Gaussian-rational coefficients at orders 8-32
    parse back from their canonical print, and from the text that writes
    every term as a literal times variable powers, ``(c)*x^i*y^j``."""
    rng = random.Random(0xD5E)
    for order in range(8, 33, 4):
        for _ in range(2):
            slots = []
            for _ in range(2):
                d = {}
                for i in range(order + 1):
                    for j in range(order + 1 - i):
                        c = Coeff(
                            Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
                            Fraction(rng.randint(-999, 999), rng.randint(1, 99)) if rng.random() < 0.6 else 0,
                        )
                        if rng.random() < 0.8 and not c.is_zero():
                            d[(i, j)] = c
                slots.append(d)
            w = OneForm(Jet2(slots[0], order), Jet2(slots[1], order))
            assert parse_form(format_form(w), order=order) == w
            # c1*m1 - (-c2)*m2 - (-c3)*m3 ..., signed literals after '-'
            text = " + ".join(
                "(" + " - ".join(
                    f"{literal_text(-c if k else c)}*x^{i}*y^{j}" for k, ((i, j), c) in enumerate(d.items())
                ) + f") {slot}"
                for d, slot in zip(slots, ("dx", "dy"))
            )
            assert parse_form(text, order=order) == w


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
        terms.append((sign, f"({shown})*x^{i}*y^{j}"))
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


def test_parentheses_nest_up_to_the_limit():
    # each level of "1+(" costs two calls of _parse_expr, the most any
    # parenthesis costs; the limit still parses, one more level is refused
    # at its opening parenthesis
    n = _MAX_NESTING
    deep = "1+(" * n + "x" + ")" * n
    assert parse_form(deep + " dx").a == Jet2({(0, 0): n, (1, 0): 1}, 16)
    assert parse_form(f"mero: {deep}").num == Jet2({(0, 0): n, (1, 0): 1}, 16)
    with pytest.raises(ParseError, match=f"nest deeper than {n}") as e:
        parse_form("(" * (n + 1) + "x" + ")" * (n + 1) + " dx")
    assert (e.value.line, e.value.col) == (1, n + 1)
    with pytest.raises(ParseError) as e:
        parse_form("mero: " + "1+(" * (n + 1) + "x" + ")" * (n + 1))
    assert e.value.col == len("mero: ") + 3 * (n + 1)


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
    d = {(1, 0): (1, 0, 1), (0, 2): (-3, 0, 1)}
    assert format_poly(d, ("u", "v")) == "u - 3*v^2"
    assert format_poly({}) == "0"


def test_format_zero_form_roundtrips():
    z = OneForm(Jet2.zero(7), Jet2.zero(7))
    s = format_form(z)
    assert parse_form(s, order=7) == z


# (text, order, bare message, line, col) of malformed inputs, pinned so that
# a rewrite of the parser keeps every message and position
MALFORMED = [
    ('', 8, 'empty input', 1, 1),
    ('   ', 8, 'empty input', 1, 4),
    ('\n\n  ', 8, 'empty input', 3, 3),
    ('mero:', 8, "empty input after 'mero:'", 1, 6),
    ('mero:   \n', 8, "empty input after 'mero:'", 2, 1),
    ('1.5*x dx', 8, 'floating-point literals are not supported; write an exact rational p/q', 1, 2),
    ('x dx +\n  1.5 dy', 8, 'floating-point literals are not supported; write an exact rational p/q', 2, 4),
    ('(x + z) dx', 8, "unknown variable 'z' (only x, y and i)", 1, 6),
    ('x^3', 8, "expected 'dx' or 'dy' after the coefficient", 1, 4),
    ('x dx dy', 8, "expected '+', '-', or end of input between terms", 1, 6),
    ('x dx +', 8, "expected a number, 'i', a variable, or '('", 1, 7),
    ('x dx + * dy', 8, "expected a number, 'i', a variable, or '('", 1, 8),
    ('(x dx', 8, "expected ')'", 1, 4),
    ('(x + y)) dx', 8, "expected 'dx' or 'dy' after the coefficient", 1, 8),
    ('(dx) dx', 8, "'dx' cannot appear inside a coefficient", 1, 2),
    ('x + dy dx', 8, "'dy' cannot appear inside a coefficient", 1, 5),
    ('x^y dx', 8, 'exponent must be a nonnegative integer literal', 1, 3),
    ('x^-2 dx', 8, 'exponent must be a nonnegative integer literal', 1, 3),
    ('x^ dx', 8, 'exponent must be a nonnegative integer literal', 1, 4),
    ('x % y dx', 8, "unexpected character '%'", 1, 3),
    ('x dx\n+ y dy\n+ $ dy', 8, "unexpected character '$'", 3, 3),
    ('x/(1+y) dx', 8, 'a 1-form coefficient must be polynomial (non-constant denominator; use mero: input for a quotient)', 1, 1),
    ('1/x dx', 8, 'a 1-form coefficient must be polynomial (non-constant denominator; use mero: input for a quotient)', 1, 1),
    ('x/0 dx', 8, 'division by zero', 1, 2),
    ('x dx + y/(x - x) dy', 8, 'division by zero', 1, 9),
    ('x^5 dx', 4, 'the dx coefficient has a degree-5 monomial; raise --order (currently 4) to keep the computation exact', 1, 1),
    ('dx + x^9 dy', 8, 'the dy coefficient has a degree-9 monomial; raise --order (currently 8) to keep the computation exact', 1, 1),
    ('x dx\n + (y\n  + q) dy', 8, "unknown variable 'q' (only x, y and i)", 3, 5),
    ('mero: 1/(x - x)', 8, 'division by zero', 1, 8),
    ('mero: (x - x)/y', 8, 'the meromorphic function is identically zero', 1, 7),
    ('mero: x/y dx', 8, 'unexpected trailing input in a mero: expression', 1, 11),
    ('mero: x^6/y', 5, 'the numerator has a degree-6 monomial; raise --order (currently 5) to keep the computation exact', 1, 7),
    ('mero: x/y^6', 5, 'the denominator has a degree-6 monomial; raise --order (currently 5) to keep the computation exact', 1, 7),
    ('mero: x /\n (y - y)', 8, 'division by zero', 1, 9),
    ('mero: x + \n', 8, "expected a number, 'i', a variable, or '('", 2, 1),
    ('mero: x y', 8, 'unexpected trailing input in a mero: expression', 1, 9),
    ('mero x/y', 8, "unknown variable 'mero' (only x, y and i)", 1, 1),
    ('mero: dx', 8, "'dx' cannot appear inside a coefficient", 1, 7),
    ('* dx', 8, "expected a number, 'i', a variable, or '('", 1, 1),
    ('x dx - ', 8, "expected a number, 'i', a variable, or '('", 1, 8),
    ('i^2 dx dx', 8, "expected '+', '-', or end of input between terms", 1, 8),
    # a 1-form power of a quotient past the order is refused at its ^: with
    # a non-constant numerator the term can only end non-polynomial, with a
    # constant one a later division can make it a polynomial of that degree
    ('((1+x)/(1+y))^5 dx', 4, 'a 1-form coefficient must be polynomial (non-constant denominator; use mero: input for a quotient)', 1, 1),
    ('((1+x)/y)^5 dx', 4, 'a 1-form coefficient must be polynomial (non-constant denominator; use mero: input for a quotient)', 1, 1),
    ('x/(1/(1+y))^5 dx', 4, 'the power has degree 5; raise --order (currently 4) to keep the computation exact', 1, 12),
    ('x/(1+y)*(x^3+y^3) dx', 3, 'a 1-form coefficient must be polynomial (non-constant denominator; use mero: input for a quotient)', 1, 1),
    # one-term products are checked at the end of the term, others at the operator
    ('x^5*y dx', 5, 'the dx coefficient has a degree-6 monomial; raise --order (currently 5) to keep the computation exact', 1, 1),
    ('(1+x)^4*(1+x)^4 dx', 7, 'the product has degree 8; raise --order (currently 7) to keep the computation exact', 1, 8),
    ('mero: (1+x)^3*(1+y)^3/x', 5, 'the product has degree 6; raise --order (currently 5) to keep the computation exact', 1, 14),
    ('mero: y/(1+x^2)/(1+y^2)', 3, 'the quotient has degree 4; raise --order (currently 3) to keep the computation exact', 1, 16),
    # a sum over denominators is checked at its operator once it is formed
    ('mero: 1/x^9 - 1/y^9', 16, 'the difference has degree 18; raise --order (currently 16) to keep the computation exact', 1, 13),
    ('mero: x + 1/(1+y^16)', 16, 'the sum has degree 17; raise --order (currently 16) to keep the computation exact', 1, 9),
    ('(1+x)/(x - x) dx', 8, 'division by zero', 1, 6),
    # only ASCII digits start an integer literal
    ('x^² dx', 8, "unexpected character '²'", 1, 3),
    ('x^٣ dx', 8, "unexpected character '٣'", 1, 3),
    # a variable power with more than three exponent digits is plain words
    ('x^1234 dx', 8, 'the dx coefficient has a degree-1234 monomial; raise --order (currently 8) to keep the computation exact', 1, 1),
]


# Inputs on which the tokenizer must agree with the scan character by
# character: line ends and tabs, the characters that str.isalpha(),
# str.isalnum() and str.isdecimal() tell apart, whitespace that is not a
# separator, and floating-point literals.
TOKENIZER_CASES = [
    "x dx +\r\n  (y\t+ 2)\r\n\t- 3*x^2 dy",
    "\tmero:\r\n(x^2 +\ty)\r\n/\t(x*y)\r\n",
    "x dx\r\n+\t\ty dy\r\n+ 1.5 dy",
    "x dx\n\t+ y\r\n\r\n+ % dy",
    "x^²", "x^٣", "é", "_a1", "\f", "\v", "1.5", "3.", ".5",
    "x² dx", "3² dx", "x٣y dx", "١٢ dx", "12x dx", "x12 dx", "Ⅳ dx", "½ dx",
    "007 dx + 0*x dy", "mero:x", "", "  \n\r\t", "x dx 3.", "dxdy dx",
    # literal and variable-power words, and text next to which they are not
    "(1/2-3/4*i)*x^2*y^10 dx +\r\n\t(-5)*y^999 dy", "mero:(+7/9*i)\n/x^0*(0)",
    "(-54*i)*x dx", "(-5+4*i)*x dx", "(123456789012345678)*x^007 dx",
    "(1234567890123456789)*x dx", "(1/05)*x dx", "(1/0)*x dx", "(*i)*x dx",
    "x^2^3 dx", "x^1.5 dx", "x^2y dx", "x^1234 dx", "x^(2) dx", "2x^2 dx", "xx^2 dx",
    "(3)(4) dx", "(3)x dx", "(3).5 dx", "(3)^2 dx", "(3)٣ dx", "(٣)*x dx",
    "(1+2*i)^2*x dx", "(1+2*i) ^2*x dx", "x*(3)\r\n^2 dx", "x^2\t^3 dx", "(1+i)*x dx", "( 3 )*x dx", "(3 )*y^2 dx", "y^2_ dx",
    "(1/23/4*i)*x dx", "(1+2+3*i)*x dx", "(1-2/3-4*i)*y dx",
]


def plain_tokens(word):
    """The (kind, value) pairs of the plain words a literal or a
    variable-power word covers, from the scan character by character, and
    the word's value read off them: the kernel triple of the literal, None
    for zero, or the power's monomial key."""
    plain = [(kind, value) for kind, value, _, _ in oracles.tokenize_by_characters(word)[0][:-1]]
    if word[0] in "xy":
        assert [kind for kind, _ in plain] == ["name", "op", "int"], word
        e = plain[2][1]
        return plain, (e, 0) if word[0] == "x" else (0, e)
    c = Coeff(*eval_expr(word, ZERO, ZERO))
    return plain, None if c.is_zero() else c.triple


def assert_tokens_agree(text):
    """``_tokenize`` gives the kinds and values of the scan character by
    character, once each literal or variable-power word is expanded into
    the plain words it covers, and ``_position`` gives the line and column
    of each token's first plain word; or both refuse the text with one
    message at one position."""
    want, error = oracles.tokenize_by_characters(text)
    if error is not None:
        with pytest.raises(ParseError) as e:
            _tokenize(text)
        assert (e.value.bare_message, e.value.line, e.value.col) == error, text
        return
    toks = _tokenize(text)
    words = [m.group() for m in parsing._WORD.finditer(text)] + [None]
    assert len(words) == len(toks), text
    expanded, first = [], []
    for (kind, value), word in zip(toks, words):
        first.append(len(expanded))
        if kind in ("lit", "pow"):
            plain, word_value = plain_tokens(word)
            assert len(plain) > 1 and value == word_value, (text, word)
            expanded += plain
        else:
            expanded.append((kind, value))
    assert expanded == [(kind, value) for kind, value, _, _ in want], text
    step = max(1, len(toks) // 16)
    for k in sorted({*range(0, len(toks), step), len(toks) - 1}):
        assert parsing._position(text, k) == want[first[k]][2:], (text, k)


@pytest.mark.parametrize("text", TOKENIZER_CASES)
def test_tokens_agree_with_a_scan_character_by_character(text):
    assert_tokens_agree(text)


def test_tokens_agree_with_a_scan_character_by_character_on_the_fuzz():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        refused = 0
        for argv in fuzz_argvs():
            assert_tokens_agree(argv[1])
            refused += oracles.tokenize_by_characters(argv[1])[1] is not None
    finally:
        sys.set_int_max_str_digits(limit)
    assert refused > 0  # the 20,000-digit numerals


def test_the_success_path_reads_no_positions(monkeypatch):
    """Tokens carry no positions: one is computed only for an error."""

    def refuse(*args):
        raise AssertionError("a position was computed without an error")

    monkeypatch.setattr(parsing, "_position", refuse)
    assert isinstance(parse_form(three_hundred_terms(), order=16), OneForm)
    assert isinstance(parse_form("mero:\t(y^2 + x^3 + x^2*y)\r\n/ (x*y + x^3)", order=16), MeromorphicPair)


@pytest.mark.parametrize("text, order, message, line, col", MALFORMED)
def test_error_message_and_position_are_pinned(text, order, message, line, col):
    with pytest.raises(ParseError) as e:
        parse_form(text, order=order)
    assert (e.value.bare_message, e.value.line, e.value.col) == (message, line, col)


def test_power_beyond_the_order_is_refused_before_it_is_expanded():
    assert parse_form("(1+x)^8 dx", order=8).a == Jet2(
        {(k, 0): Coeff(c) for k, c in enumerate((1, 8, 28, 56, 70, 56, 28, 8, 1))}, 8
    )
    with pytest.raises(ParseError, match="--order") as e:
        parse_form("(1+x+y)^400 dx + x dy", order=16)
    assert (e.value.line, e.value.col) == (1, 8)
    # the degree of a power is exact, so only a later cancellation is lost
    with pytest.raises(ParseError, match="the power has degree 9"):
        parse_form("((1+x)^9 - (1+x)^9) dx", order=8)
    with pytest.raises(ParseError, match="the power has degree 10"):
        parse_form("mero: (x^2/(1+y))^5", order=8)
    # a polynomial power is refused at its ^ even where a later division
    # would make the 1-form term non-polynomial
    with pytest.raises(ParseError, match="the power has degree 8") as e:
        parse_form("x/(i - x*y)^4 dx", order=6)
    assert (e.value.line, e.value.col) == (1, 12)
    # a one-term power is expanded and checked at the end
    with pytest.raises(ParseError, match="degree-400 monomial"):
        parse_form("(2*x)^400 dx", order=16)


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("*".join(["(1+x+y)"] * 120) + " dx", "the product has degree 17", 128),
        ("mero: x" + "/(1+x+y)" * 120, "the quotient has degree 17", 136),
        ("mero: " + " + ".join(["1/(1+x+y)"] * 60), "the sum has degree 17", 197),
        # a 1-form quotient power can only end non-polynomial: refused at
        # its ^ with the end-of-term message, at the term's start
        ("((1+x+y)/(1+y))^400 dx", "a 1-form coefficient must be polynomial", 1),
        ("(2*x/y)^100000000000 dx", "a 1-form coefficient must be polynomial", 1),
        # with a constant numerator a later division could leave a polynomial
        # of the power's degree: refused at its ^ with that degree
        ("(1/(1+x+y))^120 dx", "the power has degree 120", 12),
        ("(1/y)^100000000000 dx", "the power has degree 100000000000", 6),
        # a power of a constant or of one term is refused at its ^ when its
        # coefficient may outgrow the bit bound
        ("2^30000000 dx", "the power's coefficient may need 60000000 bits", 2),
        ("(2*x)^100000000000 dx", "the power's coefficient may need 200000000000 bits", 6),
        ("mero: (1/(3*y))^100000000000", "the power's coefficient may need 200000000000 bits", 16),
    ],
    ids=[
        "product",
        "quotient",
        "sum",
        "quotient-power",
        "one-term-quotient-power",
        "constant-numerator-quotient-power",
        "monomial-quotient-power",
        "constant-power",
        "one-term-power",
        "mero-one-term-power",
    ],
)
def test_products_and_quotients_beyond_the_order_are_refused_at_their_operator(text, message, col):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["reduce", text, "--order", "16"])
    assert time.perf_counter() - start < 0.1
    assert code == 3
    with pytest.raises(ParseError, match=message) as e:
        parse_form(text, order=16)
    assert (e.value.line, e.value.col) == (1, col)


BIG = "4" + "7" * 3999  # a 4,000-digit numeral of 13,288 bits
TWO_TERMS = f"({BIG}*x + y)"
QUOTIENT = f"({BIG} + x/{BIG})"


@pytest.mark.parametrize(
    "head, tail, message",
    [
        ("*".join([BIG] * 4), "*" + "*".join([BIG] * 2) + "*x dx", "product's coefficients may need 66434"),
        ("*".join([TWO_TERMS] * 4), "*" + "*".join([TWO_TERMS] * 2) + " dx", "product's coefficients may need 66434"),
        ("mero: y/(" + "*".join([QUOTIENT] * 4), "*" + QUOTIENT + ")", "product's coefficients may need 66434"),
        (TWO_TERMS, "^5 dx", "power's coefficient may need 66435"),
    ],
    ids=["one-term", "two-term", "mero", "two-term-power"],
)
def test_products_past_the_bit_budget_are_refused_at_their_operator(head, tail, message):
    """Coefficients of magnitudes m1 and m2 (``forms.magnitude``) multiply
    to parts below m1*m2: a product is refused at its '*', before it is
    formed, when m1*m2 has more than ``MAX_COEFF_BITS`` bits, here at the
    fifth factor of 13,288 bits; a power of a sum is refused at its '^'."""
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"the {message} bits; at most 65536") as e:
        parse_form(head + tail, order=16)
    assert time.perf_counter() - start < 0.1
    assert (e.value.line, e.value.col) == (1, len(head) + 1)


def test_products_within_the_order_still_parse():
    assert parse_form("mero: 1/(1+x^8) + 1/(1+y^8)", order=16) == parse_form(
        "mero: (2+x^8+y^8)/((1+x^8)*(1+y^8))", order=16
    )
    assert parse_form("(1+x)^4*(1+x)^4 dx", order=8) == parse_form("(1+x)^8 dx", order=8)
    assert parse_form("x/(1/(1+y))^5 dx", order=16) == parse_form("x*(1+y)^5 dx", order=16)
    # a zero factor makes the product zero, whatever the other factor's degree
    assert parse_form("0*(x^9 + 1) dx + x dy", order=8) == parse_form("x dy", order=8)


# --- the parser against the text evaluated at points ------------------------


def rand_point(rng):
    def part():
        return Fraction(rng.randint(-7, 7), rng.randint(1, 5))

    return (part(), part() if rng.random() < 0.5 else Fraction(0))


def rand_word(rng, constant=False, nonzero=False):
    """Text of one literal word, (p), (p/q), (p+r*i), (p/q-r/s*i) or
    (r/s*i) with optional leading signs, or of one variable power x^e or
    y^e; only a literal with ``constant``, a nonzero one with ``nonzero``."""
    if not constant and rng.random() < 0.4:
        return f"{rng.choice('xy')}^{rng.choice(['0', '1', '2', '3', '02'])}"

    def numeral(low):
        a = rng.randint(low, 9)
        return f"{a}/{rng.randint(1, 5)}" if rng.random() < 0.4 else str(a)

    p, r = numeral(1 if nonzero else 0), numeral(1)
    sign = rng.choice(["", "-", "+"])
    shape = rng.randrange(5)
    if shape == 0:
        return f"({sign}{p})"
    if shape == 1:
        return f"({sign}{r}*i)"
    return f"({sign}{p}{rng.choice('+-')}{r}*i)"


def caret(rng):
    """A '^', most often bare, else with skipped whitespace around it."""
    return rng.choice(["^", "^", "^", " ^", "^ ", "\t^", "\r\n^ "])


def word_in_context(rng, depth, polynomial):
    """A literal or variable-power word where the tokenizer must tell it
    from the plain words it covers: after '/', before and after '^', with
    or without whitespace, under a unary '-', nested, and in a chain of
    '*'."""
    word = rand_word(rng)
    other = rand_expr(rng, depth, polynomial)
    divisor = rand_word(rng, constant=polynomial, nonzero=True)
    return rng.choice([
        f"{other}/{divisor}",
        f"{rand_word(rng, constant=True)}{caret(rng)}{rng.randint(0, 3)}",
        f"{other}*{rand_word(rng, constant=True)}{caret(rng)}{rng.randint(0, 3)}",
        f"({word}){caret(rng)}{rng.randint(0, 3)}",
        f"({other}){caret(rng)}{rng.randint(0, 3)}*{word}",
        f"{rng.randint(0, 3)}{caret(rng)}{rng.randint(0, 3)}*{word}",
        f"-{word}",
        f"-{word}*{other}",
        f"({word})",
        f"(({word})*{other})",
        f"{word}*{rand_word(rng)}*{rand_word(rng)}",
        f"{other}*{word}*{rand_word(rng)}",
    ])


def rand_expr(rng, depth, polynomial):
    """Random expression text; with ``polynomial`` it divides only by
    nonzero constants."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        return rng.choice(["x", "y", "i", str(rng.randint(0, 9)), "2*i", "x*y", "(1-i)", rand_word(rng)])
    if r < 0.3:
        return word_in_context(rng, depth - 1, polynomial)
    if r < 0.5:
        op = rng.choice([" + ", " - "])
        return rand_expr(rng, depth - 1, polynomial) + op + rand_expr(rng, depth - 1, polynomial)
    if r < 0.7:
        return f"{rand_expr(rng, depth - 1, polynomial)}*{rand_expr(rng, depth - 1, polynomial)}"
    if r < 0.85:
        den = rng.choice(["3", "(2*i)", "(1+i)"]) if polynomial else rand_expr(rng, depth - 1, False)
        return f"{rand_expr(rng, depth - 1, polynomial)}/{den}"
    if r < 0.95:
        return f"({rand_expr(rng, depth - 1, polynomial)}){caret(rng)}{rng.randint(0, 3)}"
    return "-" + rand_expr(rng, depth - 1, polynomial)


def value_at(jet, x, y):
    return p2_eval(jet2_pairs(jet), x, y)


def test_parsed_values_equal_the_text_evaluated_at_points():
    rng = random.Random(0xE7A1)
    points = [(rand_point(rng), rand_point(rng)) for _ in range(3)]
    for _ in range(60):
        terms = [(rand_expr(rng, 3, True), rng.choice(["dx", "dy"]), rng.choice("+-"))
                 for _ in range(rng.randint(1, 4))]
        text = " ".join(f"{sign} ({expr}) {slot}" for expr, slot, sign in terms).lstrip("+ ")
        w = parse_form(text, order=64)
        for x, y in points:
            want = {"dx": ZERO, "dy": ZERO}
            for expr, slot, sign in terms:
                want[slot] = (gadd if sign == "+" else gsub)(want[slot], eval_expr(expr, x, y))
            assert value_at(w.a, x, y) == want["dx"], text
            assert value_at(w.b, x, y) == want["dy"], text
    checked = 0
    for _ in range(120):
        text = rand_expr(rng, 4, False)
        try:
            num, den = parse_form("mero: " + text, order=64)
        except ParseError as e:
            # a divisor that is identically zero, or a zero function
            assert e.bare_message in ("division by zero", "the meromorphic function is identically zero")
            continue
        for x, y in points:
            try:
                want = eval_expr(text, x, y)
            except ZeroDivisionError:
                continue
            assert gdiv(value_at(num, x, y), value_at(den, x, y)) == want, text
            checked += 1
    assert checked > 150


def rand_pairs(rng, max_deg):
    d = {}
    while not d:
        for i in range(max_deg + 1):
            for j in range(max_deg + 1 - i):
                if rng.random() < 0.5:
                    c = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-2, 2)))
                    if c[0] or c[1]:
                        d[(i, j)] = c
    return d


def pairs_text(d):
    return " + ".join(f"({c[0]} + ({c[1]})*i)*x^{i}*y^{j}" for (i, j), c in d.items())


def test_mero_pairs_stay_unreduced_with_a_monic_lowest_denominator_monomial():
    rng = random.Random(0x3E50)
    for _ in range(25):
        f = rand_pairs(rng, 2)
        if list(f) == [(0, 0)]:
            f[(1, 0)] = (Fraction(1), Fraction(0))
        g, h = rand_pairs(rng, 2), rand_pairs(rng, 2)
        text = f"mero: ({pairs_text(f)})*({pairs_text(g)}) / (({pairs_text(f)})*({pairs_text(h)}))"
        num, den = parse_form(text, order=8)
        fh = p2_mul(f, h)
        lowest = min(fh, key=lambda k: (k[0] + k[1], k[0], k[1]))
        scale = ginv(fh[lowest])
        assert jet2_pairs(den) == p2_scal(fh, scale)
        assert jet2_pairs(num) == p2_scal(p2_mul(f, g), scale)
        assert jet2_pairs(den)[lowest] == ONE


# --- products and powers against Jet2 arithmetic -----------------------------

ORDER = 64
CONSTANTS = [
    ("0", Coeff(0)),
    ("3", Coeff(3)),
    ("2/5", Coeff(Fraction(2, 5))),
    ("i", Coeff(0, 1)),
    ("(-1)", Coeff(-1)),
    ("(1-2*i)", Coeff(1, -2)),
    ("(-3/4*i)", Coeff(0, Fraction(-3, 4))),
]


def rand_one_term(rng):
    """A one-term factor: a constant, x, y or a monomial x^i*y^j with an
    optional coefficient, as (text, Jet2)."""
    r = rng.random()
    if r < 0.3:
        text, c = rng.choice(CONSTANTS)
        return text, Jet2.one(ORDER) * c
    if r < 0.5:
        name = rng.choice("xy")
        return name, Jet2.var_x(ORDER) if name == "x" else Jet2.var_y(ORDER)
    i, j = rng.randint(0, 2), rng.randint(0, 2)
    text, c = rng.choice(CONSTANTS[1:])
    return f"{text}*x^{i}*y^{j}", Jet2.monomial(i, j, c, ORDER)


def rand_factor(rng):
    """A one-term or multi-term factor, possibly raised to a power 0..3 and
    negated, as (text, Jet2) of degree at most 12."""
    if rng.random() < 0.5:
        text, value = rand_one_term(rng)
    else:
        parts = [rand_one_term(rng) for _ in range(rng.randint(2, 3))]
        text = "(" + " - ".join(t for t, _ in parts) + ")"
        value = parts[0][1]
        for _, v in parts[1:]:
            value = value - v
    if rng.random() < 0.4:
        e = rng.randint(0, 3)
        text, value = f"({text})^{e}", oracles.jet_power(value, e)
    if rng.random() < 0.2:
        text, value = f"-{text}", -value
    return text, value


def test_products_and_powers_equal_jet_arithmetic():
    """One-term factors multiply by one comprehension and raise only their
    coefficient; multi-term ones are expanded.  Products of up to four
    factors of either kind, with i, p/q, signs, zero factors and zero
    exponents, parse to the value Jet2 arithmetic builds."""
    rng = random.Random(0x1F0C)
    zero_factors = zero_powers = 0
    for _ in range(150):
        texts, want = [], Jet2.zero(ORDER)
        for _ in range(rng.randint(1, 3)):
            factors = [rand_factor(rng) for _ in range(rng.randint(1, 4))]
            value = Jet2.one(ORDER)
            for _, v in factors:
                value = value * v
            sign = rng.choice("+-")
            texts.append(f"{sign} " + "*".join(t for t, _ in factors))
            want = want + value if sign == "+" else want - value
            zero_factors += any(t.startswith("0") for t, _ in factors)
            zero_powers += any(t.endswith("^0") for t, _ in factors)
        text = " ".join(texts)
        w = parse_form(f"({text}) dx + ({text})*x dy", order=ORDER)
        assert w.a == want, text
        assert w.b == want * Jet2.var_x(ORDER), text
    assert zero_factors and zero_powers
