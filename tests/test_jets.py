import random
from decimal import Decimal
from fractions import Fraction

import pytest

from cuspfol import Coeff, Jet1, Jet2, _backend
from cuspfol.jets import JetError

import oracles


def rand_coeff(rng, imag=True):
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if imag else 0
    return Coeff(re, im)


def rand_jet1(rng, order, imag=True):
    return Jet1([rand_coeff(rng, imag) for _ in range(order + 1)], order)


# Pairwise coprime denominators, up to 2^61 - 1.
BIG_DENS = (10007, 65537, 999983, 2**31 - 1, 2**61 - 1)


def big_coeff(rng):
    """A nonzero Gaussian rational with large coprime denominators."""
    re = Fraction(rng.randint(1, 10**6) * rng.choice((-1, 1)), rng.choice(BIG_DENS))
    return Coeff(re, Fraction(rng.randint(-(10**6), 10**6), rng.choice(BIG_DENS)))


# Orders 1..48: every order to 12, then a few larger ones.
SERIES_ORDERS = (*range(1, 13), 16, 24, 32, 40, 48)


def series_inputs(rng, order, lead):
    """Series at ``order`` with the coefficient of z^lead nonzero and none
    below: the one term c*z^lead, two terms c*z^lead + d*z^k, a dense series
    with small coefficients and, to order 8, a dense one with large coprime
    denominators (its reversion's coefficients grow fast)."""
    pad = [0] * lead
    yield Jet1(pad + [big_coeff(rng)], order)
    k = rng.randint(lead + 1, max(lead + 1, order))
    yield Jet1(pad + [big_coeff(rng)] + [0] * (k - lead - 1) + [big_coeff(rng)], order)
    yield Jet1(pad + [1] + [rand_coeff(rng) for _ in range(order - lead)], order)
    if order <= 8:
        yield Jet1(pad + [big_coeff(rng) for _ in range(order + 1 - lead)], order)


def triples(jet):
    return [c.triple for c in jet.coeffs]


def rand_jet2(rng, order, imag=True, density=0.6):
    d = {}
    for i in range(order + 1):
        for j in range(order + 1 - i):
            if rng.random() < density:
                d[(i, j)] = rand_coeff(rng, imag)
    return Jet2(d, order)


def rand_tail(rng, order, v):
    """A random dense polynomial with terms of degree v..order only."""
    d = {}
    for deg in range(v, order + 1):
        for i in range(deg + 1):
            if rng.random() < 0.7:
                d[(i, deg - i)] = rand_coeff(rng)
    return Jet2(d, order)


def rand_map(rng, order):
    """A random substitution target: zero constant term, generic linear part."""
    return rand_tail(rng, order, 1)


def assert_substitute_matches_oracle(f, fx, fy):
    got = f.substitute(fx, fy)
    n = min(f.order, fx.order, fy.order)
    want = oracles.p2_substitute(
        oracles.jet2_pairs(f), oracles.jet2_pairs(fx), oracles.jet2_pairs(fy), n
    )
    assert got.order == n
    assert oracles.jet2_pairs(got) == want
    return got


class TestCoeff:
    def test_normalization(self):
        c = Coeff(Fraction(2, 4), Fraction(-6, 8))
        assert c.re == Fraction(1, 2)
        assert c.im == Fraction(-3, 4)
        assert c.triple == (2, -3, 4)

    def test_field_ops(self):
        rng = random.Random(20201)
        for _ in range(50):
            a, b = rand_coeff(rng), rand_coeff(rng)
            c = rand_coeff(rng)
            assert (a + b) * c == a * c + b * c
            if not b.is_zero():
                assert (a / b) * b == a
        i = Coeff(0, 1)
        assert i * i == -1
        assert (1 + i) * (1 - i) == 2

    def test_pow(self):
        c = Coeff(Fraction(2, 3), 1)
        assert c ** 0 == 1
        assert c ** 3 == c * c * c
        assert c ** -2 == 1 / (c * c)

    def test_immutable_and_hashable(self):
        c = Coeff(1, 2)
        with pytest.raises(AttributeError):
            c.re = 5
        assert len({Coeff(1, 2), Coeff(2, 4) / 2, Coeff(3)}) == 2
        # equal values hash alike, across types too
        assert 1 in {Coeff(1)} and Coeff(1) in {1}
        assert Coeff(Fraction(1, 2)) in {Fraction(1, 2)}
        assert Fraction(-3, 4) in {Coeff(-3) / 4}
        assert hash(Coeff(0)) == hash(0) and Coeff(0, 1) not in {0, 1}

    def test_integers_build_their_triple_directly(self):
        for n in (0, 1, -1, -12, 2**200 + 1, -(2**200) + 3):
            assert Coeff(n).triple == Coeff(Fraction(n)).triple == (n, 0, 1)
            assert Coeff(n) == Coeff(Fraction(n)) and hash(Coeff(n)) == hash(Coeff(Fraction(n)))
            assert Coeff(n, 1 - n) == Coeff(Fraction(n), Fraction(1 - n))

    def test_rational_values_keep_their_hash_and_equality(self):
        """A Coeff of an int, a bool or a Fraction equals it and hashes as
        it does, negatives included."""
        rng = random.Random(0xC0EF)
        values = [True, False, 0, -1, 2**200 + 1, -(2**200) - 3]
        for _ in range(200):
            num, den = rng.randint(-(10**30), 10**30), rng.randint(1, 10**30)
            values += [num, Fraction(num, den), Fraction(-num, den)]
        for q in values:
            c = Coeff(q)
            assert c == q and hash(c) == hash(q), q
            assert (c.re, c.im) == (q, 0) and type(c.re) is Fraction

    @pytest.mark.parametrize(
        "parts, name",
        [
            ((0.1,), "float"), (("3/4",), "str"), ((1, 0.5), "float"), ((Coeff(1), 2), "Coeff"),
            ((Decimal("0.5"),), "Decimal"), ((Fraction(1, 2), 1j), "complex"),
        ],
    )
    def test_inexact_parts_are_refused(self, parts, name):
        """Only int and Fraction parts are exact: a float, a string, a
        Decimal, a complex or a Coeff as a part raises TypeError naming its
        type, as ``Coeff(1) + 0.5`` does, where ``Fraction`` would round or
        parse it."""
        with pytest.raises(TypeError) as exc:
            Coeff(*parts)
        assert str(exc.value) == f"a Coeff part must be int or Fraction, not {name}"


class TestJet1:
    def test_truncation_to_min_order(self):
        a = Jet1([1, 1, 1], 8)
        b = Jet1([0, 2], 4)
        assert (a * b).order == 4
        assert (a + b).order == 4

    def test_triples_are_the_normalized_coefficients(self):
        rng = random.Random(5)
        for n in (0, 1, 7):
            f = rand_jet1(rng, n)
            assert len(f.triples) == n + 1
            assert tuple(Coeff.from_triple(t) for t in f.triples) == f.coeffs
            assert all(t == Coeff.from_triple(t).triple for t in f.triples)
        assert Jet1([Fraction(2, 4), Coeff(0, 3)], 3).triples == (
            (1, 0, 2), (0, 3, 1), (0, 0, 1), (0, 0, 1)
        )

    def test_geometric_series(self):
        # 1/(1-z): all coefficients 1.
        one = Jet1.one(10)
        den = Jet1([1, -1], 10)
        rec = one.div(den)
        assert rec.coeffs == tuple(Coeff(1) for _ in range(11))

    def test_reciprocal_roundtrip(self):
        rng = random.Random(7)
        for _ in range(20):
            f = rand_jet1(rng, 9)
            if f.coeff(0).is_zero():
                f = f + 1
            assert (f * f.reciprocal() - 1).is_zero()
        # one and two terms, large coprime denominators, orders 0..48: the
        # term-by-term recurrence on fractions (to order 12) and on
        # normalized triples give the same coefficients
        for n in (0, *SERIES_ORDERS):
            for f in series_inputs(rng, n, 0):
                got = f.reciprocal()
                assert (f * got - 1).is_zero()
                assert triples(got) == oracles.triple_reciprocal(triples(f), n)
                if n <= 12:
                    want = oracles.s_recip(oracles.jet1_pairs(f), n)
                    assert oracles.jet1_pairs(got) == want

    def test_compose_horner_matches_naive_power_sum(self):
        rng = random.Random(11)
        f = rand_jet1(rng, 8)
        g = rand_jet1(rng, 8)
        g = g - g.coeff(0)  # kill constant term
        naive = Jet1((), 8)
        for k in range(9):
            naive = naive + oracles.jet_power(g, k) * f.coeff(k)
        assert f.compose(g) == naive

    def test_comp_inverse_vs_recursion_oracle(self):
        f = Jet1([0, 1, 1], 12)  # z + z^2
        got = f.comp_inverse()
        oracle = oracles.recursive_inverse(oracles.jet1_pairs(f), 12)
        assert oracles.jet1_pairs(got) == oracle
        # Reference prefix: z - z^2 + 2 z^3 - 5 z^4 (signed Catalan numbers).
        assert [c.re for c in got.coeffs[:5]] == [0, 1, -1, 2, -5]
        rng = random.Random(19)
        for n in (1, 2, 3, 9, 14):
            f = rand_jet1(rng, n)
            f = f - f.coeff(0)
            if f.coeff(1).is_zero():
                f = f + Jet1.variable(n)
            want = oracles.recursive_inverse(oracles.jet1_pairs(f), n)
            assert oracles.jet1_pairs(f.comp_inverse()) == want
        # one and two terms, large coprime denominators, orders 1..48: the
        # recursion (to order 10) and Lagrange inversion by one normalized
        # product per power give the same coefficients
        for n in SERIES_ORDERS:
            for f in series_inputs(rng, n, 1):
                got = f.comp_inverse()
                assert triples(got) == oracles.triple_lagrange_inverse(triples(f), n)
                if n <= 10:
                    want = oracles.recursive_inverse(oracles.jet1_pairs(f), n)
                    assert oracles.jet1_pairs(got) == want

    def test_comp_inverse_preconditions(self):
        for f in (Jet1([0, 1], 0), Jet1([1, 1], 5), Jet1([0, 0, 1], 5)):
            with pytest.raises(JetError):
                f.comp_inverse()

    def test_comp_inverse_random_roundtrip(self):
        rng = random.Random(13)
        for _ in range(15):
            f = rand_jet1(rng, 10)
            f = f - f.coeff(0)
            if f.coeff(1).is_zero():
                f = f + Jet1.variable(10)
            g = f.comp_inverse()
            assert g.compose(f) == Jet1.variable(10)
            assert f.compose(g) == Jet1.variable(10)
        for n in SERIES_ORDERS:
            for f in series_inputs(rng, n, 1):
                g = f.comp_inverse()
                assert g.compose(f) == Jet1.variable(n)
                assert f.compose(g) == Jet1.variable(n)

    def test_exp_log_compose_to_identity(self):
        n = 12
        fact = 1
        exp_c = [Fraction(0)]
        for k in range(1, n + 1):
            fact *= k
            exp_c.append(Fraction(1, fact))
        expm1 = Jet1(exp_c, n)
        log1p = Jet1(
            [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, n + 1)], n
        )
        assert expm1.compose(log1p) == Jet1.variable(n)
        assert log1p.compose(expm1) == Jet1.variable(n)

    def test_derivative_leibniz(self):
        rng = random.Random(17)
        f, g = rand_jet1(rng, 8), rand_jet1(rng, 8)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g.truncate(7) + f.truncate(7) * g.derivative()
        assert lhs == rhs

    def test_scale_variable(self):
        f = Jet1([5, 1, 1, 1], 3)
        g = f.scale_variable(Coeff(2))
        assert [c.re for c in g.coeffs] == [5, 2, 4, 8]

    def test_valuation_and_degree(self):
        assert Jet1((), 4).valuation() is None
        assert Jet1([0, 0, 7], 4).valuation() == 2
        assert max(k for k, c in enumerate(Jet1([0, 0, 7], 4).coeffs) if not c.is_zero()) == 2

    def test_div_by_non_unit_raises(self):
        z3 = Jet1([0, 0, 0, 1], 9)
        for den in (Jet1.variable(9), z3, Jet1((), 9)):
            with pytest.raises(JetError):
                z3.div(den)
            with pytest.raises(JetError):
                (z3 + 1).div(den)

    def test_format_roundtrip_smoke(self):
        f = Jet1([Fraction(1, 2), Coeff(0, 1), -2], 4)
        assert repr(f) == "Jet1(1/2 + i*z - 2*z^2)"
        assert repr(Jet1((), 3)) == "Jet1(0)"
        assert repr(Jet1([0, -1, Coeff(1, -1)], 2)) == "Jet1(-z + (1-i)*z^2)"


class TestJet2:
    def test_exponent_map_moves_monomials(self):
        # the blow-up chart x: x^i y^j -> x^(i+j) y^j, truncated at the order
        rng = random.Random(19)
        for order in (0, 3, 7):
            f = rand_jet2(rng, order)
            for out in (0, order, 2 * order + 1):
                got = f.exponent_map(lambda i, j: (i + j, j), out)
                want = {
                    (i + j, j): c for (i, j), c in f.items() if i + 2 * j <= out
                }
                assert got.order == out
                assert dict(got.items()) == want

    def test_exponent_map_rejects_negative_exponents(self):
        f = Jet2({(0, 2): 1, (1, 1): 3}, 4)
        assert f.exponent_map(lambda i, j: (i, j - 1), 3) == Jet2(
            {(0, 1): 1, (1, 0): 3}, 3
        )
        with pytest.raises(JetError):
            f.exponent_map(lambda i, j: (i - 1, j), 3)
        with pytest.raises(JetError):
            f.exponent_map(lambda i, j: (i, j), -1)

    def test_axis_valuation(self):
        f = Jet2({(2, 3): 1, (4, 1): Coeff(0, 1), (3, 5): 2}, 8)
        assert (f.valuation(), f.valuation("x"), f.valuation("y")) == (5, 2, 1)
        assert Jet2.zero(4).valuation("x") is None
        with pytest.raises(JetError):
            f.valuation("z")

    def test_mul_matches_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            a = rand_jet2(rng, 6)
            b = rand_jet2(rng, 6)
            got = oracles.jet2_pairs(a * b)
            want = oracles.p2_mul(
                oracles.jet2_pairs(a), oracles.jet2_pairs(b), n=6
            )
            assert got == want

    @staticmethod
    def sum_operands(rng, order):
        """Pairs of jets, one at ``order`` and one at a random order near
        it, whose keys are disjoint, overlapping or cancelling, each pair in
        both orders; the zero jet too."""
        a = rand_jet2(rng, order, density=0.5)
        other = rng.randint(max(order - 3, 0), order + 3)
        held = dict(a.triple_items())
        keys = [(i, d - i) for d in range(other + 1) for i in range(d + 1)]
        disjoint = Jet2(
            {k: rand_coeff(rng) for k in keys if k not in held and rng.random() < 0.5}, other
        )
        overlapping = rand_jet2(rng, other, density=0.5)
        cancelling = -a.with_order(other) + Jet2({(0, other): 1, (other, 0): -2}, other)
        for b in (disjoint, overlapping, cancelling, Jet2.zero(other)):
            yield a, b
            yield b, a

    def test_sums_and_differences_match_the_oracle(self):
        rng = random.Random(0x5A5)
        for order in range(6):
            for a, b in self.sum_operands(rng, order):
                n = min(a.order, b.order)
                pa = oracles.jet2_pairs(a.truncate(n))
                pb = oracles.jet2_pairs(b.truncate(n))
                for got, want in (
                    (a + b, oracles.p2_add(pa, pb)),
                    (a - b, oracles.p2_add(pa, oracles.p2_scal(pb, oracles.from_int(-1)))),
                ):
                    assert got.order == n
                    assert oracles.jet2_pairs(got) == want
                    assert all(not _backend.qiszero(t) for _, t in got.triple_items())

    def test_a_difference_negates_a_key_only_the_right_operand_holds(self):
        a = Jet2({(1, 0): 2}, 4)
        b = Jet2({(0, 2): Coeff(Fraction(3, 4), -1), (1, 0): 2}, 4)
        d = a - b
        assert dict(d.triple_items()) == {(0, 2): (-3, 4, 4)}
        assert b - a == -d

    def test_truncate_at_the_own_order_is_the_jet(self):
        rng = random.Random(0x7C)
        for order in range(7):
            f = rand_jet2(rng, order)
            assert f.truncate(order) == f
            for low in range(order):
                g = f.truncate(low)
                assert g.order == low
                assert dict(g.items()) == {k: c for k, c in f.items() if sum(k) <= low}

    def test_partials_commute(self):
        rng = random.Random(31)
        f = rand_jet2(rng, 8)
        assert f.dx().dy() == f.dy().dx()

    def test_substitute_linear_shear(self):
        # f(x, y + 2x) on f = y^2 leaves (y+2x)^2.
        f = Jet2({(0, 2): 1}, 6)
        x, y = Jet2.var_x(6), Jet2.var_y(6)
        g = f.substitute(x, y + x * 2)
        assert g == (y + x * 2) * (y + x * 2)

    def test_substitute_composition_associativity(self):
        rng = random.Random(37)
        f = rand_jet2(rng, 5)
        x, y = Jet2.var_x(5), Jet2.var_y(5)
        a = f.substitute(x + y * y, y)
        b = a.substitute(x, y + x * x)
        direct = f.substitute(
            (x + y * y).substitute(x, y + x * x),
            y + x * x,
        )
        assert b == direct

    def test_substitute_matches_per_monomial_oracle(self):
        """Grouped substitution with pass-through against one product per monomial."""
        rng = random.Random(41)
        for order in range(13):
            f = rand_jet2(rng, order, density=0.9)
            x, y = Jet2.var_x(order), Jet2.var_y(order)
            maps = [
                (rand_map(rng, order), rand_map(rng, order)),
                (x, y),
                (x + rand_tail(rng, order, 2), y * Coeff(1, 1) + rand_tail(rng, order, 2)),
                (x + rand_tail(rng, order, 2), y + x * Fraction(1, 2) + rand_tail(rng, order, 3)),
            ]
            maps += [
                (x + rand_tail(rng, order, v), y + rand_tail(rng, order, v)) for v in (2, 3, 4)
            ]
            maps.append((x + rand_tail(rng, order, 3), y))
            if order > 9:
                # the oracle costs O(order^6): the top orders take the generic
                # map and two of the others in turn
                maps = [maps[0], maps[1 + order % 7], maps[1 + (order + 3) % 7]]
            for fx, fy in maps:
                assert_substitute_matches_oracle(f, fx, fy)

    def test_substitute_zero_and_constant_jets(self):
        rng = random.Random(47)
        for order in (0, 1, 5):
            x, y = Jet2.var_x(order), Jet2.var_y(order)
            maps = [(x, y), (rand_map(rng, order), rand_map(rng, order))]
            maps.append((x + rand_tail(rng, order, 2), y + rand_tail(rng, order, 2)))
            for fx, fy in maps:
                assert Jet2.zero(order).substitute(fx, fy) == Jet2.zero(order)
                c = Jet2({(0, 0): Coeff(Fraction(-3, 2), 5)}, order)
                assert c.substitute(fx, fy) == c
                assert_substitute_matches_oracle(c + rand_jet2(rng, order), fx, fy)

    def test_substitute_makes_one_product_per_power(self, monkeypatch):
        """A dense order-12 jet under a generic map costs at most 2*12
        integer products of two jets, the powers of fy and one Horner step by
        fx per power of x; the scalar multiple of a power of fy of each
        monomial is a call with a one-term first operand, a scaled row, and
        is not counted; no product of normalized jets, and one qnorm per
        nonzero output coefficient."""
        rng = random.Random(53)
        f = rand_jet2(rng, 12, density=1.0)
        fx, fy = rand_map(rng, 12), rand_map(rng, 12)
        products, counts = [], {"jet2_mul": 0, "qnorm": 0}
        # the powers of fy go through _convolve, the Horner steps by fx
        # through _convolve_form
        for loop in ("_convolve", "_convolve_form"):
            convolve = getattr(_backend, loop)

            def counted_convolve(ta, tb, n, acc, convolve=convolve):
                ta = list(ta)
                if len(ta) > 1:
                    products.append(n)
                return convolve(ta, tb, n, acc)

            monkeypatch.setattr(_backend, loop, counted_convolve)
        for name in counts:
            original = getattr(_backend, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(_backend, name, counted)
        out = f.substitute(fx, fy)
        assert 0 < len(products) <= 2 * 12
        assert counts["jet2_mul"] == 0
        assert counts["qnorm"] == len(out.triple_items()) > 0

    def test_restrict_and_embed(self):
        f = Jet2({(2, 0): 3, (0, 1): 5, (1, 1): 7}, 6)
        fx = f.restrict_to_axis("x")
        fy = f.restrict_to_axis("y")
        assert fx == Jet1([0, 0, 3], 6)
        assert fy == Jet1([0, 5], 6)
        g = Jet2.from_jet1(Jet1([0, 0, 3], 6), "x")
        assert g == Jet2({(2, 0): 3}, 6)

    def test_swap_variables(self):
        f = Jet2({(2, 1): 5}, 5)
        assert f.swap_variables() == Jet2({(1, 2): 5}, 5)

    def test_format(self):
        f = Jet2({(1, 0): 1, (0, 2): -1}, 4)
        assert repr(f) == "Jet2(x - y^2)"
        g = Jet2({(0, 0): Fraction(-1, 2), (2, 1): Coeff(0, 3), (1, 2): Coeff(2, 1)}, 4)
        assert repr(g) == "Jet2(-1/2 + (2+i)*x*y^2 + 3*i*x^2*y)"

    def test_order_raising_is_explicit(self):
        f = Jet2({(1, 1): 1}, 2)
        with pytest.raises(JetError):
            f.truncate(5)
        assert f.with_order(5).order == 5


def test_orders_are_nonnegative_integers():
    """A jet order goes through ``operator.index``, so a float order raises
    TypeError; a negative one raises JetError in the constructors, in
    ``truncate`` and in ``with_order`` below the order alike."""
    for build in (lambda n: Jet1([1, 2], n), lambda n: Jet2({(0, 1): 1}, n)):
        with pytest.raises(TypeError):
            build(2.9)
        with pytest.raises(JetError):
            build(-1)
        jet = build(3)
        for order in (-1, -2):
            with pytest.raises(JetError):
                jet.truncate(order)
        with pytest.raises(TypeError):
            jet.truncate(1.5)
        assert jet.truncate(0).order == 0
    with pytest.raises(JetError):
        Jet2({(0, 1): 1}, 3).with_order(-2)


@pytest.mark.parametrize(
    "build",
    [lambda: Jet1([Fraction(1, 2), 0.5], 3), lambda: Jet2({(0, 0): 0.25}, 2)],
    ids=["Jet1", "Jet2"],
)
def test_float_coefficients_are_refused(build):
    with pytest.raises(TypeError, match="float"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Jet1([1, 0.5], 0),
        lambda: Jet1([1, 0, 0, "3/4"], 2),
        lambda: Jet2({(0, 0): 1, (3, 0): 0.5}, 1),
        lambda: Jet2({(0, 0): 1, (1, 2): "1/2"}, 2),
    ],
    ids=["Jet1-float", "Jet1-str", "Jet2-float", "Jet2-str"],
)
def test_inexact_coefficients_past_the_order_are_refused(build):
    # a coefficient the order drops is still checked, as one within it is
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "jet, const",
    [
        (Jet1([1, 2, 0, 3], 5), lambda c, n: Jet1((c,), n)),
        (Jet2({(0, 0): 1, (1, 1): 2, (0, 3): -1}, 5), lambda c, n: Jet2({(0, 0): c}, n)),
    ],
    ids=["Jet1", "Jet2"],
)
def test_scalar_operands_and_powers(jet, const):
    n = jet.order
    for c in (3, Fraction(-1, 2), Coeff(1, 1)):
        assert jet + c == c + jet == jet + const(c, n)
        assert jet - c == jet - const(c, n) == -(c - jet)
        assert jet * c**3 == c**3 * jet == jet * const(c, n) * c * c
    with pytest.raises(TypeError):
        jet + "1"
