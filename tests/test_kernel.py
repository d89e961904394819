"""The kernel's series products and elimination against the Fraction-pair oracles.

``jet1_mul`` and ``jet2_mul`` convolve Gaussian-integer numerators over one
denominator per operand and normalize each output coefficient once; these
tests check them against ``oracles.s_mul``/``oracles.p2_mul`` on seeded
inputs (empty and zero operands, truncation, large and mixed denominators,
pure-imaginary entries), check that every output triple is normalized, and
count the normalizations.  ``rref`` is a Gauss-Jordan on normalized
triples; it must return the same pivots, the same row origins and the same
triples as the one over ``Fraction`` pairs (``oracles.rref_reference``) on
rank-deficient matrices, augmented ones with ``limit`` below the width,
non-real pivots, rows of mixed denominators, sizes up to 40 by 90 and the
Hankel systems of the first-integral probes on sigma^k of the SINH form.  Through an identity block carried past ``limit``
the tests also check what a certified solve reads off the origins: a
non-pivot output row is its input row minus a combination of the pivot
rows' input rows.  Last, products, substitutions and pullbacks are checked
where the kernel's integer monomial keys meet the order: degree n against
degree n + 1, and the pullback's form accumulator, which holds the dx and
dy numerators of a key together, on forms with one side zero or keys on
one side only.  The level form of a quotient, one pass over the pairs of
terms of num and den, is checked against the derivative and product jets
it replaced (``oracles.mero_form_by_jets``), at the truncation edge too.
"""

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from cuspfol import _backend
from cuspfol._backend import QONE, QZERO, jet1_mul, jet2_mul, qadd, qmul, qneg, qnorm, rref
from cuspfol.coeff import Coeff
from cuspfol.forms import OneForm, form_of_meromorphic, pullback_map, reduce_cusp
from cuspfol.jets import Jet2
from cuspfol.parsing import parse_form
from cuspfol.transversal import CornerGerm, transversal_structure

import oracles

SINH = "(-y^3 + 2*x^3*y + x^4*y) dx + (x*y^2 - x^4) dy"  # sigma = sinh
BIG = 2**64 + 13  # a denominator above 2**64 (odd, so it survives gcds with 2)
DENOMS = {
    "one": [1],
    "mixed": [1, 2, 3, 5, 6, 7, 12, 35],
    "big": [1, 3, BIG, 2 * BIG],
}


def rand_triple(rng, dens, zero=0.25, kind="any"):
    if rng.random() < zero:
        return QZERO
    a = rng.randint(-9, 9)
    b = rng.randint(-9, 9)
    if kind == "real":
        b = 0
    elif kind == "imag":
        a = 0
    if a == 0 and b == 0:
        b = 1
    return qnorm(a, b, rng.choice(dens))


def pair(t):
    return (Fraction(t[0], t[2]), Fraction(t[1], t[2]))


def assert_normalized(t):
    a, b, d = t
    assert d > 0
    assert gcd(gcd(a, b), d) == 1
    if a == 0 and b == 0:
        assert t == QZERO


def jet1_cases(seed):
    rng = random.Random(seed)
    for _ in range(60):
        dens = DENOMS[rng.choice(sorted(DENOMS))]
        kind = rng.choice(["any", "real", "imag"])
        n = rng.randint(0, 10)
        # lengths 0 .. n + 4: empty operands and operands longer than n + 1
        ca = [rand_triple(rng, dens, kind=kind) for _ in range(rng.randint(0, n + 4))]
        cb = [rand_triple(rng, dens, kind=kind) for _ in range(rng.randint(0, n + 4))]
        yield ca, cb, n
    # the orders of the series reversion and the census's high-order line:
    # one dense operand against one that is mostly zero, both past n + 1
    for n in (16, 64, 160):
        dens = DENOMS[rng.choice(sorted(DENOMS))]
        ca = [rand_triple(rng, dens) for _ in range(n + 3)]
        cb = [rand_triple(rng, dens, zero=0.9) for _ in range(n + 2)]
        yield ca, cb, n
        yield cb, ca, n


def jet2_cases(seed):
    rng = random.Random(seed)
    for _ in range(60):
        dens = DENOMS[rng.choice(sorted(DENOMS))]
        kind = rng.choice(["any", "real", "imag"])
        n = rng.randint(0, 8)
        operands = []
        for _ in range(2):
            d = {}
            for _ in range(rng.randint(0, 14)):
                # keys up to total degree n + 3, so some products are dropped
                i = rng.randint(0, n + 2)
                d[(i, rng.randint(0, n + 3 - i))] = rand_triple(rng, dens, kind=kind)
            operands.append(d)
        yield operands[0], operands[1], n


class TestJet1Mul:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_oracle(self, seed, monkeypatch):
        """Seeded cases up to order 160 against the oracle; each product
        with a nonzero first operand is one call of the integer loop
        ``_convolve``, keyed by exponent and bounded by ``end`` = n + 1."""
        convolve = _backend._convolve
        ends = []

        def counted(ta, tb, end, acc):
            ends.append(end)
            return convolve(ta, tb, end, acc)

        monkeypatch.setattr(_backend, "_convolve", counted)
        # beside the seeded cases, an empty and a zero second operand
        one = [qnorm(1, 2, 3), qnorm(0, 5, 7)]
        for ca, cb, n in chain(jet1_cases(seed), [(one, [], 3), (one, [QZERO] * 2, 3)]):
            ends.clear()
            out = jet1_mul(ca, cb, n)
            assert ends == ([n + 1] if any(a or b for a, b, _ in ca[: n + 1]) else [])
            assert len(out) == n + 1
            for t in out:
                assert_normalized(t)
            want = oracles.s_mul([pair(t) for t in ca], [pair(t) for t in cb], n)
            assert [pair(t) for t in out] == oracles.s_trim(want, n)

    def test_empty_and_zero_operands(self):
        one = [qnorm(1, 2, 3), qnorm(0, 5, 7)]
        for n in (0, 1, 5):
            for a, b in [([], one), (one, []), ([QZERO] * 9, one), (one, [QZERO] * 3)]:
                assert jet1_mul(a, b, n) == [QZERO] * (n + 1)

    def test_order_zero_and_truncation(self):
        a = [qnorm(1, 1, 2), qnorm(3, 0, 1), qnorm(0, 1, 5)]
        b = [qnorm(2, 0, 3), qnorm(0, -1, 1)]
        assert jet1_mul(a, b, 0) == [qnorm(2, 2, 6)]
        full = jet1_mul(a, b, 6)
        assert full[4:] == [QZERO] * 3
        for n in range(4):
            assert jet1_mul(a, b, n) == full[: n + 1]

    def test_big_denominators_cancel(self):
        # (1/BIG) * (BIG/1) == 1, and i/BIG * i/BIG == -1/BIG^2
        assert jet1_mul([qnorm(1, 0, BIG)], [qnorm(BIG, 0, 1)], 2) == [
            (1, 0, 1), QZERO, QZERO,
        ]
        assert jet1_mul([qnorm(0, 1, BIG)], [qnorm(0, 1, BIG)], 0) == [
            (-1, 0, BIG * BIG)
        ]

    def test_normalizes_each_output_coefficient_once(self, monkeypatch):
        """Two dense order-12 lists: at most one ``qnorm`` per output degree,
        not one per term product and one per partial sum."""
        rng = random.Random(12)
        ca = [rand_triple(rng, DENOMS["mixed"], zero=0) for _ in range(13)]
        cb = [rand_triple(rng, DENOMS["mixed"], zero=0) for _ in range(13)]
        calls = []
        norm = _backend.qnorm

        def counted(a, b, d):
            calls.append(d)
            return norm(a, b, d)

        monkeypatch.setattr(_backend, "qnorm", counted)
        out = _backend.jet1_mul(ca, cb, 12)
        monkeypatch.undo()
        assert 0 < len(calls) <= 13
        assert out == jet1_mul(ca, cb, 12)


def first_products(da, db, n):
    """The keys of the products of two operands, in the order their first
    product of nonzero terms within degree n is formed."""
    first = []
    for (i1, j1), t in da.items():
        for (i2, j2), u in db.items():
            key = (i1 + i2, j1 + j2)
            if t != QZERO and u != QZERO and sum(key) <= n and key not in first:
                first.append(key)
    return first


class TestJet2Mul:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_matches_oracle(self, seed):
        # beside the seeded cases, an empty and a zero first operand
        one = {(0, 0): qnorm(1, 2, 3), (1, 2): qnorm(0, 5, 7)}
        for da, db, n in chain(jet2_cases(seed), [({}, one, 3), ({(2, 1): QZERO}, one, 3)]):
            out = jet2_mul(da, db, n)
            for key, t in out.items():
                assert t != QZERO, key
                assert_normalized(t)
                assert sum(key) <= n
            pa = {k: pair(t) for k, t in da.items() if t != QZERO}
            pb = {k: pair(t) for k, t in db.items() if t != QZERO}
            assert {k: pair(t) for k, t in out.items()} == oracles.p2_mul(pa, pb, n)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_keys_in_order_of_first_product(self, seed):
        for da, db, n in jet2_cases(seed):
            out = jet2_mul(da, db, n)
            assert list(out) == [k for k in first_products(da, db, n) if k in out]

    def test_a_one_term_operand_is_a_key_shift(self):
        # the x*y of a quotient's denominator or the x of a parser product
        # x*(...): a product with an operand of one term, in either order,
        # is the other operand scaled and shifted by that term's key; the
        # product and its key order are the oracle's
        rng = random.Random(9)
        for _, db, n in jet2_cases(9):
            i = rng.randint(0, n)
            one = {(i, rng.randint(0, n - i)): rand_triple(rng, DENOMS["mixed"], zero=0)}
            for da, db in ((one, db), (db, one)):
                out = jet2_mul(da, db, n)
                pa = {k: pair(t) for k, t in da.items() if t != QZERO}
                pb = {k: pair(t) for k, t in db.items() if t != QZERO}
                assert {k: pair(t) for k, t in out.items()} == oracles.p2_mul(pa, pb, n)
                assert list(out) == [k for k in first_products(da, db, n) if k in out]

    def test_cancelling_sums_store_no_key(self):
        # (x + y)(x - y) = x^2 - y^2: the xy terms cancel
        a = {(1, 0): (1, 0, 1), (0, 1): (1, 0, 1)}
        b = {(1, 0): (1, 0, 1), (0, 1): (-1, 0, 1)}
        assert jet2_mul(a, b, 4) == {(2, 0): (1, 0, 1), (0, 2): (-1, 0, 1)}
        # (x + i y/3)(x - i y/3) = x^2 + y^2/9 over mixed denominators
        a = {(1, 0): (1, 0, 1), (0, 1): (0, 1, 3)}
        b = {(1, 0): (1, 0, 1), (0, 1): (0, -1, 3)}
        assert jet2_mul(a, b, 2) == {(2, 0): (1, 0, 1), (0, 2): (1, 0, 9)}

    def test_empty_zero_and_order_zero(self):
        one = {(0, 0): qnorm(1, 1, 2), (1, 0): qnorm(0, 3, BIG)}
        assert jet2_mul({}, one, 3) == {}
        assert jet2_mul(one, {}, 3) == {}
        assert jet2_mul({(0, 0): QZERO, (2, 1): QZERO}, one, 3) == {}
        assert jet2_mul(one, one, 0) == {(0, 0): (0, 1, 2)}


def random_matrix(rng, nrows, ncols, dens, zero=0.25, kind="any"):
    return [
        [rand_triple(rng, dens, zero, kind) for _ in range(ncols)] for _ in range(nrows)
    ]


def augmented(rows, rhs):
    """``rows | rhs | identity``: the identity block records, in each output
    row, the combination of input rows it is."""
    m = len(rows)
    return [
        row + [b] + [QONE if j == k else QZERO for j in range(m)]
        for k, (row, b) in enumerate(zip(rows, rhs))
    ]


def low_rank_matrix(rng, nrows, rank, ncols, zero):
    """A product of random nrows x rank and rank x ncols matrices."""
    left = random_matrix(rng, nrows, rank, DENOMS["mixed"], zero)
    right = random_matrix(rng, rank, ncols, DENOMS["mixed"], zero)
    rows = []
    for coeffs in left:
        row = [QZERO] * ncols
        for c, base in zip(coeffs, right):
            if c != QZERO:
                row = [qadd(v, qmul(c, w)) for v, w in zip(row, base)]
        rows.append(row)
    return rows


def assert_rref_matches_reference(rows, limit):
    """Eliminate ``rows`` in place and compare with the reference."""
    want_rows = [[pair(t) for t in row] for row in rows]
    want = oracles.rref_reference(want_rows, limit)
    got = rref(rows, limit)
    assert got == want
    for row in rows:
        for t in row:
            assert_normalized(t)
    assert [[pair(t) for t in row] for row in rows] == want_rows
    return got


def assert_non_pivot_rows_keep_their_origin(work, width, pivots, origin):
    """Each non-pivot row of an eliminated ``augmented`` matrix has 1 on its
    own input row and is supported on the pivot rows' inputs besides."""
    rank = len(pivots)
    assert sorted(origin) == list(range(len(work)))
    for k in range(rank, len(work)):
        block = work[k][width:]
        assert block[origin[k]] == QONE
        support = {j for j, t in enumerate(block) if t != QZERO}
        assert support <= set(origin[:rank]) | {origin[k]}


class TestRref:
    @pytest.mark.parametrize("seed", [9, 10])
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            dens = DENOMS[rng.choice(sorted(DENOMS))]
            m, n = rng.randint(1, 9), rng.randint(1, 12)
            zero = rng.choice([0, 0.5, 0.8])
            kind = rng.choice(["any", "real", "imag"])
            rows = random_matrix(rng, m, n, dens, zero, kind)
            assert_rref_matches_reference(rows, rng.randint(0, n))

    def test_empty_and_zero_matrices(self):
        assert rref([], 3) == ([], [])
        rows = [[QZERO] * 4 for _ in range(3)]
        assert rref(rows, 4) == ([], [0, 1, 2])
        assert rows == [[QZERO] * 4 for _ in range(3)]

    def test_rank_deficient(self):
        rng = random.Random(12)
        for rank in (1, 2, 4, 7):
            rows = low_rank_matrix(rng, 10, rank, 14, zero=0.25)
            pivots, _ = assert_rref_matches_reference(rows, 14)
            assert len(pivots) <= rank

    def test_right_hand_side_and_identity_block(self):
        rng = random.Random(13)
        for m, n in ((6, 4), (8, 8), (12, 9), (10, 16)):
            a = random_matrix(rng, m, n, DENOMS["mixed"], zero=0.6)
            rhs = [rand_triple(rng, DENOMS["mixed"], zero=0.5) for _ in range(m)]
            work = augmented(a, rhs)
            pivots, origin = assert_rref_matches_reference(work, n)
            assert_non_pivot_rows_keep_their_origin(work, n + 1, pivots, origin)

    def test_non_real_pivots(self):
        # every input entry has a nonzero imaginary part, so the first pivot
        # is never real and later ones seldom are
        rng = random.Random(14)
        for _ in range(5):
            rows = [
                [
                    qnorm(rng.randint(-5, 5), rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 5]))
                    for _ in range(10)
                ]
                for _ in range(8)
            ]
            assert_rref_matches_reference(rows, 7)

    def test_rows_with_mixed_denominators(self):
        # Gaussian rationals over denominators 1..3 and above 2**64: a row's
        # entries need not share a denominator
        rng = random.Random(15)
        small = random_matrix(rng, 16, 16, [1, 2, 3], zero=0.1)
        assert len(assert_rref_matches_reference(small, 16)[0]) == 16
        big = random_matrix(rng, 8, 12, DENOMS["big"], zero=0.3)
        assert_rref_matches_reference(big, 12)

    def test_40_by_90(self):
        # 49 unknowns of rank 16, a right-hand side and a 40-row identity
        # block: 24 non-pivot rows, each a combination of up to 17 inputs
        rng = random.Random(16)
        a = low_rank_matrix(rng, 40, 16, 49, zero=0.85)
        rhs = [QONE if k == 3 else QZERO for k in range(40)]
        work = augmented(a, rhs)
        pivots, origin = assert_rref_matches_reference(work, 49)
        assert len(pivots) == 16
        assert_non_pivot_rows_keep_their_origin(work, 50, pivots, origin)

    @pytest.mark.parametrize("degree", [3, 11])
    def test_hankel_probes_of_the_sinh_sigma(self, degree):
        # the systems first-integral solves on the SINH form at order 24:
        # for g = sigma^k, row m = degree + 1 .. 24 holds g_(m-1) .. g_(m-degree)
        # and carries -g_m, as in firstintegral.hankel_rationality
        n = 24
        corner = CornerGerm.from_reduction(reduce_cusp(parse_form(SINH, n)))
        sigma = transversal_structure(corner, n)
        for k in range(1, 5):
            g = [c.triple for c in oracles.jet_power(sigma, k).coeffs]
            a = [[g[m - j] for j in range(1, degree + 1)] for m in range(degree + 1, n + 1)]
            rhs = [qneg(g[m]) for m in range(degree + 1, n + 1)]
            work = augmented(a, rhs)
            pivots, origin = assert_rref_matches_reference(work, degree)
            assert_non_pivot_rows_keep_their_origin(work, degree + 1, pivots, origin)


# --- the integer monomial keys at their boundary -----------------------------


def boundary_jet(rng, n, density, low=0):
    """A seeded Jet2 of order n + 1 with terms of degree low..n kept with
    probability ``density``, always holding x^n and y^n (the largest keys
    at order n) and, when ``low`` is 0, the constant term."""
    dens = DENOMS["mixed"]
    d = {
        (i, deg - i): rand_triple(rng, dens, zero=0)
        for deg in range(low, n + 1)
        for i in range(deg + 1)
        if rng.random() < density
    }
    for key in ((n, 0), (0, n)) + (((0, 0),) if low == 0 else ()):
        d[key] = rand_triple(rng, dens, zero=0)
    return Jet2({key: Coeff.from_triple(t) for key, t in d.items()}, n + 1)


def boundary_target(rng, n, linear, low, density):
    """A substitution target of order n + 1: the given linear part, terms of
    degree low..n kept with probability ``density`` and terms of degree
    n + 1, which a substitution at order n drops and its Jacobian reads."""
    d = {key: Coeff.from_triple(t) for key, t in linear.items()}
    if low <= n:
        for key, t in boundary_jet(rng, n, density, low).triple_items():
            d[key] = Coeff.from_triple(t)
    for i in (0, 1, n + 1):
        d[(i, n + 1 - i)] = Coeff.from_triple(rand_triple(rng, DENOMS["mixed"], zero=0))
    return Jet2(d, n + 1)


def tangent_change(rng, n, degrees):
    """The targets x + p and y + q of order n + 1 of a change tangent to the
    identity: p and q hold one or two seeded monomials of each degree in
    ``degrees`` and, as in :func:`boundary_target`, terms of degree n + 1."""
    parts = []
    for linear in ((1, 0), (0, 1)):
        d = {linear: Coeff(1)}
        for deg in degrees:
            for _ in range(rng.choice((1, 2))):
                i = rng.randint(0, deg)
                d[(i, deg - i)] = Coeff.from_triple(rand_triple(rng, DENOMS["mixed"], zero=0))
        for i in (0, n + 1):
            d[(i, n + 1 - i)] = Coeff.from_triple(rand_triple(rng, DENOMS["mixed"], zero=0))
        parts.append(Jet2(d, n + 1))
    return parts


@pytest.mark.parametrize(
    "n, density, low, tail", [(1, 1.0, 2, 1.0), (2, 1.0, 2, 1.0), (17, 0.3, 9, 0.2), (40, 0.04, 20, 0.02)]
)
def test_products_substitutions_and_pullbacks_at_the_key_boundary(n, density, low, tail):
    """Within a call at order n the monomial x^i y^j is the integer
    (i + j)(n + 1) + j.  Jets holding x^n and y^n and targets with terms of
    degree n + 1 put products on both sides of degree n; ``jet2_mul``,
    ``Jet2.substitute`` and ``pullback_map`` must still agree with one
    product per monomial pair (``oracles.p2_mul``) and one substitution per
    monomial (``oracles.p2_substitute``, ``oracles.p2_pullback``), for a
    generic map and for a change tangent to the identity.  The targets'
    terms of degree low..n are sparse at the larger orders, where the
    oracle's powers of a dense target would be slow."""
    rng = random.Random(f"keys/{n}")
    pairs = oracles.jet2_pairs
    f, g = boundary_jet(rng, n, density), boundary_jet(rng, n, density)
    a, b = f.truncate(n), g.truncate(n)
    product = jet2_mul(dict(a.triple_items()), dict(b.triple_items()), n)
    assert (n, 0) in product or (0, n) in product
    assert {key: pair(t) for key, t in product.items()} == oracles.p2_mul(pairs(a), pairs(b), n)
    generic = (
        {(1, 0): qnorm(2, 1, 3), (0, 1): qnorm(-1, 0, 2)},
        {(1, 0): qnorm(0, 1, 5), (0, 1): qnorm(3, -2, 1)},
    )
    tangent = ({(1, 0): QONE}, {(0, 1): QONE})
    w = OneForm(f, g)
    for linear_x, linear_y in (generic, tangent):
        fx = boundary_target(rng, n, linear_x, low, tail)
        fy = boundary_target(rng, n, linear_y, low, tail)
        got = a.substitute(fx, fy)
        assert got.order == n
        assert pairs(got) == oracles.p2_substitute(pairs(a), pairs(fx), pairs(fy), n)
        back = pullback_map(w, fx, fy, order=n)
        want = oracles.p2_pullback(pairs(f), pairs(g), pairs(fx), pairs(fy), n)
        assert (pairs(back.a), pairs(back.b)) == want
        # the kernel itself stores no key beyond degree n: x^n y^0 ... x^0 y^n
        # are the keys n(n + 1) ... n(n + 2)
        raw = _backend.FormNumerators(dict(f.triple_items()), dict(g.triple_items()), n)
        raw.pullback(dict(fx.triple_items()), dict(fy.triple_items()))
        assert max(raw.acc, default=0) <= n * (n + 2)
        assert tuple({key: pair(t) for key, t in part.items()} for part in raw.triples()) == want
    if n < 17:
        return
    # Changes tangent to the identity, homogeneous of each valuation v and
    # one of two degrees.  At order n a monomial of degree e keeps the terms
    # p^k q^l of its binomial expansion with k + l <= t(e) = (n - e) // (v - 1):
    # over these changes it is copied (t = 0), expanded in every binomial
    # band (1 <= t <= _TAYLOR_BANDS) and left to Horner's rule.
    bands = _backend._TAYLOR_BANDS
    degrees = {i + j for jet in (f, g) for (i, j), _ in jet.triple_items() if i + j <= n}
    seen = set()
    for valuations in [(v,) for v in range(2, n + 1)] + [(3, n // 2)]:
        fx, fy = tangent_change(rng, n, valuations)
        seen |= {min((n - e) // (valuations[0] - 1), bands + 1) for e in degrees}
        assert pairs(a.substitute(fx, fy)) == oracles.p2_substitute(pairs(a), pairs(fx), pairs(fy), n)
        back = pullback_map(w, fx, fy, order=n)
        want = oracles.p2_pullback(pairs(f), pairs(g), pairs(fx), pairs(fy), n)
        assert (pairs(back.a), pairs(back.b)) == want
    assert seen == set(range(bands + 2))


# --- the form accumulator: both coefficients at one key ----------------------


def rand_part(rng, n, dens, keys=None):
    """A seeded {(i, j): triple} dict with a nonzero term at each key of
    ``keys`` (every monomial of degree at most n when None)."""
    if keys is None:
        keys = [(i, deg - i) for deg in range(n + 1) for i in range(deg + 1)]
    return {key: rand_triple(rng, dens, zero=0) for key in keys}


def near_identity(rng, n, v, dens):
    """The targets x + p and y + q with p and q homogeneous of degree v, and
    terms of degree n + 1 that only the Jacobian reads."""
    fx, fy = {(1, 0): QONE}, {(0, 1): QONE}
    for f in (fx, fy):
        f.update(rand_part(rng, n, dens, [(i, v - i) for i in range(v + 1)]))
        f[(n + 1, 0)] = rand_triple(rng, dens, zero=0)
    return fx, fy


def test_form_numerators_on_one_sided_forms(monkeypatch):
    """``FormNumerators`` keeps the dx and the dy numerators of a key in one
    entry.  Against ``oracles.p2_pullback``, on seeded forms at the
    extremes of that layout: a zero dx side and a zero dy side; every key
    on one side only, read back through ``numerator`` before and after;
    a sum that cancels on the dy side only; changes with denominators, so
    that one gcd is divided out, and integer ones that keep the
    denominator 1; a change tangent to the identity whose monomials are
    copied, expanded in a band and left to Horner's rule; a linear swap
    and a shear, which leave every monomial to Horner's rule; and a change
    that moves no monomial, on a form and on the zero form."""
    rng = random.Random("one-sided")
    n = 12
    mixed = DENOMS["mixed"]
    routes, scales = [], []
    route, pullback = _backend._route, _backend._pullback

    def recording_route(acc, dx, dy, n):
        out, bands, groups = route(acc, dx, dy, n)
        routes.append((len(out), len(bands), len(groups)))
        return out, bands, groups

    def recording_pullback(acc, fx, fy, n):
        out, scale = pullback(acc, fx, fy, n)
        scales.append(scale)
        return out, scale

    monkeypatch.setattr(_backend, "_route", recording_route)
    monkeypatch.setattr(_backend, "_pullback", recording_pullback)

    def pairs(d):
        return {k: pair(t) for k, t in d.items() if t[0] or t[1]}

    def check(a, b, changes):
        """Pull the form a dx + b dy back along each change in turn, against
        the oracle; returns the form and, per step, its denominator before,
        the pullback's scale and its denominator after."""
        form = _backend.FormNumerators(a, b, n)
        want = (pairs(a), pairs(b))
        steps = []
        for fx, fy in changes:
            den = form.den
            form.pullback(fx, fy)
            steps.append((den, scales[-1], form.den))
            want = oracles.p2_pullback(*want, pairs(fx), pairs(fy), n)
            assert tuple(pairs(part) for part in form.triples()) == want
            for side in (0, 1):
                for deg in range(n + 1):
                    for i in range(deg + 1):
                        re, im = form.numerator(side, i, deg - i)
                        got = (Fraction(re, form.den), Fraction(im, form.den))
                        assert got == want[side].get((i, deg - i), oracles.ZERO)
        return form, steps

    shear = ({(1, 0): QONE, (0, 1): qnorm(2, -1, 3)}, {(0, 1): QONE})
    swap = ({(0, 1): QONE}, {(1, 0): QONE})
    tangent = near_identity(rng, n, 3, mixed)

    # one side zero, under each kind of change
    for a, b in ((rand_part(rng, n, mixed), {}), ({}, rand_part(rng, n, mixed))):
        for change in (tangent, swap, shear):
            check(a, b, [change])

    # every key on one side only, read before any pullback too
    keys = [(i, deg - i) for deg in range(n + 1) for i in range(deg + 1)]
    rng.shuffle(keys)
    a = rand_part(rng, n, mixed, keys[::2])
    b = rand_part(rng, n, mixed, keys[1::2])
    form = _backend.FormNumerators(a, b, n)
    for side, part in ((0, a), (1, b)):
        for (i, j), t in part.items():
            re, im = form.numerator(side, i, j)
            assert (Fraction(re, form.den), Fraction(im, form.den)) == pair(t)
            assert form.numerator(1 - side, i, j) == (0, 0)
    check(a, b, [tangent, shear])

    # G (dx - dy) along (x + y, y) is G(x + y, y) dx: on the dy side the two
    # Jacobian terms cancel at every key, on the dx side nothing does
    g = rand_part(rng, n, mixed)
    unit_shear = ({(1, 0): QONE, (0, 1): QONE}, {(0, 1): QONE})
    form, _ = check(g, {k: qneg(t) for k, t in g.items()}, [unit_shear])
    assert form.triples()[0] and not form.triples()[1]

    # denominators in the change: each step divides out a gcd g > 1; an
    # integer form under integer changes keeps the denominator 1
    a, b = rand_part(rng, n, mixed), rand_part(rng, n, mixed)
    _, steps = check(a, b, [near_identity(rng, n, v, [2, 3, 6]) for v in (2, 5)])
    assert all(after < den * scale for den, scale, after in steps)
    whole = DENOMS["one"]
    a, b = rand_part(rng, n, whole), rand_part(rng, n, whole)
    _, steps = check(a, b, [near_identity(rng, n, v, whole) for v in (2, 4, 7)])
    assert steps == [(1, 1, 1)] * 3

    # the three routes of a change tangent to the identity: at order 12 and
    # valuation 3 a monomial of degree e keeps t(e) = (12 - e) // 2 factors,
    # copied at e >= 11, in a band at 7 <= e <= 10, by Horner's rule below
    routes.clear()
    check(rand_part(rng, n, mixed), rand_part(rng, n, mixed), [tangent])
    ((copied, banded, horner),) = routes
    assert copied and banded and horner
    # a swap and a shear leave every monomial to Horner's rule
    routes.clear()
    check(rand_part(rng, n, mixed), rand_part(rng, n, mixed), [swap, shear])
    assert [(copied, banded) for copied, banded, _ in routes] == [(0, 0), (0, 0)]
    # the identity up to degree n, with a term of degree n + 1 that only the
    # Jacobian reads, copies every monomial: no band and no Horner group;
    # the zero form has neither under any change
    identity = ({(1, 0): QONE, (n + 1, 0): rand_triple(rng, mixed, zero=0)}, {(0, 1): QONE})
    routes.clear()
    check(rand_part(rng, n, mixed), rand_part(rng, n, mixed), [identity])
    check({}, {}, [identity, shear])
    assert [(banded, horner) for _, banded, horner in routes] == [(0, 0)] * 3


def test_one_term_operands_of_a_substitution(monkeypatch):
    """A band of one row, a Horner accumulator of one term and a one-term p
    or q go through the loops that take longer operands: ``_convolve_form``
    for the bands and the Horner steps, ``_convolve`` for the powers of p
    and q.  Seeded substitutions (``jet2_substitute``) and pullbacks
    (``FormNumerators``) that reach each of them agree with
    ``oracles.p2_substitute`` and ``oracles.p2_pullback``, and each case is
    reached."""
    rng = random.Random("one-term")
    n = 12
    mixed = DENOMS["mixed"]
    seen = set()
    route, form_loop = _backend._route, _backend._convolve_form

    def recording_route(acc, dx, dy, n):
        out, bands, groups = route(acc, dx, dy, n)
        if any(len(rows) == 1 for rows in bands.values()):
            seen.add("one-row band")
        for name, f, linear, side in (("p", dx, (1, 0), 0), ("q", dy, (0, 1), 1)):
            tail = [key for key in f if key != linear and sum(key) <= n]
            if len(tail) == 1 and any(band[side] for band in bands):
                seen.add(f"one-term {name}")
        return out, bands, groups

    def recording_form_loop(ta, tb, end, acc):
        if not isinstance(ta, list) and len(ta) == 1:  # a Horner accumulator
            seen.add("one-term Horner accumulator")
        return form_loop(ta, tb, end, acc)

    monkeypatch.setattr(_backend, "_route", recording_route)
    monkeypatch.setattr(_backend, "_convolve_form", recording_form_loop)

    def pairs(d):
        return {k: pair(t) for k, t in d.items() if t[0] or t[1]}

    def check(a, b, fx, fy):
        want = oracles.p2_substitute(pairs(a), pairs(fx), pairs(fy), n)
        assert pairs(_backend.jet2_substitute(a, fx, fy, n)) == want
        form = _backend.FormNumerators(a, b, n)
        form.pullback(fx, fy)
        want = oracles.p2_pullback(pairs(a), pairs(b), pairs(fx), pairs(fy), n)
        assert tuple(pairs(part) for part in form.triples()) == want

    def one_term(v):
        """x + p with p one seeded monomial of degree v, and a term of degree
        n + 1 that only the Jacobian reads."""
        i = rng.randint(0, v)
        return {(1, 0): QONE, (i, v - i): rand_triple(rng, mixed, zero=0),
                (n + 1, 0): rand_triple(rng, mixed, zero=0)}

    def swapped(f):
        return {(j, i): t for (i, j), t in f.items()}

    # one-term p, q or both, of valuation 2 and 3, on dense forms
    for v in (2, 3):
        p, q = one_term(v), swapped(one_term(v))
        for fx, fy in ((p, q), near_identity(rng, n, v, mixed)[:1] + (q,),
                       (p, near_identity(rng, n, v, mixed)[1])):
            check(rand_part(rng, n, mixed), rand_part(rng, n, mixed), fx, fy)
    # at valuation 3 a monomial of degree 7..10 is in a band: a form with one
    # such monomial has one row in each band it reaches, beside monomials
    # left to Horner's rule (degree <= 6) and copied (degree 11, 12)
    keys = [(i, e - i) for e in (*range(7), 11, 12) for i in range(e + 1)]
    for lone in ((5, 4), (0, 7), (8, 2)):
        a = rand_part(rng, n, mixed, keys + [lone])
        check(a, rand_part(rng, n, mixed, keys), *near_identity(rng, n, 3, mixed))
    # a generic change: the top Horner group x^4 holds one row, so the
    # accumulator the next step multiplies by FX is one term
    keys = [(4, 0)] + [(i, e - i) for e in range(n + 1) for i in range(min(e, 3) + 1)]
    fx = {(1, 0): qnorm(2, 1, 3), (0, 1): qnorm(-1, 0, 2), (1, 1): qnorm(5, 0, 7)}
    fy = {(1, 0): qnorm(0, 1, 5), (0, 1): qnorm(3, -2, 1), (2, 0): qnorm(1, 1, 2)}
    check(rand_part(rng, n, mixed, keys), rand_part(rng, n, mixed, keys[1:]), fx, fy)
    assert seen == {"one-row band", "one-term p", "one-term q", "one-term Horner accumulator"}


# ---------------------------------------------------------------------------
# the level form of a quotient in one pass


def rand_jet2(rng, order, dens, terms, low=0):
    """A seeded Jet2 at ``order`` with up to ``terms`` Gaussian-rational terms
    of degree ``low`` .. ``order``."""
    d = {}
    for _ in range(terms):
        e = rng.randint(low, order)
        i = rng.randint(0, e)
        d[(i, e - i)] = Coeff.from_triple(rand_triple(rng, dens, zero=0))
    return Jet2(d, order)


class TestMeroForm:
    """``forms.form_of_meromorphic`` through ``_backend.mero_form`` against
    the Jet2 route it replaced, ``oracles.mero_form_by_jets``."""

    def check(self, num, den):
        w = form_of_meromorphic(num, den)
        want = oracles.mero_form_by_jets(num, den)
        assert w.a.order == w.b.order == want.a.order == min(num.order, den.order) - 1
        assert (w.a, w.b) == (want.a, want.b)
        for jet in (w.a, w.b):
            for _, t in jet.triple_items():
                assert_normalized(t)
                assert t[0] or t[1]
        return w

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_jet_route(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            dens = DENOMS[rng.choice(sorted(DENOMS))]
            # num.order above, below and equal to den.order, as parametric
            # asks for the family's numerators against one denominator
            on, od = rng.randint(1, 9), rng.randint(1, 9)
            num = rand_jet2(rng, on, dens, rng.randint(1, 12))
            den = rand_jet2(rng, od, dens, rng.randint(1, 12))
            if not num.is_zero() and not den.is_zero():
                self.check(num, den)

    def test_a_constant_denominator_is_the_differential(self):
        rng = random.Random(4)
        for dens in DENOMS.values():
            num = rand_jet2(rng, 8, dens, 10)
            c = Coeff.from_triple(rand_triple(rng, dens, zero=0))
            w = self.check(num, Jet2({(0, 0): c}, 8))
            assert (w.a, w.b) == (num.dx() * c, num.dy() * c)

    def test_a_multiple_of_the_denominator_has_zero_form(self):
        rng = random.Random(5)
        for dens in DENOMS.values():
            den = rand_jet2(rng, 7, dens, 8)
            c = Coeff.from_triple(rand_triple(rng, dens, zero=0))
            w = self.check(den * c, den)
            assert w.a.is_zero() and w.b.is_zero()

    def test_pairs_at_the_truncation_edge(self):
        # n = 6: a pair enters when i + j + k + l <= 7, so x^i y^j against
        # x^k y^l with i + j + k + l = 7 lands in degree 6 and one at 8 is
        # dropped; the operands carry only those terms
        n = 6
        for (i, j), (k, l) in [((2, 1), (3, 1)), ((0, 3), (4, 0)), ((1, 0), (0, 6))]:
            den = Jet2({(i, j): Coeff(2, 1)}, n + 1)
            num = Jet2({(k, l): Coeff(-3, 5)}, n + 1)
            w = self.check(num, den)
            edge = [key for jet in (w.a, w.b) for key, _ in jet.triple_items()]
            assert edge and all(a + b == n for a, b in edge)
            # one degree more on each side: the pair sums to n + 2
            den = Jet2({(i + 1, j): Coeff(2, 1)}, n + 1)
            w = self.check(num, den)
            assert w.a.is_zero() and w.b.is_zero()

    def test_normalizes_each_output_coefficient_once(self, monkeypatch):
        rng = random.Random(6)
        num = rand_jet2(rng, 10, DENOMS["mixed"], 20)
        den = rand_jet2(rng, 10, DENOMS["mixed"], 20)
        calls = []
        norm = _backend.qnorm

        def counted(a, b, d):
            calls.append(d)
            return norm(a, b, d)

        monkeypatch.setattr(_backend, "qnorm", counted)
        a, b = _backend.mero_form(num.triple_items(), den.triple_items(), 9)
        monkeypatch.undo()
        assert len(calls) == len(a) + len(b)
        assert all(d == calls[0] for d in calls)

    def test_bit_budget_refusal_is_unchanged(self):
        num = Jet2({(0, 2): 2**40000 - 1, (3, 0): 1}, 8)
        with pytest.raises(ValueError) as refusal:
            form_of_meromorphic(num, Jet2({(1, 1): 2**25537}, 8))
        assert str(refusal.value) == (
            "the cross products of the numerator and the denominator may need "
            "65538 bits; at most 65536 are allowed"
        )
