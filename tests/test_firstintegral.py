"""Tests for rational-first-integral criteria."""

import json
import math
import random

import pytest

from cuspfol.coeff import Coeff
from cuspfol.forms import ReductionVerdict, form_of_meromorphic, reduce_cusp
from cuspfol.transversal import CornerGerm, regular_first_integral, transversal_structure
from cuspfol.forms import OneForm
from cuspfol.jets import Jet1, Jet2, JetError
from cuspfol.moduli import Homography
from cuspfol.firstintegral import (
    FirstIntegralReport,
    Rational1,
    hankel_determinant,
    hankel_rationality,
    homographic_case_first_integrals,
    no_first_integral_witness,
    rational_precompose,
    verify_rational_relation,
)

import oracles
from oracles import hankel_of_series

RNG = random.Random(0x41A7)

N = 16

# exact size-6 Hankel determinant of the exponential series minus one,
# shifted to start at the linear coefficient; frozen from an independent
# cofactor expansion over plain fractions
EXP_HANKEL_6 = Coeff(-1) / Coeff(222531556847250309120000000)


def exp_jet(order=N):
    return Jet1(
        [0] + [Coeff(1) / Coeff(math.factorial(k)) for k in range(1, order + 1)],
        order,
    )


def rand_coeff(nonzero=False):
    while True:
        v = Coeff(RNG.randint(-3, 3), RNG.randint(-2, 2)) / Coeff(RNG.randint(1, 2))
        if not nonzero or not v.is_zero():
            return v


# ---------------------------------------------------------------------------
# Rational1


def test_rational_normalization():
    r = Rational1((0, 0, 2), (0, 2))  # 2z^2 / 2z
    assert r.num == (Coeff(0), Coeff(1))
    assert r.den == (Coeff(1),)
    r = Rational1((1,), (1, -1))
    assert r.num == (Coeff(1),)
    assert r.den == (Coeff(1), Coeff(-1))
    # denominator vanishing at 0: normalize the leading term instead
    r = Rational1((3,), (0, 3))
    assert r.num == (Coeff(1),)
    assert r.den == (Coeff(0), Coeff(1))
    with pytest.raises(ValueError):
        Rational1((1,), ())


def test_rational_expand():
    geo = Rational1((1,), (1, -1)).expand(10)
    assert geo == Jet1([1] * 11, 10)
    with pytest.raises(ValueError):
        Rational1((1,), (0, 1)).expand(5)


def test_rational_degree():
    assert Rational1((0, 1)).degree() == 1
    assert Rational1((1,), (1, 0, 2)).degree() == 2


# ---------------------------------------------------------------------------
# the relation


def test_verify_identity_relation():
    z = Rational1((0, 1))
    assert verify_rational_relation(z, z, Jet1.variable(N), 8)


def test_verify_even_function_absorbs_sign():
    sq = Rational1((0, 0, 1))
    neg = Jet1([0, -1], N)
    assert verify_rational_relation(sq, sq, neg, 10)
    # but the identity function does not
    z = Rational1((0, 1))
    assert not verify_rational_relation(z, z, neg, 10)


def test_verify_direct_mismatch():
    z = Rational1((0, 1))
    shift = Jet1([0, 1, 1], N)
    assert not verify_rational_relation(z, z, shift, 8)


def test_verify_is_pole_safe():
    pole = Rational1((1,), (0, 1))  # 1/z
    assert verify_rational_relation(pole, pole, Jet1.variable(N), 8)
    neg = Jet1([0, -1], N)
    inv_sq = Rational1((1,), (0, 0, 1))  # 1/z^2
    assert verify_rational_relation(inv_sq, inv_sq, neg, 8)


def test_verify_requires_long_enough_sigma():
    z = Rational1((0, 1))
    with pytest.raises(ValueError):
        verify_rational_relation(z, z, Jet1.variable(4), 8)


def test_verify_homography_invariance():
    # the relation is a property of the equivalence class of sigma modulo
    # homographies: R1 o sigma = R2 iff (R1 o h0^-1) o (h0 o sigma o h1)
    # = R2 o h1, exactly, for any homographies h0, h1
    half = N // 2
    hits = 0
    for trial in range(20):
        h0 = Homography(rand_coeff(True), rand_coeff())
        h1 = Homography(rand_coeff(True), rand_coeff())
        if trial % 2 == 0:
            # a true instance: sigma itself a homography, R2 = R1 o sigma
            r1 = Rational1(
                (rand_coeff(), rand_coeff(True), rand_coeff()),
                (1, rand_coeff()),
            )
            hs = Homography(rand_coeff(True), rand_coeff())
            sigma = hs.to_jet(N)
            r2 = rational_precompose(r1, hs)
        else:
            r1 = Rational1((0, 1, rand_coeff()))
            r2 = Rational1((0, rand_coeff(True)), (1, rand_coeff()))
            sigma = Jet1([Coeff(0), rand_coeff(True), rand_coeff(), rand_coeff()], N)
        before = verify_rational_relation(r1, r2, sigma, half)
        moved_sigma = h0.to_jet(N).compose(sigma.compose(h1.to_jet(N)))
        moved_r1 = rational_precompose(r1, h0.inverse())
        moved_r2 = rational_precompose(r2, h1)
        after = verify_rational_relation(moved_r1, moved_r2, moved_sigma, half)
        assert before == after
        hits += before
    assert hits >= 10  # every even trial is a constructed true instance


def test_rational_precompose_matches_jet_composition():
    for _ in range(5):
        r = Rational1(
            (rand_coeff(), rand_coeff(True), rand_coeff()),
            (1, rand_coeff(), rand_coeff()),
        )
        h = Homography(rand_coeff(True), rand_coeff())
        comp = rational_precompose(r, h)
        assert comp.expand(10) == r.expand(10).compose(h.to_jet(10))


def gaussian_poly(rng, degree):
    """Coefficients of a polynomial of exact degree ``degree`` over Q(i)."""
    def coeff():
        return Coeff(rng.randint(-5, 5), rng.randint(-5, 5)) / Coeff(rng.randint(1, 4), rng.randint(-2, 2))

    head = coeff()
    while head.is_zero():
        head = coeff()
    return [coeff() for _ in range(degree)] + [head]


def test_reduction_cancels_a_common_factor():
    """Rational1(P*G, Q*G) == Rational1(P, Q) for seeded Gaussian P, Q and
    G, the products taken as Jet1 products at their exact degree."""
    rng = random.Random(0x6CD)

    def times(a, b):
        n = len(a) + len(b) - 2
        return (Jet1(a, n) * Jet1(b, n)).coeffs

    for _ in range(40):
        p, q = gaussian_poly(rng, rng.randint(0, 4)), gaussian_poly(rng, rng.randint(0, 4))
        g = gaussian_poly(rng, rng.randint(1, 3))
        assert Rational1(times(p, g), times(q, g)) == Rational1(p, q)


def test_rational_precompose_expands_as_the_composed_jet():
    """rational_precompose(r, h).expand(n) == r.expand(n) o h for seeded r
    finite at 0 and seeded homographies h = lam*z/(1 + mu*z), mu = 0 too."""
    rng = random.Random(0x6CE)
    for _ in range(30):
        num = gaussian_poly(rng, rng.randint(0, 4))
        den = gaussian_poly(rng, rng.randint(0, 4))
        while den[0].is_zero():
            den = gaussian_poly(rng, len(den) - 1)
        r = Rational1(num, den)
        lam = gaussian_poly(rng, 0)[0]
        mu = gaussian_poly(rng, 0)[0] if rng.random() < 0.8 else Coeff(0)
        h = Homography(lam, mu)
        n = rng.randint(1, 12)
        assert rational_precompose(r, h).expand(n) == r.expand(n).compose(h.to_jet(n))


# ---------------------------------------------------------------------------
# rationality testing


def test_hankel_geometric_series():
    g = Jet1([1] * (N + 1), N)
    for d in (1, 3):
        rec = hankel_rationality(g, d, N)
        assert rec is not None
        assert rec.num == (Coeff(1),)
        assert rec.den == (Coeff(1), Coeff(-1))
        assert rec.expand(N) == g


def test_hankel_polynomial():
    rec = hankel_rationality(Jet1([0, 0, 0, 1], N), 3, N)
    assert rec is not None
    assert rec.num == (Coeff(0), Coeff(0), Coeff(0), Coeff(1))
    assert rec.den == (Coeff(1),)


def test_hankel_rejects_exponential():
    assert hankel_rationality(exp_jet(), 4, N) is None


def test_hankel_witness_determinant():
    # the refutation behind the rejection: a rational function of degree
    # <= 4 forces every size-6 Hankel determinant of the tail to vanish
    g = exp_jet()
    det = hankel_determinant(g, 6, shift=1)
    assert det == EXP_HANKEL_6
    assert not det.is_zero()
    # the same determinant from the independent cofactor oracle
    pairs = [(c.re, c.im) for c in (g.coeff(k) for k in range(N + 1))]
    ore, oim = hankel_of_series(pairs, 6, shift=1)
    assert (det.re, det.im) == (ore, oim)
    # sanity: a genuinely rational series has vanishing determinant there
    geo = Jet1([1] * (N + 1), N)
    assert hankel_determinant(geo, 3, shift=1).is_zero()


def test_hankel_preconditions():
    g = Jet1([1] * (N + 1), N)
    with pytest.raises(ValueError):
        hankel_rationality(g, 4, 9)  # need 2d+2 = 10
    with pytest.raises(ValueError):
        hankel_rationality(Jet1([1] * 9, 8), 1, 12)
    with pytest.raises(ValueError):
        hankel_determinant(Jet1([1] * 5, 4), 4, shift=0)


SHORT = Jet1([0, 1, 1, 0, 2, 0, 1], 6)  # a jet of order 6, asked for order 8
SHORT_JET_READERS = {
    "verify_rational_relation": lambda: verify_rational_relation(
        Rational1((0, 1)), Rational1((0, 1)), SHORT, 8
    ),
    "hankel_rationality": lambda: hankel_rationality(SHORT, 1, 8),
    "no_first_integral_witness": lambda: no_first_integral_witness(SHORT, 1, 8),
    "hankel_determinant": lambda: hankel_determinant(SHORT, 4, shift=1),  # index 7
    "regular_first_integral": lambda: regular_first_integral(
        CornerGerm(OneForm(Jet2.one(6), Jet2.one(6), ("u", "v"))), 8
    ),
}


@pytest.mark.parametrize("reader", sorted(SHORT_JET_READERS))
def test_a_jet_shorter_than_the_requested_order_is_refused_by_the_jet(reader):
    """Each entry reads its jet through ``truncate`` or ``coeff``, which
    refuse an order or an index past the jet's own with ``JetError`` and
    name that order; none restates the rule."""
    with pytest.raises(JetError, match=r"\border 6\b"):
        SHORT_JET_READERS[reader]()


def test_hankel_round_trip_random():
    for _ in range(5):
        r = Rational1(
            (rand_coeff(), rand_coeff(True), rand_coeff()),
            (1, rand_coeff(), rand_coeff()),
        )
        d = r.degree()
        rec = hankel_rationality(r.expand(N), d, N)
        assert rec is not None
        assert rec.num == r.num and rec.den == r.den


# ---------------------------------------------------------------------------
# the homographic case


def test_homographic_first_integrals():
    (n1, d1), (n2, d2) = homographic_case_first_integrals()
    assert dict(n1.items()) == {(0, 2): Coeff(1), (3, 0): Coeff(1)}
    assert dict(n2.items()) == {
        (0, 2): Coeff(1),
        (3, 0): Coeff(1),
        (2, 1): Coeff(1),
    }
    assert dict(d1.items()) == {(1, 1): Coeff(1)}
    assert d2 == d1


def test_homographic_first_integrals_reduce_to_cusp():
    for num, den in homographic_case_first_integrals():
        rep = reduce_cusp(form_of_meromorphic(num, den))
        assert rep.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL


# ---------------------------------------------------------------------------
# bounded search


def test_witness_identity_found():
    rep = no_first_integral_witness(Jet1.variable(N), 1, 8)
    assert rep.relation_found
    assert rep.r1.num == (Coeff(0), Coeff(1))
    assert rep.r2.num == (Coeff(0), Coeff(1))
    assert rep.r2.den == (Coeff(1),)
    assert rep.probes == ((1, True),)


def test_witness_homographic_found():
    sig = Homography(Coeff(1), Coeff(-1)).to_jet(N)  # z/(1-z)
    rep = no_first_integral_witness(sig, 2, N)
    assert rep.relation_found
    assert rep.r1.num == (Coeff(0), Coeff(1))
    assert rep.r2.num == (Coeff(0), Coeff(1))
    assert rep.r2.den == (Coeff(1), Coeff(-1))


def test_witness_exponential_not_found():
    rep = no_first_integral_witness(exp_jet(), 3, N)
    assert not rep.relation_found
    assert rep.probes == ((1, False), (2, False), (3, False))
    assert rep.r1 is None and rep.r2 is None
    assert "not a proof" in rep.note
    assert isinstance(rep, FirstIntegralReport)
    assert not rep


def template_sigmas(count, order=32):
    """sigma at ``order`` of ``count`` seeded templates (plain and moved)."""
    from test_transversal import plain_or_moved_template

    rng = random.Random(0x5E)
    out = []
    for _ in range(count):
        c = CornerGerm.from_reduction(reduce_cusp(plain_or_moved_template(rng, 10)))
        out.append(transversal_structure(c, order))
    return out


def test_witness_matches_the_horner_route():
    """The kernel search against the search on Coeff and Jet1 objects
    (``oracles.witness_by_horner``): equal probes, r1 and r2 on sigma of
    the README and ROADMAP forms, of seeded homographies lam*z/(1 + mu*z)
    and of SINH, and on 20 seeded templates, at seeded orders 8 to 32 and
    degrees 1 to 5.  Every probe hits on the first two kinds, and the
    templates miss on every probe."""
    from test_transversal import README_MERO, ROADMAP_MERO, SINH, corner_of

    rng = random.Random(0xF1A)
    hits = [transversal_structure(corner_of(t, 10), 32) for t in (README_MERO, ROADMAP_MERO)]
    for _ in range(6):
        lam = rand_coeff(True)
        mu = rand_coeff() if rng.random() < 0.8 else Coeff(0)
        hits.append(Homography(lam, mu).to_jet(32))
    misses = template_sigmas(20)
    sinh = transversal_structure(corner_of(SINH, 10), 32)
    cases = [(s, True) for s in hits] + [(sinh, None)] + [(s, False) for s in misses]
    orders = set()
    for sigma, hit in cases:
        for _ in range(2):
            d = rng.randint(1, 5)
            n = rng.randint(max(8, 2 * d + 2), 32)
            orders.add(n)
            rep = no_first_integral_witness(sigma, d, n)
            probes, r1, r2 = oracles.witness_by_horner(sigma, d, n)
            assert (rep.probes, rep.r1, rep.r2) == (probes, r1, r2)
            if hit is not None:
                assert [h for _, h in probes] == [hit] * d
    assert min(orders) <= 10 and max(orders) >= 30


def test_witness_reduces_only_the_printed_pair(monkeypatch):
    """The gcd of the reduction runs once for r1 and once for r2 when a probe
    hits, and not at all when none does, however many probes hit."""
    import cuspfol.firstintegral

    calls = []
    gcd = cuspfol.firstintegral._gcd

    def counting_gcd(a, b):
        calls.append(len(b))
        return gcd(a, b)

    monkeypatch.setattr(cuspfol.firstintegral, "_gcd", counting_gcd)
    rep = no_first_integral_witness(Jet1.variable(N), 5, N)
    assert rep.probes == tuple((k, True) for k in range(1, 6))
    assert len(calls) == 2
    calls.clear()
    sig = Homography(Coeff(2), Coeff(1, -1)).to_jet(N)
    rep = no_first_integral_witness(sig, 4, N)
    assert all(hit for _, hit in rep.probes) and len(calls) == 2
    calls.clear()
    rep = no_first_integral_witness(exp_jet(), 5, N)
    assert not rep.relation_found and calls == []


def test_hankel_rationality_reads_the_kernel_triples(monkeypatch):
    """The wrapper solves and checks on kernel triples and reduces its one
    hit, whose re-expansion reads num and den at z as their coefficient
    jets: one Jet1 product, the series division, and no composition."""
    import cuspfol.jets

    products = []
    mul = cuspfol.jets.Jet1.__mul__

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    r = Rational1((1, 2, Coeff(0, 1)), (1, Coeff(1, 1), 3))
    g = r.expand(N)
    monkeypatch.setattr(cuspfol.jets.Jet1, "__mul__", counting_mul)
    assert hankel_rationality(g, 2, N) == r
    assert len(products) == 1
    products.clear()
    assert hankel_rationality(exp_jet(), 4, N) is None
    assert products == []


def test_a_failed_pade_recheck_is_an_internal_error(monkeypatch, capsys):
    """A feasible Hankel solve with Q(0) = 1 makes P * Q^-1 = g an
    identity, so a solution that fails it is a fault of the library:
    exit 4 with InternalError through the CLI, not NoRelationWithinBound,
    and an AssertionError from hankel_rationality, not "not rational"."""
    import cuspfol.firstintegral
    from cuspfol.cli import main

    solve = cuspfol.firstintegral.solve

    def perturbed(rows, rhs, **kwargs):
        # add 1 to an unknown that some row reads, so that row fails
        res = solve(rows, rhs, **kwargs)
        if res.feasible:
            j = next(j for j in range(len(rows[0])) if any(row[j][:2] != (0, 0) for row in rows))
            res.solution[j] = res.solution[j] + Coeff(1)
        return res

    argv = ["first-integral", "mero:(y^2+x^3)/(x*y)", "--order", "10", "--degree", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cuspfol.firstintegral, "solve", perturbed)
    assert main(argv + ["--json"]) == 4
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "InternalError"
    assert rep["data"]["error"] == "AssertionError: a feasible Hankel solution fails P * Q^-1 = g"
    r = Rational1((1, 2, Coeff(0, 1)), (1, Coeff(1, 1), 3))
    with pytest.raises(AssertionError):
        hankel_rationality(r.expand(N), 2, N)


def test_witness_validates_input():
    with pytest.raises(ValueError):
        no_first_integral_witness(Jet1.variable(N), 0, 8)
    with pytest.raises(ValueError):
        no_first_integral_witness(Jet1.variable(6), 2, 10)
