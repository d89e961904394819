import hashlib
import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from cuspfol import Coeff, Jet1
from cuspfol.gaussint import (
    UNITS,
    factor_int,
    gi_factor,
    gi_norm,
    is_probable_prime,
    nth_roots_in_qi,
)
from cuspfol.jets import JetError
from cuspfol.moduli import (
    Homography,
    NormalPair,
    _homographic_image,
    canonical_alpha,
    canonicalizing_homography,
    cstar_apply,
    cstar_equivalent,
    homographic_equivalent,
    homographic_symmetries,
    invertible_germ,
    normal_pair_equivalent,
    schwarzian,
)

import oracles


def rand_homography(rng, imag=False):
    lam = Coeff(Fraction(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 3)))
    if imag and rng.random() < 0.5:
        lam = lam + Coeff(0, Fraction(rng.randint(1, 2)))
    mu = Coeff(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if imag else 0,
    )
    return Homography(lam, mu)


def rand_germ(rng, order, imag=True):
    coeffs = [0, Coeff(rng.choice([1, 2, -1, Fraction(1, 2)]))]
    for _ in range(order - 1):
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if imag else 0
        coeffs.append(Coeff(re, im))
    return Jet1(coeffs, order)


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and the
# first 13 prime bases, and a Gaussian integer of norm psi_12.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
PSI_12_ROOT = (-531485733169, 190233470430)


class TestGaussInt:
    def test_factor_int_roundtrip(self):
        rng = random.Random(211)
        for _ in range(25):
            n = rng.randint(1, 10**9)
            fac = factor_int(n)
            prod = 1
            for p, e in fac.items():
                assert p > 1
                prod *= p**e
            assert prod == n

    def test_gi_factor_roundtrip(self):
        rng = random.Random(223)
        ws = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(25)]
        for w in ws + [PSI_12_ROOT]:
            if w == (0, 0):
                continue
            unit, fac = gi_factor(w)
            prod = Coeff(*unit)
            for pi, e in fac.items():
                prod = prod * Coeff(*pi) ** e
            assert prod == Coeff(*w)
            assert gi_norm(unit) == 1

    def test_nth_roots_exact(self):
        roots = nth_roots_in_qi(Coeff(8), 3)
        assert roots == [Coeff(2)]
        roots = nth_roots_in_qi(Coeff(-4), 2)
        assert sorted((r.re, r.im) for r in roots) == [
            (Fraction(0), Fraction(-2)),
            (Fraction(0), Fraction(2)),
        ]
        assert nth_roots_in_qi(Coeff(2), 2) == []
        half_i = Coeff(0, Fraction(1, 2))
        cubes = nth_roots_in_qi(half_i**3, 3)
        assert half_i in cubes

    def test_strong_pseudoprimes_to_the_first_twelve_and_thirteen_bases_are_composite(self):
        # psi_12 passes the bases 2..37 and fails 41; psi_13 passes 2..41 and
        # fails 43 (Sorenson and Webster, Math. Comp. 86, 2017)
        assert PSI_12 == 399165290221 * 798330580441
        assert not is_probable_prime(PSI_12)
        assert not is_probable_prime(PSI_13)
        assert is_probable_prime(399165290221) and is_probable_prime(798330580441)
        assert gi_norm(PSI_12_ROOT) == PSI_12

    def test_first_root_is_the_number_itself_without_factoring(self):
        # p*q with p, q primes near 2^40 took seconds to factor by Pollard rho
        p = next(k for k in range(2**40 + 1, 2**41, 2) if is_probable_prime(k))
        q = next(k for k in range(p + 2, 2**41, 2) if is_probable_prime(k))
        for rho in (Coeff(p * q), Coeff(p * q, 1) / Coeff(q)):
            start = time.perf_counter()
            assert nth_roots_in_qi(rho, 1) == [rho]
            assert time.perf_counter() - start < 0.5

    def test_nth_roots_random_powers(self):
        rng = random.Random(227)
        for _ in range(20):
            x = Coeff(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            )
            if x.is_zero():
                continue
            g = rng.randint(1, 5)
            roots = nth_roots_in_qi(x**g, g)
            assert x in roots
            for r in roots:
                assert r**g == x**g


# 1 + i, the inert 3, 7 and 11, and the split 5 = (2 + i)(2 - i) and
# 13 = (3 + 2i)(3 - 2i), each prime of Z[i] over them once.
GAUSS_PRIMES = [Coeff(1, 1), Coeff(3), Coeff(7), Coeff(11), Coeff(2, 1),
                Coeff(2, -1), Coeff(3, 2), Coeff(3, -2)]
INERT = {3, 7, 11}


def seeded_root_table(seed=0x1DEA, cases=80):
    """(g, rho) pairs, rho a unit times powers of ``GAUSS_PRIMES`` in the
    numerator and the denominator; most exponents are multiples of g, so
    about half of the rho have g-th roots in Q(i)."""
    rng = random.Random(seed)
    table = []
    for _ in range(cases):
        g = rng.choice([2, 3, 4, 6])
        rho = rng.choice(UNITS)
        for pi in GAUSS_PRIMES:
            if rng.random() < 0.5:
                continue
            e = g * rng.randint(-2, 2) if rng.random() < 0.8 else rng.randint(-3, 3)
            rho = rho * pi ** e
        table.append((g, rho))
    return table


# sha256 of every (g, rho, the roots of rho, gi_factor of its numerator and
# of its denominator) of ``seeded_root_table``, as the first printed eps is
# the first root and the factorization fixes the order of the roots.
ROOT_TABLE_SHA256 = "52a3d4a676a0ea95bf527e976f71c7c41bd4781ca85cf687da723c2d0b2b1c96"


def _two_squares(p):
    """(a, b) with 0 < a < b and a^2 + b^2 = p, by search."""
    return next((a, b) for a in range(1, p) for b in [round((p - a * a) ** 0.5)]
                if a * a + b * b == p)


def seeded_factor_table(seed=0x6F1):
    """Gaussian integers whose factorizations reach every path of
    ``gi_factor``: each split prime p = a^2 + b^2 from 5 to 10^4 as a unit
    times (a + bi)^e (b + ai)^f and a unit times (b + ai)^e (a + bi)^f,
    with e from 1 to 3 and f from 0 to 3; products of several split primes
    with a power of 1 + i and of an inert prime; powers of 1 + i, inert
    primes and the units alone; and one norm p^2 q with p, q above the
    trial divisors (below 10^5), which only Pollard rho splits."""
    rng = random.Random(seed)
    split = [p for p in range(5, 10**4, 4) if is_probable_prime(p)]
    inert = [q for q in range(3, 500, 4) if is_probable_prime(q)]
    table = []
    for p in split:
        a, b = _two_squares(p)
        e, f = rng.randint(1, 3), rng.randint(0, 3)
        for pi, rho in ((Coeff(a, b), Coeff(b, a)), (Coeff(b, a), Coeff(a, b))):
            table.append(rng.choice(UNITS) * pi ** e * rho ** f)
    for _ in range(200):
        w = rng.choice(UNITS) * Coeff(1, 1) ** rng.randint(0, 5)
        w = w * Coeff(rng.choice(inert)) ** rng.randint(0, 2)
        for p in rng.sample(split, rng.randint(1, 4)):
            a, b = _two_squares(p)
            w = w * Coeff(*rng.choice([(a, b), (b, a), (a, -b), (-b, a)])) ** rng.randint(1, 3)
        table.append(w)
    table += [u * Coeff(1, 1) ** k for k in range(12) for u in UNITS]
    table += [Coeff(q ** rng.randint(1, 3)) for q in inert] + list(UNITS)
    p, q = 131101, 131113  # the first two primes = 1 (mod 4) above 2^17
    table.append(Coeff(*_two_squares(p)) ** 2 * Coeff(*_two_squares(q)[::-1]))
    return [w.triple[:2] for w in table]


# sha256 of every Gaussian integer of ``seeded_factor_table`` with its
# ``gi_factor``: the unit and the (prime, exponent) pairs in dict order.
FACTOR_TABLE_SHA256 = "a6c434414cf52c06d22c873c15b848cb09f96d4f254413d061bd40763ca7837b"


class TestGaussIntPins:
    def test_roots_and_factors_of_the_seeded_table_are_pinned(self):
        rows = []
        for g, rho in seeded_root_table():
            a, b, d = rho.triple
            factors = [gi_factor(w) for w in ((a, b), (d, 0))]
            rows.append([
                g, list(rho.triple),
                [list(r.triple) for r in nth_roots_in_qi(rho, g)],
                [[list(unit), [[list(pi), e] for pi, e in fac.items()]] for unit, fac in factors],
            ])
        printed = json.dumps(rows).encode()
        assert sum(bool(row[2]) for row in rows) >= 20
        assert hashlib.sha256(printed).hexdigest() == ROOT_TABLE_SHA256

    def test_factors_of_the_seeded_gaussian_integers_are_pinned(self):
        rows = []
        for w in seeded_factor_table():
            unit, fac = gi_factor(w)
            rows.append([list(w), list(unit), [[list(pi), e] for pi, e in fac.items()]])
        printed = json.dumps(rows).encode()
        assert hashlib.sha256(printed).hexdigest() == FACTOR_TABLE_SHA256

    def test_every_prime_is_canonical_and_lies_over_one_rational_prime(self):
        for g, rho in seeded_root_table():
            a, b, d = rho.triple
            for w in ((a, b), (d, 0)):
                unit, fac = gi_factor(w)
                assert gi_norm(unit) == 1
                for (re, im), e in fac.items():
                    assert re > 0 and im >= 0 and e > 0
                    norm = re * re + im * im
                    p = next(p for p in (2, 3, 5, 7, 11, 13) if norm % p == 0)
                    assert norm == (p * p if p in INERT else p)


class TestSchwarzian:
    def test_homography_jets_have_zero_schwarzian(self):
        rng = random.Random(229)
        for _ in range(25):
            h = rand_homography(rng, imag=True)
            s = schwarzian(h.to_jet(12))
            assert s.is_zero()

    def test_z_plus_z2_closed_form(self):
        # S(z + z^2) = -6/(1+2z)^2: coefficient k is -6*(k+1)*(-2)^k.
        s = schwarzian(Jet1([0, 1, 1], 12))
        want = [Coeff(-6 * (k + 1) * (-2) ** k) for k in range(10)]
        assert list(s.coeffs) == want
        assert [c.re for c in s.coeffs[:3]] == [-6, 24, -72]

    def test_exp_minus_one_constant(self):
        n = 13
        fact = 1
        coeffs = [Fraction(0)]
        for k in range(1, n + 1):
            fact *= k
            coeffs.append(Fraction(1, fact))
        s = schwarzian(Jet1(coeffs, n))
        want = Jet1([Fraction(-1, 2)], n - 3)
        assert s == want

    def test_vs_riccati_oracle(self):
        rng = random.Random(233)
        for _ in range(15):
            f = rand_germ(rng, 10)
            got = oracles.jet1_pairs(schwarzian(f))
            want = oracles.schwarzian_riccati(oracles.jet1_pairs(f), 10)
            assert got == want

    def test_left_homography_invariance(self):
        rng = random.Random(239)
        for _ in range(15):
            f = rand_germ(rng, 10)
            h = rand_homography(rng)
            lhs = schwarzian(h.to_jet(10).compose(f))
            assert lhs == schwarzian(f)

    def test_scaling_covariance(self):
        # S(sigma o (eps z))(z) = eps^2 * S(sigma)(eps z).
        rng = random.Random(241)
        for _ in range(15):
            f = rand_germ(rng, 10)
            eps = Coeff(Fraction(rng.choice([1, 2, 3, -2]), rng.randint(1, 3)))
            lhs = schwarzian(f.compose(Jet1([0, eps], 10)))
            rhs = schwarzian(f).scale_variable(eps) * (eps * eps)
            assert lhs == rhs

    def test_zero_schwarzian_implies_homography(self):
        rng = random.Random(251)
        for _ in range(10):
            h = rand_homography(rng, imag=True)
            jet = h.to_jet(12)
            assert schwarzian(jet).is_zero()
            fit = oracles.fit_homography(jet)
            assert fit.lam == h.lam and fit.mu == h.mu
            assert fit.to_jet(12) == jet

    def test_order_too_small(self):
        with pytest.raises(JetError):
            schwarzian(Jet1([0, 1], 2))


def test_invertible_germ_returns_the_jet_or_refuses_it():
    rng = random.Random(47)
    for jet in (Jet1.variable(8), Homography(Coeff(2), Coeff(1, 1)).to_jet(8), rand_germ(rng, 8)):
        assert invertible_germ(jet) is jet
    with pytest.raises(JetError, match="germ must fix the origin"):
        invertible_germ(Jet1([1, 1], 8))
    with pytest.raises(JetError, match="germ must have invertible linear part"):
        invertible_germ(Jet1([0, 0, 1], 8))


@pytest.mark.parametrize("consumer", [schwarzian, canonical_alpha], ids=lambda f: f.__name__)
@pytest.mark.parametrize("jet", [Jet1([0, 0, 1], 8), Jet1([1, 0, 1, 1], 8)], ids=["z^2", "1+z^2+z^3"])
def test_a_zero_linear_part_is_refused_with_one_message(consumer, jet):
    """The Schwarzian and the canonical alpha need sigma'(0) != 0 alone and
    refuse sigma'(0) = 0 with the message of every other germ rule
    (``jets.invertible_linear_part``), whatever sigma(0) is."""
    with pytest.raises(JetError, match="^germ must have invertible linear part$"):
        consumer(jet)


class TestHomography:
    def test_inverse(self):
        rng = random.Random(263)
        for _ in range(20):
            h = rand_homography(rng, True)
            z = Jet1.variable(9)
            assert h.to_jet(9).compose(h.inverse().to_jet(9)) == z
            assert h.inverse().to_jet(9).compose(h.to_jet(9)) == z

    def test_jet_inverse_agrees(self):
        h = Homography(Coeff(2), Coeff(Fraction(1, 3)))
        assert h.inverse().to_jet(10) == h.to_jet(10).comp_inverse()


class TestCStar:
    def test_zero_orbit(self):
        v = cstar_equivalent(Jet1((), 8), Jet1((), 8))
        assert v.equivalent and v.eps == 1

    def test_single_coefficient_example(self):
        v = cstar_equivalent(Jet1([0, 8], 8), Jet1([0, 1], 8))
        assert v.equivalent
        assert v.eps == 2

    def test_support_mismatch(self):
        v = cstar_equivalent(Jet1([0, 1, 1], 8), Jet1([0, 1], 8))
        assert not v.equivalent
        assert "support" in v.reason

    def test_apply_then_decide(self):
        rng = random.Random(269)
        for _ in range(20):
            f = rand_germ(rng, 9)
            s = schwarzian(f)
            eps = Coeff(
                Fraction(rng.choice([1, 2, -1, -3]), rng.choice([1, 2]))
            )
            v = cstar_equivalent(cstar_apply(s, eps), s)
            assert v.equivalent
            assert v.eps is not None
            assert cstar_apply(s, v.eps) == cstar_apply(s, eps)

    def test_incompatible_ratios(self):
        # f0_k = r_k f1_k with r_2 = 1, r_4 = 2: eps^4 = 1 forces eps^6 != 2.
        f1 = Jet1([0, 0, 1, 0, 1], 8)
        f0 = Jet1([0, 0, 1, 0, 2], 8)
        v = cstar_equivalent(f0, f1)
        assert not v.equivalent

    def test_extension_field_witness(self):
        # eps^4 = 4 has no Q(i) solution (eps^2 = ±2, ±2i all non-squares).
        f1 = Jet1([0, 0, 1], 8)  # support {2}, exponent 4
        f0 = Jet1([0, 0, 4], 8)
        v = cstar_equivalent(f0, f1)
        assert v.equivalent
        assert v.eps is None
        assert v.constraints == ["eps^4 = 4"]

    def test_a_ratio_of_norm_psi_12_has_no_witness_in_q_i(self):
        # eps^2 = w: the two primes over psi_12's factors each divide w once
        w = Coeff(*PSI_12_ROOT)
        v = cstar_equivalent(Jet1([w, 0, w**2], 4), Jet1([1, 0, 1], 4))
        assert v.equivalent
        assert v.eps is None
        assert v.constraints == [f"eps^2 = {w}"]
        assert v.reason == "equivalent over C; witness lies in an extension field"

    @pytest.mark.parametrize("support, g", [
        ((0, 1, 3, 6), 1), ((0, 2, 4, 8), 2), ((1, 4, 7), 3), ((2, 6, 10), 4),
    ])
    def test_the_fold_reaches_eps_to_the_gcd(self, support, g):
        # exponents k + 2 with gcd g: rho is eps^g, whatever the Bezout path
        rng = random.Random(277 + g)
        for _ in range(6):
            coeffs = [0] * 11
            for k in support:
                coeffs[k] = Coeff(rng.randint(1, 5), rng.randint(-3, 3))
            f = Jet1(coeffs, 10)
            eps = Coeff(Fraction(rng.choice([1, 2, -3]), rng.choice([1, 3])), rng.randint(-2, 2))
            v = cstar_equivalent(cstar_apply(f, eps), f)
            assert v.equivalent
            assert v.constraints[0] == f"eps^{g} = {eps ** g}"

    def test_equivalence_relation(self):
        rng = random.Random(271)
        jets = []
        for _ in range(6):
            f = rand_germ(rng, 9)
            jets.append(schwarzian(f))
        for a in jets:
            assert cstar_equivalent(a, a).equivalent
        for a in jets:
            for b in jets:
                ab = cstar_equivalent(a, b)
                ba = cstar_equivalent(b, a)
                assert ab.equivalent == ba.equivalent
        for a in jets:
            for b in jets:
                for c in jets:
                    if (
                        cstar_equivalent(a, b).equivalent
                        and cstar_equivalent(b, c).equivalent
                    ):
                        assert cstar_equivalent(a, c).equivalent


class TestSymmetries:
    def test_zero_is_infinite(self):
        r = homographic_symmetries(Jet1((), 8))
        assert r.infinite

    def test_f_equals_z(self):
        r = homographic_symmetries(Jet1([0, 1], 8))
        assert not r.infinite
        assert r.lambda_order == 3
        assert len(r.candidates) == 1
        h = r.candidates[0]
        assert h.lam == 1 and h.mu.is_zero()

    def test_f_equals_z_squared(self):
        r = homographic_symmetries(Jet1([0, 0, 1], 8))
        assert r.lambda_order == 4
        lams = sorted(
            (h.lam.re, h.lam.im) for h in r.candidates
        )
        assert lams == [
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ]
        assert all(h.mu.is_zero() for h in r.candidates)

    def test_schwarzian_symmetry_transport(self):
        # For f = S(sigma) and any homographic symmetry candidate h, the
        # functional equation itself is re-verified inside the search, so
        # every returned candidate is a true symmetry.
        f = Jet1([0, 0, 0, 5], 9)  # f = 5 z^3, lam^5 = 1: only lam = 1
        r = homographic_symmetries(f)
        assert r.lambda_order == 5
        for h in r.candidates:
            jet = h.to_jet(9)
            d = jet.derivative()
            assert (f.compose(jet).truncate(8) * d * d) == f.truncate(8)

    def test_order_precondition(self):
        with pytest.raises(JetError):
            homographic_symmetries(Jet1([0, 1], 3))

    def test_every_candidate_holds_to_the_top_order(self):
        # valuation 6 at order 7: only the equations of z^6 and z^7 bind,
        # and mu = 40 (lam - 1) / (10 * -2) for each of the four units
        f = Jet1([0, 0, 0, 0, 0, 0, -2, 40], 7)
        r = homographic_symmetries(f)
        assert r.lambda_order == 8 and not r.infinite
        found = [(h.lam, h.mu) for h in r.candidates]
        assert (Coeff(-1), Coeff(4)) in found
        assert found == [(lam, 2 * (1 - lam)) for lam in (1, I, -1, -I)]
        for h in r.candidates:
            assert _pulled_back(f, h) == f

    def test_conjugated_odd_symmetry_is_found(self):
        # f(-z) = f(z), so s = h^-1 o (-z) o h is a symmetry of the
        # pulled-back jet g = (f o h) (h')^2; mu != 0 on most draws
        rng = random.Random(0x5E7)
        shifted = 0
        for _ in range(200):
            n = rng.randint(6, 11)
            k0 = rng.choice((0, 2, 4))
            coeffs = [Coeff(0)] * (n + 1)
            for k in range(k0, n + 1, 2):
                coeffs[k] = Coeff(rng.randint(-4, 4), rng.randint(-2, 2))
            while coeffs[k0].is_zero():
                coeffs[k0] = Coeff(rng.randint(-4, 4), rng.randint(-2, 2))
            f = Jet1(coeffs, n)
            mu = Coeff(Fraction(rng.randint(-4, 4), 2), rng.randint(-1, 1))
            h = Homography(Coeff(1), mu)
            g = _pulled_back(f, h)
            s = Homography(Coeff(-1), 2 * mu)  # h^-1(-h(z)) = -z/(1 + 2*mu*z)
            r = homographic_symmetries(g)
            assert (s.lam, s.mu) in [(c.lam, c.mu) for c in r.candidates]
            for c in r.candidates:
                assert _pulled_back(g, c) == g
            shifted += not s.mu.is_zero()
        assert shifted > 150


I = Coeff(0, 1)


def _pulled_back(f, h):
    """(f o h) * (h')^2 to the order of f, from h^k (h')^2 =
    lam^(k+2) z^k (1 + mu z)^-(k+4) term by term, with no composition."""
    n = f.order
    out = [Coeff(0)] * (n + 1)
    for k in range(n + 1):
        fk = f.coeff(k) * h.lam ** (k + 2)
        for j in range(n - k + 1):
            out[k + j] = out[k + j] + fk * (-h.mu) ** j * comb(k + 3 + j, j)
    return Jet1(out, n)


class TestHomographicEquivalence:
    def test_images_under_homographies_are_equivalent(self):
        # g = (f o h) (h')^2: one mu brings f and g to normal forms that
        # differ by the scaling lam*z, the C* action with eps = lam
        rng = random.Random(0x0B17)
        for _ in range(60):
            n = rng.randint(4, 10)
            k0 = rng.randint(0, n)
            coeffs = [Coeff(0)] * k0
            coeffs += [Coeff(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(k0, n + 1)]
            while coeffs[k0].is_zero():
                coeffs[k0] = Coeff(rng.randint(-3, 3), rng.randint(-2, 2))
            f = Jet1(coeffs, n)
            h = rand_homography(rng, imag=True)
            v = homographic_equivalent(_pulled_back(f, h), f)
            assert v.equivalent
            # the constraint eps^g = rho: lam is one of its roots in Q(i)
            power, rho = v.constraints[0].split(" = ")
            g = int(power.removeprefix("eps^"))
            assert str(h.lam ** g) == rho  # canonical text: equal values

    def test_distinct_orbits_are_told_apart(self):
        f = Jet1([1, 0, 1, 0, 0], 4)
        g = _pulled_back(Jet1([1, 0, 2, 0, 0], 4), Homography(Coeff(1), Coeff(1)))
        assert not g.coeff(1).is_zero()
        v = homographic_equivalent(f, g)
        assert not v.equivalent
        assert v.constraints == ["eps^2 = 1", "violated: eps^4 = 1/2"]

    def test_zero_and_top_order_jets(self):
        # neither has a coefficient for mu to kill: each is its own normal form
        assert homographic_equivalent(Jet1([0] * 6, 5), Jet1([0] * 6, 5)).equivalent
        v = homographic_equivalent(Jet1([0] * 5 + [384], 5), Jet1([0] * 5 + [3], 5))
        assert v.equivalent and v.eps == 2


class TestNormalPairs:
    def test_identity_alpha_offset_equivalent(self):
        p0 = NormalPair(Jet1.variable(12), 0)
        p1 = NormalPair(Jet1.variable(12), 5)
        v = normal_pair_equivalent(p0, p1)
        assert v.equivalent
        # Canonicalizer of the offset pair: mu = -(5 - 0)/5 = -1.
        assert v.h1.mu == -1
        assert v.h0.mu.is_zero()
        h1 = canonicalizing_homography(p1)
        assert schwarzian(p1.sigma.compose(h1.to_jet(12))).is_zero()

    def test_reflexive(self):
        rng = random.Random(277)
        for _ in range(8):
            s = rand_germ(rng, 10)
            p = NormalPair(s, Coeff(rng.randint(-3, 3)))
            assert normal_pair_equivalent(p, p).equivalent

    def test_homographic_pairs_all_equivalent(self):
        rng = random.Random(281)
        pairs = []
        for _ in range(5):
            h = rand_homography(rng)
            pairs.append(NormalPair(h.to_jet(12), Coeff(rng.randint(-4, 4))))
        for a in pairs:
            for b in pairs:
                assert normal_pair_equivalent(a, b).equivalent

    def test_same_sigma_same_canonical_alpha(self):
        s = Jet1([0, 1, 1, 1], 12)  # non-homographic
        p0 = NormalPair(s, canonical_alpha(s))
        p1 = NormalPair(s, canonical_alpha(s))
        v = normal_pair_equivalent(p0, p1)
        assert v.equivalent
        for h in (v.h0, v.h1):
            assert h.lam == 1 and h.mu.is_zero()

    def test_canonicalizer_kills_offset(self):
        rng = random.Random(283)
        for _ in range(10):
            s = rand_germ(rng, 10, imag=False)
            alpha = Coeff(rng.randint(-5, 5))
            p = NormalPair(s, alpha)
            h = canonicalizing_homography(p)
            new_sigma = s.compose(h.to_jet(s.order))
            # Composing with z/(1+mu z) shifts the canonical alpha by -3mu
            # and transports alpha by +2mu; the canonical mu makes them meet.
            assert canonical_alpha(new_sigma) == canonical_alpha(s) - 3 * h.mu
            assert canonical_alpha(new_sigma) == alpha + 2 * h.mu
            # S(h) = 0, so normal_pair_equivalent reads S(sigma o h) as the
            # homographic image of S(sigma)
            assert schwarzian(new_sigma) == _homographic_image(schwarzian(s), h)


def test_homographic_image_matches_the_composition():
    """The kernel's closed form against (f o h) * (h')^2 by composing with
    h's jet (``oracles.homographic_image_by_composition``): seeded f, lam and
    mu at orders 4 to 64, mu = 0 and lam off the units included."""
    from cuspfol.moduli import _homographic_image

    rng = random.Random(0x1A6)
    orders = list(range(4, 33)) + [40, 48, 56, 64]
    for k, n in enumerate(orders):
        coeffs = [
            Coeff(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3))
            if rng.random() < 0.6
            else 0
            for _ in range(n + 1)
        ]
        f = Jet1(coeffs, n)
        h = rand_homography(rng, imag=k % 2 == 1)
        if k % 4 == 0:
            h = Homography(h.lam, 0)
        assert _homographic_image(f, h) == oracles.homographic_image_by_composition(f, h)
    assert _homographic_image(Jet1((), 8), Homography(2, 3)) == Jet1((), 8)


def test_symmetries_and_equiv_compose_no_series(monkeypatch):
    """homographic_symmetries and homographic_equivalent read the image in
    closed form: neither composes a jet."""

    def refuse(*args):
        raise AssertionError("Jet1.compose")

    monkeypatch.setattr(Jet1, "compose", refuse)
    f = Jet1([0, 0, 3, 1, Coeff(2, 1), 0, 5, 1, 0, 2], 9)
    assert len(homographic_symmetries(f).candidates) == 1
    assert homographic_equivalent(f, f).equivalent
