"""End-to-end acceptance checks.

Each ``test_criterion_NN_*`` function is one acceptance criterion; run

    pytest tests/test_acceptance.py -v

to get exactly one pass/fail line per criterion.  Every assertion here is
exact — rational arithmetic throughout, no tolerances — and every frozen
constant was produced by an independent oracle before being pinned.
"""

import math
import random
from fractions import Fraction

import pytest

from cuspfol.coeff import Coeff
from cuspfol.firstintegral import (
    Rational1,
    hankel_determinant,
    hankel_rationality,
    homographic_case_first_integrals,
    rational_precompose,
    verify_rational_relation,
)
from cuspfol.forms import (
    OneForm,
    ReductionVerdict,
    form_of_meromorphic,
    pullback_map,
    reduce_cusp,
)
from cuspfol.gluing import (
    Model,
    VectorFieldJet,
    build_cocycle,
    coboundary_solve,
    cocycle_compose_check,
    cohomology_dimension,
    ks_generator,
    model_automorphism,
)
from cuspfol.jets import Jet1, Jet2
from cuspfol.linalg import matrix_rank
from cuspfol.moduli import (
    Homography,
    NormalPair,
    canonical_alpha,
    normal_pair_equivalent,
    schwarzian,
)
from cuspfol.normalform import (
    NormalFormData,
    normalize,
    reconstruct_normal_form,
)
from cuspfol.parametric import (
    exceptional_divide_param,
    family_form,
    pullback_blowup_param,
)
from cuspfol.transversal import CornerGerm, transversal_structure

import oracles
from oracles import HomogeneousPair, L_apply

RNG = random.Random(0xACC3)


def rand_coeff(nonzero=False):
    while True:
        v = Coeff(RNG.randint(-3, 3), RNG.randint(-2, 2)) / Coeff(RNG.randint(1, 2))
        if not nonzero or not v.is_zero():
            return v


def rand_homography():
    lam = Coeff(Fraction(RNG.choice([1, 2, 3, -1, -2]), RNG.randint(1, 3)))
    if RNG.random() < 0.5:
        lam = lam + Coeff(0, Fraction(RNG.randint(1, 2)))
    mu = Coeff(
        Fraction(RNG.randint(-4, 4), RNG.randint(1, 3)),
        Fraction(RNG.randint(-2, 2), RNG.randint(1, 2)),
    )
    return Homography(lam, mu)


def rand_germ(order):
    coeffs = [Coeff(0), Coeff(RNG.choice([1, 2, -1, Fraction(1, 2)]))]
    for _ in range(order - 1):
        coeffs.append(
            Coeff(
                Fraction(RNG.randint(-3, 3), RNG.randint(1, 3)),
                Fraction(RNG.randint(-3, 3), RNG.randint(1, 3)),
            )
        )
    return Jet1(coeffs, order)


def germ(coeffs, order):
    tail = [Coeff(0)] * (order + 1 - len(coeffs))
    return Jet1([Coeff(0)] + coeffs + tail, order)


def rand_homogeneous(n, order):
    d = {}
    for k in range(n + 1):
        c = Coeff(RNG.randint(-4, 4)) + Coeff(0, RNG.randint(-2, 2))
        if not c.is_zero():
            d[(n - k, k)] = c
    return Jet2(d, order)


def exp_jet(order):
    return Jet1(
        [0] + [Coeff(1) / Coeff(math.factorial(k)) for k in range(1, order + 1)],
        order,
    )


def cusp_family(zval, order=16):
    num = Jet2({(0, 2): 1, (3, 0): 1, (2, 1): zval}, order)
    den = Jet2({(1, 1): 1}, order)
    return form_of_meromorphic(num, den)


# ---------------------------------------------------------------------------
# criterion 1 — the two exceptional divisions of the one-parameter family


def test_criterion_01_family_blowup_matches_reference_series():
    """Both divided pullbacks of the family reproduce the reference series.

    The family is the level form of (y^2 + x^3 + z*x^2*y)/(x*y) with z a
    genuinely symbolic parameter.  After the first blow-up and division by
    the fourth power of the exceptional coordinate the differential must
    be, slot for slot,

        t*(1 - z*t) dx + (t^2 - x) dt + t^2*x dz

    and after the second blow-up and a square division

        (1 - z*t) dx + (1 - z*x) dt + t*x dz,

    both in the convention that writes the parameter with the opposite
    sign (z -> -z, the z^k component times (-1)^k); the computation itself
    is pinned in the native sign as well.  Each slot is compared as its
    polynomials per power of z, bit-exact on Q(i) coefficients.
    """
    om = family_form()
    w1, k1 = exceptional_divide_param(pullback_blowup_param(om, "x"), "x")
    w2, k2 = exceptional_divide_param(
        pullback_blowup_param(w1, "y", new_var="x"), "t"
    )
    assert (k1, k2) == (4, 2)
    assert w1.variables == ("x", "t", "z") and w2.variables == ("x", "t", "z")

    def slot(f, name, sign=1):
        """The slot's polynomial per power k of z, times sign^k, trailing
        zero components dropped; slot "c" is the dz-slot."""
        polys = [
            {key: v * sign**k for key, v in (c if name == "c" else getattr(w, name)).items()}
            for k, (w, c) in enumerate(f.components)
        ]
        while polys and not polys[-1]:
            polys.pop()
        return polys

    # native sign convention
    assert slot(w1, "a") == [{(0, 1): 1}, {(0, 2): 1}]
    assert slot(w1, "b") == [{(0, 2): 1, (1, 0): -1}]
    assert slot(w1, "c") == [{(1, 2): 1}]
    assert slot(w2, "a") == [{(0, 0): 1}, {(0, 1): 1}]
    assert slot(w2, "b") == [{(0, 0): 1}, {(1, 0): 1}]
    assert slot(w2, "c") == [{(1, 1): 1}]

    # reference series, parameter negated
    assert slot(w1, "a", -1) == [{(0, 1): 1}, {(0, 2): -1}]  # t*(1 - z*t)
    assert slot(w1, "b", -1) == [{(0, 2): 1, (1, 0): -1}]  # t^2 - x
    assert slot(w1, "c", -1) == [{(1, 2): 1}]  # t^2*x
    assert slot(w2, "a", -1) == [{(0, 0): 1}, {(0, 1): -1}]  # 1 - z*t
    assert slot(w2, "b", -1) == [{(0, 0): 1}, {(1, 0): -1}]  # 1 - z*x
    assert slot(w2, "c", -1) == [{(1, 1): 1}]  # t*x


# ---------------------------------------------------------------------------
# criterion 2 — reduction verdict and the tangency locus


def test_criterion_02_reduction_verdict_and_tangency_locus():
    """The base cusp and the slices z = 0, 1, 2 all reduce to the model.

    Each level form of (y^2 + x^3 + z*x^2*y)/(x*y) must be recognized as
    absolutely dicritical of cusp type, with exceptional multiplicities
    4 and 2 and exactly one tangency point on the second divisor, at the
    chart origin, with multiplicity 2.
    """
    for zval in (Coeff(0), Coeff(1), Coeff(2)):
        rep = reduce_cusp(cusp_family(zval))
        assert rep.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL
        assert rep.exceptional_power_1 == 4
        assert rep.exceptional_power_2 == 2
        assert rep.singular_points_on_D2 == [(Coeff(0), 2)]


# ---------------------------------------------------------------------------
# criterion 3 — the base cusp has trivial transversal structure


def test_criterion_03_base_cusp_has_identity_transversal_structure():
    """For (y^2 + x^3)/(x*y) the corner germ is the identity to order 12."""
    rep = reduce_cusp(cusp_family(Coeff(0)))
    sig = transversal_structure(CornerGerm.from_reduction(rep), order=12)
    assert sig.truncate(12) == Jet1.variable(12)


# ---------------------------------------------------------------------------
# criterion 4 — Schwarzian calibration


def test_criterion_04_schwarzian_kills_homographies_and_scales():
    """Zero on homographies, -1/2 on the exponential, exact scaling law.

    Fifty random homographies z -> lam*z/(1 + mu*z) have identically zero
    Schwarzian at order 12.  The Schwarzian of e^z - 1 is the constant
    -1/2, exactly.  And for twenty random pairs (f, eps) the scaling
    covariance S(f o (eps*z))(z) = eps^2 * S(f)(eps*z) holds on the nose.
    """
    for _ in range(50):
        h = rand_homography()
        assert schwarzian(h.to_jet(12)).is_zero()

    s = schwarzian(exp_jet(16))
    expected = Jet1([Coeff(Fraction(-1, 2))] + [0] * s.order, s.order)
    assert s == expected

    for _ in range(20):
        f = rand_germ(12)
        eps = rand_coeff(nonzero=True)
        lhs = schwarzian(f.compose(Jet1([0, eps], 12)))
        rhs = schwarzian(f).scale_variable(eps) * (eps * eps)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# criterion 5 — the polynomial normal form


def _pair_matrix_rank(n):
    """Rank of the degree-n homogeneous-pair operator on its standard basis."""
    basis = []
    for k in range(n + 1):
        basis.append((Jet2.monomial(n - k, k, 1, n), Jet2({}, n)))
    for k in range(n + 1):
        basis.append((Jet2({}, n), Jet2.monomial(n - k, k, 1, n)))
    cols = []
    for p, q in basis:
        img = L_apply(HomogeneousPair(p, q, n))
        col = [img.P.coeff(n - k, k) for k in range(n + 1)]
        col += [img.Q.coeff(n - k, k) for k in range(n + 1)]
        cols.append(col)
    dim = 2 * (n + 1)
    rows = [[cols[c][r] for c in range(dim)] for r in range(dim)]
    return matrix_rank(rows)


def test_criterion_05_normal_form_of_base_cusp_and_uniqueness():
    """Normal form of the base cusp, operator injectivity, and uniqueness.

    normalize on the level form of (y^2 + x^3)/(x*y) must return alpha=-1,
    a=0 and a trivial tail.  The homogeneous-pair operator behind the
    normalization is injective at every odd degree 3..9, and at each even
    degree its kernel is exactly the line spanned by
    (x^(n/2+1)*y^(n/2-1), x^(n/2)*y^(n/2)) — both facts verified by exact
    rank computations.  Finally, twenty random changes of coordinates
    tangent to the identity leave the full normal-form data of a template
    with nontrivial tail unchanged at order 12.
    """
    data = normalize(cusp_family(Coeff(0)))
    assert data.alpha == Coeff(-1)
    assert data.a == Coeff(0)
    assert data.is_trivial_tail()

    for n in (3, 5, 7, 9):
        assert _pair_matrix_rank(n) == 2 * (n + 1)
    for n in (2, 4, 6, 8, 10):
        assert _pair_matrix_rank(n) == 2 * (n + 1) - 1
        k = n // 2
        img = L_apply(
            HomogeneousPair(
                Jet2.monomial(k + 1, k - 1, 1, n), Jet2.monomial(k, k, 1, n), n
            )
        )
        assert img.P.is_zero() and img.Q.is_zero()

    base = NormalFormData(
        order=12,
        alpha=Coeff(2),
        a=Coeff(-1),
        tail={
            5: (Coeff(0), Coeff(1), Coeff(0), Coeff(0)),
            7: (Coeff(2), Coeff(0), Coeff(1), Coeff(0)),
        },
    )
    w = reconstruct_normal_form(base)
    ref = normalize(w)
    for _ in range(20):
        p = rand_homogeneous(2, 12) + rand_homogeneous(3, 12)
        q = rand_homogeneous(2, 12) + rand_homogeneous(3, 12)
        moved = pullback_map(w, Jet2.var_x(12) + p, Jet2.var_y(12) + q, order=12)
        again = normalize(moved)
        assert again.alpha == ref.alpha
        assert again.a == ref.a
        for m in range(5, 13):
            assert again.tail.get(m, (Coeff(0),) * 4) == ref.tail.get(
                m, (Coeff(0),) * 4
            )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "injectivity at every degree 2..10 is unattainable: at each even "
        "degree n the pair (x^(n/2+1)*y^(n/2-1), x^(n/2)*y^(n/2)) lies in "
        "the kernel, as the companion criterion-5 test verifies positively; "
        "the operator is injective at odd degrees only"
    ),
)
def test_criterion_05_operator_injective_at_every_degree_2_to_10():
    for n in range(2, 11):
        assert _pair_matrix_rank(n) == 2 * (n + 1)


# ---------------------------------------------------------------------------
# criterion 6 — the cohomological equation and its one obstruction


def _split_ranks(sig, alpha0, n):
    """rank(M) and rank(M | y1) of the order-n split matrix M, built in full
    by the Fraction-pair oracle."""
    keys, pairs = oracles.split_matrix(
        oracles.jet1_pairs(sig), oracles.pair_of_coeff(Coeff(alpha0)), n
    )
    rows = [[Coeff(*v) for v in row] for row in pairs]
    aug = [row + [Coeff(int(key == (0, 1)))] for row, key in zip(rows, keys)]
    return matrix_rank(rows), matrix_rank(aug)


def test_criterion_06_vertical_generator_obstruction_and_corank():
    """The distinguished vertical field is obstructed; everything else splits.

    For sigma in {identity, z + z^2} and alpha0 in {0, 1} the target
    y1*x1*d/dx1 is infeasible at every order 3..10, with the checked
    refutation certificate equal to the bare y1-row.  Coboundaries built
    by hand from an admissible split are feasible and the solver's split
    reproduces the same overlap field.  The cokernel of the coboundary
    operator has rank exactly 1 at every order 3..8, with the
    distinguished generator independent of the image.
    """
    for n in range(3, 11):
        for sig in (Jet1.variable(n), germ([Coeff(1), Coeff(1)], n)):
            for alpha0 in (Coeff(0), Coeff(1)):
                res = coboundary_solve(sig, alpha0, ks_generator(n), order=n)
                assert not res.feasible
                assert res.certificate == [((0, 1), Coeff(1))]
                assert res.certificate_checked is True

    for _ in range(6):
        n = 8
        sig = germ([rand_coeff(True), rand_coeff(), rand_coeff()], n)
        alpha0 = rand_coeff()
        tilde = Jet2(
            {(1, 0): rand_coeff(), (2, 1): rand_coeff(), (0, 2): rand_coeff()}, n
        )
        a2 = Jet2(
            {(1, 0): rand_coeff(), (1, 2): rand_coeff(), (3, 0): rand_coeff()}, n
        )
        u = Jet2({(0, 0): 1, (0, 1): alpha0}, n)
        s2 = Jet2.from_jet1(sig, "y")
        psi_x = Jet2.var_x(n) * u + s2
        target = psi_x * tilde.substitute(psi_x, s2) - a2
        res = coboundary_solve(sig, alpha0, VectorFieldJet(target), order=n)
        assert res.feasible
        rebuilt = (
            psi_x * res.tilde.substitute(psi_x, s2) - res.field_second.coefficient
        )
        assert rebuilt == target
        assert res.field_first.coefficient == (
            Jet2.var_x(n) - Jet2.var_y(n)
        ) * res.tilde
        assert res.field_first.chart == "x3"
        assert res.field_second.chart == "x1"

    for n in range(3, 9):
        for sig, alpha0 in (
            (germ([Coeff(1), Coeff(1)], 8), Coeff(1)),
            (germ([rand_coeff(True), rand_coeff()], 8), rand_coeff()),
        ):
            rep = cohomology_dimension(sig, alpha0, n)
            assert rep.rows == (n + 1) * (n + 2) // 2
            assert rep.corank == 1
            assert rep.dimension == 1
            assert rep.generator_independent
            rank, aug_rank = _split_ranks(sig, alpha0, n)
            assert rep.rank == rank
            assert rep.generator_independent == (aug_rank == rep.rank + 1)
            assert rep.split.certificate == [((0, 1), Coeff(1))]
            assert rep.split.certificate_checked is True


# ---------------------------------------------------------------------------
# criterion 7 — the alpha offset is inessential; the homographic cases glue


def test_criterion_07_alpha_offset_and_homographic_integrals():
    """(id, 0) and (id, 5) are equivalent; the two rational-integral cases
    land in the same moduli class.

    The pairs (identity, alpha=0) and (identity, alpha=5) must be declared
    equivalent.  Both level forms returned by the homographic-case helper
    reduce to the cusp model, both transversal structures have identically
    zero Schwarzian, and the resulting (sigma, alpha) pairs are equivalent.
    """
    v = normal_pair_equivalent(
        NormalPair(Jet1.variable(12), Coeff(0)),
        NormalPair(Jet1.variable(12), Coeff(5)),
    )
    assert v.equivalent

    pairs = []
    for num, den in homographic_case_first_integrals(16):
        w = form_of_meromorphic(num, den)
        rep = reduce_cusp(w)
        assert rep.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL
        sig = transversal_structure(CornerGerm.from_reduction(rep), order=12)
        jet = sig.truncate(12)
        assert schwarzian(jet).is_zero()
        pairs.append(NormalPair(jet, normalize(w).alpha))
    verdict = normal_pair_equivalent(pairs[0], pairs[1])
    assert verdict.equivalent


# ---------------------------------------------------------------------------
# criterion 8 — base change acts by the affine alpha-law


def test_criterion_08_base_change_relation():
    """Twenty random base changes transform (sigma, alpha) as predicted.

    Composing a cocycle with model automorphisms over homographies h0, h1
    replaces sigma by h1 o sigma o h0 and alpha by
    canonical_alpha(new sigma) + (alpha - canonical_alpha(sigma))*lam0
    + 5*mu0, where h0 = lam0*z/(1 + mu0*z); the normalized unit stays 1
    and the moduli layer agrees the two data cuts are equivalent.
    """
    n = 10
    for _ in range(20):
        lam0, mu0 = rand_coeff(True), rand_coeff()
        lam1, mu1 = rand_coeff(True), rand_coeff()
        h0 = Homography(lam0, mu0)
        h1 = Homography(lam1, mu1)
        gam = germ([rand_coeff(True)] + [rand_coeff() for _ in range(4)], n)
        alpha_p = rand_coeff()
        c = build_cocycle(gam, alpha_p)
        phi1 = model_automorphism(h1, Model.F1, order=n)
        phi2 = model_automorphism(h0, Model.F2, order=n, leading=Coeff(1) / lam1)
        out = cocycle_compose_check(phi1, c, phi2)
        m = out.sigma.order
        expect = h1.to_jet(m).compose(gam.compose(h0.to_jet(n)))
        assert out.sigma == expect.truncate(m)
        assert out.A.coeff(0, 0) == Coeff(1)
        alpha_new = out.A.coeff(0, 1)
        predicted = (
            canonical_alpha(out.sigma)
            + (alpha_p - canonical_alpha(gam)) * lam0
            + Coeff(5) * mu0
        )
        assert alpha_new == predicted
        verdict = normal_pair_equivalent(
            NormalPair(gam, alpha_p), NormalPair(out.sigma, alpha_new)
        )
        assert verdict.equivalent


# ---------------------------------------------------------------------------
# criterion 9 — rational relations and the Hankel rationality test


def test_criterion_09_rational_relations_and_hankel():
    """R1 = R2 = z works for the identity; the exponential is refuted.

    verify_rational_relation confirms the trivial relation for the
    identity germ.  The Hankel test rejects e^z - 1 as a rational function
    of degree <= 4 at order 16, and the refuting size-6 determinant equals
    the frozen exact value -1/222531556847250309120000000.  The relation
    is invariant under pre- and post-composition with homographies on
    twenty random instances.
    """
    z = Rational1((0, 1))
    assert verify_rational_relation(z, z, Jet1.variable(16), 8)

    g = exp_jet(16)
    assert hankel_rationality(g, 4, 16) is None
    det = hankel_determinant(g, 6, shift=1)
    assert det == Coeff(-1) / Coeff(222531556847250309120000000)
    assert not det.is_zero()

    N = 16
    half = N // 2
    hits = 0
    for trial in range(20):
        h0 = rand_homography()
        h1 = rand_homography()
        if trial % 2 == 0:
            r1 = Rational1(
                (rand_coeff(), rand_coeff(True), rand_coeff()), (1, rand_coeff())
            )
            hs = rand_homography()
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
    assert hits >= 10


# ---------------------------------------------------------------------------
# criterion 10 — the cocycle-to-corner round trip


def test_criterion_10_cocycle_corner_round_trip():
    """Analyzing a built cocycle as a corner germ recovers sigma to order 10.

    For the identity and six random invertible germs, the transition map
    built from (sigma, alpha) is read back as a corner germ and fed to the
    transversal-structure pipeline.  The pipeline reads the transition in
    the opposite direction, so it returns the compositional inverse of
    sigma exactly; inverting once more recovers sigma itself, coefficient
    for coefficient, to order 10.
    """
    cases = [(Jet1.variable(11), Coeff(1))]
    for _ in range(6):
        cases.append((rand_germ(11), rand_coeff()))
    for sig, alpha in cases:
        H, _ = build_cocycle(sig, alpha).as_map()
        w = OneForm(H.dx(), H.dy(), ("u", "v"))
        got = transversal_structure(CornerGerm(w), order=10)
        inv = sig.comp_inverse()
        assert got.truncate(10) == inv.truncate(10)
        back = got.comp_inverse()
        assert back.truncate(10) == sig.truncate(10)
