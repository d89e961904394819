"""Tests for the glued models and the cohomological-equation solver."""

import math
import random
from fractions import Fraction

import pytest

from cuspfol.cli import _as_oneform, _sigma_of_form
from cuspfol.coeff import Coeff
from cuspfol.jets import Jet1, Jet2, JetError
from cuspfol.moduli import (
    Homography,
    NormalPair,
    canonical_alpha,
    normal_pair_equivalent,
)
from cuspfol.gluing import (
    GluingCocycle,
    Model,
    ModelAutomorphism,
    VectorFieldJet,
    _a2_keys,
    _row_keys,
    _rows_on,
    _t_columns,
    _t_keys,
    build_cocycle,
    coboundary_solve,
    cocycle_compose_check,
    cohomology_dimension,
    ks_generator,
    model_automorphism,
)
from cuspfol.linalg import SolveResult, check_certificate, matrix_rank, solve
from cuspfol.normalform import normalize

import oracles
from test_transversal import README_MERO, ROADMAP_MERO, SINH

RNG = random.Random(0x61)


def rand_coeff(nonzero=False, rng=RNG):
    while True:
        v = Coeff(rng.randint(-4, 4), rng.randint(-2, 2)) / Coeff(rng.randint(1, 3))
        if not nonzero or not v.is_zero():
            return v


def germ(coeffs, order):
    tail = [Coeff(0)] * (order + 1 - len(coeffs))
    return Jet1([Coeff(0)] + coeffs + tail, order)


# ---------------------------------------------------------------------------
# transitions and globality


def test_transition_exponent_tables():
    f2 = Model.F2
    assert f2.exponent_image(1, 1) == (1, 1)
    assert f2.exponent_image(0, 1) == (-1, 0)
    assert f2.exponent_image(2, 1) == (3, 2)
    assert f2.exponent_image(1, 3) == (-1, 1)
    f1 = Model.F1
    assert f1.exponent_image(1, 1) == (0, 1)
    assert f1.exponent_image(0, 1) == (-1, 0)
    assert f1.exponent_image(3, 1) == (2, 3)


def test_transition_brute_force_agreement():
    # Laurent-monomial oracle: push x^i y^j through the coordinate change
    # by exponent arithmetic and compare with the packaged rule.
    for model, change in (
        (Model.F2, lambda i, j: (2 * i - j, i)),  # x2=1/y1, y2=y1^2*x1
        (Model.F1, lambda i, j: (i - j, i)),  # x4=1/y3, y4=y3*x3
    ):
        for i in range(9):
            for j in range(9 - i):
                image = change(i, j)
                assert model.exponent_image(i, j) == image
                assert model.is_global_monomial(i, j) == (image[0] >= 0)
                # invert: pull the image back and land on (i, j) again
                a, b = image
                if model is Model.F2:
                    back = (b, 2 * b - a)
                else:
                    back = (b, b - a)
                assert back == (i, j)


def test_globality_examples():
    n = 8
    x = Jet2.var_x(n)
    y = Jet2.var_y(n)
    assert not Model.F2.violations(x * y)
    bad = Model.F2.violations(y)
    assert bad
    assert bad == [(0, 1)]
    assert not Model.F2.violations(Jet2.one(n))
    assert not Model.F1.violations(x)
    bad = Model.F1.violations(y + x * y * y)
    assert bad
    assert set(bad) == {(0, 1), (1, 2)}


# ---------------------------------------------------------------------------
# cocycles


def test_build_cocycle_identity():
    n = 8
    c = build_cocycle(Jet1.variable(n), 0)
    fx, fy = c.as_map()
    assert fx == Jet2.var_x(n) + Jet2.var_y(n)
    assert fy == Jet2.var_y(n)


def test_build_cocycle_example():
    n = 8
    sig = germ([Coeff(1), Coeff(1)], n)  # z + z^2
    c = build_cocycle(sig, 1)
    fx, fy = c.as_map()
    s2 = Jet2({(0, 1): 1, (0, 2): 1}, n)
    assert fy == s2
    assert fx == Jet2.var_x(n) * Jet2({(0, 0): 1, (0, 1): 1}, n) + s2
    assert c.A.coeff(0, 1) == Coeff(1)


def test_cocycle_rejects_vanishing_unit():
    n = 6
    with pytest.raises(ValueError):
        GluingCocycle(Jet1.variable(n), Jet2.var_y(n))


# sigma(0) != 0 and sigma'(0) = 0, each with the message that refuses it
NOT_INVERTIBLE = [
    (Jet1([1, 1], 8), "germ must fix the origin"),
    (Jet1([0, 0, 1], 8), "germ must have invertible linear part"),
]
GERM_CONSUMERS = {
    "build_cocycle": lambda s: build_cocycle(s, 0),
    "GluingCocycle": lambda s: GluingCocycle(s, Jet2.one(8)),
    "coboundary_solve": lambda s: coboundary_solve(s, 0, ks_generator(8)),
    "coboundary_solve_y1_free": lambda s: coboundary_solve(
        s, 0, VectorFieldJet(Jet2.var_x(8), "x1")
    ),
    "cohomology_dimension": lambda s: cohomology_dimension(s, 0, 8),
    "NormalPair": lambda s: NormalPair(s, 0),
}


@pytest.mark.parametrize("consumer", sorted(GERM_CONSUMERS))
@pytest.mark.parametrize("sigma, message", NOT_INVERTIBLE)
def test_a_germ_that_is_not_invertible_is_refused(consumer, sigma, message):
    with pytest.raises(JetError, match=message):
        GERM_CONSUMERS[consumer](sigma)


# ---------------------------------------------------------------------------
# model automorphisms


def test_automorphism_identity_both_models():
    n = 8
    for model in (Model.F1, Model.F2):
        phi = model_automorphism(Homography(1), model, order=n)
        assert phi.A == Jet2.one(n)
        mx, my = phi.as_map()
        assert mx == Jet2.var_x(n)
        assert my == Jet2.var_y(n)


def test_automorphism_first_model_pinned():
    n = 8
    h = Homography(Coeff(1), Coeff(3))  # z/(1+3z)
    phi = model_automorphism(h, Model.F1, order=n)
    # leading term h'(0), then the second-derivative data
    assert phi.A.coeff(0, 0) == Coeff(1)
    assert phi.A.coeff(1, 0) == Coeff(-6)
    assert phi.A.coeff(0, 1) == Coeff(3)
    # the scale cannot be chosen on this side
    with pytest.raises(ValueError):
        model_automorphism(h, Model.F1, leading=Coeff(2), order=n)


def test_automorphism_second_model_scale():
    n = 8
    h = Homography(Coeff(1) / Coeff(5))  # z/5
    phi = model_automorphism(h, Model.F2, order=n)
    assert phi.A == Jet2.one(n) * Coeff(5)
    phi2 = model_automorphism(h, Model.F2, leading=Coeff(1), order=n)
    assert phi2.A == Jet2.one(n)
    with pytest.raises(ValueError):
        model_automorphism(h, Model.F2, leading=Coeff(0), order=n)


def test_automorphism_taylor_random():
    n = 8
    for _ in range(4):
        lam = rand_coeff(nonzero=True)
        mu = rand_coeff()
        h = Homography(lam, mu)
        hpp = Coeff(-2) * lam * mu  # h''(0)
        phi1 = model_automorphism(h, Model.F1, order=n)
        assert phi1.A.coeff(0, 0) == lam
        assert phi1.A.coeff(1, 0) == hpp
        assert phi1.A.coeff(0, 1) == -(hpp / Coeff(2))
        # diagonal restriction reproduces the homography itself
        x = Jet2.var_x(n)
        diag = (x * phi1.A.substitute(x, x)).restrict_to_axis("x")
        assert diag == h.to_jet(n)
        phi2 = model_automorphism(h, Model.F2, order=n)
        assert phi2.A.coeff(0, 1) == Coeff(2) * mu * phi2.A.coeff(0, 0)


def test_first_model_coefficient_times_the_square_is_the_numerator():
    # A = (a+b*y)/(a+b*x)^2 with h(z) = z/(a+b*z): A times (a+b*x)^2 is
    # a+b*y exactly, at every monomial of the jet, for Gaussian lam and mu
    # with denominators
    rng = random.Random(0x83)
    for n in range(4, 17):
        for _ in range(3):
            lam = gaussian_coeff(rng, nonzero=True)
            mu = gaussian_coeff(rng, nonzero=True)
            a, b = 1 / lam, mu / lam
            A = model_automorphism(Homography(lam, mu), Model.F1, order=n).A
            lin_x = Jet2({(0, 0): a, (1, 0): b}, n)
            assert A.order == n
            assert A * lin_x * lin_x == Jet2({(0, 0): a, (0, 1): b}, n), n


def test_model_homothety():
    # (x, y) -> (eps*x, eps*y): h = eps*z, with A(0,0) = eps on the F2 side
    n = 8
    eps = Coeff(2, 1)
    for model, leading in ((Model.F1, None), (Model.F2, eps)):
        phi = model_automorphism(Homography(eps), model, leading=leading, order=n)
        mx, my = phi.as_map()
        assert mx == Jet2.var_x(n) * eps
        assert my == Jet2.var_y(n) * eps


# ---------------------------------------------------------------------------
# composition


def test_compose_identity_automorphisms():
    n = 8
    sig = germ([Coeff(1), Coeff(2), Coeff(0), Coeff(1)], n)
    c = build_cocycle(sig, Coeff(3))
    phi1 = model_automorphism(Homography(1), Model.F1, order=n)
    phi2 = model_automorphism(Homography(1), Model.F2, order=n)
    out = cocycle_compose_check(phi1, c, phi2)
    assert out.sigma == sig
    assert out.A == c.A.truncate(out.A.order)


def test_compose_homothety_rescales_unit():
    n = 8
    sig = germ([Coeff(1), Coeff(1)], n)
    c = build_cocycle(sig, Coeff(2))
    phi1 = model_automorphism(Homography(1), Model.F1, order=n)
    hom = model_automorphism(Homography(Coeff(3)), Model.F2, leading=Coeff(3), order=n)
    out = cocycle_compose_check(phi1, c, hom)
    # first slot 3*x*A(3x,3y) + sigma(3y): the unit picks up the scale and
    # the base coordinate is rescaled inside both sigma and A
    assert out.A == Jet2({(0, 0): 3, (0, 1): 18}, out.A.order)
    assert out.sigma.coeff(1) == Coeff(3)
    assert out.sigma.coeff(2) == Coeff(9)


def test_compose_rejects_swapped_sides():
    n = 6
    c = build_cocycle(Jet1.variable(n), 1)
    phi1 = model_automorphism(Homography(1), Model.F1, order=n)
    phi2 = model_automorphism(Homography(1), Model.F2, order=n)
    with pytest.raises(ValueError):
        cocycle_compose_check(phi2, c, phi1)


def test_compose_rejects_a_first_model_map_off_the_diagonal():
    # (x, y) -> (2x, y) is not an automorphism of the first model: it breaks
    # A(x, x) = h(x)/x, so the composed first component minus the second
    # keeps sigma(y1), which x1 does not divide
    n = 6
    sig = germ([Coeff(1), Coeff(2)], n)
    c = build_cocycle(sig, Coeff(3))
    bad = ModelAutomorphism(Model.F1, Homography(1), Jet2.one(n) * 2)
    phi2 = model_automorphism(Homography(1), Model.F2, order=n)
    with pytest.raises(ValueError, match="x1-free monomials"):
        cocycle_compose_check(bad, c, phi2)


def test_compose_base_change_relation():
    # Composing with model automorphisms over base homographies h0, h1
    # transforms (sigma, alpha) by sigma -> h1 o sigma o h0 and by the
    # affine alpha-law with slope h0'(0); the moduli layer must agree that
    # the two data cuts are equivalent.
    n = 10
    for _ in range(4):
        lam0, mu0 = rand_coeff(True), rand_coeff()
        lam1, mu1 = rand_coeff(True), rand_coeff()
        h0 = Homography(lam0, mu0)
        h1 = Homography(lam1, mu1)
        gam = germ([rand_coeff(True)] + [rand_coeff() for _ in range(4)], n)
        alpha_p = rand_coeff()
        c = build_cocycle(gam, alpha_p)
        phi1 = model_automorphism(h1, Model.F1, order=n)
        phi2 = model_automorphism(
            h0, Model.F2, order=n, leading=Coeff(1) / lam1
        )
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
# the cohomological equation


def test_coboundary_zero_target():
    n = 6
    sig = germ([Coeff(1), Coeff(1)], n)
    res = coboundary_solve(sig, Coeff(1), VectorFieldJet(Jet2.zero(n)), order=n)
    assert res.feasible
    assert res.field_first.coefficient.is_zero()
    assert res.field_second.coefficient.is_zero()


def test_coboundary_round_trip():
    n = 7
    sig = germ([Coeff(1), Coeff(2), Coeff(1)], n)
    alpha0 = Coeff(1, 1)
    # forward: pick an admissible split and rebuild its overlap field
    tilde = Jet2({(1, 0): Coeff(2), (2, 1): Coeff(0, 1)}, n)
    a2 = Jet2({(1, 0): Coeff(3), (1, 2): Coeff(-1)}, n)
    u = Jet2({(0, 0): 1, (0, 1): alpha0}, n)
    s2 = Jet2.from_jet1(sig, "y")
    psi_x = Jet2.var_x(n) * u + s2
    target = psi_x * tilde.substitute(psi_x, s2) - a2
    res = coboundary_solve(sig, alpha0, VectorFieldJet(target), order=n)
    assert res.feasible
    # the solver's split reproduces the same overlap field
    rebuilt = psi_x * res.tilde.substitute(psi_x, s2) - res.field_second.coefficient
    assert rebuilt == target
    assert res.field_first.coefficient == (Jet2.var_x(n) - Jet2.var_y(n)) * res.tilde
    assert res.field_first.chart == "x3"
    assert res.field_second.chart == "x1"


def test_coboundary_ks_obstruction():
    # the distinguished direction y1*x1*d/dx1 is never a coboundary, at
    # any truncation order, and the refuting row combination is the bare
    # y1-coefficient itself
    sig = germ([Coeff(1), Coeff(1), Coeff(0), Coeff(2)], 12)
    for n in range(3, 11):
        res = coboundary_solve(sig, Coeff(2), ks_generator(n), order=n)
        assert not res.feasible
        assert res.certificate == [((0, 1), Coeff(1))]
        assert res.certificate_checked is True


def test_coboundary_ks_obstruction_other_gluings():
    for alpha0 in (Coeff(0), Coeff(-3), Coeff(1, 2)):
        sig = germ([rand_coeff(True), rand_coeff(), rand_coeff()], 8)
        res = coboundary_solve(sig, alpha0, ks_generator(6), order=6)
        assert not res.feasible
        assert res.certificate == [((0, 1), Coeff(1))]


def _full_split(sig, alpha0, n):
    """Row keys and rows of the order-n split matrix M, every T and A2 column
    on every row, built by the Fraction-pair oracle."""
    keys, rows = oracles.split_matrix(
        oracles.jet1_pairs(sig), oracles.pair_of_coeff(alpha0), n
    )
    return keys, [[Coeff(*v) for v in row] for row in rows]


def _split_ranks(sig, alpha0, n):
    """rank(M) and rank(M | y1) of the order-n split matrix M, built directly."""
    keys, rows = _full_split(sig, alpha0, n)
    aug = [row + [Coeff(int(key == (0, 1)))] for row, key in zip(rows, keys)]
    return matrix_rank(rows), matrix_rank(aug)


def test_cohomology_corank_one():
    sig = germ([Coeff(1), Coeff(1)], 8)
    for n in range(3, 9):
        rep = cohomology_dimension(sig, Coeff(1), n)
        assert rep.rows == (n + 1) * (n + 2) // 2
        assert rep.corank == 1
        assert rep.dimension == 1
        assert rep.generator_independent
        rank, aug_rank = _split_ranks(sig, Coeff(1), n)
        assert rep.rank == rank
        assert rep.generator_independent == (aug_rank == rep.rank + 1)
        assert rep.split.certificate == [((0, 1), Coeff(1))]
        assert rep.split.certificate_checked is True


def rand_germ(n, rng):
    tail = [rand_coeff(rng=rng) for _ in range(n - 1)]
    return germ([rand_coeff(True, rng)] + tail, n)


def test_reduced_split_agrees_with_the_full_matrix():
    # the split eliminates only T on the non-admissible rows; its rank and
    # certificate must still be those of the full matrix, A2 columns included
    rng = random.Random(0x7A)
    questions = [(rand_germ(n, rng), rand_coeff(rng=rng), n) for n in range(3, 13)]
    for text in (README_MERO, ROADMAP_MERO, SINH):
        w = _as_oneform(text, 12)
        jet = _sigma_of_form(w, 12)
        questions.append((jet, normalize(w).alpha, jet.order))
    for sig, alpha0, n in questions:
        rep = cohomology_dimension(sig, alpha0, n)
        keys, rows = _full_split(sig, alpha0, n)
        assert rep.rank == matrix_rank(rows)
        rhs = [Coeff(int(key == (0, 1))) for key in keys]
        cert = [(keys.index(key), w) for key, w in rep.split.certificate]
        assert check_certificate(rows, rhs, cert)


def test_t_columns_are_exact_on_the_rows_the_solver_reads():
    # the T columns are plain powers x3^(i+1) * s2^j at order n: on every row
    # x1^p y1^q of degree <= n they equal the oracle's full-order columns
    # factor * x3^i * sigma(y1)^j
    rng = random.Random(0x7C)
    questions = [(rand_germ(n, rng), rand_coeff(rng=rng), n) for n in range(3, 13)]
    w = _as_oneform(README_MERO, 16)
    questions.append((_sigma_of_form(w, 16), normalize(w).alpha, 16))
    for sig, alpha0, n in questions:
        full = oracles.split_t_columns(
            oracles.jet1_pairs(sig), oracles.pair_of_coeff(alpha0), n
        )
        t_cols = dict(zip(_t_keys(n), _t_columns(build_cocycle(sig, alpha0).as_map(n), n)))
        assert list(t_cols) == list(full)
        for key, col in t_cols.items():
            assert col.order == n
            got = oracles.jet2_pairs(col)
            want = full[key]
            assert [got.get(row, oracles.ZERO) for row in _row_keys(n)] == [
                want.get(row, oracles.ZERO) for row in _row_keys(n)
            ], (n, key)


def test_feasible_split_reads_the_second_field_off_the_remainder():
    rng = random.Random(0x7B)
    for n in range(6, 11):
        sig = rand_germ(n, rng)
        alpha0 = rand_coeff(rng=rng)
        # T runs over x^i y^j with i > j below degree n, A2 over the monomials
        # that extend to the second chart of F2 (2i - j >= 0)
        t_keys = [(i, j) for (i, j) in _row_keys(n - 1) if i > j]
        a2_keys = [(i, j) for (i, j) in _row_keys(n) if 2 * i >= j]
        tilde, a2 = (
            Jet2({key: rand_coeff(rng=rng) for key in rng.sample(keys, 4)}, n)
            for keys in (t_keys, a2_keys)
        )
        s2 = Jet2.from_jet1(sig, "y")
        psi_x = Jet2.var_x(n) * Jet2({(0, 0): 1, (0, 1): alpha0}, n) + s2
        target = psi_x * tilde.substitute(psi_x, s2) - a2
        res = coboundary_solve(sig, alpha0, VectorFieldJet(target), order=n)
        assert res.feasible
        assert not Model.F2.violations(res.field_second.coefficient)
        assert {key for key, _ in res.tilde.items()} <= set(t_keys)
        rebuilt = psi_x * res.tilde.substitute(psi_x, s2) - res.field_second.coefficient
        assert rebuilt == target


def test_feasible_split_eliminates_a_and_b_only(monkeypatch):
    # a feasible split reads no certificate: its one elimination at order 16
    # is the 51 by 64 T block and the right-hand side, nothing wider
    import cuspfol.linalg

    shapes = []
    rref = cuspfol.linalg.rref

    def counting_rref(rows, limit):
        shapes.append((len(rows), limit, len(rows[0])))
        return rref(rows, limit)

    monkeypatch.setattr(cuspfol.linalg, "rref", counting_rref)
    n = 16
    sig = germ([Coeff(1), Coeff(1), Coeff(0), Coeff(2)], n)
    alpha0 = Coeff(-1)
    tilde = Jet2({(1, 0): Coeff(2), (3, 1): Coeff(0, 1), (5, 4): Coeff(1, 3)}, n)
    s2 = Jet2.from_jet1(sig, "y")
    psi_x = Jet2.var_x(n) * Jet2({(0, 0): 1, (0, 1): alpha0}, n) + s2
    target = psi_x * tilde.substitute(psi_x, s2) - Jet2.monomial(2, 3, 5, n)
    res = coboundary_solve(sig, alpha0, VectorFieldJet(target), order=n)
    assert res.feasible
    assert shapes == [(51, 64, 65)]


def gaussian_coeff(rng, nonzero=False):
    """(a + b*i)/(c + d*i) with small Gaussian integers, c >= 1."""
    while True:
        v = Coeff(rng.randint(-3, 3), rng.randint(-3, 3)) / Coeff(
            rng.randint(1, 4), rng.randint(-3, 3)
        )
        if not nonzero or not v.is_zero():
            return v


def seeded_sigma(rng, n, dense, first=None):
    """A germ with sigma_1 != 1 (or ``first``) and a dense or sparse tail of
    Gaussian-denominator coefficients."""
    s1 = first
    while s1 is None or s1 == Coeff(1):
        s1 = gaussian_coeff(rng, nonzero=True)
    tail = [
        gaussian_coeff(rng) if dense or rng.random() < 0.2 else Coeff(0)
        for _ in range(n - 1)
    ]
    return germ([s1] + tail, n)


def _full_block_split(sig, alpha0, target, n):
    """(rank, feasible, certificate, checked) of the order-n split, by exact
    elimination of the full T block: every T column built by ``_t_columns``
    (exact on the rows read, see
    test_t_columns_are_exact_on_the_rows_the_solver_reads), read on the rows
    no A2 column pivots and solved by ``linalg.solve`` (the kernel rref); an
    infeasibility certificate is checked on every T column and on every A2
    column -x^i y^j, i, j with 2i >= j."""
    t_cols = _t_columns(build_cocycle(sig, alpha0).as_map(n), n)
    admissible = [(i, j) for (i, j) in _row_keys(n) if 2 * i >= j]
    cols = t_cols + [Jet2.monomial(i, j, -1, n) for i, j in admissible]
    free = [key for key in _row_keys(n) if key not in admissible]
    res = solve(
        [[col.coeff(*key) for col in t_cols] for key in free],
        [target.coeff(*key) for key in free],
        certificate=True,
    )
    rank = len(admissible) + res.rank
    if res.feasible:
        return rank, True, None, None
    cert = [(free[r], w) for r, w in res.certificate]
    checked = check_certificate(
        [[col.coeff(*key) for col in cols] for key, _ in cert],
        [target.coeff(*key) for key, _ in cert],
        [(k, w) for k, (_, w) in enumerate(cert)],
    )
    return rank, False, cert, checked


@pytest.fixture
def column_builds(monkeypatch):
    """The orders at which the solver builds its T columns to full order."""
    import cuspfol.gluing

    orders = []
    columns = cuspfol.gluing._t_columns

    def recording_columns(maps, n):
        orders.append(n)
        return columns(maps, n)

    monkeypatch.setattr(cuspfol.gluing, "_t_columns", recording_columns)
    return orders


def _split_of(res):
    return res.rank, res.feasible, res.certificate, res.certificate_checked


def test_graded_bound_matches_elimination_of_the_full_block(column_builds):
    # the split of y1, alone or beside other monomials, is answered by the
    # binomial lemma with no column built, and must be what eliminating the
    # whole T block gives
    # (the reference elimination takes seconds on a dense sigma at order 24,
    # so the orders above 16 are sampled, with sparse tails and one target)
    rng = random.Random(0x7E)
    cases = [(n, dense) for n in range(1, 17) for dense in (False, True)]
    for n, dense in cases + [(n, False) for n in (18, 20, 22, 24)]:
        sig = seeded_sigma(rng, n, dense)
        alpha0 = gaussian_coeff(rng)
        extra = {key: gaussian_coeff(rng) for key in rng.sample(_row_keys(n), min(n, 4))}
        extra[(0, 1)] = gaussian_coeff(rng, nonzero=True)
        targets = [ks_generator(n).coefficient] if n <= 16 else []
        for target in targets + [Jet2(extra, n)]:
            res = coboundary_solve(sig, alpha0, VectorFieldJet(target), order=n)
            assert _split_of(res) == _full_block_split(sig, alpha0, target, n), n
            assert res.certificate == [((0, 1), Coeff(1))]
            assert res.certificate_checked is True
            assert res.rank == len(_row_keys(n)) - 1
    assert column_builds == []


@pytest.mark.parametrize(
    "first",
    [Coeff(Fraction(1, 2147483629), 2), Coeff(2147483629, -3 * 2147483629)],
    ids=["prime-in-denominator", "zero-modulo-the-prime"],
)
def test_sigma1_the_prime_cannot_see_falls_back(column_builds, first):
    # a sigma_1 with the prime 2147483629 in its denominator, or divisible by
    # it, once sent the split to a modular rank bound that could not see the
    # linear parts and so to the full-block elimination; the binomial lemma
    # has no prime, so the split is answered with no column built and is
    # still what eliminating the whole T block gives
    rng = random.Random(0x7F)
    for n in (4, 9):
        sig = seeded_sigma(rng, n, True, first)
        alpha0 = gaussian_coeff(rng)
        target = ks_generator(n).coefficient
        res = coboundary_solve(sig, alpha0, VectorFieldJet(target), order=n)
        assert _split_of(res) == _full_block_split(sig, alpha0, target, n)
        assert res.certificate == [((0, 1), Coeff(1))]
        assert res.certificate_checked is True
        assert res.rank == len(_row_keys(n)) - 1
    assert column_builds == []


def test_the_y1_recheck_stands_x3_squared_for_the_t_block(monkeypatch):
    # every T column x3^(i+1) s2^j has i >= 1, so it is x3^2 times a jet and
    # its y1 entry is zero at full order; the split re-checks the y1
    # certificate on x3^2 at order 1 and the A2 columns of degree <= 1, so
    # an A2 key list that holds y1 itself makes that re-check fail, and a
    # failed re-check raises
    import cuspfol.gluing

    rng = random.Random(0x82)
    for n in range(3, 17):
        sig = seeded_sigma(rng, n, n % 2 == 0)
        alpha0 = gaussian_coeff(rng)
        t_cols = _t_columns(build_cocycle(sig, alpha0).as_map(n), n)
        assert len(t_cols) == len(_t_keys(n))
        assert all(col.coeff(0, 1).is_zero() for col in t_cols), n
        res = coboundary_solve(sig, alpha0, ks_generator(n), order=n)
        assert not res.feasible and res.certificate_checked is True
        with monkeypatch.context() as m:
            m.setattr(cuspfol.gluing, "_a2_keys", lambda order: _a2_keys(order) + [(0, 1)])
            with pytest.raises(AssertionError, match="failed its re-check"):
                coboundary_solve(sig, alpha0, ks_generator(n), order=n)


def binomial_block(d):
    """B_d = [C(i+1, p)]: the rows p = 0..(d-1)//3 of the free rows of degree
    d against the T monomials x^i y^j of valuation i + j + 1 = d, i falling
    as in ``_t_keys``."""
    points = [i + 1 for i in range(d - 1, -1, -1) if i > d - 1 - i]
    return [[math.comb(m, p) for m in points] for p in range((d - 1) // 3 + 1)]


def test_binomial_blocks_have_full_row_rank():
    # C(X, p), p < r, are a basis of the polynomials of degree < r, and B_d
    # evaluates them at d//2 >= r distinct points
    for d in range(2, 65):
        block = binomial_block(d)
        assert len(block[0]) == d // 2 >= len(block)
        assert matrix_rank(block) == len(block), d


def test_diagonal_blocks_are_scaled_binomial_blocks():
    # G_d, the free rows of degree d against the T columns of valuation d,
    # built from the linear parts of the order-1 maps, is diag(s^(d-p)) B_d
    # with s = sigma'(0): the gluing unit 1 + alpha*y1 has A0(0,0) = 1
    rng = random.Random(0x81)
    for n in range(2, 25):
        sig = seeded_sigma(rng, n, n % 2 == 0)
        alpha, s = gaussian_coeff(rng), sig.coeff(1)
        lin = [
            oracles.homogeneous_part(g, 1).with_order(n)
            for g in build_cocycle(sig, alpha).as_map(1)
        ]
        blocks = {}
        for (i, j), col in zip(_t_keys(n), _t_columns(lin, n)):
            blocks.setdefault(i + j + 1, []).append(col)
        assert sorted(blocks) == list(range(2, n + 1))
        for d, cols in blocks.items():
            rows = [(p, d - p) for p in range((d - 1) // 3 + 1)]
            got = [[Coeff.from_triple(t) for t in row] for row in _rows_on(rows, cols)]
            want = [
                [s ** (d - p) * Coeff(c) for c in row]
                for p, row in enumerate(binomial_block(d))
            ]
            assert got == want, (n, d)


def test_feasible_split_with_gaussian_denominators_is_solved_exactly(column_builds):
    # a target with no y1 term is never answered by the bound: it is solved
    # on the whole block and its split is verified by rebuilding the target
    rng = random.Random(0x80)
    for n in (5, 8, 12):
        sig = seeded_sigma(rng, n, n != 8)
        alpha0 = gaussian_coeff(rng)
        t_keys = [(i, j) for (i, j) in _row_keys(n - 1) if i > j]
        a2_keys = [(i, j) for (i, j) in _row_keys(n) if 2 * i >= j]
        tilde, a2 = (
            Jet2({key: gaussian_coeff(rng) for key in rng.sample(keys, 4)}, n)
            for keys in (t_keys, a2_keys)
        )
        s2 = Jet2.from_jet1(sig, "y")
        psi_x = Jet2.var_x(n) * Jet2({(0, 0): 1, (0, 1): alpha0}, n) + s2
        target = psi_x * tilde.substitute(psi_x, s2) - a2
        assert target.coeff(0, 1).is_zero()
        res = coboundary_solve(sig, alpha0, VectorFieldJet(target), order=n)
        assert res.feasible
        assert _split_of(res) == _full_block_split(sig, alpha0, target, n)
        rebuilt = psi_x * res.tilde.substitute(psi_x, s2) - res.field_second.coefficient
        assert rebuilt == target
        assert not Model.F2.violations(res.field_second.coefficient)
    assert column_builds == [5, 8, 12]


def test_every_target_with_no_y1_term_splits():
    # the rank lemma puts every target with no y1 term in the image: random
    # monomials on every other row, not built from a split, are split
    # exactly, the remainder is a field on the second model and the split
    # rebuilds the target
    rng = random.Random(0x83)
    for n in range(1, 17):
        for dense in (False, True):
            sig = seeded_sigma(rng, n, dense)
            alpha0 = gaussian_coeff(rng)
            keys = [key for key in _row_keys(n) if key != (0, 1)]
            picked = keys if dense else rng.sample(keys, min(len(keys), 6))
            target = Jet2({key: gaussian_coeff(rng) for key in picked}, n)
            res = coboundary_solve(sig, alpha0, VectorFieldJet(target), order=n)
            assert res.feasible, n
            assert res.rank == len(_row_keys(n)) - 1
            assert not Model.F2.violations(res.field_second.coefficient)
            psi_x, s2 = build_cocycle(sig, alpha0).as_map(n)
            rebuilt = psi_x * res.tilde.substitute(psi_x, s2) - res.field_second.coefficient
            assert rebuilt == target, n


def test_an_infeasible_y1_free_split_is_a_fault(monkeypatch):
    # elimination that contradicts the rank lemma is a fault of the library,
    # not a verdict
    import cuspfol.gluing

    monkeypatch.setattr(
        cuspfol.gluing, "solve", lambda rows, rhs: SolveResult(False, len(rows) - 1)
    )
    sig = seeded_sigma(random.Random(0x84), 6, True)
    target = Jet2({(1, 0): Coeff(1), (0, 2): Coeff(2)}, 6)
    with pytest.raises(AssertionError, match="rank lemma"):
        coboundary_solve(sig, Coeff(1), VectorFieldJet(target), order=6)
