"""Geometry tests: 1-forms, blow-ups, cusp reduction."""

import random
import re
from fractions import Fraction

import pytest

from cuspfol import _backend
from cuspfol.cli import _as_oneform
from cuspfol.coeff import Coeff
from cuspfol.forms import (
    OneForm,
    ReductionVerdict,
    exceptional_divide,
    form_of_meromorphic,
    linear_change,
    pullback_blowup,
    pullback_map,
    radial_tangency,
    reduce_cusp,
)
from cuspfol.jets import Jet1, Jet2, JetError
from cuspfol.normalform import NormalFormData, reconstruct_normal_form

import oracles
from oracles import form_at_order, form_scale, form_sum, homogeneous_part, radial_form, wedge
from test_cli import raw_mero

RNG = random.Random(0x5EED5)


def j2(d, order=16):
    return Jet2(d, order)


def cusp_form(order=16):
    """den*d(num) - num*d(den) for num = y^2+x^3, den = xy."""
    num = j2({(0, 2): 1, (3, 0): 1}, order)
    den = j2({(1, 1): 1}, order)
    return form_of_meromorphic(num, den)


def cusp_family_form(z, order=16):
    """Same for num = y^2 + x^3 + z*x^2*y."""
    num = j2({(0, 2): 1, (3, 0): 1, (2, 1): z}, order)
    den = j2({(1, 1): 1}, order)
    return form_of_meromorphic(num, den)


def rand_coeff():
    return Coeff(RNG.randint(-3, 3)) + Coeff(0, RNG.randint(-2, 2))


def rand_poly_form(deg, order):
    a = {}
    b = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            if RNG.random() < 0.5:
                a[(i, j)] = rand_coeff()
            if RNG.random() < 0.5:
                b[(i, j)] = rand_coeff()
    return OneForm(j2(a, order), j2(b, order))


# (fx, fy) of the blow-up substitution in each chart, as oracle polynomials
BLOWUP_MAPS = {
    "x": ({(1, 0): oracles.ONE}, {(1, 1): oracles.ONE}),
    "y": ({(1, 1): oracles.ONE}, {(0, 1): oracles.ONE}),
}


def jet_of_pairs(pairs, order):
    return Jet2({k: Coeff(re, im) for k, (re, im) in pairs.items()}, order)


def dense_form(order):
    def jet():
        return j2({(i, d - i): rand_coeff() for d in range(order + 1) for i in range(d + 1)}, order)

    return OneForm(jet(), jet())


# --- construction -----------------------------------------------------------


def test_form_of_meromorphic_cusp():
    w = cusp_form()
    assert w.a == j2({(3, 1): 2, (0, 3): -1}, 15)
    assert w.b == j2({(1, 2): 1, (4, 0): -1}, 15)


def test_form_of_meromorphic_exact_and_product():
    w = form_of_meromorphic(Jet2.var_x(8), Jet2.one(8))
    assert w.a == Jet2.one(7) and w.b.is_zero()
    w2 = form_of_meromorphic(j2({(1, 1): 1}, 8), Jet2.one(8))
    assert w2.a == Jet2.var_y(7) and w2.b == Jet2.var_x(7)


def test_form_of_meromorphic_refuses_cross_products_past_the_bit_budget():
    # magnitudes 2^40000 and 2^25537 + 1 multiply past 2^65536; one bit less
    # in the second passes
    num = j2({(0, 2): 2**40000 - 1, (3, 0): 1}, 8)
    with pytest.raises(ValueError, match="may need 65538 bits; at most 65536 are allowed"):
        form_of_meromorphic(num, j2({(1, 1): 2**25537}, 8))
    w = form_of_meromorphic(num, j2({(1, 1): 2**25535}, 8))
    assert w.a.coeff(0, 3) == -(2**40000 - 1) * 2**25535


# --- valuation and radial tangency ------------------------------------------


def test_valuation_examples():
    assert cusp_form().valuation() == 3
    dx = OneForm(Jet2.one(10), Jet2.zero(10))
    assert dx.valuation() == 0
    y2wr = form_scale(radial_form(10), j2({(0, 2): 1}, 10))
    assert y2wr.valuation() == 3


def test_radial_tangency_examples():
    p = radial_tangency(cusp_form(), 3)
    assert p == j2({(0, 2): 1}, 14)
    dx = OneForm(Jet2.one(10), Jet2.zero(10))
    assert radial_tangency(dx, 0) is None
    p1 = radial_tangency(radial_form(10), 1)
    assert p1 == Jet2.one(9)


def test_radial_tangency_cofactor_reconstructs():
    # P*(x dy - y dx) for random homogeneous P is recovered exactly.
    for deg in (0, 1, 2, 3):
        pd = {
            (i, deg - i): rand_coeff() + Coeff(1)
            for i in range(deg + 1)
        }
        p = j2(pd, 12)
        w = form_scale(radial_form(12), p)
        got = radial_tangency(w, deg + 1)
        assert got is not None
        assert got.truncate(10) == p.truncate(10)


def test_radial_tangency_cofactor_at_order_below():
    # P*(x dy - y dx) = A_d dx + B_d dy exactly, up to the top degree d = n
    n = 7
    for d in range(1, n + 1):
        p = {(i, d - 1 - i): rand_coeff() + Coeff(0, 3) for i in range(d)}
        other = dense_form(n)
        w = form_sum(
            form_scale(radial_form(n), j2(p, n)),
            other,
            form_scale(OneForm(homogeneous_part(other.a, d), homogeneous_part(other.b, d)), -1),
        )
        got = radial_tangency(w, d)
        assert got.order == n - 1
        pairs = oracles.jet2_pairs(got)
        assert pairs == {k: oracles.pair_of_coeff(c) for k, c in p.items()}
        assert oracles.p2_mul(pairs, {(0, 1): oracles.from_int(-1)}) == oracles.jet2_pairs(
            homogeneous_part(w.a, d)
        )
        assert oracles.p2_mul(pairs, {(1, 0): oracles.ONE}) == oracles.jet2_pairs(
            homogeneous_part(w.b, d)
        )


def test_radial_tangency_none_off_the_identity():
    n = 6
    for d in range(n + 1):
        w = dense_form(n)
        ad, bd = (oracles.jet2_pairs(homogeneous_part(jet, d)) for jet in (w.a, w.b))
        identity = oracles.p2_add(
            oracles.p2_mul(ad, {(1, 0): oracles.ONE}), oracles.p2_mul(bd, {(0, 1): oracles.ONE})
        )
        assert identity
        assert radial_tangency(w, d) is None


# --- blow-up pullbacks ------------------------------------------------------


def test_pullback_blowup_cusp_xchart():
    raw = pullback_blowup(cusp_form(), "x")
    # x^4 * (t dx + (t^2 - x) dt)
    assert raw.variables == ("x", "t")
    assert raw.a == j2({(4, 1): 1}, 31)
    assert raw.b == j2({(4, 2): 1, (5, 0): -1}, 31)


def test_pullback_blowup_trivial_and_radial():
    dx = OneForm(Jet2.one(6), Jet2.zero(6))
    raw = pullback_blowup(dx, "x")
    assert raw.a == Jet2.one(13) and raw.b.is_zero()
    rawr = pullback_blowup(radial_form(6), "x")
    assert rawr.a.is_zero()
    assert rawr.b == j2({(2, 0): 1}, 13)


def test_pullback_blowup_ychart_radial():
    rawr = pullback_blowup(radial_form(6), "y")
    assert rawr.variables == ("s", "y")
    assert rawr.a == j2({(0, 2): -1}, 13)
    assert rawr.b.is_zero()


def test_pullback_blowup_matches_substitution_oracle():
    # A dx + B dy under (x, y) = (fx, fy) is A(f) dx + B(f) dy with
    # dy = t dx + x dt in chart "x" and dx = y ds + s dy in chart "y"
    x, y = {(1, 0): oracles.ONE}, {(0, 1): oracles.ONE}
    for order in range(9):
        for chart in ("x", "y"):
            w = dense_form(order)
            out = 2 * order + 1
            fx, fy = BLOWUP_MAPS[chart]
            a = oracles.p2_substitute(oracles.jet2_pairs(w.a), fx, fy, out)
            b = oracles.p2_substitute(oracles.jet2_pairs(w.b), fx, fy, out)
            if chart == "x":
                want = (oracles.p2_add(a, oracles.p2_mul(b, y)), oracles.p2_mul(b, x))
            else:
                want = (oracles.p2_mul(a, y), oracles.p2_add(oracles.p2_mul(a, x), b))
            got = pullback_blowup(w, chart)
            assert got.order == out
            assert (oracles.jet2_pairs(got.a), oracles.jet2_pairs(got.b)) == want


def test_pullback_blowup_substitutes_nothing(monkeypatch):
    calls = []
    substitute = Jet2.substitute

    def counted(self, fx, fy):
        calls.append(self.order)
        return substitute(self, fx, fy)

    monkeypatch.setattr(Jet2, "substitute", counted)
    for chart in ("x", "y"):
        pullback_blowup(dense_form(6), chart)
    assert calls == []
    # the counter does see a substitution
    w = dense_form(2)
    w.a.substitute(Jet2.var_x(2), Jet2.var_x(2) + Jet2.var_y(2))
    assert calls == [2]


def test_exceptional_divide_examples():
    raw = pullback_blowup(cusp_form(), "x")
    w1, k = exceptional_divide(raw, "x")
    assert k == 4
    assert w1.a == j2({(0, 1): 1}, 27)
    assert w1.b == j2({(0, 2): 1, (1, 0): -1}, 27)
    dx = OneForm(Jet2.one(6), Jet2.zero(6))
    same, k0 = exceptional_divide(dx, "x")
    assert k0 == 0 and same == dx
    x2dt = OneForm(Jet2.zero(8), j2({(2, 0): 1}, 8), ("x", "t"))
    dt, k2 = exceptional_divide(x2dt, "x")
    assert k2 == 2 and dt.b == Jet2.one(6) and dt.a.is_zero()


# --- the reduction ----------------------------------------------------------


def test_reduce_cusp_standard_example():
    rep = reduce_cusp(cusp_form())
    assert rep.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL
    assert bool(rep)
    assert rep.is_valuation_3
    assert rep.p2_coefficient == Coeff(1)
    assert rep.exceptional_power_1 == 4
    assert rep.exceptional_power_2 == 2
    assert rep.singular_points_on_D2 == [(Coeff(0), 2)]
    assert rep.corner_regular
    assert rep.transverse_to_D1 and rep.transverse_to_D2
    # second chart form is exactly dxi + dt
    w2 = rep.second_chart_form
    assert w2.variables == ("xi", "t")
    assert w2.a == Jet2.one(w2.order)
    assert w2.b == Jet2.one(w2.order)


def test_reduce_cusp_family_members():
    for z in (1, 2, Coeff(0, 1)):
        rep = reduce_cusp(cusp_family_form(z))
        assert rep.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL


def test_reduce_radial_form_wrong_tree():
    rep = reduce_cusp(radial_form(12))
    assert rep.verdict is ReductionVerdict.WRONG_REDUCTION_TREE
    assert not rep.is_valuation_3
    assert not bool(rep)


def test_reduce_non_radial_cubic_not_dicritical():
    # valuation 3 but the cubic part is not tangent to the radial field
    w = OneForm(j2({(3, 0): 1}, 12), Jet2.zero(12))
    rep = reduce_cusp(w)
    assert rep.verdict is ReductionVerdict.NOT_DICRITICAL


def test_reduce_two_directions_wrong_tree():
    # P = x*y has two distinct double... two distinct simple directions
    p = j2({(1, 1): 1}, 12)
    w = form_scale(radial_form(12), p)
    rep = reduce_cusp(w)
    assert rep.verdict is ReductionVerdict.WRONG_REDUCTION_TREE


def test_reduce_pure_cone_wrong_tree():
    # y^2 * radial alone: after one blow-up the tangency point is too
    # degenerate (no degree-4 terms feed its linear part).
    w = form_scale(radial_form(12), j2({(0, 2): 1}, 12))
    rep = reduce_cusp(w)
    assert rep.verdict is ReductionVerdict.WRONG_REDUCTION_TREE
    assert rep.reason == "tangency point has multiplicity >= 2 after the first blow-up"


def test_reduce_sheared_input_recovered():
    # shear the standard example away from its normal position; the
    # automatic linear change must bring it back.
    w = cusp_form()
    sheared = linear_change(w, ((1, 0), (2, 1)))
    rep = reduce_cusp(sheared)
    assert rep.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL


def test_reduce_swapped_axes_recovered():
    w = cusp_form()
    swapped = linear_change(w, ((0, 1), (1, 0)))
    rep = reduce_cusp(swapped)
    assert rep.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL


def test_reduce_low_order_inconclusive():
    w = form_at_order(cusp_form(), 4)
    rep = reduce_cusp(w)
    assert rep.verdict is ReductionVerdict.INCONCLUSIVE
    assert rep.order == 4


def test_reduce_zero_form_inconclusive():
    w = OneForm(Jet2.zero(8), Jet2.zero(8))
    assert reduce_cusp(w).verdict is ReductionVerdict.INCONCLUSIVE


def test_reduce_linear_invariance():
    # verdicts are invariant under exact invertible linear substitutions
    samples = [
        (cusp_form(), ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL),
        (radial_form(12), ReductionVerdict.WRONG_REDUCTION_TREE),
        (
            OneForm(j2({(3, 0): 1}, 12), Jet2.zero(12)),
            ReductionVerdict.NOT_DICRITICAL,
        ),
    ]
    for _ in range(4):
        while True:
            m = ((rand_coeff(), rand_coeff()), (rand_coeff(), rand_coeff()))
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            if not det.is_zero():
                break
        for w, verdict in samples:
            assert reduce_cusp(linear_change(w, m)).verdict is verdict


def test_section_relations_on_accepted_inputs():
    # coefficient identities forced by the reduction on cusp-type forms
    for w in (cusp_form(), cusp_family_form(1), cusp_family_form(2)):
        assert w.a.coeff(4, 0).is_zero()
        assert w.a.coeff(5, 0).is_zero()
        assert (w.a.coeff(3, 1) + 2 * w.b.coeff(4, 0)).is_zero()


def test_normal_form_witness_reduces():
    # y^2*w_R + x^3(x dy - 2y dx) + x^3 y dy, an alpha=1, a=1 member of
    # the degree-by-degree normal family.
    a = j2({(0, 3): -1, (3, 1): -2}, 14)
    b = j2({(1, 2): 1, (4, 0): 1, (3, 1): 1}, 14)
    rep = reduce_cusp(OneForm(a, b))
    assert rep.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL
    w2 = rep.second_chart_form
    assert w2.a.coeff(0, 0) == Coeff(-1)
    assert w2.b.coeff(0, 0) == Coeff(1)


def test_reduce_regular_tangency_point_wrong_tree():
    # A[x^4] != 0: the tangency point on D2 is a regular point
    w = form_sum(cusp_form(), OneForm(Jet2.monomial(4, 0, 1, 15), Jet2.zero(15)))
    rep = reduce_cusp(w)
    assert rep.verdict is ReductionVerdict.WRONG_REDUCTION_TREE
    assert rep.reason == "tangency point on D2 is a regular point of the transformed foliation"


def test_reduce_non_radial_linear_part_not_dicritical():
    # A[x^5] != 0: the linear part at the tangency point is not radial
    w = form_sum(cusp_form(), OneForm(Jet2.monomial(5, 0, 1, 15), Jet2.zero(15)))
    rep = reduce_cusp(w)
    assert rep.verdict is ReductionVerdict.NOT_DICRITICAL
    assert rep.reason == (
        "second blow-up is not dicritical: linear part at the tangency point is not radial"
    )


def _five_jet_verdict(w):
    """The verdict the lemma reads off a cone a*y^2*(x dy - y dx) in normal
    position: cusp type exactly when A[x^4] = A[x^5] = 0 and
    A[x^3 y] = -2 B[x^4] != 0."""
    a4, a5, a31, b4 = w.a.coeff(4, 0), w.a.coeff(5, 0), w.a.coeff(3, 1), w.b.coeff(4, 0)
    c = a31 + b4
    if not a4.is_zero() or (c.is_zero() and a5.is_zero() and b4.is_zero()):
        return ReductionVerdict.WRONG_REDUCTION_TREE
    if not a5.is_zero() or a31 != -2 * b4 or b4.is_zero():
        return ReductionVerdict.NOT_DICRITICAL
    return ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL


def _constant_on_axis(w, divisor_var):
    """The transversal coefficient of w on {divisor_var = 0}, if constant."""
    first = divisor_var == w.variables[0]
    r = (w.b if first else w.a).restrict_to_axis("y" if first else "x")
    c = r.coeff(0)
    return c if not c.is_zero() and r == Jet1([c], r.order) else None


def _cone_draw(rng, order):
    """y^2*(x dy - y dx) plus random degree-4..9 terms with the 5-jet
    relations forced, one or two broken again on some draws, moved by a
    random invertible linear map and, on some draws, multiplied by a unit."""

    def small():
        return Coeff(rng.randint(-3, 3), rng.randint(-1, 1))

    top = rng.randint(4, 9)
    a = {(0, 3): Coeff(-1)}
    b = {(1, 2): Coeff(1)}
    for d in range(4, top + 1):
        for i in range(d + 1):
            if rng.random() < 0.4:
                a[(i, d - i)] = small()
            if rng.random() < 0.4:
                b[(i, d - i)] = small()
    b4 = Coeff(rng.choice((-2, -1, 1, 3)), rng.randint(-1, 1))
    a.update({(4, 0): Coeff(0), (5, 0): Coeff(0), (3, 1): -2 * b4})
    b[(4, 0)] = b4
    for broken in rng.sample(("b4", (4, 0), (5, 0), (3, 1)), rng.choice((0, 0, 1, 2))):
        if broken == "b4":
            a[(3, 1)] = b[(4, 0)] = Coeff(0)
        else:
            a[broken] += Coeff(rng.choice((-1, 1, 2)), rng.randint(-1, 1))
    w = OneForm(j2(a, order), j2(b, order))
    while True:
        m = ((small(), small()), (small(), small()))
        if not (m[0][0] * m[1][1] - m[0][1] * m[1][0]).is_zero():
            break
    w = linear_change(w, m)
    if rng.random() < 0.3:
        w = form_scale(w, j2({(0, 0): Coeff(rng.choice((1, -2)), 1), (1, 0): small(), (0, 2): small()}, order))
    return w


def test_reduction_lemma_on_moved_cones():
    # The verdict on a cone a*y^2*(x dy - y dx) reads the 5-jet only, and on
    # every accepted draw the charts reduce_cusp no longer builds show what
    # the lemma says: constant nonzero restrictions, a regular corner.
    rng = random.Random(0x1E33A)
    accepted = 0
    for _ in range(120):
        w = _cone_draw(rng, rng.randint(5, 9))
        rep = reduce_cusp(w)
        if rep.applied_linear_change is not None:
            w = linear_change(w, rep.applied_linear_change)
        assert rep.verdict is _five_jet_verdict(w), rep.reason
        if not rep:
            continue
        accepted += 1
        a = rep.p2_coefficient
        w1, k1 = exceptional_divide(pullback_blowup(w, "x", new_var="t"), "x")
        c = w1.a.coeff(0, 1)
        assert k1 == 4 and not c.is_zero()
        # s-chart of the first blow-up: the ds coefficient on the divisor is -a
        w_s, _ = exceptional_divide(pullback_blowup(w, "y", new_var="s"), "y")
        assert _constant_on_axis(w_s, "y") == -a
        # tau-chart of the second blow-up: the dtau coefficient on D1 is -c
        w_tau, _ = exceptional_divide(pullback_blowup(w1, "x", new_var="tau"), "x")
        assert _constant_on_axis(w_tau, "x") == -c
        # corner chart: transverse along D1 = {t = 0} and D2 = {xi = 0}
        w2 = rep.second_chart_form
        assert _constant_on_axis(w2, "t") == c
        assert _constant_on_axis(w2, "xi") == a
        assert not w2.a.coeff(0, 0).is_zero() and not w2.b.coeff(0, 0).is_zero()
        assert rep.corner_regular and rep.transverse_to_D1 and rep.transverse_to_D2
    assert 40 <= accepted < 120


# --- pullback/wedge property ------------------------------------------------


def test_wedge_commutes_with_blowup_pullback():
    for chart in ("x", "y"):
        for _ in range(3):
            u = rand_poly_form(2, 30)
            v = rand_poly_form(2, 30)
            pu = pullback_blowup(u, chart)
            pv = pullback_blowup(v, chart)
            lhs = wedge(pu, pv)
            uv = wedge(u, v)
            out = pu.a.order
            fx, fy = BLOWUP_MAPS[chart]
            sub = jet_of_pairs(oracles.p2_substitute(oracles.jet2_pairs(uv), fx, fy, out), out)
            jac = Jet2.var_x(out) if chart == "x" else Jet2.var_y(out)
            rhs = sub * jac
            n = out - 2
            assert lhs.truncate(n) == rhs.truncate(n)


def test_wedge_commutes_with_general_pullback():
    u = rand_poly_form(2, 24)
    v = rand_poly_form(2, 24)
    fx = j2({(1, 0): 1, (0, 2): 3}, 24)
    fy = j2({(0, 1): 1, (2, 0): -2}, 24)
    pu = pullback_map(u, fx, fy)
    pv = pullback_map(v, fx, fy)
    lhs = wedge(pu, pv)
    jac = fx.dx() * fy.dy() - fx.dy() * fy.dx()
    rhs = wedge(u, v).substitute(fx, fy) * jac
    n = 12
    assert lhs.truncate(n) == rhs.truncate(n)


def test_pullback_map_rejects_an_order_above_the_data():
    w = rand_poly_form(2, 10)
    fx = j2({(1, 0): 1, (0, 2): 3}, 10)
    fy = j2({(0, 1): 1, (2, 0): -2}, 8)
    assert pullback_map(w, fx, fy).order == 7
    assert pullback_map(w, fx, fy, order=8).order == 8
    for order in (9, 11):
        with pytest.raises(JetError):
            pullback_map(w, fx, fy, order=order)
    with pytest.raises(JetError):
        pullback_map(form_at_order(w, 6), fx, fx, order=7)


def test_pullback_map_rejects_a_target_with_a_constant_term():
    w = rand_poly_form(2, 10)
    x, y = j2({(1, 0): 1}, 10), j2({(0, 1): 1}, 10)
    moved = j2({(0, 0): 1, (1, 0): 1}, 10)
    for fx, fy in ((moved, y), (x, moved)):
        with pytest.raises(JetError, match="vanish at the origin"):
            pullback_map(w, fx, fy)


def test_exceptional_power_radial_criterion():
    # dicritical cones P*w_R of valuation v divide by exactly x^(v+1)
    for deg in (0, 1, 2):
        pd = {(i, deg - i): rand_coeff() + Coeff(1) for i in range(deg + 1)}
        p = j2(pd, 16)
        w = form_scale(radial_form(16), p)
        tail = OneForm(Jet2.monomial(deg + 3, 0, 1, 16), Jet2.zero(16))
        w = form_sum(w, tail)
        nu = deg + 1
        assert w.valuation() == nu
        _, k = exceptional_divide(pullback_blowup(w, "x"), "x")
        assert k == nu + 1
    # non-radial valuation-v forms divide by at most x^v
    for nu in (1, 2, 3):
        w = OneForm(Jet2.monomial(nu, 0, 1, 12), Jet2.zero(12))
        _, k = exceptional_divide(pullback_blowup(w, "x"), "x")
        assert k == nu


# --- pullback_map against the oracle ----------------------------------------


def mixed_jet(rng, order, low, density, den=23):
    """A seeded jet with terms of degree low..order, each kept with
    probability ``density``, and denominators drawn from 1..den."""

    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, den))

    d = {
        (i, deg - i): Coeff(part(), part())
        for deg in range(low, order + 1)
        for i in range(deg + 1)
        if rng.random() < density
    }
    return Jet2(d, order)


def assert_pullback_matches_oracle(w, fx, fy, order=None):
    got = pullback_map(w, fx, fy, order=order)
    n = got.order
    want = oracles.p2_pullback(
        oracles.jet2_pairs(w.a),
        oracles.jet2_pairs(w.b),
        oracles.jet2_pairs(fx),
        oracles.jet2_pairs(fy),
        n,
    )
    assert (oracles.jet2_pairs(got.a), oracles.jet2_pairs(got.b)) == want
    return got


def test_pullback_map_matches_the_oracle_on_tangent_changes():
    """The normalize case: id + (P, Q) with P and Q homogeneous of degree m,
    on dense forms with mixed denominators, at the top order and below."""
    rng = random.Random(0x9B)
    for order, degrees, density in ((8, range(2, 7), 0.8), (16, (2, 5), 0.4), (24, (4,), 0.2)):
        x, y = Jet2.var_x(order), Jet2.var_y(order)
        for m in degrees:
            w = OneForm(mixed_jet(rng, order, 2, density), mixed_jet(rng, order, 2, density))
            p, q = mixed_jet(rng, m, m, 0.7, 7), mixed_jet(rng, m, m, 0.7, 7)
            fx, fy = x + p.with_order(order), y + q.with_order(order)
            assert_pullback_matches_oracle(w, fx, fy, order=order)
            assert_pullback_matches_oracle(w, fx, fy, order=order - 3)


def test_pullback_map_matches_the_oracle_on_dense_maps():
    """Generic maps with mixed denominators, a zero coefficient jet, and an
    explicit order below the top order."""
    rng = random.Random(0x9C)
    for order in (8,):
        w = OneForm(mixed_jet(rng, order, 0, 0.8), mixed_jet(rng, order, 0, 0.8))
        fx, fy = mixed_jet(rng, order + 1, 1, 0.8), mixed_jet(rng, order + 1, 1, 0.8)
        assert assert_pullback_matches_oracle(w, fx, fy).order == order - 1
        assert_pullback_matches_oracle(w, fx, fy, order=order - 2)
        zero = Jet2.zero(order)
        assert_pullback_matches_oracle(OneForm(zero, w.b), fx, fy, order=order)
        assert_pullback_matches_oracle(OneForm(w.a, zero), fx, fy, order=order - 1)
        pulled = pullback_map(OneForm(zero, zero), fx, fy)
        assert pulled.a.is_zero() and pulled.b.is_zero()


def test_pullback_map_normalizes_once_per_output_coefficient(monkeypatch):
    """Both coefficients are substituted and multiplied by the Jacobian in
    integers: one qnorm per nonzero output coefficient and no product of
    normalized jets."""
    rng = random.Random(0x9D)
    order = 12
    x, y = Jet2.var_x(order), Jet2.var_y(order)
    w = OneForm(mixed_jet(rng, order, 0, 0.9), mixed_jet(rng, order, 0, 0.9))
    maps = [
        (x + mixed_jet(rng, 2, 2, 1.0).with_order(order), y + mixed_jet(rng, 2, 2, 1.0).with_order(order)),
        (mixed_jet(rng, order, 1, 0.9), mixed_jet(rng, order, 1, 0.9)),
    ]
    norms, products = [], []
    qnorm, jet2_mul = _backend.qnorm, _backend.jet2_mul

    def counted_qnorm(*args):
        norms.append(1)
        return qnorm(*args)

    def counted_mul(*args):
        products.append(1)
        return jet2_mul(*args)

    monkeypatch.setattr(_backend, "qnorm", counted_qnorm)
    monkeypatch.setattr(_backend, "jet2_mul", counted_mul)
    for fx, fy in maps:
        norms.clear()
        out = pullback_map(w, fx, fy, order=order)
        stored = len(out.a.triple_items()) + len(out.b.triple_items())
        assert len(norms) == stored > 0
    assert products == []


# --- the reduction against the reference route --------------------------------


def report_fields(rep):
    """Every field of a ReductionReport, the types of the linear change's
    entries and the moved and corner chart forms' orders, variables and
    dicts included."""
    w2 = rep.second_chart_form
    change = rep.applied_linear_change
    moved = rep.moved_form
    return {
        "order": rep.order,
        "verdict": rep.verdict,
        "reason": rep.reason,
        "is_valuation_3": rep.is_valuation_3,
        "p2_coefficient": (type(rep.p2_coefficient), rep.p2_coefficient),
        "applied_linear_change": None
        if change is None
        else [[(type(v), v) for v in row] for row in change],
        "moved_form": None
        if moved is None
        else (moved.order, moved.variables, dict(moved.a.triple_items()),
              dict(moved.b.triple_items())),
        "exceptional_power_1": rep.exceptional_power_1,
        "singular_points_on_D2": [(type(t), t, m) for t, m in rep.singular_points_on_D2],
        "tangency_at_infinity": rep.tangency_at_infinity,
        "exceptional_power_2": rep.exceptional_power_2,
        "implied": (rep.corner_regular, rep.transverse_to_D1, rep.transverse_to_D2),
        "second_chart_form": None
        if w2 is None
        else (w2.order, w2.variables, dict(w2.a.triple_items()), dict(w2.b.triple_items())),
    }


def _template_draw(rng, order):
    """A normal-form template with random alpha, a and tail, scaled by a
    constant; alpha = 0 or a nonzero a_5 on some draws."""

    def small():
        return Coeff(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-1, 1))

    tail = {m: tuple(small() for _ in range(4)) for m in range(5, order + 1)}
    if 5 in tail and rng.random() < 0.7:
        tail[5] = (Coeff(0), *tail[5][1:3], Coeff(0))
    alpha = Coeff(0) if rng.random() < 0.15 else small() or Coeff(1)
    w = reconstruct_normal_form(NormalFormData(order, alpha, small(), tail))
    return form_scale(w, small() or Coeff(0, 1))


def _tangent_change(rng, order):
    def part():
        return {(i, d - i): rand_coeff() for d in (2, 3) for i in range(d + 1) if rng.random() < 0.3}

    return (
        Jet2({(1, 0): 1, **part()}, order),
        Jet2({(0, 1): 1, **part()}, order),
    )


def _reduction_draws(rng):
    """(kind, form) pairs over every branch of reduce_cusp, at orders 3..16
    (raw ``mero:`` draws from order 4)."""
    for _ in range(6):
        for order in range(3, 17):
            if order >= 4:  # the draws reach degree 4
                yield "raw-mero", _as_oneform(raw_mero(rng), order)
            template = _template_draw(rng, order)
            yield "template", template
            yield "moved", pullback_map(template, *_tangent_change(rng, order), order=order)
            yield "swap", linear_change(template, ((0, 1), (1, 0)))
            yield "shear", linear_change(template, ((1, 0), (rand_coeff() or Coeff(1), 1)))
            yield "regular-point", form_sum(template, OneForm(
                Jet2.monomial(4, 0, rand_coeff() or Coeff(2), order), Jet2.zero(order)
            ))
            yield "cone-draw", _cone_draw(rng, order)
            yield "non-cusp", dense_form(order)
            yield "two-directions", form_scale(radial_form(order), j2({(1, 1): 1, (0, 2): rand_coeff()}, order))
            yield "not-radial", OneForm(j2({(3, 0): 1, (2, 1): rand_coeff()}, order), Jet2.zero(order))
            yield "valuation", form_scale(radial_form(order), j2({(0, 1): 1, (2, 1): 1}, order))
            yield "zero", OneForm(Jet2.zero(order), Jet2.zero(order))


def test_reduce_cusp_matches_the_reference_route():
    rng = random.Random(0xC0FFEE)
    seen = set()
    for kind, w in _reduction_draws(rng):
        rep = reduce_cusp(w)
        assert report_fields(rep) == report_fields(oracles.ref_reduce_cusp(w)), kind
        seen.add((rep.verdict, re.sub(r"\d+", "N", rep.reason)))
        if rep.applied_linear_change is not None:
            seen.add(("change", rep.applied_linear_change[0][0] == 0))
    assert ("change", True) in seen and ("change", False) in seen
    reasons = {reason for verdict, reason in seen if verdict != "change"}
    assert len(reasons) == 9, sorted(reasons)
