"""Corner germ first integrals and the transversal structure sigma."""

import random
from fractions import Fraction

import pytest

from cuspfol import _backend, transversal
from cuspfol.coeff import Coeff
from cuspfol.forms import OneForm, form_of_meromorphic, pullback_map, reduce_cusp
from cuspfol.jets import Jet1, Jet2, JetError
from cuspfol.moduli import schwarzian
from cuspfol.normalform import NormalFormData, reconstruct_normal_form
from cuspfol.parsing import MeromorphicPair, parse_form
from cuspfol.transversal import (
    CornerGerm,
    regular_first_integral,
    sigma_of_integral,
    transversal_structure,
)

import oracles
from test_forms import cusp_family_form, cusp_form

RNG = random.Random(0xD1D2)


def corner(a_dict, b_dict, order=12):
    return CornerGerm(
        OneForm(Jet2(a_dict, order), Jet2(b_dict, order), ("u", "v"))
    )


def test_constant_coefficient_integral():
    c = corner({(0, 0): 1}, {(0, 0): 1})
    h = regular_first_integral(c)
    assert h == Jet2({(1, 0): 1, (0, 1): 1}, 12)
    assert transversal_structure(c) == Jet1.variable(12)


def test_invalid_corner_germ_rejected():
    # dv alone is not transverse to the u-axis
    try:
        corner({}, {(0, 0): 1})
        assert False, "dv must be rejected"
    except ValueError:
        pass
    try:
        corner({(0, 0): 1}, {(1, 0): 1})
        assert False, "du + u dv must be rejected"
    except ValueError:
        pass


def test_unit_series_integral_frozen():
    # (1+v) du + dv  ->  H = u + log(1+v), sigma = exp(z) - 1
    c = corner({(0, 0): 1, (0, 1): 1}, {(0, 0): 1})
    h = regular_first_integral(c)
    for k in range(1, 13):
        expect = Coeff(Fraction((-1) ** (k + 1), k))
        assert h.coeff(0, k) == expect
    assert h.restrict_to_axis("x") == Jet1.variable(12)
    sig = transversal_structure(c)
    fact = 1
    for k in range(1, 13):
        fact *= k
        assert sig.coeff(k) == Coeff(Fraction(1, fact))


def test_sigma_scaling_form():
    # du + 2 dv: levels u + 2v, so v = sigma(u) = u/2
    c = corner({(0, 0): 1}, {(0, 0): 2})
    sig = transversal_structure(c)
    assert sig == Jet1.variable(12) * Coeff(Fraction(1, 2))


def test_cusp_corner_sigma_identity():
    rep = reduce_cusp(cusp_form())
    c = CornerGerm.from_reduction(rep)
    assert c.form.variables == ("u", "v")
    sig = transversal_structure(c, order=10)
    assert sig == Jet1.variable(10)


def test_family_corner_sigma_homographic():
    for z in (1, 2):
        rep = reduce_cusp(cusp_family_form(z))
        c = CornerGerm.from_reduction(rep)
        sig = transversal_structure(c, order=10)
        assert schwarzian(sig).is_zero()


def rand_unit_jet(order, degree=2, rng=RNG):
    d = {(0, 0): Coeff(rng.choice([1, 2, -3]), rng.randint(-1, 1))}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if (i, j) != (0, 0) and rng.random() < 0.6:
                d[(i, j)] = Coeff(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
    return Jet2(d, order)


def test_random_germ_integral_and_reparametrization():
    for _ in range(4):
        c = CornerGerm(
            OneForm(rand_unit_jet(10), rand_unit_jet(10), ("u", "v"))
        )
        h = regular_first_integral(c)
        sig = sigma_of_integral(h)
        # sigma is independent of the choice of first integral
        h2 = h + h * h
        sig2 = sigma_of_integral(h2)
        assert sig2 == sig
        # and of multiplying the form by a unit (same foliation)
        unit = Jet2({(0, 0): 1, (1, 0): 1, (0, 1): -1}, 10)
        cu = CornerGerm(oracles.form_scale(c.form, unit))
        assert transversal_structure(cu) == sig


def test_sigma_naturality_under_axis_scaling():
    c = corner({(0, 0): 1, (0, 1): 1, (1, 1): 2}, {(0, 0): 3, (1, 0): 1})
    sig = transversal_structure(c)
    av, bv = Coeff(2), Coeff(Fraction(1, 3))
    # pull the chart back through (u, v) -> (a*u, b*v)
    n = c.form.order
    fu = Jet2.monomial(1, 0, av, n)
    fv = Jet2.monomial(0, 1, bv, n)
    a_new = c.form.a.substitute(fu, fv) * av
    b_new = c.form.b.substitute(fu, fv) * bv
    cs = CornerGerm(OneForm(a_new, b_new, ("u", "v")))
    sig_s = transversal_structure(cs)
    # sigma transforms by conjugation with the axis scalings
    conj = (sig.compose(Jet1.variable(n) * av)) * (Coeff(1) / bv)
    assert sig_s == conj


README_MERO = "mero:(y^2+x^3)/(x*y)"
ROADMAP_MERO = "mero:(y^2+x^3+x^2*y)/(x*y+x^3)"
SINH = "(-y^3 + 2*x^3*y + x^4*y) dx + (x*y^2 - x^4) dy"


def corner_of(text, order):
    parsed = parse_form(text, order)
    if isinstance(parsed, MeromorphicPair):
        parsed = parse_form(text, order + 1)
        parsed = form_of_meromorphic(parsed.num, parsed.den)
    return CornerGerm.from_reduction(reduce_cusp(parsed))


def test_first_integral_matches_full_residual_oracle():
    germs = [corner_of(text, 8) for text in (README_MERO, ROADMAP_MERO, SINH)]
    rng = random.Random(0xF1)
    for _ in range(4):
        a, b = rand_unit_jet(9, 4, rng), rand_unit_jet(9, 4, rng)
        germs.append(CornerGerm(OneForm(a, b, ("u", "v"))))
    for c in germs:
        n = c.order
        h = regular_first_integral(c)
        want = oracles.first_integral_full_residual(
            oracles.jet2_pairs(c.form.a), oracles.jet2_pairs(c.form.b), n
        )
        assert h.order == n
        assert oracles.jet2_pairs(h) == want
        # the normalization: H(0, 0) = 0 and H(u, 0) = u
        assert h.coeff(0, 0).is_zero()
        assert h.restrict_to_axis("x") == Jet1.variable(n)


def seeded_template(rng, order):
    """A cusp-type template with seeded Gaussian alpha, a and tail."""

    def coeff():
        return Coeff(rng.randint(-3, 3), rng.randint(-2, 2))

    alpha = coeff()
    while alpha.is_zero():
        alpha = coeff()
    tail = {}
    for m in range(5, order + 1):
        t = [coeff() if rng.random() < 0.4 else Coeff(0) for _ in range(4)]
        if m == 5:
            t[0] = Coeff(0)  # a_5 = 0, or the form is not of cusp type
        tail[m] = tuple(t)
    data = NormalFormData(order=order, alpha=alpha, a=coeff(), tail=tail)
    return reconstruct_normal_form(data)


def test_sigma_at_a_lower_order_is_the_truncation():
    # sigma mod z^(n+1) reads only corner data of degree < n, so solving the
    # first integral at order n gives the full sigma truncated to n
    germs = [corner_of(text, 8) for text in (README_MERO, ROADMAP_MERO, SINH)]
    rng = random.Random(0x51C)
    for _ in range(3):
        germs.append(CornerGerm.from_reduction(reduce_cusp(seeded_template(rng, 8))))
    for c in germs:
        assert c.order >= 16
        full = transversal_structure(c)
        assert full.order == c.order
        for n in range(5, 17):
            sig = transversal_structure(c, n)
            assert sig.order == n
            assert sig == full.truncate(n)


def test_sigma_takes_no_series_reversion(monkeypatch):
    # the corner first integral is normalized on D1, H(0, v) = v, so sigma
    # is H(u, 0) as it stands: the sigma subcommand reverts no series
    from test_cli import run_cli

    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("sigma reverted a series")

    monkeypatch.setattr(Jet1, "comp_inverse", refuse)
    for text, verdict in ((README_MERO, "Identity"), (SINH, "NonIdentity")):
        code, out = run_cli("sigma", text, "--order", "64")
        assert code == 0
        assert f"verdict: {verdict}" in out
    assert calls == []


def plain_or_moved_template(rng, order):
    """A seeded template, moved by x + p, y + q with p and q seeded of
    degrees 2 and 3 on about half of the draws."""
    w = seeded_template(rng, order)
    if rng.random() < 0.5:
        return w

    def part():
        return Jet2(
            {(i, e - i): Coeff(rng.randint(-3, 3), rng.randint(-2, 2)) for e in (2, 3) for i in range(e + 1)},
            order,
        )

    return pullback_map(w, Jet2.var_x(order) + part(), Jet2.var_y(order) + part(), order=order)


def test_sigma_off_d1_equals_the_reversion_route(monkeypatch):
    """sigma read off the integral normalized on D1 equals sigma through the
    reversion of the integral normalized on D2, g2^{-1} with g2 = H(0, .):
    at every order 5 to 32 on the corner germs of the README, ROADMAP and
    SINH forms, and at two orders each on those of 24 seeded templates,
    plain and moved, so that each order 5 to 32 is met.  The integral sigma
    is read off satisfies H(0, v) = v and dH ^ w = 0."""
    integrals = []
    read_off = transversal.sigma_of_integral

    def recording(h):
        integrals.append(h)
        return read_off(h)

    monkeypatch.setattr(transversal, "sigma_of_integral", recording)
    rng = random.Random(0xD1)
    germs = [(corner_of(text, 10), range(5, 33)) for text in (README_MERO, ROADMAP_MERO, SINH)]
    for k in range(24):
        w = plain_or_moved_template(rng, 10)
        germs.append((CornerGerm.from_reduction(reduce_cusp(w)), (5 + k, 32 - k)))
    for c, orders in germs:
        assert c.order >= 32
        for n in orders:
            integrals.clear()
            sig = transversal_structure(c, n)
            [h] = integrals
            assert h.order == n
            assert h.restrict_to_axis("y") == Jet1.variable(n)
            a, b = (dict(f.truncate(n).triple_items()) for f in (c.form.a, c.form.b))
            assert _backend.is_first_integral(dict(h.triple_items()), a, b, n)
            assert sig == read_off(regular_first_integral(c, n))


def test_constant_germ_integral_normalizes_linearly_often(monkeypatch):
    # the degree recurrence skips every coefficient whose predecessor and
    # residual are both zero: on a constant-coefficient germ H is
    # u + (b0/a0) v, and the qnorm count does not grow with the order
    from cuspfol import _backend

    calls = []
    qnorm = _backend.qnorm

    def counting_qnorm(*args):
        calls.append(None)
        return qnorm(*args)

    monkeypatch.setattr(_backend, "qnorm", counting_qnorm)
    counts = []
    for n in (16, 32, 64):
        c = corner({(0, 0): Coeff(2, 1)}, {(0, 0): 3}, n)
        before = len(calls)
        h = regular_first_integral(c)
        counts.append(len(calls) - before)
        assert h == Jet2({(1, 0): 1, (0, 1): Coeff(Fraction(6, 5), Fraction(-3, 5))}, n)
    assert counts[2] <= 2 * counts[1] <= 4 * counts[0]
    assert counts[2] <= 64


def test_integer_recheck_agrees_with_the_wedge(monkeypatch):
    """The re-check of H reads H_u B - H_v A in one integer pass; it agrees
    with dH ^ w built from ``Jet2`` products (``oracles.wedge``) on the
    first integrals of seeded corner germs, true and with one coefficient
    moved, and orders 1 to n.  A wrong H from the solver is refused with
    the re-check's message."""
    rng = random.Random(0x4EC)
    germs = [corner_of(text, 8) for text in (README_MERO, SINH)]
    for _ in range(4):
        a, b = rand_unit_jet(9, 4, rng), rand_unit_jet(9, 4, rng)
        germs.append(CornerGerm(OneForm(a, b, ("u", "v"))))
    checked = {True: 0, False: 0}
    for c in germs:
        w = c.form
        for n in (1, 2, w.order // 2, w.order):
            h = regular_first_integral(c, n)
            i = rng.randint(0, n - 1)
            moved = h + Jet2.monomial(i, n - i, Coeff(rng.choice([1, -2]), rng.choice([0, 3])), n)
            for jet in (h, moved):
                a, b = w.a.truncate(n), w.b.truncate(n)
                dh = oracles.differential(jet, w.variables)
                want = oracles.wedge(dh, oracles.form_at_order(OneForm(a, b, w.variables), n - 1)).is_zero()
                got = _backend.is_first_integral(
                    *(dict(f.triple_items()) for f in (jet, a, b)), n
                )
                assert got == want
                checked[got] += 1
    assert checked[True] == checked[False] == 4 * len(germs)

    def wrong(a, b, n):
        h = _backend.first_integral(a, b, n)
        h[(1, n - 1)] = (1, 0, 1) if h.get((1, n - 1)) != (1, 0, 1) else (2, 0, 1)
        return h

    with pytest.raises(JetError, match="order-0"):
        regular_first_integral(germs[0], 0)  # dH has no order to be read at
    monkeypatch.setattr(transversal, "first_integral", wrong)
    with pytest.raises(AssertionError, match=r"^first integral failed the dH \^ w = 0 re-check$"):
        regular_first_integral(germs[0])
