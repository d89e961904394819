"""Normal-form tests: the elimination operator and the degree-by-degree
reduction to the y^2-radial template."""

import random
import sys
from fractions import Fraction

import pytest

from cuspfol import _backend, forms, normalform
from cuspfol._backend import FormNumerators
from cuspfol.coeff import Coeff
from cuspfol.cli import _alpha_of_sigma, _as_oneform, _sigma_of_form
from cuspfol.forms import (
    OneForm,
    ReductionVerdict,
    linear_change,
    pullback_map,
    reduce_cusp,
)
from cuspfol.jets import Jet2
from cuspfol.linalg import matrix_rank
from cuspfol.normalform import (
    NormalFormData,
    normalize,
    reconstruct_normal_form,
    _step_change,
    _y2_rows,
)

import oracles
from oracles import (
    HomogeneousPair,
    L_apply,
    L_solve,
    _pair_basis,
    _pair_coords,
    form_at_order,
    form_scale,
)
from test_cli import MOVED, raw_mero
from test_forms import cusp_form, cusp_family_form
from test_transversal import SINH, seeded_template

RNG = random.Random(0x0F0A)


def mono(i, j, c=1, order=16):
    return Jet2.monomial(i, j, c, order)


def rand_homogeneous(n, order):
    d = {}
    for k in range(n + 1):
        c = Coeff(RNG.randint(-4, 4)) + Coeff(0, RNG.randint(-2, 2))
        if not c.is_zero():
            d[(n - k, k)] = c
    return Jet2(d, order)


# ---------------------------------------------------------------------------
# the elimination operator on homogeneous pairs


def test_operator_example():
    """L(x^2, 0) = (-2xy, -x^2)."""
    pair = HomogeneousPair(mono(2, 0, 1, 2), Jet2.zero(2), 2)
    img = L_apply(pair)
    assert img.P == mono(1, 1, -2, 2)
    assert img.Q == mono(2, 0, -1, 2)


def test_operator_rejects_low_degree():
    pair = HomogeneousPair(mono(1, 0, 1, 1), Jet2.zero(1), 1)
    try:
        L_apply(pair)
    except ValueError:
        pass
    else:
        raise AssertionError("degree 1 should be rejected")
    try:
        HomogeneousPair(mono(2, 0, 1, 2), Jet2.zero(2), 3)
    except ValueError:
        pass
    else:
        raise AssertionError("inhomogeneous pair should be rejected")


def test_operator_rank_by_parity():
    """The stated pair operator is one-to-one at odd degrees only: at each
    even degree n its kernel is spanned by x^(n/2) y^(n/2-1) * (x, y)."""
    for n in range(2, 11):
        dim = 2 * (n + 1)
        cols = []
        for p, q in _pair_basis(n, n):
            img = L_apply(HomogeneousPair(p, q, n))
            cols.append(_pair_coords(img.P, img.Q, n))
        rows = [[cols[c][r] for c in range(dim)] for r in range(dim)]
        if n % 2 == 1:
            assert matrix_rank(rows) == dim
        else:
            assert matrix_rank(rows) == dim - 1
            h = n // 2
            radial = HomogeneousPair(mono(h + 1, h - 1, 1, n), mono(h, h, 1, n), n)
            img = L_apply(radial)
            assert img.P.is_zero() and img.Q.is_zero()


def test_operator_round_trip_odd_degrees():
    for n in range(3, 10, 2):
        for _ in range(3):
            pair = HomogeneousPair(rand_homogeneous(n, n), rand_homogeneous(n, n), n)
            back = L_solve(L_apply(pair))
            assert back.P == pair.P and back.Q == pair.Q
            fwd = L_apply(L_solve(pair))
            assert fwd.P == pair.P and fwd.Q == pair.Q


def test_solve_reports_singular_even_degrees():
    for n in (2, 4):
        target = HomogeneousPair(rand_homogeneous(n, n), rand_homogeneous(n, n), n)
        try:
            L_solve(target)
        except AssertionError as e:
            assert str(n) in str(e)
        else:
            raise AssertionError("expected a singularity report")


def test_pair_space_partition():
    # monomial pairs of coefficient degree m split into the y^2-divisible
    # block and the 4 residual monomials: 2(m-1) + 4 = 2(m+1)
    for m in range(4, 11):
        y2 = _y2_rows(m)
        assert len(y2) == m - 1
        residual = [(m, 0), (m - 1, 1)]
        all_monos = [(m - j, j) for j in range(m + 1)]
        assert sorted(y2 + residual) == sorted(all_monos)
        assert 2 * len(y2) + 4 == 2 * (m + 1)


def numerators(w):
    """The form as the kernel numerators that ``_step_change`` reads."""
    return FormNumerators(dict(w.a.triple_items()), dict(w.b.triple_items()), w.order)


def test_action_matrix_matches_anchor_pullback():
    """Fed minus the y^2-part that a basis change id + (P, Q) adds to the
    anchor, pulled back exactly by the oracle, the closed-form step returns
    that basis change, for n = 2..16.  At n = 3 the oracle keeps the known
    cokernel x^3 y^2 dx (ROADMAP item 1, not fixed here) and the gauge
    column Q = x^3, which moves no y^2-divisible monomial; the step spends
    it on the x^4 y dy coefficient instead."""
    for n in range(2, 17):
        m = n + 2
        keys = _y2_rows(m)
        oracle = [[Coeff(*pair) for pair in row] for row in oracles.action_matrix_by_pullback(n)]
        dim = 2 * (n + 1)
        assert matrix_rank(oracle) == (dim - 1 if n == 3 else dim)
        for c, (p, q) in enumerate(_pair_basis(n, m)):
            col = [row[c] for row in oracle]
            if n == 3:
                assert col[0].is_zero()
                if c == n + 1:
                    assert all(e.is_zero() for e in col)
                    continue
            a = {key: -e for key, e in zip(keys, col[: n + 1])}
            b = {key: -e for key, e in zip(keys, col[n + 1 :])}
            assert _step_change(numerators(OneForm(Jet2(a, m), Jet2(b, m))), n, m) == (p, q)
    d5 = OneForm(Jet2.zero(5), mono(4, 1, Coeff(3, -1), 5))
    assert _step_change(numerators(d5), 3, 5) == (
        Jet2.zero(5),
        mono(3, 0, Coeff(Fraction(-3, 2), Fraction(1, 2)), 5),
    )


# ---------------------------------------------------------------------------
# normalize


def test_normalize_cusp_example():
    """The standard cusp differential is already in normal form."""
    data = normalize(cusp_form())
    assert data.alpha == Coeff(-1)
    assert data.a == Coeff(0)
    assert data.is_trivial_tail()
    assert data.scale == Coeff(1)
    assert data.applied_linear_change is None
    assert data.order == 15
    assert oracles.normal_form_transform(data) == (Jet2.var_x(15), Jet2.var_y(15))


def test_normalize_fixed_point():
    base = NormalFormData(order=12, alpha=Coeff(1), a=Coeff(1))
    w = reconstruct_normal_form(base)
    data = normalize(w)
    assert data.alpha == Coeff(1)
    assert data.a == Coeff(1)
    assert data.is_trivial_tail()
    assert oracles.normal_form_transform(data) == (Jet2.var_x(12), Jet2.var_y(12))


def test_normalize_idempotent():
    base = NormalFormData(
        order=12,
        alpha=Coeff(2),
        a=Coeff(-1, 1),
        tail={5: (Coeff(0), Coeff(1), Coeff(0), Coeff(0)), 7: (Coeff(2), Coeff(0), Coeff(1), Coeff(0))},
    )
    w = reconstruct_normal_form(base)
    data = normalize(w)
    assert data.alpha == base.alpha
    assert data.a == base.a
    for m in range(5, 13):
        assert data.tail[m] == base.tail.get(m, (Coeff(0),) * 4)
    assert oracles.normal_form_transform(data) == (Jet2.var_x(12), Jet2.var_y(12))


def test_normalize_cubic_gauge():
    """x^4 y dy can always be removed: the cubic change id + (0, q0 x^3)
    shifts that coefficient alone among the degree-5 coefficients, and the
    normalization spends it so the emitted tail has d_5 = 0."""
    messy = NormalFormData(
        order=12,
        alpha=Coeff(2),
        a=Coeff(-1, 1),
        tail={5: (Coeff(0), Coeff(1), Coeff(0), Coeff(-4))},
    )
    w = reconstruct_normal_form(messy)
    data = normalize(w)
    assert data.tail[5][3] == Coeff(0)
    assert data.tail[5][1] == Coeff(1)
    assert data.alpha == messy.alpha and data.a == messy.a
    # idempotence on the canonical output
    again = normalize(reconstruct_normal_form(data))
    assert again.alpha == data.alpha and again.a == data.a
    assert again.tail == data.tail
    tx, ty = oracles.normal_form_transform(data)
    assert pullback_map(w, tx, ty, order=12) == reconstruct_normal_form(data)


def test_normalize_invariant_under_tangent_changes():
    base = NormalFormData(
        order=12,
        alpha=Coeff(2),
        a=Coeff(-1, 1),
        tail={5: (Coeff(0), Coeff(1), Coeff(0), Coeff(0)), 7: (Coeff(2), Coeff(0), Coeff(1), Coeff(0))},
    )
    w = reconstruct_normal_form(base)
    for _ in range(3):
        p = rand_homogeneous(2, 12) + rand_homogeneous(3, 12)
        q = rand_homogeneous(2, 12) + rand_homogeneous(3, 12)
        moved = pullback_map(w, Jet2.var_x(12) + p, Jet2.var_y(12) + q, order=12)
        data = normalize(moved)
        assert data.alpha == base.alpha
        assert data.a == base.a
        for m in range(5, 13):
            assert data.tail[m] == base.tail.get(m, (Coeff(0),) * 4)
        # the recorded transform takes the perturbed form back to the template
        tx, ty = oracles.normal_form_transform(data)
        again = pullback_map(moved, tx, ty, order=12)
        assert again == reconstruct_normal_form(data)


def test_normalize_scalar_multiple():
    data = normalize(form_scale(cusp_form(), Coeff(3)))
    assert data.scale == Coeff(1) / Coeff(3)
    assert data.alpha == Coeff(-1)
    assert data.a == Coeff(0)
    assert data.is_trivial_tail()


def test_normalize_after_linear_change():
    swap = ((Coeff(0), Coeff(1)), (Coeff(1), Coeff(0)))
    w = linear_change(cusp_form(), swap)
    data = normalize(w)
    assert data.applied_linear_change == swap
    assert data.alpha == Coeff(-1)
    assert data.a == Coeff(0)
    assert data.is_trivial_tail()


def test_normalize_family():
    """The one-parameter cusp family lands on the template with nonzero alpha
    and an a_5-free degree-5 tail."""
    for z in (1, 2):
        data = normalize(cusp_family_form(z))
        assert not data.alpha.is_zero()
        assert data.tail[5][0] == Coeff(0)
        # the transform really conjugates: pull the (rescaled) input back
        w0 = cusp_family_form(z)
        if data.applied_linear_change is not None:
            w0 = linear_change(w0, data.applied_linear_change)
        w0 = form_scale(w0, data.scale)
        tx, ty = oracles.normal_form_transform(data)
        assert pullback_map(w0, tx, ty, order=data.order) == reconstruct_normal_form(data)


def test_normalize_rejects_non_cusp():
    w = OneForm(Jet2.zero(8), mono(0, 0, 1, 8))  # dy: regular, not cusp type
    try:
        normalize(w)
    except ValueError as e:
        assert "verdict" in str(e)
    else:
        raise AssertionError("normalize should reject a non-cusp form")


def test_transform_is_composed_once_when_read(monkeypatch):
    """Each step pulls the form back once and substitutes nothing else, the
    cubic gauge being part of the cubic step; the composite change is built
    from the recorded steps, two substitutions per step, only when the
    test composes it (``oracles.normal_form_transform``)."""
    base = NormalFormData(
        order=16,
        alpha=Coeff(2),
        a=Coeff(-1, 1),
        tail={5: (Coeff(0), Coeff(1), Coeff(0), Coeff(0)), 7: (Coeff(2), Coeff(0), Coeff(1), Coeff(0))},
    )
    p = mono(2, 0, 1) + mono(1, 1, Coeff(-2, 1)) + mono(0, 2, 3)
    q = mono(2, 0, Coeff(0, 1)) + mono(1, 1, 1) + mono(0, 2, -1)
    w0 = pullback_map(
        reconstruct_normal_form(base), Jet2.var_x(16) + p, Jet2.var_y(16) + q, order=16
    )
    assert reduce_cusp(w0).applied_linear_change is None

    calls, pullbacks = [], []
    substitute = Jet2.substitute

    def counting_substitute(self, *args, **kwargs):
        calls.append(1)
        return substitute(self, *args, **kwargs)

    pullback = FormNumerators.pullback

    def counting_pullback(*args, **kwargs):
        pullbacks.append(1)
        return pullback(*args, **kwargs)

    monkeypatch.setattr(Jet2, "substitute", counting_substitute)
    monkeypatch.setattr(FormNumerators, "pullback", counting_pullback)
    data = normalize(w0)
    # one change per degree 2..14: the cubic one also spends the x^3 gauge,
    # which this input needs (its x^4 y dy coefficient is nonzero there)
    degrees = [min(i + j for comp in change for (i, j), _ in comp.items()) for change in data.changes]
    assert degrees == list(range(2, 15))
    assert len(pullbacks) == len(data.changes)
    assert calls == []
    tx, ty = oracles.normal_form_transform(data)
    assert len(calls) == 2 * len(data.changes)
    monkeypatch.undo()

    assert data.scale == Coeff(1)
    assert pullback_map(w0, tx, ty, order=16) == reconstruct_normal_form(data)


def test_alpha_is_read_from_the_4_jet():
    """A change of degree n >= 3 moves only degrees >= n + 2, so alpha, a
    degree-4 coefficient, is fixed once the n = 2 step is done.  The 4-jet
    also answers on defect (a) draws, where the full normalization raises."""
    rng = random.Random(0xA4)
    normalized = 0
    for order in (8, 12):
        for _ in range(20):
            w = _as_oneform(raw_mero(rng), order)
            rep = reduce_cusp(w)
            if rep.verdict is not ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL:
                continue
            alpha = normalize(form_at_order(w, 4), reduction=rep).alpha
            assert not alpha.is_zero()
            try:
                full = normalize(w, reduction=rep)
            except AssertionError:
                continue  # defect (a): the degree-5 modulus is not yet data
            assert alpha == full.alpha
            normalized += 1
    assert normalized >= 5


def test_alpha_times_sigma_1_is_minus_one():
    """alpha * sigma_1 = -1, alpha the normal form's and sigma_1 the z
    coefficient of sigma, so that the CLI reads alpha off sigma: on raw
    mero: draws that normalize, on seeded templates, and on diagonal
    changes (x, y) -> (a*x, b*y) of SINH."""
    rng = random.Random(0xA5)
    forms = []
    while len(forms) < 30:
        w = _as_oneform(raw_mero(rng), 8)
        rep = reduce_cusp(w)
        if rep.verdict is not ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL:
            continue
        try:
            normalize(w, reduction=rep)
        except AssertionError:
            continue  # defect (a): the degree-5 modulus is not yet data
        forms.append(w)
    forms += [seeded_template(rng, 8) for _ in range(5)]
    sinh = _as_oneform(SINH, 8)
    i = Coeff(0, 1)
    for a, b in ((1, 2), (2, 1), (2, 2), (4, 8), (-1, -1), (i, i), (-1, i), (3, 3)):
        forms.append(linear_change(sinh, ((a, 0), (0, b))))
    for w in forms:
        assert normalize(w).alpha == _alpha_of_sigma(_sigma_of_form(w, 8))


# ---------------------------------------------------------------------------
# normalize against a step-by-step reference on Fraction pairs


def _scaled_pair(t, k):
    return (t[0] * k, t[1] * k)


def reference_normalization(w, linear):
    """The normal form data of w, step by step on Fraction pairs.

    The linear change is the reduction's, given as ``linear``; the scale is
    read off the x y^2 dy coefficient it leaves.  Each degree n solves the
    equations of ``_step_change`` by Cramer's rule on the 2x2 blocks, pulls
    the form back along id + (P, Q) with ``oracles.p2_pullback`` and checks
    that the y^2-part of degree n + 2 is gone.  Raises ``AssertionError``
    on defect (a).
    """
    g = oracles
    order = w.order
    a, b = g.jet2_pairs(w.a), g.jet2_pairs(w.b)
    if linear is not None:
        (m00, m01), (m10, m11) = [[g.pair_of_coeff(Coeff(c)) for c in row] for row in linear]
        fx = {k: v for k, v in (((1, 0), m00), ((0, 1), m01)) if not g.g_is_zero(v)}
        fy = {k: v for k, v in (((1, 0), m10), ((0, 1), m11)) if not g.g_is_zero(v)}
        a, b = g.p2_pullback(a, b, fx, fy, order)
    scale = g.ginv(b[(1, 2)])
    a, b = g.p2_scal(a, scale), g.p2_scal(b, scale)
    changes = []
    for n in range(2, order - 1):
        ta = [_scaled_pair(a.get((n - r, r + 2), g.ZERO), -1) for r in range(n + 1)]
        tb = [_scaled_pair(b.get((n - r, r + 2), g.ZERO), -1) for r in range(n + 1)]
        p = {(0, n): _scaled_pair(tb[n], Fraction(1, 1 - n))}
        q = {}
        for r in range(n):
            # (1-r) P_r + (r+3) Q_(r+1) = tb[r], -(n-r) P_r + (n-r-4) Q_(r+1) = ta[r+1]
            m11, m12, m21, m22 = 1 - r, r + 3, r - n, n - r - 4
            det = Fraction(1, m11 * m22 - m12 * m21)
            p[(n - r, r)] = _scaled_pair(
                g.gsub(_scaled_pair(tb[r], m22), _scaled_pair(ta[r + 1], m12)), det
            )
            q[(n - r - 1, r + 1)] = _scaled_pair(
                g.gsub(_scaled_pair(ta[r + 1], m11), _scaled_pair(tb[r], m21)), det
            )
        if n != 3:
            q[(n, 0)] = _scaled_pair(ta[0], Fraction(1, n - 3))
        elif not g.g_is_zero(ta[0]):
            raise AssertionError("x^3 y^2 dx survives the cubic step")
        else:
            q[(3, 0)] = _scaled_pair(b.get((4, 1), g.ZERO), Fraction(-1, 2))
        p = {k: v for k, v in p.items() if not g.g_is_zero(v)}
        q = {k: v for k, v in q.items() if not g.g_is_zero(v)}
        if not p and not q:
            continue
        fx, fy = g.p2_add({(1, 0): g.ONE}, p), g.p2_add({(0, 1): g.ONE}, q)
        a, b = g.p2_pullback(a, b, fx, fy, order)
        changes.append((p, q))
        y2 = [(n + 2 - j, j) for j in range(2, n + 3)]
        assert all(key not in a and key not in b for key in y2)
    zero = g.ZERO
    tail = {}
    for m in range(5, order + 1):
        residual = ((a, (m, 0)), (a, (m - 1, 1)), (b, (m, 0)), (b, (m - 1, 1)))
        tail[m] = tuple(c.get(key, zero) for c, key in residual)
    return b[(4, 0)], b.get((3, 1), zero), tail, scale, changes


def moved_templates(rng):
    """Seeded templates moved by changes of degree 2 and 3 and multiplied by
    a constant, at orders 8 to 14, and one that needs a linear change."""
    out = []
    for order in [8] * 15 + [9, 10, 11, 12, 14]:
        w = seeded_template(rng, order)
        p = rand_homogeneous(2, order) + rand_homogeneous(3, order)
        q = rand_homogeneous(2, order) + rand_homogeneous(3, order)
        w = pullback_map(w, Jet2.var_x(order) + p, Jet2.var_y(order) + q, order=order)
        out.append(form_scale(w, Coeff(rng.choice([1, 2, -3]), rng.choice([0, 1]))))
    swap = ((Coeff(0), Coeff(1)), (Coeff(1), Coeff(0)))
    out.append(linear_change(out[0], swap))
    return out


def test_normalize_matches_the_step_by_step_reference():
    """normalize carries the form as kernel numerators from its first step
    to its last; the reference carries Fraction pairs and pulls back with
    the oracle.  Every field of the data agrees, the recorded changes
    included, on 20 moved templates and one input that needs a linear
    change; defect (a) raises the same message."""
    rng = random.Random(0x2EF)
    linear = 0
    for w in moved_templates(rng):
        rep = reduce_cusp(w)
        assert rep.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL
        data = normalize(w)
        alpha, a, tail, scale, changes = reference_normalization(w, rep.applied_linear_change)
        pair = oracles.pair_of_coeff
        assert pair(data.alpha) == alpha and pair(data.a) == a
        assert {m: tuple(map(pair, t)) for m, t in data.tail.items()} == tail
        assert pair(data.scale) == scale
        assert data.applied_linear_change == rep.applied_linear_change
        assert [(oracles.jet2_pairs(p), oracles.jet2_pairs(q)) for p, q in data.changes] == changes
        assert all(p.order == q.order == w.order for p, q in data.changes)
        linear += data.applied_linear_change is not None
    assert linear == 1

    defect = _as_oneform("mero:(y^2+x^3+x^3*y)/(x*y)", 8)
    rep = reduce_cusp(defect)
    with pytest.raises(AssertionError) as raised:
        normalize(defect, reduction=rep)
    assert str(raised.value) == (
        "elimination system is infeasible at degree 3 (rank 7); "
        "the input cannot be brought to the template"
    )
    with pytest.raises(AssertionError, match="x\\^3 y\\^2 dx"):
        reference_normalization(defect, rep.applied_linear_change)


def test_normalize_pulls_back_on_numerators(monkeypatch):
    """normalize carries the form as kernel numerators over one denominator
    from its first step to its last.  On the pinned moved template at order
    16 it calls no ``pullback_map``, and it normalizes at most one triple
    per nonzero coefficient of the final form plus one per coefficient the
    steps read to solve their changes (2n + 2 at degree n, and x^4 y dy at
    n = 3): no step normalizes the whole form."""
    w = _as_oneform(MOVED, 16)
    rep = reduce_cusp(w)
    pullbacks, norms = [], []
    pullback, qnorm = forms.pullback_map, _backend.qnorm

    def counting_pullback(*args, **kwargs):
        pullbacks.append(1)
        return pullback(*args, **kwargs)

    def counting_qnorm(*args):
        norms.append(args)
        return qnorm(*args)

    for module in (forms, normalform):
        monkeypatch.setattr(module, "pullback_map", counting_pullback, raising=False)
    for name, module in list(sys.modules.items()):
        if name.startswith("cuspfol") and getattr(module, "qnorm", None) is qnorm:
            monkeypatch.setattr(module, "qnorm", counting_qnorm)
    data = normalize(w, reduction=rep)
    monkeypatch.undo()

    assert pullbacks == []
    assert len(data.changes) == 13
    final = reconstruct_normal_form(data)
    nonzero = len(final.a.triple_items()) + len(final.b.triple_items())
    read = sum(2 * n + 2 for n in range(2, 15)) + 1
    assert 0 < len(norms) <= nonzero + read


def test_no_monomial_of_a_binomial_band_enters_a_horner_row(monkeypatch):
    """Along id + h, h of valuation v, a monomial of degree e keeps at most
    t(e) = (n - e) // (v - 1) factors of h at order n.  On the pinned moved
    template at order 16, ``normalize`` leaves no monomial with
    t(e) <= ``_TAYLOR_BANDS`` to Horner's rule: each is copied or expanded
    by the binomial theorem, and each of those routes holds monomials."""
    w = _as_oneform(MOVED, 16)
    rep = reduce_cusp(w)
    route = _backend._route
    bands = _backend._TAYLOR_BANDS
    counts = {"copied": 0, "banded": 0, "horner": 0, "horner_within_bands": 0}

    def counting_route(acc, dx, dy, n):
        out, expansions, groups = route(acc, dx, dy, n)
        v = min(i + j for part in (dx, dy) for i, j in part if i + j >= 2)
        for i, row in groups.items():
            for j, *_ in row:
                counts["horner"] += 1
                counts["horner_within_bands"] += (n - i - j) // (v - 1) <= bands
        for key, numerators in acc.items():
            if any(numerators):
                e = key // (n + 1)
                if (n - e) // (v - 1) == 0:
                    counts["copied"] += 1
                elif (n - e) // (v - 1) <= bands:
                    counts["banded"] += 1
                    assert key in out
        return out, expansions, groups

    monkeypatch.setattr(_backend, "_route", counting_route)
    normalize(w, reduction=rep)
    monkeypatch.undo()

    assert counts["horner_within_bands"] == 0
    assert counts["copied"] and counts["banded"] and counts["horner"]


def test_substitution_rows_and_accumulators_share_the_form_loop(monkeypatch):
    """The substitution multiplies each row (A_ij, B_ij) s FY^j, a one-term
    form operand, and each band and Horner accumulator, one term or more, by
    its factor in the one form-product loop ``_convolve_form``: on the pinned
    moved template at order 16 ``normalize`` makes 13 changes and passes it
    first operands of both sizes."""
    w = _as_oneform(MOVED, 16)
    rep = reduce_cusp(w)
    sizes = []
    convolve = _backend._convolve_form

    def counting_convolve(ta, tb, end, acc):
        ta = list(ta)
        sizes.append(len(ta))
        return convolve(ta, tb, end, acc)

    monkeypatch.setattr(_backend, "_convolve_form", counting_convolve)
    data = normalize(w, reduction=rep)
    monkeypatch.undo()

    assert len(data.changes) == 13
    assert 1 in sizes
    assert any(size > 1 for size in sizes)


def moved_seeded_template(seed, order):
    """A seeded template moved by a seeded change id + (p, q) of degree 2,
    at ``order``, as the dense-nf workload builds its normal-form inputs.
    The steps that normalize it make a change at every degree 2..order - 2;
    a degree-3 change would leave the even degrees alone."""
    rng = random.Random(seed)
    w = seeded_template(rng, order)

    def quadratic():
        return {(2 - k, k): Coeff(rng.randint(-2, 2), rng.randint(-1, 1)) for k in range(3)}

    fx = Jet2({(1, 0): 1, **quadratic()}, order)
    fy = Jet2({(0, 1): 1, **quadratic()}, order)
    return pullback_map(w, fx, fy, order=order)


def stray_monomial(side, key):
    """One y^2-divisible monomial added to the final form, which no fixed
    coefficient check reads."""

    def mutate(monkeypatch):
        triples = FormNumerators.triples

        def stray_triples(self):
            parts = triples(self)
            parts[side][key] = (1, 0, 1)
            return parts

        monkeypatch.setattr(FormNumerators, "triples", stray_triples)

    return _as_oneform(MOVED, 16), mutate, "template"


def dropped_entry(n):
    """The change of step n with one nonzero entry dropped: Q's entry of
    the largest key (at n = 3 the cubic gauge q0*x^3), or P's when Q is
    zero.  The y^2-part that entry kills survives to the final form; the
    gauge has no y^2-part, and dropping it leaves x^4 y dy."""

    def mutate(monkeypatch):
        step_change = normalform._step_change

        def dropping(form, m, order):
            p, q = step_change(form, m, order)
            if m != n:
                return p, q
            entries = [dict(p.triple_items()), dict(q.triple_items())]
            side = entries[1] or entries[0]
            if not side:
                pytest.fail(f"step {n} makes no change to drop an entry of")
            del side[max(side)]
            return Jet2._raw(entries[0], order), Jet2._raw(entries[1], order)

        monkeypatch.setattr(normalform, "_step_change", dropping)

    return moved_seeded_template(0x5EED, 12), mutate, None


MUTATIONS = {
    "x2y2-dx": stray_monomial(0, (2, 2)),
    "xy3-dy": stray_monomial(1, (1, 3)),
    "x6y2-dx": stray_monomial(0, (6, 2)),
    "x3y5-dy": stray_monomial(1, (3, 5)),
    **{f"drop-step-{n}": dropped_entry(n) for n in range(2, 11)},
}


@pytest.mark.parametrize("mutation", list(MUTATIONS), ids=list(MUTATIONS))
def test_a_stray_monomial_in_the_final_form_fails_the_template_check(monkeypatch, mutation):
    """The final form is compared with the template of its data, monomial
    by monomial, and that comparison stands for a per-step check of the
    elimination: one stray y^2-divisible monomial in the final form, or one
    entry dropped from the change of any step 2..order - 2, is an
    ``AssertionError``."""
    w, mutate, message = MUTATIONS[mutation]
    rep = reduce_cusp(w)
    assert normalize(w, reduction=rep).changes
    mutate(monkeypatch)
    with pytest.raises(AssertionError, match=message):
        normalize(w, reduction=rep)
