"""Per-degree formal normal form for cusp-type forms.

The template is

    y^2 (x dy - y dx) + alpha*x^3 (x dy - 2y dx) + a*x^3 y dy
        + sum over n >= 5 of  x^(n-1) ((a_n x + b_n y) dx + (c_n x + d_n y) dy)

with alpha != 0 and a_5 = d_5 = 0.  ``normalize`` brings a cusp-type form
to it degree by degree: a change  phi_n = id + (P_n, Q_n)  with homogeneous
components of degree n shifts the coefficient-degree-(n+2) part of the form
by a linear image of (P_n, Q_n), its action on the anchor y^2 (x dy - y dx).
Each step kills the y^2-divisible part of one degree, leaving the four
residual monomials x^m dx, x^(m-1) y dx, x^m dy, x^(m-1) y dy recorded in
the data.  Two templates related by a change tangent to the identity
carry the same data.  Not every cusp-type form reaches a template, though:
at degree 5 the monomial x^3 y^2 dx is outside the image of every cubic
change (defect (a), ROADMAP item 1), and ``normalize`` raises
``AssertionError`` on a form whose x^3 y^2 dx coefficient is then nonzero.

The linear system of one step is fixed: it splits into the two scalar
equations of Q_0 and P_n and n 2x2 blocks of determinant 4(n-1), one
for each (P_r, Q_(r+1)).  ``_step_change`` solves it in closed form, with
no elimination; the tests check it against exactly pulling the anchor back
along basis changes for n = 2..16.  At the cubic step the Q_0 equation is the
x^3 y^2 dx one and reads 0 = 0 on the forms that reach the template: the
change id + (0, q0*x^3) has zero y^2-projection and shifts only the
x^4 y dy coefficient (by 2*q0), and the same step sets q0 so that
coefficient is zero, which makes the data canonical.

The form is carried from the first step to the last as Gaussian-integer
numerators over one denominator (``_backend.FormNumerators``), scaled by
the radial cofactor's inverse on the way in; the dx and the dy numerators
of a monomial sit in one entry, so a pullback visits each monomial once
for both.  Each step reads the 2n + 2 y^2-coefficients it solves for (and
x^4 y dy at n = 3) by their exponents, normalizes each entry of its change
once, pulls the numerators back along the change in integers and divides
out one gcd unless the new denominator is 1.  Each recorded change is a
pair of jets over the triples the step computed.  The final form is read
once as two {(i, j): triple} dicts, the data is read off them, and the
three constraints the template leaves free are checked on them:
alpha != 0, a_5 = 0 and x^4 y dy = 0.  Then the final form must equal the template
rebuilt from the data (``reconstruct_normal_form``), coefficient by
coefficient.  That one comparison stands for every structural identity
of the template (the anchor y^2 (x dy - y dx), no x^4 dx, the x^3 y dx
coefficient -2 alpha), which is written only there, and for every step's
elimination: a later step's change has degree n' > n and moves only
coefficients of degree >= n' + 2, and the template has no y^2-divisible
monomial above degree 3, so a y^2 monomial that a step leaves at degree
n + 2 >= 4 is still in the final form and fails the comparison.  The
steps' changes are recorded and never composed, since no question needs
the composite change; the tests compose it (``tests/oracles.py``) to
check that it takes the form to its normal form.  A caller that has
already run ``reduce_cusp`` on the form passes its report to
``normalize`` so the form is reduced once.

The stated per-coefficient elimination operator L, one-to-one at odd
degrees only, is kept as a test reference (``tests/oracles.py``);
``normalize`` does not use it.
"""

from __future__ import annotations

from ._backend import QONE, QZERO, FormNumerators, qinv, qiszero, qnorm
from .coeff import Coeff
from .forms import OneForm, ReductionVerdict, reduce_cusp
from .jets import Jet2


class NormalFormData:
    """Canonical data of the formal normal form.

    ``alpha`` (nonzero) and ``a`` are the two surviving degree-4
    coefficients; ``tail[n] = (a_n, b_n, c_n, d_n)`` for 5 <= n <= order
    are the residual coefficients of x^n dx, x^(n-1) y dx, x^n dy,
    x^(n-1) y dy.  ``changes`` lists the steps' changes id + (P_n, Q_n)
    as pairs (P_n, Q_n) of order-``order`` jets, in the order they were
    applied, at most one per degree: the cubic gauge q0*x^3 is part of the
    cubic change, and a degree that needs no change records none.
    ``applied_linear_change`` and ``scale`` record the preliminary linear
    normalization and the scalar multiple taking the radial cofactor to
    y^2 - both are part of the equivalence but not tangent to the
    identity, so they are kept apart.
    """

    def __init__(
        self,
        order: int,
        alpha: Coeff,
        a: Coeff,
        tail: dict | None = None,
        changes: list | None = None,
        applied_linear_change: tuple | None = None,
        scale: Coeff = Coeff(1),
    ):
        self.order = order
        self.alpha = alpha
        self.a = a
        self.tail = {} if tail is None else tail
        self.changes = [] if changes is None else changes
        self.applied_linear_change = applied_linear_change
        self.scale = scale

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def is_trivial_tail(self) -> bool:
        return all(all(c.is_zero() for c in t) for t in self.tail.values())


def reconstruct_normal_form(data: NormalFormData) -> OneForm:
    """The template 1-form carrying exactly the data's coefficients."""
    a = {(0, 3): Coeff(-1), (3, 1): -2 * data.alpha}
    b = {(1, 2): Coeff(1), (4, 0): data.alpha, (3, 1): data.a}
    for m, (am, bm, cm, dm) in data.tail.items():
        a[(m, 0)], a[(m - 1, 1)] = am, bm
        b[(m, 0)], b[(m - 1, 1)] = cm, dm
    # Jet2 drops the zero coefficients and those above the order
    return OneForm(Jet2(a, data.order), Jet2(b, data.order))


def _y2_rows(m):
    """Coordinates of the y^2-divisible monomials of coefficient degree m."""
    return [(m - j, j) for j in range(2, m + 1)]


def _ratio(c1, u1, c2, u2, den):
    """(c1 u1 + c2 u2) / den as a triple, for integers c1, c2, den != 0 and
    numerator pairs u1, u2."""
    return qnorm(c1 * u1[0] + c2 * u2[0], c1 * u1[1] + c2 * u2[1], den)


def _step_change(form: FormNumerators, n, order):
    """The change (P_n, Q_n) that kills the y^2-part of the form in degree
    n + 2.

    Pulled back along id + (P, Q) with P = sum P_r x^(n-r) y^r and
    Q = sum Q_r x^(n-r) y^r, the anchor y^2 (x dy - y dx) moves by

        da = -3 y^2 Q - y^3 P_x + x y^2 Q_x
        db = y^2 P + 2 x y Q - y^3 P_y + x y^2 Q_y

    plus terms of degree >= 2n + 1 > n + 2, and nothing else of the form
    moves in degree n + 2.  With t_a[r], t_b[r] minus the coefficients of
    x^(n-r) y^(r+2) in the dx and the dy coefficient, killing the y^2-part
    reads

        (n-3) Q_0 = t_a[0],   (1-n) P_n = t_b[n],
        (1-r) P_r + (r+3) Q_(r+1) = t_b[r],
        -(n-r) P_r + (n-r-4) Q_(r+1) = t_a[r+1]     (r = 0..n-1),

    and each 2x2 block has determinant 4(n-1).  At n = 3 the first
    equation is 0 = t_a[0], and t_a[0] != 0 is defect (a).  Otherwise Q_0
    is the cubic gauge: it is set to minus half the x^4 y dy coefficient,
    the one degree-5 coefficient it moves (by 2 Q_0).  The form is read
    only at those 2n + 2 coefficients (and x^4 y dy at n = 3), as
    numerators over its one denominator, and each entry of the change is
    normalized once and stored as it is, a zero entry dropped.
    """
    rows = _y2_rows(n + 2)
    ca = [form.numerator(0, i, j) for i, j in rows]
    cb = [form.numerator(1, i, j) for i, j in rows]
    den = form.den
    det = 4 * (n - 1) * den
    pd, qd = {}, {}
    if any(cb[n]):
        pd[(0, n)] = qnorm(*cb[n], (n - 1) * den)
    for r in range(n):
        if not (any(ca[r + 1]) or any(cb[r])):
            continue
        p = _ratio(r + 3, ca[r + 1], r + 4 - n, cb[r], det)
        if p[0] or p[1]:
            pd[(n - r, r)] = p
        q = _ratio(r - 1, ca[r + 1], r - n, cb[r], det)
        if q[0] or q[1]:
            qd[(n - r - 1, r + 1)] = q
    if n != 3:
        if any(ca[0]):
            qd[(n, 0)] = qnorm(*ca[0], (3 - n) * den)
    elif any(ca[0]):
        raise AssertionError(
            f"elimination system is infeasible at degree {n} "
            f"(rank {2 * n + 1}); the input cannot be brought to the template"
        )
    else:
        gauge = form.numerator(1, 4, 1)
        if any(gauge):
            qd[(3, 0)] = qnorm(*gauge, -2 * den)
    return Jet2._raw(pd, order), Jet2._raw(qd, order)


def normalize(w: OneForm, *, reduction=None) -> NormalFormData:
    """Reduce a cusp-type form to the template, degree by degree.

    Requires reduce_cusp(w) to succeed.  ``reduction``, when given, is the
    caller's own ``reduce_cusp(w)`` report and is used in its place; its
    verdict is checked all the same.  The form is read as the reduction
    left it after its linear change (``moved_form``), and a scalar
    multiple making the radial cofactor exactly y^2 is applied first; then
    each degree n from 2 up kills the y^2-divisible part of the
    coefficient-degree-(n+2) homogeneous part with an exact change
    id + (P_n, Q_n) solved in closed form (``_step_change``); the cubic
    change also sets the x^4 y dy coefficient to zero.  Each step pulls the
    form's numerators back along its change once and records the change in
    ``changes``; their composite is never built.  The final form is
    checked against the template of the returned data.  Raises
    ``AssertionError`` on defect (a), a form that keeps x^3 y^2 dx at
    degree 5.
    """
    n_max = w.order
    rep = reduce_cusp(w) if reduction is None else reduction
    if rep.verdict is not ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL:
        raise ValueError(
            f"normalize requires a cusp-type form (reduction verdict: {rep.verdict.value})"
        )
    w = rep.moved_form
    scale = Coeff.from_triple(qinv(rep.p2_coefficient.triple))
    form = FormNumerators(
        dict(w.a.triple_items()), dict(w.b.triple_items()), n_max, scale.triple
    )

    changes = []
    for n in range(2, n_max - 1):
        p, q = _step_change(form, n, n_max)
        if p.is_zero() and q.is_zero():
            continue
        fx, fy = {(1, 0): QONE}, {(0, 1): QONE}
        fx.update(p.triple_items())
        fy.update(q.triple_items())
        form.pullback(fx, fy)
        changes.append((p, q))
    a, b = form.triples()

    # constraints on the data, which the template built from it cannot imply
    alpha = b.get((4, 0), QZERO)
    if qiszero(alpha):
        raise AssertionError("normal form has alpha = 0 on a cusp-type input")
    if (5, 0) in a:
        raise AssertionError("a_5 != 0 after normalization of a cusp-type input")
    if (4, 1) in b:
        raise AssertionError("x^4 y dy coefficient survived the cubic step")
    tail = {
        m: tuple(
            Coeff.from_triple(side.get(key, QZERO))
            for side, key in ((a, (m, 0)), (a, (m - 1, 1)), (b, (m, 0)), (b, (m - 1, 1)))
        )
        for m in range(5, n_max + 1)
    }
    data = NormalFormData(
        order=n_max,
        alpha=Coeff.from_triple(alpha),
        a=Coeff.from_triple(b.get((3, 1), QZERO)),
        tail=tail,
        changes=changes,
        applied_linear_change=rep.applied_linear_change,
        scale=scale,
    )
    template = reconstruct_normal_form(data)
    if dict(template.a.triple_items()) != a or dict(template.b.triple_items()) != b:
        raise AssertionError("the normal form is not the template of its data")
    return data
