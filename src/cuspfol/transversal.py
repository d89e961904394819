"""Corner germs, formal first integrals, and the transversal structure.

After the two-step reduction the foliation is regular at the corner point
where the two divisor components cross.  In the corner chart (u, v) the
u-axis lies on D2 (the first exceptional curve, self-intersection -2) and
the v-axis on D1 (the second, -1).  The transversal structure is the germ
of diffeomorphism sigma matching a point x on D2 with the point sigma(x)
on D1 that belongs to the same local leaf.

Computable exactly: a regular germ admits a formal first integral H,
solved degree by degree (constructive Frobenius); then

    sigma = (v -> H(0, v))^{-1}  composed with  (u -> H(u, 0)).

This holds for any first integral.  :func:`transversal_structure` takes
the one normalized on D1, H(0, v) = v: it solves the germ with its two
slots swapped, where that normalization is the recurrence's own
H(u, 0) = u, and swaps the result back.  The first factor is then the
identity and sigma is H(u, 0), read off the u-axis with no series
reversion.  The reversion (:meth:`cuspfol.jets.Jet1.comp_inverse`,
Lagrange inversion over kernel products) is left to
:func:`sigma_of_integral` on an integral not normalized on D1, where g2^{-1}
is always composed with g1 (with g1 = z too: that composition is exact), and
to the inverse of sigma itself, ``sigma.comp_inverse()``, which the cocycle
round trip of acceptance criterion 10 takes.

The degree recurrence for H runs in the kernel, on Gaussian-integer
numerators with one ``qnorm`` per output coefficient
(:func:`cuspfol._backend.first_integral`); H is checked again exactly,
dH ^ form = 0, in one integer pass over its numerators
(:func:`cuspfol._backend.is_first_integral`), before sigma is read off it.

sigma does not depend on the choice of H: any other first integral is
phi(H) for a unit reparametrization phi, which cancels in the composition
(property-tested with H -> H + H^2, and against the integral normalized
on D2, read through the reversion).

sigma mod z^(N+1) reads only corner data of degree < N: H_(d+1) is solved
from the corner coefficients of degree <= d, and sigma reads H only up to
degree N.  The two blow-ups give the corner germ jet order 4N - 7 for a
form known to order N, so the CLI solves at its ``--order`` rather than
at the corner germ's order.
"""

from __future__ import annotations

from ._backend import first_integral, is_first_integral
from .forms import OneForm, ReductionReport
from .jets import Jet1, Jet2, JetError


class CornerGerm:
    """A regular 1-form germ at the corner, transverse to both axes.

    ``form`` is written in the corner coordinates (u, v): u lies on D2 and
    v on D1 under the convention of :mod:`cuspfol.forms`.
    """

    def __init__(self, form: OneForm):
        if form.a.coeff(0, 0).is_zero():
            raise ValueError(
                "not a valid corner germ: the foliation is not transverse "
                f"to the {form.variables[0]}-axis"
            )
        if form.b.coeff(0, 0).is_zero():
            raise ValueError(
                "not a valid corner germ: the foliation is not transverse "
                f"to the {form.variables[1]}-axis"
            )
        self.form = form

    @classmethod
    def from_reduction(cls, rep: ReductionReport) -> "CornerGerm":
        """The corner germ of a completed cusp reduction.

        The reduction's second chart is (xi, t) with D1 = {t=0} and
        D2 = {xi=0}; the corner coordinates are therefore u = t (along D2)
        and v = xi (along D1), so the two jet slots swap places.
        """
        w2 = rep.second_chart_form
        if w2 is None:
            raise ValueError("reduction did not reach the second blow-up")
        form = OneForm(
            w2.b.swap_variables(), w2.a.swap_variables(), ("u", "v")
        )
        return cls(form)

    @property
    def order(self) -> int:
        return self.form.order


def regular_first_integral(c: CornerGerm, order=None) -> Jet2:
    """A formal first integral H of the corner germ, exact to the jet order.

    H satisfies H(0,0) = 0 and dH ^ form = 0 (to order N-1, all that an
    order-N jet determines), normalized by H(u, 0) = u.  Each homogeneous
    degree is a triangular linear system over Q(i): writing the degree-d
    residual of H_u*B - H_v*A, the next homogeneous part of H is obtained
    by exact back-substitution against the constant terms of A and B.
    The residual is computed per degree, from the homogeneous parts of H
    found so far: sum over e < d of [H_u]_e*[B]_(d-e) - [H_v]_e*[A]_(d-e).

    The kernel's :func:`~cuspfol._backend.first_integral` does the work on
    Gaussian-integer numerators: one denominator for the parts of A and B,
    one per homogeneous part of H, and one ``qnorm`` per nonzero
    coefficient of H.  A coefficient whose predecessor in the
    back-substitution and whose residual are both zero is zero and is
    skipped, so a sparse H costs little.  H is then checked again exactly,
    afresh from the returned coefficients: dH ^ form = H_u*B - H_v*A must
    vanish to order N-1, evaluated in one integer pass
    (:func:`~cuspfol._backend.is_first_integral`).

    The coefficients come back as the kernel's triples and are stored in
    the returned jet as they are, with no ``Coeff`` built.
    """
    w = c.form
    n = w.order if order is None else order
    if order is not None and order > w.order:
        raise JetError("requested order exceeds the corner germ's jet order")
    if n < 1:  # the re-check reads dH, of order n - 1
        raise JetError("cannot differentiate an order-0 jet")
    a = dict(w.a.truncate(n).triple_items())
    b = dict(w.b.truncate(n).triple_items())
    h = first_integral(a, b, n)
    if not is_first_integral(h, a, b, n):
        raise AssertionError("first integral failed the dH ^ w = 0 re-check")
    return Jet2._raw(h, n)


def sigma_of_integral(h: Jet2) -> Jet1:
    """The transversal structure read off any first integral.

    With g1 = H(.,0) and g2 = H(0,.), both tangent-to-identity up to a
    unit factor, sigma = g2^{-1} o g1.  Reparametrizing H by any unit
    series phi(H) leaves the composition unchanged.  When g2 is the
    identity, as for the integral normalized on D1 that
    :func:`transversal_structure` passes, sigma is g1 itself and no
    reversion is taken.  Any other H goes through the reversion and the
    composition; for g1 the identity, as for the integral
    :func:`regular_first_integral` returns (normalized by H(u, 0) = u),
    composing with z is exact and gives g2^{-1}.
    """
    g1 = h.restrict_to_axis("x")
    g2 = h.restrict_to_axis("y")
    for g in (g1, g2):
        if not g.coeff(0).is_zero() or g.coeff(1).is_zero():
            raise ValueError("integral is not transverse-normalized on the axes")
    if g2 == Jet1.variable(h.order):
        return g1
    return g2.comp_inverse().compose(g1)


def transversal_structure(c: CornerGerm, order=None) -> Jet1:
    """The germ sigma: (D2, corner) -> (D1, corner) matching leaf levels.

    ``order`` (at most the corner germ's order, which is the default) is the
    order of the returned jet; it equals the full sigma truncated to
    ``order``, since sigma mod z^(N+1) reads only corner data of degree < N.

    The first integral is the one normalized on D1, H(0, v) = v:
    :func:`regular_first_integral` solves the germ with its two slots
    swapped (and re-checks dH ^ form = 0 there), and the result is swapped
    back, so sigma = H(., 0) with no reversion.
    """
    w = c.form
    swapped = CornerGerm(
        OneForm(w.b.swap_variables(), w.a.swap_variables(), w.variables[::-1])
    )
    return sigma_of_integral(regular_first_integral(swapped, order).swap_variables())
