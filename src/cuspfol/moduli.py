"""Germs of diffeomorphisms of (C, 0), Schwarzians, and moduli decisions.

A change of coordinates moves the transversal-structure germ sigma of a
cusp-type form by a Moebius map after it, which the Schwarzian S(sigma)
ignores, and by a homography lam*z/(1 + mu*z) before it: a scaling for a
diagonal change, mu != 0 for a shear (x + c*y, y).  Forms are decided on
S(sigma) alone.  This module carries the scalar side of that story:

- Germs sigma are plain :class:`~cuspfol.jets.Jet1` values, composed with
  ``Jet1.compose`` and inverted with ``Jet1.comp_inverse``;
  :func:`invertible_germ` checks sigma(0) = 0 and sigma'(0) != 0 where the
  math needs them: the gluing cocycle, the coboundary split and normal pairs.
- Schwarzian derivative of a jet germ (exact, order drops by 3).
- The C* action  (eps . f)_k = eps^(k+2) f_k  and the exact decision whether
  two jets lie on the same orbit, with a Q(i) witness when one exists and a
  defining polynomial when the witness lives in an extension field.
- Homographies z -> lam*z/(1 + mu*z) as exact first-class values.
- The homographic symmetries of a jet: each unit lam pins mu in closed form,
  and one exact check of the functional equation keeps or drops it.
- The orbits of those homographies, decided on one normal form per jet.
- Gluing pairs (sigma, alpha), alpha free, and their canonicalization; a
  verdict on two pairs keeps its two inner homographies and nothing else.
"""

from __future__ import annotations

from ._backend import jet1_homographic_image
from .coeff import Coeff
from .gaussint import UNITS, nth_roots_in_qi
from .jets import DEFAULT_ORDER, Jet1, JetError


def invertible_germ(jet: Jet1) -> Jet1:
    """``jet`` itself, once it is checked to be an invertible germ of
    (C, 0): sigma(0) = 0 and sigma'(0) != 0.  Otherwise ``JetError``."""
    if not jet.coeff(0).is_zero():
        raise JetError("germ must fix the origin")
    if jet.coeff(1).is_zero():
        raise JetError("germ must have invertible linear part")
    return jet


class Homography:
    """The Moebius germ z -> lam*z / (1 + mu*z), an exact value."""

    def __init__(self, lam: Coeff, mu: Coeff = Coeff(0)):
        lam = Coeff(lam)
        mu = Coeff(mu)
        if lam.is_zero():
            raise ValueError("homography needs lam != 0")
        self.lam = lam
        self.mu = mu

    def to_jet(self, order=DEFAULT_ORDER) -> Jet1:
        # lam*z * sum_k (-mu z)^k
        coeffs = [Coeff(0)]
        p = self.lam
        for _ in range(order):
            coeffs.append(p)
            p = p * (-self.mu)
        return Jet1(coeffs, order)

    def inverse(self) -> "Homography":
        return Homography(1 / self.lam, -self.mu / self.lam)


def schwarzian(f: Jet1) -> Jet1:
    """Schwarzian derivative S(f) = f'''/f' - (3/2)(f''/f')^2 as a jet.

    Input of order N yields output of order N-3.  Vanishes identically on
    homographies, and obeys S(f o g) = (S(f) o g)*(g')^2 + S(g).  One
    series division: S = r' - r^2/2 for r = f''/f' at order N-2.
    """
    if f.order < 3:
        raise JetError("schwarzian needs jet order >= 3")
    if f.coeff(1).is_zero():
        raise JetError("schwarzian needs an invertible germ (f'(0) != 0)")
    n = f.order
    d1 = f.derivative()
    r = d1.derivative().div(d1.truncate(n - 2))
    head = r.truncate(n - 3)
    return r.derivative() - head * head * (Coeff(1) / 2)


def cstar_apply(f: Jet1, eps) -> Jet1:
    """The C* action on moduli jets: coefficient k scales by eps^(k+2)."""
    e = Coeff(eps)
    if e.is_zero():
        raise ValueError("C* action needs eps != 0")
    return f.scale_variable(e) * (e * e)


class CStarVerdict:
    def __init__(
        self,
        equivalent: bool,
        eps: Coeff | None = None,
        eps_candidates: list[Coeff] | None = None,
        constraints: list[str] | None = None,
        defining_poly: tuple[int, Coeff] | None = None,  # (g, rho): eps^g = rho
        reason: str = "",
    ):
        self.equivalent = equivalent
        self.eps = eps
        self.eps_candidates = [] if eps_candidates is None else eps_candidates
        self.constraints = [] if constraints is None else constraints
        self.defining_poly = defining_poly
        self.reason = reason

    def __bool__(self):
        return self.equivalent


def cstar_equivalent(f0: Jet1, f1: Jet1) -> CStarVerdict:
    """Decide f0 = eps . f1 for some eps in C*, i.e. f0_k = eps^(k+2) f1_k.

    The decision over C is exact: one Bezout combination rho of the
    coefficient ratios must reproduce every ratio, which encodes all integer
    relations among the exponents k+2.  It is folded over the support with
    the extended gcd: with eps^g = rho for g the gcd of the exponents so
    far and x*g + y*m = gcd(g, m), the next ratio r = eps^m gives
    eps^gcd(g, m) = rho^x * r^y.  A Q(i) witness is extracted by
    Gaussian-prime root extraction when one exists; otherwise the verdict is
    "equivalent over C" with the defining polynomial eps^g = rho.
    """
    n = min(f0.order, f1.order)
    support0 = [k for k in range(n + 1) if not f0.coeff(k).is_zero()]
    support1 = [k for k in range(n + 1) if not f1.coeff(k).is_zero()]
    if support0 != support1:
        return CStarVerdict(
            False,
            reason="support mismatch: the action never creates or kills coefficients",
        )
    if not support0:
        return CStarVerdict(
            True, eps=Coeff(1), constraints=["any eps != 0"], reason="both zero"
        )
    exps = [k + 2 for k in support0]
    ratios = [f0.coeff(k) / f1.coeff(k) for k in support0]
    g, rho = 0, Coeff(1)
    for m, r in zip(exps, ratios):
        g, x, y = _ext_gcd(g, m)
        rho = rho ** x * r ** y
    constraints = [f"eps^{g} = {rho}"]
    for m, r in zip(exps, ratios):
        if rho ** (m // g) != r:
            return CStarVerdict(
                False,
                constraints=constraints
                + [f"violated: eps^{m} = {r}"],
                reason="incompatible coefficient ratios",
            )
    roots = nth_roots_in_qi(rho, g)
    if roots:
        eps = roots[0]
        check = cstar_apply(f1.truncate(n), eps)
        if check != f0.truncate(n):
            raise AssertionError("internal witness verification failed")
        return CStarVerdict(
            True,
            eps=eps,
            eps_candidates=roots,
            constraints=constraints,
            reason="witness in Q(i)",
        )
    return CStarVerdict(
        True,
        eps=None,
        constraints=constraints,
        defining_poly=(g, rho),
        reason="equivalent over C; witness lies in an extension field",
    )


def _ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


# --- homographic symmetries -------------------------------------------------


class SymmetryReport:
    def __init__(
        self,
        infinite: bool,
        lambda_order: int | None = None,  # symbolic constraint lam^lambda_order = 1
        candidates: list[Homography] | None = None,
        notes: list[str] | None = None,
    ):
        self.infinite = infinite
        self.lambda_order = lambda_order
        self.candidates = [] if candidates is None else candidates
        self.notes = [] if notes is None else notes


def homographic_symmetries(f: Jet1) -> SymmetryReport:
    """All homographies h with (f o h) * (h')^2 = f, to the jet's order.

    For h = lam*z/(1 + mu*z), h^k * (h')^2 = lam^(k+2) z^k (1 + mu*z)^-(k+4),
    so coefficient m of (f o h)(h')^2 - f is

        f_m (lam^(m+2) - 1) + sum_(j>=1) f_(m-j) lam^(m-j+2) (-mu)^j C(m+3, j).

    For f = 0 the group is infinite (such f is the Schwarzian of a
    homography) and the report says so.  Otherwise, with k0 the lowest
    nonzero index, the equation m = k0 asks lam^(k0+2) = 1, reported
    symbolically, and for each unit lam in {1, i, -1, -i} satisfying it the
    equation m = k0 + 1 is linear in mu with leading coefficient
    -(k0+4) f_k0 != 0: its one solution

        mu = f_(k0+1) (lam - 1) / ((k0 + 4) f_k0)

    is kept exactly when the functional equation holds to the jet's order,
    with the image (f o h)(h')^2 read off the sum above
    (:func:`_homographic_image`).  When k0 is the order itself nothing
    constrains mu.
    """
    n = f.order
    if n < 4:
        raise JetError("symmetry search needs jet order >= 4")
    if f.is_zero():
        return SymmetryReport(
            infinite=True, notes=["f = 0: every homography is a symmetry"]
        )
    k0 = f.valuation()
    lam_order = k0 + 2
    report = SymmetryReport(infinite=False, lambda_order=lam_order)
    for lam in UNITS:
        if lam ** lam_order != 1:
            continue
        if k0 == n:
            report.notes.append(f"lam = {lam}: no constraint on mu to this order")
            report.infinite = True
            continue
        mu = f.coeff(k0 + 1) * (lam - 1) / ((k0 + 4) * f.coeff(k0))
        h = Homography(lam, mu)
        if _homographic_image(f, h) == f:
            report.candidates.append(h)
    return report


def _homographic_image(f: Jet1, h: Homography) -> Jet1:
    """(f o h) * (h')^2 through z^n, n the order of f.

    Read off the closed form of ``homographic_symmetries``' docstring by
    the kernel's :func:`~cuspfol._backend.jet1_homographic_image`: one
    integer multiply-add per pair of coefficients, and no composition.
    """
    n = f.order
    return Jet1._raw(jet1_homographic_image(f.triples, h.lam.triple, h.mu.triple, n), n)


def homographic_equivalent(f0: Jet1, f1: Jet1) -> CStarVerdict:
    """Decide f0 = (f1 o h) * (h')^2 for a homography h = lam*z/(1 + mu*z).

    With k0 the valuation, coefficient k0 + 1 of the image under
    lam*z/(1 + mu*z) is lam^(k0+2) (lam f_(k0+1) - (k0 + 4) mu f_k0), so
    one mu (at lam = 1) brings each jet to a normal form with that
    coefficient 0, and normal forms on one orbit differ by the C* action.
    """
    n = min(f0.order, f1.order)
    forms = []
    for f in (f0.truncate(n), f1.truncate(n)):
        if not f.is_zero() and f.valuation() < n:
            k0 = f.valuation()
            mu = f.coeff(k0 + 1) / ((k0 + 4) * f.coeff(k0))
            f = _homographic_image(f, Homography(Coeff(1), mu))
        forms.append(f)
    return cstar_equivalent(*forms)


# --- normal pairs and their equivalence -------------------------------------


def canonical_alpha(jet: Jet1) -> Coeff:
    """(3/2) * sigma''(0)/sigma'(0), with sigma''(0) = 2 * (z^2 coefficient)."""
    c1 = jet.coeff(1)
    if c1.is_zero():
        raise JetError("canonical_alpha needs an invertible germ")
    return 3 * jet.coeff(2) / c1


class NormalPair:
    """The data (sigma, alpha) selecting one glued foliation model.

    Here alpha is free; a form's alpha is -1/sigma_1, so forms are decided
    by ``homographic_equivalent`` on their Schwarzians, not as pairs.
    """

    def __init__(self, sigma: Jet1, alpha=0):
        self.sigma = invertible_germ(sigma)
        self.alpha = Coeff(alpha)


def canonicalizing_homography(pair: NormalPair) -> Homography:
    """The inner homography that moves alpha to its canonical value.

    Composing sigma with h = z/(1 + mu*z), mu = -(alpha - canonical)/5,
    produces an equivalent pair whose alpha equals the canonical alpha of
    the new sigma; the leftover freedom is exactly the C* scaling.
    """
    ca = canonical_alpha(pair.sigma)
    mu = -(pair.alpha - ca) / 5
    return Homography(Coeff(1), mu)


class NormalPairVerdict:
    def __init__(self, equivalent: bool, h0: Homography, h1: Homography):
        self.equivalent = equivalent
        self.h0 = h0
        self.h1 = h1

    def __bool__(self):
        return self.equivalent


def normal_pair_equivalent(p0: NormalPair, p1: NormalPair) -> NormalPairVerdict:
    """Decide equivalence of two gluing pairs (sigma, alpha), alpha free.

    Each pair is first canonicalized by an inner homography h killing the
    alpha offset; the remaining question is whether the two canonical
    Schwarzians lie on one C* orbit, which is decided exactly.  Since
    S(h) = 0, the Schwarzian of sigma o h is (S(sigma) o h) * (h')^2, the
    homographic image of S(sigma), so no composition is formed.  The
    verdict keeps the two inner homographies.
    """
    h0 = canonicalizing_homography(p0)
    h1 = canonicalizing_homography(p1)
    s0 = _homographic_image(schwarzian(p0.sigma), h0)
    s1 = _homographic_image(schwarzian(p1.sigma), h1)
    n = min(s0.order, s1.order)
    verdict = cstar_equivalent(s0.truncate(n), s1.truncate(n))
    return NormalPairVerdict(verdict.equivalent, h0, h1)
