"""Plane 1-forms, blow-ups, and the two-step cusp reduction.

A foliation germ is given by a 1-form  w = A dx + B dy  with jet
coefficients.  This module provides the geometric tool chain:

- construction from a meromorphic first integral candidate (num/den),
- the radial form  x dy - y dx  and radial tangency of homogeneous parts,
- exact blow-up pullbacks in both standard charts, division by the
  exceptional coordinate, and tangency analysis along the divisor,
- ``reduce_cusp``: the decision procedure for "absolutely dicritical of
  cusp type", i.e. the foliation becomes regular and everywhere transverse
  to the exceptional divisor after exactly two blow-ups (the second one
  centered at the unique tangency point created by the first),
- a degree-by-degree solver for relative exactness  eta = df + g*w.

Divisor naming convention used throughout (and by the CLI): after the two
blow-ups the divisor has two components; D2 is the strict transform of the
first exceptional curve (self-intersection -2) and D1 is the second, last
blown-up curve (self-intersection -1).  The corner is their intersection.
In the second-blow-up chart (xi, t) produced here, D2 = {xi = 0} and
D1 = {t = 0}.

Everything is exact over Q(i); no approximation is used anywhere.  Blow-up
pullbacks are exponent maps on the polynomial coefficients, so they *raise*
the jet order (an order-N input yields an order 2N+1 pullback); see
``pullback_blowup``.
"""

from __future__ import annotations

from enum import Enum

from .coeff import Coeff, ZERO
from .jets import DEFAULT_ORDER, Jet1, Jet2, JetError, pullback_coefficients
from .linalg import solve
from .poly import roots_with_multiplicity


class OneForm:
    """A 1-form  a*d(first variable) + b*d(second variable).

    The two coefficient jets always share one truncation order; mixed input
    orders are truncated down on construction.
    """

    def __init__(self, a: Jet2, b: Jet2, variables: tuple[str, str] = ("x", "y")):
        if len(variables) != 2 or variables[0] == variables[1]:
            raise ValueError("a 1-form needs two distinct variable names")
        n = min(a.order, b.order)
        self.a = a.truncate(n)
        self.b = b.truncate(n)
        self.variables = variables

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.variables == other.variables

    @property
    def order(self) -> int:
        return self.a.order

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def valuation(self):
        """Minimal total degree with a nonzero coefficient; None if zero."""
        va = self.a.valuation()
        vb = self.b.valuation()
        if va is None:
            return vb
        if vb is None:
            return va
        return min(va, vb)

    def truncate(self, order) -> "OneForm":
        return OneForm(self.a.truncate(order), self.b.truncate(order), self.variables)

    def with_order(self, order) -> "OneForm":
        """Reinterpret at a different order (asserts polynomial exactness)."""
        return OneForm(self.a.with_order(order), self.b.with_order(order), self.variables)

    def homogeneous_part(self, deg) -> "OneForm":
        return OneForm(
            self.a.homogeneous_part(deg), self.b.homogeneous_part(deg), self.variables
        )

    def _require_same_chart(self, other: "OneForm"):
        if self.variables != other.variables:
            raise ValueError(
                f"1-forms live in different charts: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        self._require_same_chart(other)
        return OneForm(self.a + other.a, self.b + other.b, self.variables)

    def __sub__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        self._require_same_chart(other)
        return OneForm(self.a - other.a, self.b - other.b, self.variables)

    def __neg__(self):
        return OneForm(-self.a, -self.b, self.variables)

    def __mul__(self, other):
        """Multiply by a scalar or by a function (Jet2)."""
        return OneForm(self.a * other, self.b * other, self.variables)

    __rmul__ = __mul__

    def __repr__(self):
        x, y = self.variables
        return f"OneForm(({self.a!r}) d{x} + ({self.b!r}) d{y})"


def radial_form(order=DEFAULT_ORDER, variables=("x", "y")) -> OneForm:
    """The radial 1-form  x dy - y dx."""
    return OneForm(
        Jet2.monomial(0, 1, -1, order), Jet2.monomial(1, 0, 1, order), variables
    )


def differential(f: Jet2, variables=("x", "y")) -> OneForm:
    """The exact 1-form  df = f_x dx + f_y dy  (order drops by one)."""
    return OneForm(f.dx(), f.dy(), variables)


def form_of_meromorphic(num: Jet2, den: Jet2, variables=("x", "y")) -> OneForm:
    """The 1-form  den*d(num) - num*d(den)  defining the level sets of num/den."""
    if num.is_zero() or den.is_zero():
        raise ValueError("form_of_meromorphic needs nonzero numerator and denominator")
    a = den * num.dx() - num * den.dx()
    b = den * num.dy() - num * den.dy()
    return OneForm(a, b, variables)


def wedge(u: OneForm, v: OneForm) -> Jet2:
    """The coefficient of dx^dy in u^v, i.e.  u_a v_b - u_b v_a."""
    u._require_same_chart(v)
    return u.a * v.b - u.b * v.a


def valuation(w: OneForm):
    return w.valuation()


def radial_tangency(w: OneForm, degree: int):
    """The cofactor P with  (A_d dx + B_d dy) = P*(x dy - y dx), if it exists.

    The degree-d homogeneous part is tangent to the radial vector field
    exactly when  x*A_d + y*B_d = 0; in that case x divides B_d and
    P = B_d/x, a homogeneous cofactor of degree d-1, is returned at order
    ``w.order - 1`` (read off by the exponent shift x^i y^j -> x^(i-1) y^j).
    Returns None when the tangency identity fails.
    """
    ad = w.a.homogeneous_part(degree)
    bd = w.b.homogeneous_part(degree)
    n = w.order
    if ad.is_zero() and bd.is_zero():
        return Jet2.zero(n)
    test = Jet2.var_x(n + 1) * ad.with_order(n + 1) + Jet2.var_y(n + 1) * bd.with_order(
        n + 1
    )
    if not test.is_zero():
        return None
    # x*A_d = -y*B_d with A_d, B_d not both zero, so B_d != 0 and x | B_d
    return bd.exponent_map(lambda i, j: (i - 1, j), n - 1)


def pullback_map(w: OneForm, fx: Jet2, fy: Jet2, order=None, variables=None) -> OneForm:
    """Pull back w under the map (x, y) -> (fx, fy) fixing the origin.

    The default output order is  min(w.order, fx.order, fy.order) - 1  (one
    derivative is taken).  An explicit ``order`` may be at most that
    minimum: the coefficients are substituted at exactly ``order``, and at
    the minimum itself the derivatives of fx and fy are read as exact
    polynomials.  A larger ``order`` raises :class:`JetError`.

    Both coefficients are substituted over one denominator, sharing the
    powers of fy, and multiplied by the Jacobian numerators in integers, so
    each nonzero output coefficient is normalized once (see
    :func:`~cuspfol.jets.pullback_coefficients`).
    """
    top = min(w.order, fx.order, fy.order)
    if order is None:
        order = top - 1
    elif order > top:
        raise JetError(f"pullback order {order} exceeds the data order {top}")
    a, b = pullback_coefficients(w.a, w.b, fx, fy, order)
    return OneForm(a, b, variables or w.variables)


def linear_change(w: OneForm, m) -> OneForm:
    """Pull back w under the invertible linear map (x,y) -> (m00 x + m01 y, m10 x + m11 y).

    Exact and order-preserving.  ``m`` is a 2x2 matrix of Coeff-like entries.
    """
    (m00, m01), (m10, m11) = m
    m00, m01, m10, m11 = (Coeff(c) for c in (m00, m01, m10, m11))
    det = m00 * m11 - m01 * m10
    if det.is_zero():
        raise ValueError("linear_change needs an invertible matrix")
    n = w.order
    fx = Jet2.monomial(1, 0, m00, n) + Jet2.monomial(0, 1, m01, n)
    fy = Jet2.monomial(1, 0, m10, n) + Jet2.monomial(0, 1, m11, n)
    return pullback_map(w, fx, fy, order=n)


def pullback_blowup(w: OneForm, chart: str, new_var: str | None = None) -> OneForm:
    """Exact blow-up pullback of w in one standard chart.  No division.

    chart "x" substitutes  y = t*x  (the chart covering all directions but
    the y-axis); the result is a form in (x, t).  chart "y" substitutes
    x = s*y, giving a form in (s, y).  Both are exponent maps on the
    polynomial coefficients: chart "x" sends x^i y^j to x^(i+j) t^j and
    chart "y" sends it to s^i y^(i+j), so the output order is 2*order+1: a
    monomial of degree <= N maps to degree i+2j <= 2N, and the extra factor
    of t (resp. x, s, y) from  dy = t dx + x dt  adds one more.
    """
    n = w.order
    out = 2 * n + 1
    xname, yname = w.variables
    if chart == "x":
        # A dx + B dy -> (A + t B) dx + x B dt
        a_new = w.a.exponent_map(lambda i, j: (i + j, j), out) + w.b.exponent_map(
            lambda i, j: (i + j, j + 1), out
        )
        b_new = w.b.exponent_map(lambda i, j: (i + j + 1, j), out)
        return OneForm(a_new, b_new, (xname, new_var or "t"))
    if chart == "y":
        # A dx + B dy -> y A ds + (s A + B) dy
        a_new = w.a.exponent_map(lambda i, j: (i, i + j + 1), out)
        b_new = w.a.exponent_map(lambda i, j: (i + 1, i + j), out) + w.b.exponent_map(
            lambda i, j: (i, i + j), out
        )
        return OneForm(a_new, b_new, (new_var or "s", yname))
    raise ValueError("chart must be 'x' or 'y'")


def _axis_index(w: OneForm, divisor_var: str) -> int:
    if divisor_var not in w.variables:
        raise ValueError(f"{divisor_var!r} is not a variable of this form")
    return w.variables.index(divisor_var)


def exceptional_divide(w: OneForm, divisor_var: str) -> tuple[OneForm, int]:
    """Divide w by the maximal power of the divisor coordinate.

    Returns (w / v^k, k) with k maximal such that v^k divides both
    coefficients; k = 0 when nothing divides (or w = 0).
    """
    idx = _axis_index(w, divisor_var)
    axis = "xy"[idx]
    k = min(
        (v for v in (w.a.valuation(axis), w.b.valuation(axis)) if v is not None),
        default=0,
    )
    if not k:
        return w, 0
    n = w.order - k
    shift = (lambda i, j: (i - k, j)) if idx == 0 else (lambda i, j: (i, j - k))
    return OneForm(w.a.exponent_map(shift, n), w.b.exponent_map(shift, n), w.variables), k


class DivisorReport:
    """Tangency analysis of a (divided) 1-form along one coordinate axis."""

    def __init__(
        self,
        invariant: bool,
        restricted: Jet1,
        tangency_points: list[tuple[Coeff, int]],
        residual_degree: int,
        infinity_tangency: bool | None = None,
    ):
        self.invariant = invariant
        self.restricted = restricted
        self.tangency_points = tangency_points
        self.residual_degree = residual_degree
        self.infinity_tangency = infinity_tangency


def divisor_analysis(
    w: OneForm, divisor_var: str, expected_degree: int | None = None
) -> DivisorReport:
    """Invariance and tangency points of w along the axis {divisor_var = 0}.

    The axis is invariant exactly when the restriction of the *other*
    variable's coefficient to the axis vanishes identically; otherwise the
    roots of that restriction (an exact polynomial within the jet order)
    are the points where the foliation is tangent to, or singular on, the
    axis.  Roots are reported inside Q(i) with multiplicity; a rootless
    residual factor of positive degree signals further points outside Q(i).

    For a divided blow-up pullback the caller knows the total tangency
    degree the divisor must carry; passing it as ``expected_degree`` makes
    the report flag a tangency at the chart's point at infinity (the
    restriction has lower degree than expected exactly when the missing
    direction is a tangency point).
    """
    idx = _axis_index(w, divisor_var)
    transversal_jet = w.b if idx == 0 else w.a
    restricted = transversal_jet.restrict_to_axis("y" if idx == 0 else "x")
    if restricted.is_zero():
        return DivisorReport(True, restricted, [], 0)
    deg = restricted.degree()
    poly = [restricted.coeff(k) for k in range(deg + 1)]
    roots, residual = roots_with_multiplicity(poly)
    at_infty = None
    if expected_degree is not None:
        at_infty = deg < expected_degree
    return DivisorReport(False, restricted, roots, residual, at_infty)


class ReductionVerdict(Enum):
    """Outcome of the two-blow-up reduction test."""

    CUSP_TYPE_ABSOLUTELY_DICRITICAL = "CuspTypeAbsolutelyDicritical"
    NOT_DICRITICAL = "NotDicritical"
    WRONG_REDUCTION_TREE = "WrongReductionTree"
    INCONCLUSIVE = "Inconclusive"


# Certifying every zero/nonzero decision of the reduction needs the input
# coefficients up to total degree 5 (degree 3 fixes the tangency cone, the
# degree 4 and 5 coefficients fix the singular point and its linear part
# after the first blow-up).  The blow-up pullbacks treat the jet as exact, so
# below that order the checks after the first blow-up would read unknown
# terms as zeros; such a run stops as Inconclusive once the cone is checked.
_CERTIFYING_ORDER = 5


class ReductionReport:
    """Full data of the two-step reduction; every stage that ran is recorded.

    ``singular_points_on_D2`` lists the tangency/singular points on the
    first exceptional curve D2 in the first-chart coordinate t, each with
    its multiplicity.  On a cusp-type form this is exactly [(0, 2)] and the
    second blow-up is centered there.
    """

    def __init__(
        self,
        order: int,
        verdict: ReductionVerdict = ReductionVerdict.INCONCLUSIVE,
        reason: str = "",
        is_valuation_3: bool = False,
        p2_coefficient: Coeff | None = None,
        applied_linear_change: tuple | None = None,
        first_chart_form: OneForm | None = None,
        exceptional_power_1: int | None = None,
        singular_points_on_D2: list | None = None,
        tangency_at_infinity: bool | None = None,
        second_chart_form: OneForm | None = None,
        exceptional_power_2: int | None = None,
        corner_regular: bool = False,
        transverse_to_D1: bool = False,
        transverse_to_D2: bool = False,
    ):
        self.order = order
        self.verdict = verdict
        self.reason = reason
        self.is_valuation_3 = is_valuation_3
        self.p2_coefficient = p2_coefficient
        self.applied_linear_change = applied_linear_change
        self.first_chart_form = first_chart_form
        self.exceptional_power_1 = exceptional_power_1
        self.singular_points_on_D2 = [] if singular_points_on_D2 is None else singular_points_on_D2
        self.tangency_at_infinity = tangency_at_infinity
        self.second_chart_form = second_chart_form
        self.exceptional_power_2 = exceptional_power_2
        self.corner_regular = corner_regular
        self.transverse_to_D1 = transverse_to_D1
        self.transverse_to_D2 = transverse_to_D2

    def __bool__(self):
        return self.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL


def _finish(rep: ReductionReport, verdict: ReductionVerdict, reason: str):
    rep.verdict = verdict
    rep.reason = reason
    return rep


def reduce_cusp(w: OneForm) -> ReductionReport:
    """Decide whether w defines an absolutely dicritical foliation of cusp type.

    The procedure follows the geometry step by step: valuation 3; degree-3
    part radial with a perfect-square cofactor (one tangency direction,
    moved to t=0 by an exact linear change); first blow-up, divide by the
    maximal exceptional power (must be 4); exactly one tangency point on
    the new divisor, of multiplicity 2, located at the origin and singular
    for the transformed foliation, with radial linear part; second blow-up
    there (exceptional power 2); finally the corner must be regular and the
    foliation transverse to both divisor components everywhere, including
    the points at infinity of the working charts.

    A failing zero/nonzero decision that is visible inside the jet order is
    definitive.  Below the certifying threshold (order 5) only the degree-3
    checks are decidable; if they pass, the verdict is Inconclusive at that
    order.
    """
    rep = ReductionReport(order=w.order)
    n = w.order
    v = w.valuation()
    if v is None:
        return _finish(
            rep, ReductionVerdict.INCONCLUSIVE, "form vanishes to the working order"
        )
    if v != 3:
        rep.is_valuation_3 = False
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            f"valuation {v} != 3: the reduction tree of a cusp starts at multiplicity 3",
        )
    rep.is_valuation_3 = True

    p = radial_tangency(w, 3)
    if p is None:
        return _finish(
            rep,
            ReductionVerdict.NOT_DICRITICAL,
            "degree-3 part is not radial: the first blow-up is not dicritical",
        )
    p20, p11, p02 = p.coeff(2, 0), p.coeff(1, 1), p.coeff(0, 2)
    disc = p11 * p11 - 4 * p20 * p02
    if not disc.is_zero():
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "tangency cone has two distinct directions (cofactor is not a perfect square)",
        )
    if p02.is_zero():
        # Double direction at t = infinity (cofactor a*x^2): swap the axes.
        mat = ((0, 1), (1, 0))
        w = linear_change(w, mat)
        rep.applied_linear_change = mat
    elif not p11.is_zero():
        # Shear the double direction y = t0*x down to t = 0.
        t0 = -p11 / (2 * p02)
        mat = ((1, 0), (t0, 1))
        w = linear_change(w, mat)
        rep.applied_linear_change = mat
    p = radial_tangency(w, 3)
    if p is None or not p.coeff(2, 0).is_zero() or not p.coeff(1, 1).is_zero():
        return _finish(
            rep,
            ReductionVerdict.NOT_DICRITICAL,
            "normalizing linear change did not yield a radial cone a*y^2",
        )
    a = p.coeff(0, 2)
    rep.p2_coefficient = a
    if a.is_zero():
        return _finish(
            rep,
            ReductionVerdict.NOT_DICRITICAL,
            "degenerate tangency cone (zero cofactor)",
        )

    if n < _CERTIFYING_ORDER:
        return _finish(
            rep,
            ReductionVerdict.INCONCLUSIVE,
            f"degree-3 checks pass but order {n} < {_CERTIFYING_ORDER} cannot certify the blow-ups",
        )

    # --- first blow-up, chart (x, t), divisor D2 = {x = 0} ---
    xname = w.variables[0]
    raw1 = pullback_blowup(w, "x", new_var="t")
    w1, k1 = exceptional_divide(raw1, xname)
    rep.first_chart_form = w1
    rep.exceptional_power_1 = k1
    if k1 != 4:
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            f"exceptional power {k1} != 4 after the first blow-up",
        )
    div1 = divisor_analysis(w1, xname, expected_degree=2)
    if div1.invariant:
        return _finish(
            rep,
            ReductionVerdict.NOT_DICRITICAL,
            "first blow-up is not dicritical: the exceptional curve is invariant",
        )
    rep.singular_points_on_D2 = div1.tangency_points
    rep.tangency_at_infinity = bool(div1.infinity_tangency)
    single_double_origin = (
        div1.residual_degree == 0
        and not div1.infinity_tangency
        and len(div1.tangency_points) == 1
        and div1.tangency_points[0][0].is_zero()
        and div1.tangency_points[0][1] == 2
    )
    if not single_double_origin:
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "tangency pattern on D2 is not a single double point at the origin",
        )

    # --- the tangency point must be singular, with radial linear part ---
    a1, b1 = w1.a, w1.b
    if not a1.coeff(0, 0).is_zero() or not b1.coeff(0, 0).is_zero():
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "tangency point on D2 is a regular point of the transformed foliation",
        )
    c = a1.coeff(0, 1)
    cx = a1.coeff(1, 0)
    dt = b1.coeff(0, 1)
    dx = b1.coeff(1, 0)
    if c.is_zero() and cx.is_zero() and dt.is_zero() and dx.is_zero():
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "tangency point has multiplicity >= 2 after the first blow-up",
        )
    if not (cx.is_zero() and dt.is_zero() and dx == -c and not c.is_zero()):
        return _finish(
            rep,
            ReductionVerdict.NOT_DICRITICAL,
            "second blow-up is not dicritical: linear part at the tangency point is not radial",
        )

    # --- second blow-up at the tangency point: corner chart x = xi*t ---
    raw2 = pullback_blowup(w1, "y", new_var="xi")
    w2, k2 = exceptional_divide(raw2, "t")
    rep.second_chart_form = w2
    rep.exceptional_power_2 = k2
    if k2 != 2:
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            f"exceptional power {k2} != 2 after the second blow-up",
        )
    # Other chart of the second blow-up, t = tau*x, covering the point of
    # D1 missed by the corner chart.
    raw_tau = pullback_blowup(w1, "x", new_var="tau")
    w_tau, _ = exceptional_divide(raw_tau, xname)

    a2c = w2.a.coeff(0, 0)
    b2c = w2.b.coeff(0, 0)
    rep.corner_regular = (not a2c.is_zero()) and (not b2c.is_zero())

    # D1 = {t = 0}: transversal coefficient is the d(xi) one, restricted.
    d1rep = divisor_analysis(w2, "t", expected_degree=0)
    d1_chart_ok = (
        not d1rep.invariant
        and not d1rep.tangency_points
        and d1rep.residual_degree == 0
    )
    # The remaining point of D1 sits at the origin of the tau chart.
    dtau = divisor_analysis(w_tau, xname)
    d1_infty_ok = (
        not dtau.invariant
        and not dtau.tangency_points
        and dtau.residual_degree == 0
    )
    rep.transverse_to_D1 = d1_chart_ok and d1_infty_ok

    # D2 = {xi = 0} near the corner; away from the corner its points were
    # already covered by the first-chart analysis (single double tangency,
    # resolved by the second blow-up) and by the first y-chart at t=infinity.
    d2rep = divisor_analysis(w2, "xi", expected_degree=0)
    d2_corner_ok = (
        not d2rep.invariant
        and not d2rep.tangency_points
        and d2rep.residual_degree == 0
    )
    raw_y = pullback_blowup(w, "y", new_var="s")
    w_y, _ = exceptional_divide(raw_y, w.variables[1])
    dy_rep = divisor_analysis(w_y, w.variables[1])
    d2_infty_ok = (
        not dy_rep.invariant
        and not dy_rep.tangency_points
        and dy_rep.residual_degree == 0
    )
    rep.transverse_to_D2 = d2_corner_ok and d2_infty_ok

    if not rep.corner_regular:
        return _finish(
            rep,
            ReductionVerdict.NOT_DICRITICAL,
            "corner point is not a regular transverse point of the reduced foliation",
        )
    if not rep.transverse_to_D1 or not rep.transverse_to_D2:
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "residual tangency on the exceptional divisor after two blow-ups",
        )
    return _finish(
        rep,
        ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL,
        "two blow-ups reduce the foliation, regular and transverse to both divisor components",
    )


class RelativeExactness:
    """Result of solving  eta = df + g*w  to a given order.

    On failure, ``first_obstructed_degree`` is the smallest degree d such
    that the equations for all coefficients of total degree <= d are
    already unsolvable, and ``certificate`` is an exact row combination
    (label, multiplier) over those equations proving it; labels are
    ("A"|"B", i, j) for the coefficient of x^i y^j in the named slot.
    """

    def __init__(
        self,
        feasible: bool,
        order: int,
        f: Jet2 | None = None,
        g: Jet2 | None = None,
        first_obstructed_degree: int | None = None,
        certificate: list | None = None,
        certificate_checked: bool = False,
    ):
        self.feasible = feasible
        self.order = order
        self.f = f
        self.g = g
        self.first_obstructed_degree = first_obstructed_degree
        self.certificate = certificate
        self.certificate_checked = certificate_checked


def _relex_system(eta: OneForm, w: OneForm, order: int, fmax: int, gmax: int):
    """Rows, rhs, labels, and column maps for the relative exactness system."""
    fcols = {}
    gcols = {}
    cols = 0
    for d in range(0, gmax + 1):
        for i in range(d, -1, -1):
            gcols[(i, d - i)] = cols
            cols += 1
    for d in range(1, fmax + 1):
        for i in range(d, -1, -1):
            fcols[(i, d - i)] = cols
            cols += 1
    wa = {k: c for k, c in w.a.items()}
    wb = {k: c for k, c in w.b.items()}
    rows, rhs, labels = [], [], []
    for d in range(0, order + 1):
        for i in range(d, -1, -1):
            j = d - i
            for slot, jet, wc in (("A", eta.a, wa), ("B", eta.b, wb)):
                row = [ZERO] * cols
                if slot == "A":
                    key = (i + 1, j)
                    if key in fcols:
                        row[fcols[key]] = Coeff(i + 1)
                else:
                    key = (i, j + 1)
                    if key in fcols:
                        row[fcols[key]] = Coeff(j + 1)
                for (r, s), col in gcols.items():
                    u, vv = i - r, j - s
                    if u >= 0 and vv >= 0 and (u, vv) in wc:
                        row[col] = row[col] + wc[(u, vv)]
                rows.append(row)
                rhs.append(jet.coeff(i, j))
                labels.append((slot, i, j))
    return rows, rhs, labels, fcols, gcols


def relative_exactness_solve(eta: OneForm, w: OneForm, order=None) -> RelativeExactness:
    """Solve  eta = df + g*w  exactly, degree by degree, up to ``order``.

    Unknowns are the coefficients of f (degrees 1..order+1; the irrelevant
    constant term is fixed to 0) and of g (degrees 0..order-val(w)).  When
    the full system is infeasible the solver locates the first obstructed
    degree and extracts a re-checked Farkas certificate over the equations
    up to that degree.
    """
    eta._require_same_chart(w)
    n = min(eta.order, w.order) if order is None else order
    if eta.order < n or w.order < n:
        raise JetError("requested order exceeds the data's jet order")
    eta = eta.truncate(n)
    wt = w.truncate(n)
    vw = wt.valuation()
    gmax = n - vw if vw is not None else -1

    def _attempt(upto: int, want_cert: bool):
        fm = upto + 1
        gm = min(gmax, upto) if gmax >= 0 else -1
        rows, rhs, labels, fcols, gcols = _relex_system(eta, wt, upto, fm, gm)
        res = solve(rows, rhs, certificate=want_cert)
        return res, rows, rhs, labels, fcols, gcols

    res, rows, rhs, labels, fcols, gcols = _attempt(n, False)
    if res.feasible:
        fd = {k: res.solution[c] for k, c in fcols.items()}
        gd = {k: res.solution[c] for k, c in gcols.items()}
        f = Jet2(fd, n + 1)
        g = Jet2(gd, n) if gmax >= 0 else Jet2.zero(n)
        out = RelativeExactness(True, n, f=f, g=g)
        resid = (eta - differential(f, eta.variables).truncate(n) - (wt * g)).truncate(n)
        if not resid.is_zero():
            raise AssertionError("relative exactness solution failed re-substitution")
        return out
    for d in range(0, n + 1):
        res_d, rows, rhs, labels, fcols, gcols = _attempt(d, True)
        if not res_d.feasible:
            cert = [(labels[idx], c) for idx, c in res_d.certificate]
            checked = res_d.check_certificate(rows, rhs)
            return RelativeExactness(
                False,
                n,
                first_obstructed_degree=d,
                certificate=cert,
                certificate_checked=checked,
            )
    raise AssertionError("full system infeasible but every prefix solvable")
