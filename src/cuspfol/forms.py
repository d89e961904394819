"""Plane 1-forms, blow-ups, and the two-step cusp reduction.

A foliation germ is given by a 1-form  w = A dx + B dy  with jet
coefficients.  This module provides the geometric tool chain:

- construction from a meromorphic first integral candidate (num/den),
- radial tangency of homogeneous parts: the cofactor of the radial form
  x dy - y dx,
- exact blow-up pullbacks in both standard charts and division by the
  exceptional coordinate,
- ``reduce_cusp``: the decision procedure for "absolutely dicritical of
  cusp type", i.e. the foliation becomes regular and everywhere transverse
  to the exceptional divisor after exactly two blow-ups (the second one
  centered at the unique tangency point created by the first).  Once the
  tangency cone is a*y^2 the verdict reads only the 5-jet: regularity of
  the corner and transversality to both divisor components follow from a
  lemma (see ``reduce_cusp``), so only the two pullbacks that feed the
  report are built, and the lemma's values are checked again on them.

Divisor naming convention used throughout (and by the CLI): after the two
blow-ups the divisor has two components; D2 is the strict transform of the
first exceptional curve (self-intersection -2) and D1 is the second, last
blown-up curve (self-intersection -1).  The corner is their intersection.
In the second-blow-up chart (xi, t) produced here, D2 = {xi = 0} and
D1 = {t = 0}.

Everything is exact over Q(i); no approximation is used anywhere.  Blow-up
pullbacks move the monomials of the polynomial coefficients, so they *raise*
the jet order (an order-N input yields an order 2N+1 pullback); see
``pullback_blowup``.  The reduction works on the jets' kernel triples from
the input form to the report: the radial test, the blow-ups and the
divisions build their {(i, j): triple} dicts directly, and every zero test
and comparison is one of triples.  ``Coeff`` values are formed only for
the report's fields.
"""

from __future__ import annotations

from enum import Enum

from ._backend import QZERO, FormNumerators, mero_form, qdiv, qiszero, qmul, qneg
from .coeff import Coeff, ZERO
from .jets import Jet2, JetError, _check_targets, derivative_order


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

    def valuation(self):
        """Minimal total degree with a nonzero coefficient; None if zero."""
        va = self.a.valuation()
        vb = self.b.valuation()
        if va is None:
            return vb
        if vb is None:
            return va
        return min(va, vb)

    def __repr__(self):
        x, y = self.variables
        return f"OneForm(({self.a!r}) d{x} + ({self.b!r}) d{y})"


# The size budget of input coefficients, in bits: a product of coefficients
# of magnitudes m1 and m2 (see ``magnitude``) is refused before it is formed
# when m1*m2 has more bits, at each '*' of the parser and at the cross
# products of ``form_of_meromorphic``.
MAX_COEFF_BITS = 1 << 16


def magnitude(triples):
    """The largest |a| + |b| + d over kernel triples (a, b, d), each standing
    for (a + b*i)/d; 0 for none.  The real and imaginary parts and the
    denominator of a product of coefficients of magnitudes m1 and m2 are all
    below m1*m2."""
    return max((abs(a) + abs(b) + d for a, b, d in triples), default=0)


def form_of_meromorphic(num: Jet2, den: Jet2) -> OneForm:
    """The 1-form  den*d(num) - num*d(den)  defining the level sets of num/den.

    The form has order min(num.order, den.order) - 1.  It is formed in one
    kernel pass over the pairs of terms of den and num
    (:func:`~cuspfol._backend.mero_form`), with no derivative or product
    jet and one ``qnorm`` per output coefficient.  Raises ``ValueError``
    when the magnitudes of the two jets' coefficients multiply past
    ``MAX_COEFF_BITS`` bits.
    """
    if num.is_zero() or den.is_zero():
        raise ValueError("form_of_meromorphic needs nonzero numerator and denominator")
    size = magnitude(t for _, t in num.triple_items()) * magnitude(
        t for _, t in den.triple_items()
    )
    if size >> MAX_COEFF_BITS:
        raise ValueError(
            f"the cross products of the numerator and the denominator may need "
            f"{size.bit_length()} bits; at most {MAX_COEFF_BITS} are allowed"
        )
    n = derivative_order(min(num.order, den.order))
    a, b = mero_form(num.triple_items(), den.triple_items(), n)
    return OneForm(Jet2._raw(a, n), Jet2._raw(b, n))


def radial_tangency(w: OneForm, degree: int):
    """The cofactor P with  (A_d dx + B_d dy) = P*(x dy - y dx), if it exists.

    The degree-d homogeneous part is tangent to the radial vector field
    exactly when  x*A_d + y*B_d = 0, which is tested coefficient by
    coefficient: A_d[k-1, d+1-k] + B_d[k, d-k] = 0 for k = 0..d+1.  In that
    case x divides B_d and P = B_d/x, a homogeneous cofactor of degree d-1,
    is returned at order ``w.order - 1`` (read off by the exponent shift
    x^i y^j -> x^(i-1) y^j).  Returns None when the tangency identity fails.
    The d + 1 coefficients of each part are read by their exponents and
    compared as kernel triples.
    """
    n = w.order
    d = degree
    if d > n:
        return Jet2.zero(n)
    ad = [w.a.triple(i, d - i) for i in range(d + 1)]
    bd = [w.b.triple(i, d - i) for i in range(d + 1)]
    if not any(t[0] or t[1] for t in ad + bd):
        return Jet2.zero(n)
    if not (qiszero(bd[0]) and qiszero(ad[d]) and all(bd[i + 1] == qneg(ad[i]) for i in range(d))):
        return None
    # x*A_d = -y*B_d with A_d, B_d not both zero, so B_d != 0 and x | B_d
    return Jet2._raw({(i - 1, d - i): t for i, t in enumerate(bd) if t[0] or t[1]}, n - 1)


def pullback_map(w: OneForm, fx: Jet2, fy: Jet2, order=None) -> OneForm:
    """Pull back w under the map (x, y) -> (fx, fy) fixing the origin.

    The default output order is  min(w.order, fx.order, fy.order) - 1  (one
    derivative is taken).  An explicit ``order`` may be at most that
    minimum: the coefficients are substituted at exactly ``order``, and at
    the minimum itself the derivatives of fx and fy are read as exact
    polynomials.  A larger ``order``, or a target with a constant term,
    raises :class:`JetError`.

    Both coefficients are substituted over one denominator, sharing the
    powers of fy, and multiplied by the Jacobian numerators in integers, so
    each nonzero output coefficient is normalized once (see
    :class:`~cuspfol._backend.FormNumerators`).
    """
    top = min(w.order, fx.order, fy.order)
    if order is None:
        order = top - 1
    elif order > top:
        raise JetError(f"pullback order {order} exceeds the data order {top}")
    _check_targets(fx, fy)
    form = FormNumerators(dict(w.a.triple_items()), dict(w.b.triple_items()), order)
    form.pullback(dict(fx.triple_items()), dict(fy.triple_items()))
    a, b = form.triples()
    return OneForm(Jet2._raw(a, order), Jet2._raw(b, order), w.variables)


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
    fx = Jet2({(1, 0): m00, (0, 1): m01}, n)
    fy = Jet2({(1, 0): m10, (0, 1): m11}, n)
    return pullback_map(w, fx, fy, order=n)


def pullback_blowup(w: OneForm, chart: str, new_var: str | None = None) -> OneForm:
    """Exact blow-up pullback of w in one standard chart.  No division.

    chart "x" substitutes  y = t*x  (the chart covering all directions but
    the y-axis); the result is a form in (x, t).  chart "y" substitutes
    x = s*y, giving a form in (s, y).  Both move the monomials of the
    polynomial coefficients: chart "x" sends x^i y^j to x^(i+j) t^j and
    chart "y" sends it to s^i y^(i+j), so the output order is 2*order+1: a
    monomial of degree <= N maps to degree i+2j <= 2N, and the extra factor
    of t (resp. x, s, y) from  dy = t dx + x dt  adds one more.  Each image
    is one dict of kernel triples built from the old ones, and the ``Jet2``
    sum of two images adds only the keys they share.
    """
    n = w.order
    out = 2 * n + 1
    xname, yname = w.variables
    a, b = w.a.triple_items(), w.b.triple_items()
    if chart == "x":
        # A dx + B dy -> (A + t B) dx + x B dt
        a_new = Jet2._raw({(i + j, j): t for (i, j), t in a}, out) + Jet2._raw(
            {(i + j, j + 1): t for (i, j), t in b}, out
        )
        b_new = Jet2._raw({(i + j + 1, j): t for (i, j), t in b}, out)
        return OneForm(a_new, b_new, (xname, new_var or "t"))
    if chart == "y":
        # A dx + B dy -> y A ds + (s A + B) dy
        a_new = Jet2._raw({(i, i + j + 1): t for (i, j), t in a}, out)
        b_new = Jet2._raw({(i + 1, i + j): t for (i, j), t in a}, out) + Jet2._raw(
            {(i, i + j): t for (i, j), t in b}, out
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
    di, dj = (k, 0) if idx == 0 else (0, k)
    a, b = (
        Jet2._raw({(i - di, j - dj): t for (i, j), t in jet.triple_items()}, n)
        for jet in (w.a, w.b)
    )
    return OneForm(a, b, w.variables), k


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
    """Data of the two-step reduction; every stage that ran is recorded.

    Computed: ``is_valuation_3``, the cone coefficient ``p2_coefficient``
    (a in :func:`reduce_cusp`), the ``applied_linear_change`` and the
    ``moved_form`` it gives (the input itself when no change is needed;
    set once the cone is a*y^2), the exceptional powers of the two
    blow-ups, the corner chart form ``second_chart_form``, and the
    tangency pattern on the first exceptional curve D2:
    ``singular_points_on_D2`` lists its tangency/singular points in the
    first-chart coordinate t with their multiplicities, and
    ``tangency_at_infinity`` flags the direction the chart misses.  On a
    cusp-type form the pattern is exactly [(0, 2)] and the second blow-up is
    centered there.

    Implied: ``corner_regular``, ``transverse_to_D1`` and
    ``transverse_to_D2`` hold exactly when the form is accepted (the lemma
    in :func:`reduce_cusp`), so they are read off the verdict.
    """

    def __init__(self, order: int):
        self.order = order
        self.verdict = ReductionVerdict.INCONCLUSIVE
        self.reason = ""
        self.is_valuation_3 = False
        self.p2_coefficient = None
        self.applied_linear_change = None
        self.moved_form = None
        self.exceptional_power_1 = None
        self.singular_points_on_D2 = []
        self.tangency_at_infinity = None
        self.second_chart_form = None
        self.exceptional_power_2 = None

    def __bool__(self):
        return self.verdict is ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL

    @property
    def corner_regular(self) -> bool:
        """True exactly on an accepted form, as are both transversality flags."""
        return bool(self)

    transverse_to_D1 = transverse_to_D2 = corner_regular


def _finish(rep: ReductionReport, verdict: ReductionVerdict, reason: str):
    rep.verdict = verdict
    rep.reason = reason
    return rep


def reduce_cusp(w: OneForm) -> ReductionReport:
    """Decide whether w defines an absolutely dicritical foliation of cusp type.

    The checks: valuation 3; the degree-3 part radial, P*(x dy - y dx), with
    a perfect-square cofactor P (one tangency direction), moved by an exact
    linear change to P = a*y^2; first blow-up in the chart y = t*x, divided
    by its exceptional power; the tangency point t = 0 on D2 = {x = 0} must
    be singular with radial linear part; second blow-up there, in the corner
    chart x = xi*t with D1 = {t = 0} and D2 = {xi = 0}.

    Past the cone the geometry is fixed by a lemma.  Write A dx + B dy for
    the form after the linear change and A[m] for the coefficient of the
    monomial m; the cubic part is a*y^2*(x dy - y dx) with a != 0.

    - In the chart y = t*x the exceptional power is 4 and the divided dt
      coefficient on D2 is exactly a*t^2: one double tangency point at
      t = 0 and none at infinity.  In the other chart, x = s*y, the divided
      ds coefficient on the divisor is -a.
    - At t = 0 the divided form is A[x^4] dx plus the linear part
      c*t dx + A[x^5]*x dx + B[x^4]*x dt, with c = A[x^3 y] + B[x^4].  So the
      verdict reads the 5-jet only: cusp type exactly when
      A[x^4] = A[x^5] = 0 and A[x^3 y] = -2*B[x^4] != 0.
    - When that linear part is radial the second exceptional power is 2 and
      the divided corner form is c dxi + a dt + ...  Its dxi coefficient is
      c on all of D1, its dt coefficient is a on all of D2, and in the other
      chart, t = tau*x, the dtau coefficient on D1 is -c.  So the corner is
      regular and the foliation is transverse to both components
      everywhere.

    Only the two pullbacks that feed the report are built, each as dicts
    of kernel triples moved monomial by monomial (``pullback_blowup``) and
    divided by a shift of the exponents (``exceptional_divide``), and every
    check below compares triples.  The cone, the first exceptional power
    with the divided dt coefficient on D2 (compared with a*t^2 exactly, so
    no root is sought), and the second exceptional power with the corner
    values are checked again exactly; a failure there is a fault of the
    library and raises AssertionError.

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
    p20, p11, p02 = p.triple(2, 0), p.triple(1, 1), p.triple(0, 2)
    if qmul(p11, p11) != qmul(qmul(p20, p02), (4, 0, 1)):
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "tangency cone has two distinct directions (cofactor is not a perfect square)",
        )
    mat = None
    if qiszero(p02):
        # Double direction at t = infinity (cofactor a*x^2): swap the axes.
        mat = ((0, 1), (1, 0))
    elif not qiszero(p11):
        # Shear the double direction y = t0*x down to t = 0.
        t0 = qdiv(qneg(p11), qmul(p02, (2, 0, 1)))
        mat = ((1, 0), (Coeff.from_triple(t0), 1))
    if mat is not None:
        # an unmoved form keeps its cone
        w = linear_change(w, mat)
        rep.applied_linear_change = mat
        p = radial_tangency(w, 3)
    a = QZERO if p is None else p.triple(0, 2)
    if qiszero(a) or dict(p.triple_items()) != {(0, 2): a}:
        raise AssertionError("the moved tangency cone is not a*y^2 with a != 0")
    rep.p2_coefficient = Coeff.from_triple(a)
    rep.moved_form = w

    if n < _CERTIFYING_ORDER:
        return _finish(
            rep,
            ReductionVerdict.INCONCLUSIVE,
            f"degree-3 checks pass but order {n} < {_CERTIFYING_ORDER} cannot certify the blow-ups",
        )

    # --- first blow-up, chart (x, t), divisor D2 = {x = 0} ---
    xname = w.variables[0]
    w1, k1 = exceptional_divide(pullback_blowup(w, "x", new_var="t"), xname)
    rep.exceptional_power_1 = k1
    on_d2 = [(key, t) for key, t in w1.b.triple_items() if key[0] == 0]
    if k1 != 4 or on_d2 != [((0, 2), a)]:
        raise AssertionError("the first blow-up does not leave one double point t = 0 on D2")
    rep.singular_points_on_D2 = [(ZERO, 2)]
    rep.tangency_at_infinity = False

    # --- the tangency point must be singular, with radial linear part ---
    if not qiszero(w1.a.triple(0, 0)):
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "tangency point on D2 is a regular point of the transformed foliation",
        )
    # The linear part is c*t dx + a5*x dx + b4*x dt (its t dt term is 0):
    # radial when a5 = 0 and b4 = -c != 0.
    c, a5, b4 = w1.a.triple(0, 1), w1.a.triple(1, 0), w1.b.triple(1, 0)
    if qiszero(c) and qiszero(a5) and qiszero(b4):
        return _finish(
            rep,
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "tangency point has multiplicity >= 2 after the first blow-up",
        )
    if not (qiszero(a5) and b4 == qneg(c) and not qiszero(c)):
        return _finish(
            rep,
            ReductionVerdict.NOT_DICRITICAL,
            "second blow-up is not dicritical: linear part at the tangency point is not radial",
        )

    # --- second blow-up at the tangency point: corner chart x = xi*t ---
    w2, k2 = exceptional_divide(pullback_blowup(w1, "y", new_var="xi"), "t")
    rep.second_chart_form = w2
    rep.exceptional_power_2 = k2
    if k2 != 2 or w2.a.triple(0, 0) != c or w2.b.triple(0, 0) != a:
        raise AssertionError("the second blow-up does not leave c dxi + a dt at the corner")
    return _finish(
        rep,
        ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL,
        "two blow-ups reduce the foliation, regular and transverse to both divisor components",
    )
