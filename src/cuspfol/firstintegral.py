"""Rational first integrals of the glued foliation.

A meromorphic first integral exists exactly when two nonconstant rational
functions R1, R2 satisfy R1 o sigma = R2, where sigma is the transversal
structure at the corner.  This module offers the pieces of that criterion
that are decidable at finite jet order:

* exact verification of a proposed relation (denominator-cleared, so poles
  of the rational functions are harmless),
* Kronecker/Pade rationality testing of a single truncated series - "is
  R1 o sigma rational of bounded degree?" - with exact reconstruction and
  re-expansion,
* the two canonical first integrals of the homographic case,
  (y^2+x^3)/(xy) and (y^2+x^3)/(xy) + x, which define analytically
  equivalent foliations,
* a bounded search for a relation over monomial probes R1 = z^k.

The probes run on the kernel's one-variable routines: sigma^k is one
``jet1_mul`` of sigma^(k-1) by sigma, the Hankel rows are its triples, P is
the head of ``jet1_mul(Q, sigma^k)``, and P * Q^-1 = sigma^k is checked
exactly with ``jet1_reciprocal``.  Only the pair a search prints is reduced
to a :class:`Rational1`, and it is checked again after the reduction.

Polynomials are the kernel's too.  A :class:`Rational1` is reduced by a
monic gcd on lists of kernel triples (``_divmod``, ``_gcd``), a polynomial
is evaluated at sigma as the composition of its coefficient jet, and
r o h for a homography h is read off a binomial closed form with no
polynomial product.

The bounded search is evidence, not proof: absence of a relation up to the
degree bound is reported as exactly that.  The general existence problem
is bilinear in (R1, R2) and is deliberately not attempted here.
"""

from __future__ import annotations

from math import comb

from ._backend import QONE, QZERO, jet1_mul, jet1_reciprocal, qinv, qiszero, qmul, qneg, qsub
from .coeff import Coeff, as_triple
from .jets import DEFAULT_ORDER, Jet1, Jet2
from .linalg import determinant, solve
from .moduli import Homography


def _trim(p) -> list:
    """The triples of a sequence of ``Coeff``, ints or fractions, trailing
    zeros dropped, so ``[]`` is the zero polynomial."""
    out = [as_triple(v) for v in p]
    while out and qiszero(out[-1]):
        out.pop()
    return out


def _divmod(a, b) -> tuple[list, list]:
    """Quotient and remainder of the trimmed triple list ``a`` by ``b`` != []."""
    r = list(a)
    q = [QZERO] * max(len(r) - len(b) + 1, 0)
    inv = qinv(b[-1])
    while len(r) >= len(b):
        f = qmul(r[-1], inv)
        k = len(r) - len(b)
        q[k] = f
        for i, v in enumerate(b):
            r[k + i] = qsub(r[k + i], qmul(f, v))
        while r and qiszero(r[-1]):
            r.pop()
    return q, r


def _gcd(a, b) -> list:
    """The monic gcd of two trimmed triple lists, not both zero."""
    while b:
        a, b = b, _divmod(a, b)[1]
    inv = qinv(a[-1])
    return [qmul(t, inv) for t in a]


class Rational1:
    """A reduced rational function num/den of one variable.

    Stored lowest-degree-first; normalized so gcd(num, den) = 1 and the
    denominator has constant term 1 when possible (leading term 1 when the
    denominator vanishes at the origin).
    """

    def __init__(self, num: tuple, den: tuple = (Coeff(1),)):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ValueError("rational function needs a nonzero denominator")
        g = _gcd(num, den)
        if len(g) > 1:
            num = _divmod(num, g)[0]
            den = _divmod(den, g)[0]
        s = qinv(den[0] if not qiszero(den[0]) else den[-1])
        self.num = tuple(Coeff.from_triple(qmul(t, s)) for t in num)
        self.den = tuple(Coeff.from_triple(qmul(t, s)) for t in den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def degree(self):
        dn = len(self.num) - 1 if self.num else 0
        dd = len(self.den) - 1
        return max(dn, dd)

    def expand(self, order) -> Jet1:
        """Taylor jet at the origin; requires den(0) != 0.

        A polynomial at z is its own coefficient jet, so this is one
        series division of those jets.
        """
        if self.den[0].is_zero():
            raise ValueError("pole at the origin")
        return Jet1(self.num, order).div(Jet1(self.den, order))


def rational_precompose(r: Rational1, h: Homography) -> Rational1:
    """The rational function r o h, cleared of denominators exactly.

    With d = ``r.degree()`` and h = lam*z/(1 + mu*z), a numerator or
    denominator P of r becomes sum_i p_i (lam*z)^i (1 + mu*z)^(d-i), whose
    coefficient m is sum_(i <= m) p_i lam^i C(d-i, m-i) mu^(m-i).
    """
    d = r.degree()
    lam = [h.lam**i for i in range(d + 1)]
    mu = [h.mu**k for k in range(d + 1)]

    def push(p):
        return [
            sum(
                (c * lam[i] * mu[m - i] * comb(d - i, m - i) for i, c in enumerate(p[: m + 1])),
                Coeff(0),
            )
            for m in range(d + 1)
        ]

    return Rational1(push(r.num), push(r.den))


# ---------------------------------------------------------------------------
# the relation R1 o sigma = R2


def verify_rational_relation(r1: Rational1, r2: Rational1, sigma: Jet1, order) -> bool:
    """Exact check of P1(sigma)*Q2(z) - P2(z)*Q1(sigma) = 0 to the order.

    Denominator-cleared, so rational functions with poles (even at the
    origin) are handled without division.
    """
    if sigma.order < order:
        raise ValueError("sigma jet is shorter than the requested order")
    s = sigma.truncate(order)
    lhs = Jet1(r1.num, order).compose(s) * Jet1(r2.den, order) - Jet1(
        r2.num, order
    ) * Jet1(r1.den, order).compose(s)
    return lhs.is_zero()


# ---------------------------------------------------------------------------
# rationality testing


def hankel_determinant(g: Jet1, size, shift=0) -> Coeff:
    """Exact determinant of the Hankel matrix [g_{shift+i+j}]."""
    top = shift + 2 * (size - 1)
    if top > g.order:
        raise ValueError(f"jet order {g.order} too small for index {top}")
    return determinant(
        [[g.coeff(shift + i + j) for j in range(size)] for i in range(size)]
    )


def _check_pade_order(d, n):
    if n < 2 * d + 2:
        raise ValueError(f"order {n} insufficient: need at least {2 * d + 2}")


def _pade(g, d, n):
    """(P, Q) with P/Q = g to order n, deg P, deg Q <= d and Q(0) = 1, or None.

    ``g`` is a list of kernel triples g_0..g_n.  The Hankel rows
    coefficient_m(Q*g) = 0, d < m <= n, are solved for Q_1..Q_d in one
    ``linalg.solve``; None means they are infeasible.  P is the degree-<=d
    head of ``jet1_mul(Q, g)``, and P * Q^-1 = g to order n is checked
    exactly.  Both are triple lists.

    A solution with Q(0) = 1 makes that check an identity: Q*g agrees with
    P to order n, and Q is invertible.  So a failed check is a fault of the
    library, an ``AssertionError`` as in :func:`_reduced`, not a miss.
    """
    rows = [g[m - d : m][::-1] for m in range(d + 1, n + 1)]
    res = solve(rows, [qneg(g[m]) for m in range(d + 1, n + 1)])
    if not res.feasible:
        return None
    q = [QONE] + [c.triple for c in res.solution]
    p = jet1_mul(q, g, n)[: d + 1]
    if jet1_mul(p, jet1_reciprocal(q, n), n) != g:
        raise AssertionError("a feasible Hankel solution fails P * Q^-1 = g")
    return p, q


def _reduced(p, q, g, n) -> Rational1:
    """P/Q as a reduced :class:`Rational1`, checked again against g."""
    cand = Rational1(
        tuple(Coeff.from_triple(t) for t in p), tuple(Coeff.from_triple(t) for t in q)
    )
    if list(cand.expand(n).triples) != g:
        raise AssertionError("reduced Pade pair does not re-expand to g")
    return cand


def hankel_rationality(g: Jet1, max_deg, order) -> Rational1 | None:
    """Reconstruct g as a rational function of degree <= max_deg, if any.

    Kronecker's criterion in its Pade form: a power series agrees with a
    rational function P/Q (deg P, deg Q <= d, Q(0) != 0) to order N >= 2d+2
    iff the linear system  coefficient_m(Q*g) = 0 for d < m <= N  has a
    solution with Q(0) = 1; then P is the degree-<=d head of Q*g.  The
    system is solved on g's kernel triples, P * Q^-1 = g is checked
    exactly, and the reconstruction is reduced and re-expanded once more.
    """
    d = int(max_deg)
    n = int(order)
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    _check_pade_order(d, n)
    if g.order < n:
        raise ValueError(f"jet order {g.order} is shorter than requested order {n}")
    t = list(g.triples[: n + 1])
    pq = _pade(t, d, n)
    return None if pq is None else _reduced(*pq, t, n)


# ---------------------------------------------------------------------------
# the homographic case


def homographic_case_first_integrals(order=DEFAULT_ORDER):
    """The two canonical rational first integrals, cleared of denominators.

    Returns ((y^2+x^3, x*y), (y^2+x^3+x^2*y, x*y)): the level functions
    (y^2+x^3)/(xy) and (y^2+x^3)/(xy) + x.  Both define cusp-type
    absolutely dicritical foliations, and the two foliations are
    analytically equivalent (their transversal structures are homographies
    with vanishing Schwarzian).
    """
    num1 = Jet2({(0, 2): 1, (3, 0): 1}, order)
    num2 = Jet2({(0, 2): 1, (3, 0): 1, (2, 1): 1}, order)
    den = Jet2({(1, 1): 1}, order)
    return ((num1, den), (num2, den))


# ---------------------------------------------------------------------------
# bounded search


class FirstIntegralReport:
    """Outcome of the bounded monomial-probe search for a relation: the
    relation found, if any, each probe's hit, the degree bound and a note.
    The jet order is the caller's argument and is not kept."""

    def __init__(
        self,
        relation_found: bool,
        r1: Rational1 | None,
        r2: Rational1 | None,
        probes: tuple,
        degree_bound: int,
        note: str,
    ):
        self.relation_found = relation_found
        self.r1 = r1
        self.r2 = r2
        self.probes = probes
        self.degree_bound = degree_bound
        self.note = note

    def __bool__(self):
        return self.relation_found


def no_first_integral_witness(sigma: Jet1, d, order) -> FirstIntegralReport:
    """Probe R1 = z^k, k <= d, for rationality of R1 o sigma.

    Probe k takes sigma^k as one ``jet1_mul`` of sigma^(k-1) by sigma and
    asks for a degree-<=d Pade pair P/Q of it, as ``hankel_rationality``
    does, on kernel triples.  Only the first hit, which the report
    carries as the relation (R1, R2), is reduced to a :class:`Rational1`
    and checked again.  A miss on every probe is evidence of no first
    integral within the bound - a bounded search, not a proof.
    """
    d = int(d)
    if d < 1:
        raise ValueError("degree bound must be >= 1")
    n = int(order)
    if sigma.order < n:
        raise ValueError("sigma jet is shorter than the requested order")
    _check_pade_order(d, n)
    s = list(sigma.triples[: n + 1])
    power = [QONE]
    probes = []
    found = None
    for k in range(1, d + 1):
        power = jet1_mul(power, s, n)
        pq = _pade(power, d, n)
        probes.append((k, pq is not None))
        if pq is not None and found is None:
            found = (Rational1((0,) * k + (1,)), _reduced(*pq, power, n))
    note = (
        f"bounded search over monomial probes z^k, k <= {d}; "
        "absence of a relation within the bound is evidence, not a proof"
    )
    if found is None:
        return FirstIntegralReport(False, None, None, tuple(probes), d, note)
    return FirstIntegralReport(True, found[0], found[1], tuple(probes), d, note)
