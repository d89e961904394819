"""Glued models and the truncated cohomological-equation solver.

The glued surface is built from two elementary fibred models.  Each model
carries two charts; the second chart is reached by the monomial
substitutions

    model "F2":  x2 = 1/y1,  y2 = y1^2 x1     (x1^i y1^j -> x2^(2i-j) y2^i)
    model "F1":  x4 = 1/y3,  y4 = y3 x3       (x3^i y3^j -> x4^(i-j)  y4^i)

so a function germ extends to the whole model exactly when every exponent
image is nonnegative.  :class:`Model` carries those support rules
(``exponent_image``, ``is_global_monomial`` and ``violations``), and they
drive every globality check here.  The models are glued along their first
charts by a cocycle

    (x1, y1) -> (x1*A(x1,y1) + sigma(y1), sigma(y1)),   A(0,0) != 0,

whose distinguished one-parameter shape A = 1 + alpha*y1 is produced by
``build_cocycle``.  Automorphisms of the models have the form
(x*A(x,y), h(y)) with h a homography fixing 0; on the "F1" side the
diagonal {x3 = y3} is part of the structure and pins A by
A(x,x) = h(x)/x, while the "F2" side keeps a free homothety scale.

The deformation theory of the glued foliation is probed through the
cohomological equation: a vertical field B*x1*d/dx1 on the overlap is a
coboundary when it splits as (transported X1) - X2 with X1, X2 vertical
fields holomorphic on their models.  Writing X2 = A2*x1*d/dx1 and
X1 = (x3-y3)*T*x3*d/dx3 (the diagonal factor is forced: without it the
transported coefficient is not holomorphic on the second chart), the
split becomes one finite exact linear system per jet order.  The single
obstruction is the y1-coefficient: the system's corank is 1 and the class
of y1*x1*d/dx1 generates it, which is this module's operational form of
"the deformation space is one-dimensional".  Both facts come from one
certified solve of the split of y1*x1*d/dx1: its rank is the rank of the
system, and its checked infeasibility certificate shows that the generator
lies outside the image.  The solve is small because the A2 block pivots
itself: each A2 unknown is the column -x1^i y1^j on an F2-admissible row,
so only the T columns on the remaining rows are solved, and the rank of
the system is the number of admissible rows plus the rank of that block.
That rank takes no arithmetic.  A T column of valuation d vanishes on the
rows of degree below d, so the block is block triangular and its rank is at
least the sum of the ranks of its diagonal blocks G_d: the rows x1^p
y1^(d-p) of degree d against the columns of valuation d.  The gluing unit
A0 = 1 + alpha*y1 does not depend on x1, so the factor A0*x3/J, with
J = A0 + x1*dA0/dx1, is x3 and a T column is x3^(i+1) * y3^j.  On those
rows it is the product of the linear parts x1 + s*y1 of x3 o psi and s*y1
of y3 o psi, where s = sigma'(0), so G_d[p][i] = C(i+1, p) s^(d-p).  The
polynomials C(X, p) with p < r are a basis of those of degree < r, and the
columns evaluate them at distinct points i+1, never fewer than the r rows;
so when s != 0, which :func:`~cuspfol.jets.invertible_germ` checks on
every cocycle, every G_d has full row rank and the ranks sum to rows - 1.
The y1 row is zero in every T column, which caps the rank at rows - 1 and is
the certificate.  This rank lemma decides every split: the left kernel is
spanned by the y1 row, so a target with no y1 term lies in the image, and
elimination of the whole block, its T columns built as plain powers of x3
and sigma(y1) (both read off ``build_cocycle``), only finds its split.  The
certificate is checked again on the full system's y1 row by
:func:`~cuspfol.linalg.check_certificate`, which reads only the system and
the certificate.  A certificate that fails that check, or an elimination
that finds a y1-free target infeasible, raises ``AssertionError``, which
the CLI reports as an internal error.
"""

from __future__ import annotations

from enum import Enum

from ._backend import QZERO, qiszero
from .coeff import Coeff
from .jets import DEFAULT_ORDER, Jet1, Jet2, invertible_germ
from .linalg import check_certificate, solve
from .moduli import Homography


class Model(Enum):
    """The two elementary fibred models, each with the monomial exponent map
    from its first chart to its second."""

    F1 = "F1"
    F2 = "F2"

    def exponent_image(self, i, j):
        if self is Model.F2:
            return (2 * i - j, i)
        return (i - j, i)

    def is_global_monomial(self, i, j) -> bool:
        return self.exponent_image(i, j)[0] >= 0

    def violations(self, jet: Jet2) -> list:
        """The keys of the monomials of ``jet`` that do not extend to the
        second chart, read off its triples: no ``Coeff`` is built."""
        return [key for key, _ in jet.triple_items() if not self.is_global_monomial(*key)]


class VectorFieldJet:
    """The vertical field coefficient * x * d/dx in a named chart."""

    def __init__(self, coefficient: Jet2, chart: str = "x1"):
        self.coefficient = coefficient
        self.chart = chart


class GluingCocycle:
    """(x1, y1) -> (x1*A(x1,y1) + sigma(y1), sigma(y1)) with A(0,0) != 0."""

    def __init__(self, sigma: Jet1, A: Jet2):
        if A.coeff(0, 0).is_zero():
            raise ValueError("cocycle needs A(0,0) != 0")
        self.sigma = invertible_germ(sigma)
        self.A = A

    @property
    def order(self):
        return min(self.sigma.order, self.A.order)

    def as_map(self, order=None):
        n = self.order if order is None else order
        s2 = Jet2.from_jet1(self.sigma.truncate(n), "y")
        first = Jet2.var_x(n) * self.A.truncate(n) + s2
        return first, s2


def build_cocycle(sigma: Jet1, alpha) -> GluingCocycle:
    """The one-parameter gluing shape A = 1 + alpha*y1."""
    return GluingCocycle(sigma, Jet2({(0, 0): 1, (0, 1): alpha}, sigma.order))


# ---------------------------------------------------------------------------
# model automorphisms


class ModelAutomorphism:
    """(x, y) -> (x*A(x,y), h(y)) holomorphic and invertible on the model."""

    def __init__(self, model: Model, h: Homography, A: Jet2):
        self.model = model
        self.h = h
        self.A = A

    def as_map(self, order=None):
        n = self.A.order if order is None else order
        return (
            Jet2.var_x(n) * self.A.truncate(n),
            Jet2.from_jet1(self.h.to_jet(n), "y"),
        )


def model_automorphism(h: Homography, model, leading=None, order=DEFAULT_ORDER) -> ModelAutomorphism:
    """The automorphism of the model induced by a homography of the base.

    On "F1" the coefficient is (a+b*y)/((a+b*x)^2), pinned by the diagonal
    condition A(x,x) = h(x)/x; its divisor is a series in x alone, so it is
    a product by the one-variable reciprocal :meth:`Jet1.reciprocal`.  On
    "F2" it is c*(a+b*y)^2 where the scale c is free (the homothety
    direction); ``leading`` selects A(0,0), default 1/h'(0).  Regularity on
    the second chart is asserted by transporting the second component of
    :meth:`ModelAutomorphism.as_map` through the model transition
    (:meth:`Model.violations`).
    """
    model = Model(model)
    # h(z) = lam*z/(1+mu*z) rewritten as z/(a+b*z)
    a, b = Coeff(1) / h.lam, h.mu / h.lam
    lin_y = Jet2({(0, 0): a, (0, 1): b}, order)  # a + b*y
    if model is Model.F1:
        if leading is not None:
            raise ValueError(
                "the diagonal condition pins the scale on the first model"
            )
        lin_x = Jet1((a, b), order)  # a + b*x
        A = lin_y * Jet2.from_jet1((lin_x * lin_x).reciprocal(), "x")
        phi = ModelAutomorphism(model, h, A)
        _check_f1_regularity(phi)
        return phi
    lead = a if leading is None else Coeff(leading)
    if lead.is_zero():
        raise ValueError("leading coefficient must be nonzero")
    scale = lead / (a * a)
    A = lin_y * lin_y * scale
    phi = ModelAutomorphism(model, h, A)
    _check_f2_regularity(phi)
    return phi


def _check_f1_regularity(phi: ModelAutomorphism):
    fx, hy = phi.as_map()
    # second-chart second component: h(y) * x * A(x,y) must be global
    bad = Model.F1.violations(hy * fx)
    if bad:
        raise AssertionError(f"first-model automorphism not global: {bad}")
    # diagonal condition A(x,x) = h(x)/x, i.e. x*A(x,x) = h(x)
    x = Jet2.var_x(fx.order)
    if fx.substitute(x, x).restrict_to_axis("x") != phi.h.to_jet(fx.order):
        raise AssertionError("diagonal condition failed for first-model automorphism")
    # Taylor data tied to h: r = h''(0), s = -h''(0)/2
    hpp = Coeff(-2) * phi.h.lam * phi.h.mu
    if phi.A.coeff(1, 0) != hpp or phi.A.coeff(0, 1) != -(hpp / Coeff(2)):
        raise AssertionError("first-model automorphism Taylor data mismatch")


def _check_f2_regularity(phi: ModelAutomorphism):
    fx, hy = phi.as_map()
    bad = Model.F2.violations(hy * hy * fx)
    if bad:
        raise AssertionError(f"second-model automorphism not global: {bad}")
    # u = A_y(0,0) relates to h''(0)/h'(0) = -2*mu scaled by the leading term
    if phi.A.coeff(0, 1) != Coeff(2) * phi.h.mu * phi.A.coeff(0, 0):
        raise AssertionError("second-model automorphism Taylor data mismatch")


def cocycle_compose_check(
    phi1: ModelAutomorphism, c: GluingCocycle, phi2: ModelAutomorphism
) -> GluingCocycle:
    """Exact composition phi1 o c o phi2, renormalized to cocycle shape.

    phi2 must be an automorphism of the second model (source side), phi1 of
    the first (target side).  Raises if the composed second component
    depends on the first variable - that means the inputs were not model
    automorphisms - and likewise if the first component minus the second
    is not divisible by x1, the diagonal condition of the first model.
    """
    if phi2.model is not Model.F2 or phi1.model is not Model.F1:
        raise ValueError("compose expects a second-model phi2 and first-model phi1")
    n = min(c.order, phi1.A.order, phi2.A.order)
    f2x, f2y = phi2.as_map(n)
    cx, cy = c.as_map(n)
    f1x, f1y = phi1.as_map(n)
    mid_x = cx.substitute(f2x, f2y)
    mid_y = cy.substitute(f2x, f2y)
    out_x = f1x.substitute(mid_x, mid_y)
    out_y = f1y.substitute(mid_x, mid_y)
    stray = [key for key, _ in out_y.items() if key[0] != 0]
    if stray:
        raise ValueError(
            f"composed map is not of cocycle shape (second component touches {stray})"
        )
    sigma_new = out_y.restrict_to_axis("y")
    diff = out_x - out_y
    stray = [key for key, _ in diff.items() if key[0] == 0]
    if stray:
        raise ValueError(
            f"composed map is not of cocycle shape (first minus second component has x1-free monomials {stray})"
        )
    a_new = diff.exponent_map(lambda i, j: (i - 1, j), diff.order - 1)
    return GluingCocycle(sigma_new, a_new)


# ---------------------------------------------------------------------------
# the cohomological equation


def _row_keys(order):
    return [(p, d - p) for d in range(order + 1) for p in range(d, -1, -1)]


def _t_keys(n):
    """The T monomials x^i y^j of the order-n split: i > j, degree < n."""
    return [(i, j) for (i, j) in _row_keys(n - 1) if i > j]


def _a2_keys(n):
    """The A2 monomials of the order-n split: the rows of
    :func:`_row_keys` that extend to the second chart of "F2"
    (:meth:`Model.is_global_monomial`), in that order."""
    return [key for key in _row_keys(n) if Model.F2.is_global_monomial(*key)]


def _t_columns(maps, n):
    """x3^(i+1) * s2^j for every T monomial x^i y^j of the order-n split,
    from ``maps`` = (x3, s2) and at their order: plain powers, exact on
    every row."""
    x3, s2 = maps
    xpow = [x3]
    ypow = [Jet2.one(s2.order)]
    for _ in range(n - 1):
        xpow.append(xpow[-1] * x3)
        ypow.append(ypow[-1] * s2)
    return [xpow[i] * ypow[j] for i, j in _t_keys(n)]


class CoboundaryResult:
    """Outcome of one truncated split of the cohomological equation."""

    def __init__(
        self,
        feasible: bool,
        rank: int,
        field_first: VectorFieldJet | None = None,
        field_second: VectorFieldJet | None = None,
        tilde: Jet2 | None = None,
        certificate: list | None = None,
        certificate_checked: bool | None = None,
    ):
        self.feasible = feasible
        self.rank = rank
        self.field_first = field_first
        self.field_second = field_second
        self.tilde = tilde
        self.certificate = certificate
        self.certificate_checked = certificate_checked

    def __bool__(self):
        return self.feasible


def _rows_on(keys, cols):
    """The rows ``keys`` of the matrix whose columns are the jets ``cols``.

    Entries are kernel triples, scattered in one pass over each column's
    nonzero monomials; no ``Coeff`` is built.
    """
    index = {key: r for r, key in enumerate(keys)}
    rows = [[QZERO] * len(cols) for _ in keys]
    for c, col in enumerate(cols):
        for key, t in col.triple_items():
            r = index.get(key)
            if r is not None:
                rows[r][c] = t
    return rows


def _infeasible(cert, rank, cols, goal) -> CoboundaryResult:
    """The infeasible split with certificate ``cert``, a list of (row key,
    weight), checked again on the columns ``cols``: every T and every A2
    column of the full system, or columns that stand for them on the
    certificate's rows.  Only the certificate's own rows enter y^T A and
    y^T b, so only they are read from ``cols``, by
    :func:`~cuspfol.linalg.check_certificate`.  A certificate that fails
    the re-check is a fault of the split and raises ``AssertionError``."""
    cert_rows = [key for key, _ in cert]
    if not check_certificate(
        _rows_on(cert_rows, cols),
        [goal.get(key, QZERO) for key in cert_rows],
        [(k, w) for k, (_, w) in enumerate(cert)],
    ):
        raise AssertionError("coboundary split certificate failed its re-check")
    return CoboundaryResult(False, rank, certificate=cert, certificate_checked=True)


def _solve_coboundary(sigma: Jet1, alpha, target: Jet2, order) -> CoboundaryResult:
    """Split ``target`` exactly, reducing only the block the A2 columns miss.

    Every A2 column is -x1^i y1^j on an F2-admissible row, so those rows are
    pivoted by A2 before any arithmetic: the rank of the split system is the
    number of admissible rows plus the rank of the T columns on the other
    rows, the system is feasible exactly when that reduced block is, and a
    left-kernel vector of the full system vanishes on the admissible rows.

    The y1 row has degree 1, below the valuation of every T column, so it
    is zero in the block and caps its rank at rows - 1.
    Both branches read the cocycle off :func:`build_cocycle` before they
    use sigma, and :class:`GluingCocycle` refuses s = sigma'(0) = 0 through
    :func:`~cuspfol.jets.invertible_germ`, so the diagonal blocks G_d of
    the block have full row rank (see the module docstring), the rank is
    rows - 1 and the left kernel is spanned by the y1 row.  That rank
    lemma decides every split.  A target with a nonzero y1 coefficient is infeasible with
    the y1 row as its certificate, checked again on the full system's y1
    row, which the columns' parts of degree <= 1 give exactly.  Every T
    column x3^(i+1) s2^j has i >= 1, so it is x3^2 times a jet, and
    truncation is a ring map: its part of degree <= 1 is zero whenever that
    of x3^2 is, so the one column x3^2, at order 1, stands for the whole T
    block there.  No T column is built then, and neither are the rows
    outside the admissible ones: the rank rows - 1 is read off
    rows = (n + 1)(n + 2)/2.  A target with a zero y1 coefficient is
    orthogonal to the left kernel, so its split is feasible and elimination
    of the block on the T columns of :func:`_t_columns` only finds it; A2 is
    read off as the remainder.  A certificate that fails its re-check
    (:func:`_infeasible`), or an elimination that finds a y1-free target
    infeasible, raises ``AssertionError``.
    """
    n = order
    goal = dict(target.triple_items())
    if not qiszero(goal.get((0, 1), QZERO)):
        # the full system's y1 row, read off the columns' parts of degree
        # <= 1: x3^2 for the T block, and the A2 columns of degree <= 1; an
        # A2 column of higher degree is zero there and left out
        x3 = build_cocycle(sigma, alpha).as_map(1)[0]
        low = [x3 * x3] + [Jet2.monomial(i, j, -1, 1) for i, j in _a2_keys(1)]
        rank = (n + 1) * (n + 2) // 2 - 1
        return _infeasible([((0, 1), Coeff(1))], rank, low, goal)
    admissible = set(_a2_keys(n))
    free_rows = [key for key in _row_keys(n) if key not in admissible]
    x3, s2 = build_cocycle(sigma, alpha).as_map(n)
    res = solve(
        _rows_on(free_rows, _t_columns((x3, s2), n)),
        [goal.get(key, QZERO) for key in free_rows],
    )
    if not res.feasible:
        raise AssertionError(
            "the rank lemma makes a split with no y1 term feasible, "
            "and elimination found it infeasible"
        )
    tilde = Jet2(dict(zip(_t_keys(n), res.solution)), n)
    a2 = x3 * tilde.substitute(x3, s2) - target.truncate(n)
    # the remainder must be a field on the second model
    if Model.F2.violations(a2):
        raise AssertionError("coboundary split left a non-admissible remainder")
    a1 = (Jet2.var_x(n) - Jet2.var_y(n)) * tilde
    return CoboundaryResult(
        True,
        len(admissible) + res.rank,
        field_first=VectorFieldJet(a1, "x3"),
        field_second=VectorFieldJet(a2, "x1"),
        tilde=tilde,
    )


def coboundary_solve(sigma: Jet1, alpha0, target: VectorFieldJet, order=None) -> CoboundaryResult:
    """Split a vertical overlap field against the one-parameter gluing.

    Solves  target = (transport of X1) - X2  at the given jet order for
    the cocycle with A = 1 + alpha0*y1.  By the rank lemma of
    :func:`_solve_coboundary` the split is infeasible exactly when the
    target has a y1 term, and then it comes with a re-checked certificate:
    the y1 row, a row combination no admissible split can satisfy.
    Infeasibility at one order persists at all higher orders (the lower
    system is a subsystem of the higher one).
    """
    n = min(sigma.order, target.coefficient.order) if order is None else order
    return _solve_coboundary(sigma, alpha0, target.coefficient.truncate(n), n)


def ks_generator(order=DEFAULT_ORDER) -> VectorFieldJet:
    """The distinguished deformation direction x1*y1*d/dx1."""
    return VectorFieldJet(Jet2.var_y(order), "x1")


class CohomologyReport:
    def __init__(
        self,
        rows: int,
        rank: int,
        corank: int,
        generator_independent: bool,
        split: CoboundaryResult,
    ):
        self.rows = rows
        self.rank = rank
        self.corank = corank
        self.generator_independent = generator_independent
        self.split = split

    @property
    def dimension(self):
        return self.corank


def cohomology_dimension(sigma, alpha0, order) -> CohomologyReport:
    """Corank of the split system = dimension of the deformation space.

    One certified solve answers both questions: the split of the
    distinguished direction y1 has the rank of the system, and it is
    infeasible, with a checked certificate, exactly when y1 lies outside
    the image, i.e. spans the quotient.  That solve concerns only the T
    columns on the rows that are not F2-admissible; the A2 columns pivot
    the admissible rows by themselves.  In that block the y1 row is zero,
    which bounds the rank by rows - 1 and certifies infeasibility.  The
    block's diagonal blocks by degree are binomial matrices scaled by
    powers of sigma'(0), of full row rank, so the rank reaches
    rows - 1: the corank is 1 with no full-order T column and no
    elimination (see :func:`_solve_coboundary`).
    """
    split = coboundary_solve(sigma, alpha0, ks_generator(order), order)
    rows = (order + 1) * (order + 2) // 2
    independent = not split.feasible and split.certificate_checked
    return CohomologyReport(rows, split.rank, rows - split.rank, independent, split)
