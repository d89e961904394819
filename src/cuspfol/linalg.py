"""Exact dense linear algebra over Q(i).

Thin layer over the kernel RREF: solve, rank, determinant, and
infeasibility certificates.  Every one of them is a single :func:`rref`
call (a certified solve may add one small square one); the determinant is
read off the pivots that elimination divides by and the sign of its row
permutation.  A certificate for an unsolvable system A x = b
is a row combination y with  y^T A = 0  and  y^T b != 0.

A certified solve eliminates only [A | b], with no identity block: a
non-pivot output row of the kernel RREF is its input row minus a
combination of the pivot rows' input rows, and the kernel reports where
each output row came from, so y is read off that row permutation (one
small square solve when the row is not zero itself).  The certificate is
exact, and :func:`check_certificate` re-checks it against the system alone,
independent of the elimination that found it.

Matrices enter as rows of Coeff-like entries or of normalized kernel
triples.  They are copied to rows of triples, which the kernel eliminates
in place by plain Gauss-Jordan (:func:`cuspfol._backend.rref`); solutions,
certificates and determinants leave as Coeff.  One shape rule,
:func:`_columns`, refuses a ragged matrix or a right-hand side whose
length is not the row count for :func:`solve`, :func:`matrix_rank` and
:func:`check_certificate`; it reads only the row lengths, so
:func:`check_certificate` still converts only the certificate's rows.
"""

from __future__ import annotations

from ._backend import QONE, QZERO, qadd, qiszero, qmul, qneg, rref
from .coeff import Coeff, as_triple


def _triples(row):
    """A row of Coeff-like entries or kernel triples, as kernel triples."""
    return [c if type(c) is tuple else as_triple(c) for c in row]


def _columns(rows, rhs=None):
    """The column count of ``rows``, read off the row lengths alone: a
    ragged matrix, or a right-hand side ``rhs`` whose length is not the row
    count, raises ``ValueError``."""
    if rhs is not None and len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} rows")
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    return ncols


class SolveResult:
    """The outcome of :func:`solve`: plain data, checked by
    :func:`check_certificate`."""

    def __init__(
        self,
        feasible: bool,
        rank: int,
        solution: list[Coeff] | None = None,
        certificate: list[tuple[int, Coeff]] | None = None,
    ):
        self.feasible = feasible
        self.rank = rank
        self.solution = solution
        self.certificate = certificate


def check_certificate(rows, rhs, certificate) -> bool:
    """Re-verify  y^T A = 0, y^T b != 0  for the certificate y, a list of
    (row index, multiplier) or None, against the original system: every
    entry of the certificate's rows is multiplied and added.  It reads only
    the system and y, not the elimination that found y.  A right-hand side
    whose length is not the row count, a ragged matrix or a certificate row
    outside the matrix raises ``ValueError``, as in :func:`solve`."""
    m = len(rows)
    ncols = _columns(rows, rhs)
    if certificate is None:
        return False
    if any(not 0 <= idx < m for idx, _ in certificate):
        raise ValueError(f"certificate row outside the {m} rows")
    b = _triples(rhs)
    comb = [QZERO] * ncols
    acc_b = QZERO
    for idx, c in certificate:
        ct = c.triple
        for m, t in enumerate(_triples(rows[idx])):
            comb[m] = qadd(comb[m], qmul(ct, t))
        acc_b = qadd(acc_b, qmul(ct, b[idx]))
    return all(qiszero(t) for t in comb) and not qiszero(acc_b)


def solve(rows, rhs, *, certificate=False) -> SolveResult:
    """Solve A x = b exactly.

    ``rows`` is a list of equation rows (Coeff-like entries or kernel
    triples), ``rhs`` the right-hand sides.  Returns a particular solution
    with free variables set to zero, and on infeasibility optionally a
    Farkas-style certificate (list of (row index, multiplier)).  A ragged
    matrix, or a right-hand side whose length is not the row count, raises
    ``ValueError``.
    """
    m = len(rows)
    ncols = _columns(rows, rhs)
    if m == 0:
        return SolveResult(True, 0, solution=[])
    a = [_triples(row) for row in rows]
    b = _triples(rhs)
    work = [r + [b[k]] for k, r in enumerate(a)]
    pivots, origin = rref(work, ncols)
    rank = len(pivots)
    # Any non-pivot row is zero across the pivot columns; a nonzero
    # right-hand side there certifies infeasibility.
    for r in range(rank, m):
        if not qiszero(work[r][ncols]):
            cert = _certificate(a, pivots, origin, r) if certificate else None
            return SolveResult(False, rank, certificate=cert)
    sol_t = [QZERO] * ncols
    for r, c in enumerate(pivots):
        sol_t[c] = work[r][ncols]
    return SolveResult(True, rank, solution=[Coeff.from_triple(t) for t in sol_t])


def _certificate(a, pivots, origin, r):
    """The combination of the rows of ``a`` that :func:`rref` left as row r.

    That row is  y = e_origin[r] - sum_i z_i e_origin[i]  over the pivot
    rows i, and y^T A = 0; the input pivot rows are independent and their
    restriction to the pivot columns is square and nonsingular, so z is the
    solution of  sum_i z_i A[origin[i]] = A[origin[r]]  there.  When
    A[origin[r]] is zero, z is zero and nothing is eliminated.
    """
    rank = len(pivots)
    target = a[origin[r]]
    y = {origin[r]: QONE}
    if not all(qiszero(target[c]) for c in pivots):
        square = [
            [a[origin[i]][c] for i in range(rank)] + [target[c]] for c in pivots
        ]
        rref(square, rank)
        for i, row in enumerate(square):
            if not qiszero(row[rank]):
                y[origin[i]] = qneg(row[rank])
    return [(j, Coeff.from_triple(y[j])) for j in sorted(y)]


def matrix_rank(rows) -> int:
    """The rank of a matrix; a ragged one raises ``ValueError``."""
    ncols = _columns(rows)
    if not rows:
        return 0
    work = [_triples(r) for r in rows]
    pivots, _ = rref(work, ncols)
    return len(pivots)


def determinant(rows) -> Coeff:
    """Exact determinant, read off the one :func:`rref`.

    Gauss-Jordan divides each pivot row by its pivot and otherwise only
    swaps rows or subtracts multiples of the pivot row, so a nonsingular
    matrix has determinant the product of the pivots before that division
    times the sign of the row permutation; a matrix of lower rank has 0.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    work = [_triples(r) for r in rows]
    scales = []
    pivots, origin = rref(work, n, scales)
    if len(pivots) < n:
        return Coeff(0)
    det = QONE
    for v in scales:
        det = qmul(det, v)
    # the sign of a permutation is the parity of its inversions
    inversions = sum(origin[i] > origin[j] for i in range(n) for j in range(i + 1, n))
    return Coeff.from_triple(qneg(det) if inversions % 2 else det)
