"""Exact dense linear algebra over Q(i).

Thin layer over the kernel RREF: solve, rank, determinant, and
infeasibility certificates.  A certificate for an unsolvable system A x = b
is a row combination y with  y^T A = 0  and  y^T b != 0  — it is extracted
from an identity block carried through the reduction, so it is exact and
re-checkable.

Matrices enter and leave as rows of normalized triples; the kernel
eliminates them fraction-free, over one denominator per row (see
:func:`cuspfol._backend.rref`), and returns every entry normalized again.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._backend import QONE, QZERO, qadd, qdiv, qiszero, qmul, qneg, qsub, rref
from .coeff import Coeff, as_triple


@dataclass
class SolveResult:
    feasible: bool
    rank: int
    solution: list[Coeff] | None = None
    certificate: list[tuple[int, Coeff]] | None = None

    def check_certificate(self, rows, rhs) -> bool:
        """Re-verify  y^T A = 0, y^T b != 0  against the original system."""
        if self.certificate is None:
            return False
        ncols = len(rows[0]) if rows else 0
        comb = [QZERO] * ncols
        acc_b = QZERO
        for idx, c in self.certificate:
            ct = c.triple
            rt = [as_triple(c) for c in rows[idx]]
            for m in range(ncols):
                comb[m] = qadd(comb[m], qmul(ct, rt[m]))
            acc_b = qadd(acc_b, qmul(ct, as_triple(rhs[idx])))
        return all(qiszero(t) for t in comb) and not qiszero(acc_b)


def solve(rows, rhs, *, certificate=False) -> SolveResult:
    """Solve A x = b exactly.

    ``rows`` is a list of equation rows (Coeff-like entries), ``rhs`` the
    right-hand sides.  Returns a particular solution with free variables set
    to zero, and on infeasibility optionally a Farkas-style certificate
    (list of (row index, multiplier)).
    """
    m = len(rows)
    if m == 0:
        return SolveResult(True, 0, solution=[])
    ncols = len(rows[0])
    work = []
    for k in range(m):
        r = [as_triple(c) for c in rows[k]]
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        r.append(as_triple(rhs[k]))
        if certificate:
            r.extend(QONE if j == k else QZERO for j in range(m))
        work.append(r)
    pivots = rref(work, ncols)
    rank = len(pivots)
    # Any non-pivot row is zero across the pivot columns; a nonzero
    # right-hand side there certifies infeasibility.
    for r in range(rank, m):
        if not qiszero(work[r][ncols]):
            cert = None
            if certificate:
                cert = [
                    (j, Coeff.from_triple(work[r][ncols + 1 + j]))
                    for j in range(m)
                    if not qiszero(work[r][ncols + 1 + j])
                ]
            return SolveResult(False, rank, certificate=cert)
    sol_t = [QZERO] * ncols
    for r, c in enumerate(pivots):
        sol_t[c] = work[r][ncols]
    return SolveResult(True, rank, solution=[Coeff.from_triple(t) for t in sol_t])


def matrix_rank(rows) -> int:
    if not rows:
        return 0
    work = [[as_triple(c) for c in r] for r in rows]
    return len(rref(work, len(work[0])))


def determinant(rows) -> Coeff:
    """Exact determinant by Gaussian elimination with division."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    a = [[as_triple(c) for c in r] for r in rows]
    det = QONE
    for c in range(n):
        p = -1
        for k in range(c, n):
            if not qiszero(a[k][c]):
                p = k
                break
        if p < 0:
            return Coeff(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = qneg(det)
        piv = a[c][c]
        det = qmul(det, piv)
        for k in range(c + 1, n):
            f = a[k][c]
            if qiszero(f):
                continue
            ratio = qdiv(f, piv)
            a[k] = [qsub(a[k][m], qmul(ratio, a[c][m])) for m in range(n)]
    return Coeff.from_triple(det)
