"""The arithmetic kernel.

Everything hot in the library bottoms out here: exact arithmetic in Q(i),
truncated power-series convolution in one and two variables, and reduced row
echelon form over Q(i).

A Gaussian-rational scalar is a normalized integer triple ``(a, b, d)``
standing for ``(a + b*i)/d`` with ``d > 0`` and ``gcd(a, b, d) == 1``.  Zero
is ``(0, 0, 1)``.  All functions take and return triples in normal form.
"""

from math import gcd

BACKEND = "python"

QZERO = (0, 0, 1)
QONE = (1, 0, 1)


def qnorm(a, b, d):
    """Normalize a raw triple: positive denominator, gcd 1."""
    if d == 0:
        raise ZeroDivisionError("zero denominator in Gaussian rational")
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(gcd(a, b), d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    return (a, b, d)


def qadd(t, u):
    a1, b1, d1 = t
    a2, b2, d2 = u
    return qnorm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def qsub(t, u):
    a1, b1, d1 = t
    a2, b2, d2 = u
    return qnorm(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def qneg(t):
    a, b, d = t
    return (-a, -b, d)


def qmul(t, u):
    a1, b1, d1 = t
    a2, b2, d2 = u
    if (a1 == 0 and b1 == 0) or (a2 == 0 and b2 == 0):
        return QZERO
    return qnorm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def qinv(t):
    a, b, d = t
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError("inverse of zero Gaussian rational")
    return qnorm(a * d, -b * d, n)


def qdiv(t, u):
    return qmul(t, qinv(u))


def jet1_mul(ca, cb, n):
    """Convolve two coefficient lists, truncated at degree n (inclusive)."""
    out = [QZERO] * (n + 1)
    la = min(len(ca), n + 1)
    for k in range(la):
        t = ca[k]
        if t[0] == 0 and t[1] == 0:
            continue
        lb = min(len(cb), n + 1 - k)
        for m in range(lb):
            u = cb[m]
            if u[0] == 0 and u[1] == 0:
                continue
            out[k + m] = qadd(out[k + m], qmul(t, u))
    return out


def jet2_mul(da, db, n):
    """Multiply two sparse 2-variable jets given as {(i, j): triple} dicts.

    Keys with total degree > n are dropped; zero results are not stored.
    """
    out = {}
    for (i1, j1), t in da.items():
        if t[0] == 0 and t[1] == 0:
            continue
        for (i2, j2), u in db.items():
            if u[0] == 0 and u[1] == 0:
                continue
            i = i1 + i2
            j = j1 + j2
            if i + j > n:
                continue
            key = (i, j)
            cur = out.get(key)
            if cur is None:
                out[key] = qmul(t, u)
            else:
                out[key] = qadd(cur, qmul(t, u))
    for key in [k for k, v in out.items() if v[0] == 0 and v[1] == 0]:
        del out[key]
    return out


def rref(rows, limit):
    """Reduced row echelon form in place, pivoting only in the first
    ``limit`` columns; row operations apply to the full rows, so columns
    beyond ``limit`` may carry an augmented right-hand side or an identity
    block for certificate extraction.

    Returns the list of pivot columns (in row order).
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(limit):
        p = -1
        for k in range(r, nrows):
            t = rows[k][c]
            if t[0] != 0 or t[1] != 0:
                p = k
                break
        if p < 0:
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
        row = rows[r]
        piv = row[c]
        if piv != QONE:
            inv = qinv(piv)
            rows[r] = row = [
                qmul(t, inv) if (t[0] != 0 or t[1] != 0) else t for t in row
            ]
        width = len(row)
        for k in range(nrows):
            if k == r:
                continue
            other = rows[k]
            f = other[c]
            if f[0] == 0 and f[1] == 0:
                continue
            rows[k] = [
                qsub(other[m], qmul(f, row[m]))
                if (row[m][0] != 0 or row[m][1] != 0)
                else other[m]
                for m in range(width)
            ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots
