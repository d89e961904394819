"""Rank modulo a prime: a lower bound for the rank over Q(i).

The prime ``P`` is 1 mod 4, so -1 has a square root ``IOTA`` in F_P, and
i -> IOTA maps the Gaussian rationals whose denominators are prime to P onto
F_P as a ring map.  A minor of a matrix is a polynomial in its entries, so a
minor that is nonzero modulo P is nonzero over Q(i): the rank modulo P never
exceeds the exact rank.  It is a lower bound only; the exact rank can be
larger when P divides every maximal nonzero minor (von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 5).
"""

from __future__ import annotations

# the largest prime below 2^31 that is 1 mod 4
P = 2147483629
# IOTA^2 = -1 mod P
IOTA = 1518275076


def rank_mod_p(rows):
    """The rank modulo ``P`` of rows of kernel triples ``(a, b, d)``.

    Each entry (a + b*i)/d maps to (a + b*IOTA) * d^-1 mod P, with d^-1
    computed once per denominator.  Returns ``None`` when P divides a
    denominator, since the map is not defined there.  The elimination is
    sparse, one dict per row: it pivots on the row with fewest entries and
    clears that pivot's column from every other row, so each step adds one
    to the rank and drops one row.
    """
    inverse = {1: 1}
    work = []
    for row in rows:
        image = {}
        for m, (a, b, d) in enumerate(row):
            if a or b:
                inv = inverse.get(d)
                if inv is None:
                    if d % P == 0:
                        return None
                    inv = inverse[d] = pow(d, -1, P)
                v = (a + b * IOTA) * inv % P
                if v:
                    image[m] = v
        if image:
            work.append(image)
    rank = 0
    while work:
        prow = min(work, key=len)
        c, v = next(iter(prow.items()))
        scale = pow(v, -1, P)
        rest = []
        for row in work:
            if row is prow:
                continue
            f = row.get(c)
            if f:
                f = f * scale % P
                for m, u in prow.items():
                    w = (row.get(m, 0) - f * u) % P
                    if w:
                        row[m] = w
                    else:
                        del row[m]
            if row:
                rest.append(row)
        work = rest
        rank += 1
    return rank
