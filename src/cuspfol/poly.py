"""Dense univariate polynomials over Q(i).

A polynomial is a tuple of :class:`~cuspfol.coeff.Coeff`, lowest degree
first, with trailing zeros trimmed, so ``()`` is the zero polynomial.  Every
operation accepts any sequence of ``Coeff`` or ints and returns that trimmed
tuple form.  Unlike a :class:`~cuspfol.jets.Jet1` there is no truncation: the
coefficients are exact and complete.
"""

from __future__ import annotations

from .coeff import Coeff


def trim(p) -> tuple:
    """The canonical tuple form of a coefficient sequence."""
    c = [Coeff(v) for v in p]
    while c and c[-1].is_zero():
        c.pop()
    return tuple(c)


def add(a, b) -> tuple:
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        x = a[k] if k < len(a) else Coeff(0)
        y = b[k] if k < len(b) else Coeff(0)
        out.append(x + y)
    return trim(out)


def mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Coeff(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def scale(a, s) -> tuple:
    return trim([v * s for v in a])


def divmod(a, b) -> tuple[tuple, tuple]:
    """Quotient and remainder of ``a`` by ``b``; ``b`` may carry trailing zeros."""
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(trim(a))
    q = [Coeff(0)] * max(len(r) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while len(r) >= len(b):
        f = r[-1] * inv
        k = len(r) - len(b)
        q[k] = f
        for i, v in enumerate(b):
            r[k + i] = r[k + i] - f * v
        r.pop()
        while r and r[-1].is_zero():
            r.pop()
    return trim(q), tuple(r)


def gcd(a, b) -> tuple:
    """The monic greatest common divisor; ``()`` when both are zero."""
    a, b = trim(a), trim(b)
    while b:
        _, r = divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    return scale(a, 1 / a[-1])


def evaluate(p, x):
    """Horner evaluation at ``x``, a ``Coeff`` or a ``Jet1``.

    At a ``Jet1`` the result is the jet of ``p(x)`` at the order of ``x``.
    """
    acc = x * 0  # the zero of x's kind, so that p = () keeps the type
    for c in reversed(p):
        acc = acc * x + c
    return acc
