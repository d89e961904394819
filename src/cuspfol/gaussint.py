"""Gaussian-integer factorization and exact root extraction in Q(i).

Used to decide, exactly, questions of the form "is there an element of Q(i)
whose g-th power equals this Gaussian rational?", the C* witness of
``moduli.cstar_equivalent``.  For g = 1 the answer is the number itself;
otherwise everything reduces to factoring ordinary integers (trial division
+ Miller-Rabin + Pollard rho), so it is exact with no algebraic-number
machinery.  A Gaussian integer is factored one rational prime p of its norm
at a time, by one divide loop over the Gaussian prime above p and its
conjugate, whether p is 2, split or inert.

Gaussian integers are (re, im) int pairs here; Q(i) scalars cross the
boundary as :class:`~cuspfol.coeff.Coeff`.
"""

from __future__ import annotations

import random
from collections import Counter
from math import gcd

from .coeff import Coeff


# --- rational integer factorization ----------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Deterministic for n < 3.3e24 with these bases.
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        f = lambda x: (x * x + c) % n
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {p: exponent}."""
    if n < 1:
        raise ValueError("factor_int needs a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 41
    while p * p <= n and p < 100000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


# --- Z[i] arithmetic on (re, im) pairs -------------------------------------


def gi_norm(a) -> int:
    return a[0] * a[0] + a[1] * a[1]


def gi_divmod(a, b):
    """Nearest-rounding division: a = q*b + r with N(r) <= N(b)/2."""
    nb = gi_norm(b)
    if nb == 0:
        raise ZeroDivisionError
    # a * conj(b) / N(b), rounded to the nearest Gaussian integer.
    pr = a[0] * b[0] + a[1] * b[1]
    pi = a[1] * b[0] - a[0] * b[1]
    qr = (2 * pr + nb) // (2 * nb)
    qi = (2 * pi + nb) // (2 * nb)
    q = (qr, qi)
    r = (a[0] - (qr * b[0] - qi * b[1]), a[1] - (qr * b[1] + qi * b[0]))
    return q, r


def gi_gcd(a, b):
    while b != (0, 0):
        _, r = gi_divmod(a, b)
        a, b = b, r
    return canonical_associate(a)


def canonical_associate(w):
    """Rotate by units into the canonical quadrant: re > 0, im >= 0
    (zero stays zero)."""
    re, im = w
    if re == 0 and im == 0:
        return w
    for _ in range(4):
        if re > 0 and im >= 0:
            return (re, im)
        re, im = -im, re
    raise AssertionError("unreachable")


def _sqrt_minus_one_mod(p: int) -> int:
    for a in range(2, p):
        x = pow(a, (p - 1) // 4, p)
        if x * x % p == p - 1:
            return x
    raise ValueError(f"no sqrt(-1) mod {p}")


def gaussian_prime_above(p: int):
    """A canonical Gaussian prime dividing the rational prime p.

    p=2 -> 1+i; p=1 mod 4 -> a split prime; p=3 mod 4 -> p itself (inert).
    """
    if p == 2:
        return (1, 1)
    if p % 4 == 3:
        return (p, 0)
    x = _sqrt_minus_one_mod(p)
    return gi_gcd((p, 0), (x, 1))


def gi_factor(w) -> tuple[tuple[int, int], dict[tuple[int, int], int]]:
    """Factor a nonzero Gaussian integer: returns (unit, {canonical prime: e}).

    Each rational prime p of the norm is divided out of ``w`` through its
    Gaussian prime above p and the canonical associate of that prime's
    conjugate, in one loop; for p = 2 and an inert p the two are one prime,
    tried twice.  A non-unit left over is an ``AssertionError``.
    """
    if w == (0, 0):
        raise ValueError("cannot factor zero")
    out: dict[tuple[int, int], int] = {}
    for p in factor_int(gi_norm(w)):
        pi = gaussian_prime_above(p)
        for cand in (pi, canonical_associate((pi[0], -pi[1]))):
            q, r = gi_divmod(w, cand)
            while r == (0, 0):
                w = q
                out[cand] = out.get(cand, 0) + 1
                q, r = gi_divmod(w, cand)
    if gi_norm(w) != 1:
        raise AssertionError("leftover non-unit after factorization")
    return w, out


UNITS = (Coeff(1), Coeff(0, 1), Coeff(-1), Coeff(0, -1))


def nth_roots_in_qi(rho: Coeff, g: int) -> list[Coeff]:
    """All x in Q(i) with x^g = rho, exactly (possibly empty).

    For g = 1 the only root is rho itself, returned without factoring.
    Otherwise factors numerator and denominator over Z[i]; a root exists
    iff every prime valuation is divisible by g and the leftover unit is a
    g-th power of a unit.  All four unit twists are tested by exact
    powering, so the returned list is complete.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    if rho.is_zero():
        return [Coeff(0)]
    if g == 1:
        return [rho]
    a, b, d = rho.triple
    vals = Counter(gi_factor((a, b))[1])
    if d != 1:
        vals.subtract(gi_factor((d, 0))[1])
    root = Coeff(1)
    for pi, v in vals.items():
        if v % g != 0:
            return []
        root = root * Coeff(pi[0], pi[1]) ** (v // g)
    out = []
    for u in UNITS:
        cand = u * root
        if cand ** g == rho:
            out.append(cand)
    return out
