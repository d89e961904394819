"""Gaussian-integer factorization and exact root extraction in Q(i).

Used to decide, exactly, questions of the form "is there an element of Q(i)
whose g-th power equals this Gaussian rational?", the C* witness of
``moduli.cstar_equivalent``.  For g = 1 the answer is the number itself;
otherwise everything reduces to factoring ordinary integers (trial division
+ Miller-Rabin + Pollard rho), so it is exact with no algebraic-number
machinery.  A Gaussian integer is factored one rational prime p of its norm
at a time.  The Gaussian primes over p come from two squares a^2 + b^2 = p,
found by integer Euclid on p and a square root of -1 modulo p; each is
divided out exactly, w / (a + bi) = w (a - bi) / (a^2 + b^2), while both
parts stay integers.  No Gaussian division with remainder and no Gaussian gcd is needed.

Gaussian integers are (re, im) int pairs here; Q(i) scalars cross the
boundary as :class:`~cuspfol.coeff.Coeff`.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd, isqrt

from .coeff import Coeff


# --- rational integer factorization ----------------------------------------

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases 2 to 43.

    Exact for n below psi_13 = 3317044064679887385961981 (about 3.3e24):
    psi_12 = 318665857834031151167461, a strong pseudoprime to every base up
    to 37, fails base 41, and psi_13, one to every base up to 41, fails base
    43 (Sorenson and Webster, Math. Comp. 86, 2017).  Above psi_13 the test
    is probable only: no composite is known that passes all fourteen bases,
    but none is ruled out, and one would be taken for a prime.
    """
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
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
    import random  # only a factor above the trial-division bound needs it

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
    for p in chain((2,), range(3, 100000, 2)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
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


# --- Gaussian primes and factoring on (re, im) pairs -----------------------


def gi_norm(a) -> int:
    return a[0] * a[0] + a[1] * a[1]


def _sqrt_minus_one_mod(p: int) -> int:
    for a in range(2, p):
        x = pow(a, (p - 1) // 4, p)
        if x * x % p == p - 1:
            return x
    raise ValueError(f"no sqrt(-1) mod {p}")


def _primes_above(p: int):
    """The Gaussian primes over the rational prime p, each with re > 0 and
    im >= 0: 1 + i over 2, p itself when p = 3 (mod 4), and otherwise the
    two a + bi and b + ai with a^2 + b^2 = p, the one dividing x + i first.

    Here x^2 = -1 (mod p), and a is the first remainder of Euclid on (p, x)
    whose square is below p (Hermite-Serret); a + bi divides x + i exactly
    when a = x*b (mod p).
    """
    if p == 2:
        return ((1, 1),)
    if p % 4 == 3:
        return ((p, 0),)
    x = _sqrt_minus_one_mod(p)
    r0, a = p, x
    while a * a > p:
        r0, a = a, r0 % a
    b = isqrt(p - a * a)
    return ((a, b), (b, a)) if (a - x * b) % p == 0 else ((b, a), (a, b))


def gi_factor(w) -> tuple[tuple[int, int], dict[tuple[int, int], int]]:
    """Factor a nonzero Gaussian integer: returns (unit, {canonical prime: e}).

    Each rational prime p of the norm is divided out of ``w`` through the
    Gaussian primes over p (``_primes_above``), in that order: exactly,
    w / (a + bi) = w (a - bi) / (a^2 + b^2), while both parts divide.  A
    non-unit left over is an ``AssertionError``.
    """
    if w == (0, 0):
        raise ValueError("cannot factor zero")
    out: dict[tuple[int, int], int] = {}
    for p in factor_int(gi_norm(w)):
        for a, b in _primes_above(p):
            n = gi_norm((a, b))
            while True:
                re, im = w[0] * a + w[1] * b, w[1] * a - w[0] * b
                if re % n or im % n:
                    break
                w = (re // n, im // n)
                out[(a, b)] = out.get((a, b), 0) + 1
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
