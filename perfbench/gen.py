"""Seeded inputs for the cuspfol benchmark, with answers known in advance.

This module uses the standard library only and never imports ``cuspfol``:
every expected answer below is derived from how the input was built, not
from the code under test.

A 1-form is a pair ``(A, B)`` of polynomials meaning ``A dx + B dy``; a
polynomial is a dict ``{(i, j): GQ}`` for the monomial ``x^i y^j``.

The normal-form template of ``cuspfol.normalform`` is

    T = y^2 (x dy - y dx) + alpha x^3 (x dy - 2y dx) + a x^3 y dy
        + sum_{m >= 5} x^(m-1) ((a_m x + b_m y) dx + (c_m x + d_m y) dy)

with alpha != 0 and a_5 = d_5 = 0, so its data (alpha, a, tail) is canonical.
A change phi = (x + p, y + q) tangent to the identity preserves that data,
so the pullback phi*T (computed here by plain polynomial substitution) has
the same normal form as T, and is equivalent to T.
"""

from __future__ import annotations

import random
from fractions import Fraction


class GQ:
    """An exact Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return GQ(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __eq__(self, o):
        return isinstance(o, GQ) and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GQ({self.re}, {self.im})"

    def is_zero(self):
        return self.re == 0 and self.im == 0


ZERO = GQ(0)
ONE = GQ(1)


def _frac_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def coeff_text(c: GQ) -> str:
    """Input text for a coefficient, parenthesized so it can multiply a monomial."""
    if c.im == 0:
        return f"({_frac_text(c.re)})"
    if c.re == 0:
        return f"({_frac_text(c.im)}*i)"
    sign = "-" if c.im < 0 else "+"
    return f"({_frac_text(c.re)}{sign}{_frac_text(abs(c.im))}*i)"


def parse_coeff(text: str) -> GQ:
    """Read a coefficient as cuspfol prints it: ``p/q``, ``p/q*i``, ``re+im*i``."""

    def frac(s):
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den) if den else 1)

    if not text.endswith("i"):
        return GQ(frac(text))
    body = text[:-1].rstrip("*")
    cut = max(body.rfind("+"), body.rfind("-"))
    re_s, im_s = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if im_s in ("", "+", "-"):
        im_s += "1"
    return GQ(frac(re_s), frac(im_s.lstrip("+")))


# ---------------------------------------------------------------------------
# polynomials in x, y


def padd(p, q):
    out = dict(p)
    for k, c in q.items():
        s = out.get(k, ZERO) + c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def pmul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, ZERO) + c1 * c2
    return {k: c for k, c in out.items() if not c.is_zero()}


def pdx(p):
    return {(i - 1, j): c * GQ(i) for (i, j), c in p.items() if i > 0}


def pdy(p):
    return {(i, j - 1): c * GQ(j) for (i, j), c in p.items() if j > 0}


def pdegree(p):
    return max((i + j for (i, j) in p), default=0)


def ptruncate(p, n):
    return {k: c for k, c in p.items() if k[0] + k[1] <= n}


def psubstitute(p, fx, fy):
    """p(fx, fy) by exact expansion."""
    max_i = max((i for i, _ in p), default=0)
    max_j = max((j for _, j in p), default=0)
    px = [{(0, 0): ONE}]
    for _ in range(max_i):
        px.append(pmul(px[-1], fx))
    py = [{(0, 0): ONE}]
    for _ in range(max_j):
        py.append(pmul(py[-1], fy))
    out = {}
    for (i, j), c in p.items():
        out = padd(out, pmul(pmul(px[i], py[j]), {(0, 0): c}))
    return out


def poly_text(p) -> str:
    if not p:
        return "0"
    terms = []
    for (i, j) in sorted(p, key=lambda k: (k[0] + k[1], -k[0])):
        parts = [coeff_text(p[(i, j)])]
        if i:
            parts.append("x" if i == 1 else f"x^{i}")
        if j:
            parts.append("y" if j == 1 else f"y^{j}")
        terms.append("*".join(parts))
    return " + ".join(terms)


def form_text(form) -> str:
    a, b = form
    return f"({poly_text(a)}) dx + ({poly_text(b)}) dy"


def form_degree(form) -> int:
    return max(pdegree(form[0]), pdegree(form[1]))


def form_truncate(form, n):
    return (ptruncate(form[0], n), ptruncate(form[1], n))


def pullback(form, p, q):
    """phi*form for phi = (x + p, y + q), exactly."""
    a, b = form
    fx = padd({(1, 0): ONE}, p)
    fy = padd({(0, 1): ONE}, q)
    a_phi = psubstitute(a, fx, fy)
    b_phi = psubstitute(b, fx, fy)
    new_a = padd(pmul(a_phi, pdx(fx)), pmul(b_phi, pdx(fy)))
    new_b = padd(pmul(a_phi, pdy(fx)), pmul(b_phi, pdy(fy)))
    return (new_a, new_b)


# ---------------------------------------------------------------------------
# the template and its known normal form


class Template:
    """Normal-form data (alpha, a, tail) and the template 1-form it names."""

    def __init__(self, alpha: GQ, a: GQ, tail: dict):
        if alpha.is_zero():
            raise ValueError("alpha must be nonzero")
        if 5 in tail and not (tail[5][0].is_zero() and tail[5][3].is_zero()):
            raise ValueError("a_5 and d_5 must vanish for canonical data")
        self.alpha = alpha
        self.a = a
        self.tail = tail

    def form(self):
        a = {(0, 3): GQ(-1), (3, 1): GQ(-2) * self.alpha}
        b = {(1, 2): ONE, (4, 0): self.alpha}
        if not self.a.is_zero():
            b[(3, 1)] = self.a
        for m, (am, bm, cm, dm) in self.tail.items():
            for poly, key, c in ((a, (m, 0), am), (a, (m - 1, 1), bm),
                                 (b, (m, 0), cm), (b, (m - 1, 1), dm)):
                if not c.is_zero():
                    poly[key] = c
        return (a, b)

    def expected_normal_form(self, order):
        """The data `normal-form --order order` must print, as exact values."""
        zero4 = (ZERO, ZERO, ZERO, ZERO)
        return {
            "alpha": self.alpha,
            "a": self.a,
            "tail": {m: self.tail.get(m, zero4) for m in range(5, order + 1)},
        }


def _small(rng: random.Random, gaussian=True) -> GQ:
    """A small nonzero Gaussian rational, so coefficients stay modest."""
    while True:
        re = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
        im = Fraction(rng.randint(-2, 2), rng.choice((1, 2))) if gaussian and rng.random() < 0.4 else 0
        c = GQ(re, im)
        if not c.is_zero():
            return c


_UNITS = [GQ(re, im) for re in (-1, 0, 1) for im in (-1, 0, 1) if re or im]


def _unit(rng: random.Random) -> GQ:
    """A nonzero Gaussian integer of norm at most 2."""
    return rng.choice(_UNITS)


def random_template(rng: random.Random, top: int, density=0.5, pattern=None) -> Template:
    """A canonical template with tail degrees 5..top.

    Each tail coefficient is a small Gaussian rational, nonzero with
    probability ``density``.  When ``pattern`` lists positions ``(m, k)``
    (k = 0..3 for a_m, b_m, c_m, d_m), exactly those are nonzero, and every
    coefficient, ``a`` included, is a Gaussian integer of norm at most 2, so
    that every draw costs about the same.
    """
    if pattern is None:
        draw = _small
        a = _small(rng) if rng.random() < 0.7 else ZERO
    else:
        draw = _unit
        a = _unit(rng)
    tail = {}
    for m in range(5, top + 1):
        if pattern is None:
            slots = [ZERO if rng.random() > density else _small(rng) for _ in range(4)]
        else:
            slots = [_unit(rng) if (m, k) in pattern else ZERO for k in range(4)]
        if m == 5:
            slots[0] = slots[3] = ZERO
        tail[m] = tuple(slots)
    return Template(draw(rng), a, tail)


def random_change(rng: random.Random, degree: int, pattern=None):
    """A change (x + p, y + q) tangent to the identity, p and q of degrees 2..degree.

    ``pattern``, if given, is the pair of monomial sets that p and q use.
    """
    def part(monomials):
        if monomials is not None:
            return {k: GQ(rng.choice((-1, 1))) for k in monomials}
        out = {}
        for d in range(2, degree + 1):
            for i in range(d + 1):
                if rng.random() < 0.35:
                    out[(i, d - i)] = GQ(rng.choice((-2, -1, 1, 2)))
        return out

    while True:
        p, q = part(pattern and pattern[0]), part(pattern and pattern[1])
        if p or q:
            return p, q


def raw_mero(rng: random.Random) -> str:
    """An unfiltered draw from mero:(y^2 + x^3 + ...)/(x*y + ...)."""
    def extra(lo, hi):
        terms = []
        for d in range(lo, hi + 1):
            for i in range(d + 1):
                if rng.random() < 0.25:
                    c = rng.choice((-2, -1, 1, 2, 3))
                    mono = "*".join(
                        s for s in (
                            "" if i == 0 else ("x" if i == 1 else f"x^{i}"),
                            "" if d - i == 0 else ("y" if d - i == 1 else f"y^{d - i}"),
                        ) if s
                    )
                    terms.append(f"{c}*{mono}" if c != 1 else mono)
        return "".join(f"+{t}" if not t.startswith("-") else t for t in terms)

    return f"mero:(y^2+x^3{extra(3, 4)})/(x*y{extra(3, 3)})"


def non_cusp(rng: random.Random):
    """A form of valuation 1 or 2, which cannot be of cusp type."""
    low = rng.choice((1, 2))
    a, b = {}, {}
    for i in range(low + 1):
        a[(i, low - i)] = GQ(rng.randint(-2, 2))
        b[(i, low - i)] = GQ(rng.randint(-2, 2))
    if all(c.is_zero() for c in a.values()) and all(c.is_zero() for c in b.values()):
        b[(1, low - 1)] = ONE
    for d in range(low + 1, 5):
        for i in range(d + 1):
            if rng.random() < 0.3:
                (a if rng.random() < 0.5 else b)[(i, d - i)] = _small(rng, gaussian=False)
    return ({k: c for k, c in a.items() if not c.is_zero()},
            {k: c for k, c in b.items() if not c.is_zero()})
