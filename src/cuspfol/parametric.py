"""One-parameter families of 1-forms with an exact symbolic parameter.

The unfolding of the cusp family lives in three variables (x, y, z) and
carries a dz-slot, but all the geometry happens on the two-dimensional
slices z = const.  Instead of a general three-variable engine, the
parameter is pushed into the scalars: coefficients are exact reduced
rational functions of z (``Rational1``), polynomials in (x, y) stay
finitely supported with no truncation, and the family form is

    Omega = A(x,y,z) dx + B(x,y,z) dy + C(x,y,z) dz.

Blow-ups of the parameter axis {x = y = 0} act on the (x, y)-part by the
usual chart substitutions and leave dz alone, so the two standard charts
and the exceptional division extend verbatim.  Each slice z = const is
an ordinary form of the plain two-variable machinery, and the tests
cross-check the family computations against those slices.
"""

from __future__ import annotations

from .coeff import Coeff
from .firstintegral import Rational1, _as_rational


class ParamPoly2:
    """An exact polynomial in two variables over the rational-parameter field."""

    __slots__ = ("_d",)

    def __init__(self, coeffs=None):
        d = {}
        for key, v in (coeffs or {}).items():
            i, j = key
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            r = _as_rational(v)
            if not r.is_zero():
                d[(int(i), int(j))] = r
        self._d = d

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self._d

    def support(self):
        return sorted(self._d)

    def __eq__(self, other):
        if not isinstance(other, ParamPoly2):
            return NotImplemented
        return self._d == other._d

    def __hash__(self):
        return hash(frozenset(self._d.items()))

    def __add__(self, other):
        if not isinstance(other, ParamPoly2):
            return NotImplemented
        d = dict(self._d)
        for key, v in other._d.items():
            s = d.get(key, Rational1((0,))) + v
            if s.is_zero():
                d.pop(key, None)
            else:
                d[key] = s
        out = ParamPoly2.zero()
        out._d = d
        return out

    def __neg__(self):
        out = ParamPoly2.zero()
        out._d = {key: -v for key, v in self._d.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, ParamPoly2):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Coeff, Rational1)):
            s = _as_rational(other)
            if s.is_zero():
                return ParamPoly2.zero()
            out = ParamPoly2.zero()
            out._d = {key: v * s for key, v in self._d.items()}
            return out
        if not isinstance(other, ParamPoly2):
            return NotImplemented
        d = {}
        for (i1, j1), v1 in self._d.items():
            for (i2, j2), v2 in other._d.items():
                key = (i1 + i2, j1 + j2)
                s = d.get(key, Rational1((0,))) + v1 * v2
                if s.is_zero():
                    d.pop(key, None)
                else:
                    d[key] = s
        out = ParamPoly2.zero()
        out._d = d
        return out

    __rmul__ = __mul__

    def dx(self) -> "ParamPoly2":
        return ParamPoly2(
            {(i - 1, j): v * Coeff(i) for (i, j), v in self._d.items() if i > 0}
        )

    def dy(self) -> "ParamPoly2":
        return ParamPoly2(
            {(i, j - 1): v * Coeff(j) for (i, j), v in self._d.items() if j > 0}
        )

    def dz(self) -> "ParamPoly2":
        """Derivative in the parameter, coefficient by coefficient."""
        return ParamPoly2({key: v.derivative() for key, v in self._d.items()})

    def scale_param(self, factor) -> "ParamPoly2":
        """Substitute z -> factor*z inside every coefficient."""
        return ParamPoly2(
            {key: v.scale_variable(factor) for key, v in self._d.items()}
        )

    def __repr__(self):
        return f"ParamPoly2({self._d!r})"


class ParamForm3:
    """A dx + B d(second) + C dz with exact parametric coefficients."""

    def __init__(
        self, a: ParamPoly2, b: ParamPoly2, c: ParamPoly2, variables: tuple = ("x", "y", "z")
    ):
        self.a = a
        self.b = b
        self.c = c
        self.variables = variables


def param_form_of_meromorphic(num: ParamPoly2, den: ParamPoly2) -> ParamForm3:
    """den*d(num) - num*d(den) with the parameter differentiated too."""
    if num.is_zero() or den.is_zero():
        raise ValueError("need nonzero numerator and denominator")
    return ParamForm3(
        den * num.dx() - num * den.dx(),
        den * num.dy() - num * den.dy(),
        den * num.dz() - num * den.dz(),
    )


def family_form() -> ParamForm3:
    """The unfolding form of (y^2 + x^3 + z*x^2*y)/(x*y) with z symbolic."""
    z = Rational1.variable()
    num = ParamPoly2({(0, 2): 1, (3, 0): 1, (2, 1): z})
    den = ParamPoly2({(1, 1): 1})
    return param_form_of_meromorphic(num, den)


def _subs_chart_x(p: ParamPoly2) -> ParamPoly2:
    # x^i y^j  ->  x^(i+j) t^j  under  y = t*x
    return ParamPoly2({(i + j, j): v for (i, j), v in p._d.items()})


def _subs_chart_y(p: ParamPoly2) -> ParamPoly2:
    # x^i y^j  ->  s^i y^(i+j)  under  x = s*y
    return ParamPoly2({(i, i + j): v for (i, j), v in p._d.items()})


def pullback_blowup_param(
    f: ParamForm3, chart: str, new_var: str | None = None
) -> ParamForm3:
    """Blow up the parameter axis in one standard chart; exact, no division.

    chart "x" substitutes second = t*first, chart "y" substitutes
    first = s*second, mirroring the plain two-variable blow-up; the
    dz-slot only has its coefficients substituted.
    """
    first, second, par = f.variables
    if chart == "x":
        t = new_var or "t"
        asub = _subs_chart_x(f.a)
        bsub = _subs_chart_x(f.b)
        return ParamForm3(
            asub + bsub * ParamPoly2.monomial(0, 1),
            bsub * ParamPoly2.monomial(1, 0),
            _subs_chart_x(f.c),
            (first, t, par),
        )
    if chart == "y":
        s = new_var or "s"
        asub = _subs_chart_y(f.a)
        bsub = _subs_chart_y(f.b)
        return ParamForm3(
            asub * ParamPoly2.monomial(0, 1),
            asub * ParamPoly2.monomial(1, 0) + bsub,
            _subs_chart_y(f.c),
            (s, second, par),
        )
    raise ValueError("chart must be 'x' or 'y'")


def exceptional_divide_param(f: ParamForm3, divisor_var: str) -> tuple[ParamForm3, int]:
    """Divide all three slots by the maximal common power of the divisor."""
    if divisor_var not in f.variables[:2]:
        raise ValueError(f"{divisor_var!r} is not a chart variable of this form")
    idx = f.variables.index(divisor_var)
    k = None
    for p in (f.a, f.b, f.c):
        if p.is_zero():
            continue
        m = min(key[idx] for key in p.support())
        k = m if k is None else min(k, m)
    if not k:
        return f, 0

    def shift(p: ParamPoly2) -> ParamPoly2:
        return ParamPoly2(
            {
                ((i - k, j) if idx == 0 else (i, j - k)): v
                for (i, j), v in p._d.items()
            }
        )

    return ParamForm3(shift(f.a), shift(f.b), shift(f.c), f.variables), k
