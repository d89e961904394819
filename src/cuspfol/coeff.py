"""Exact Gaussian-rational scalars.

``Coeff`` wraps the kernel's normalized integer triple ``(a, b, d)`` —
meaning ``(a + b*i)/d`` — behind an immutable value type whose real and
imaginary parts are exposed as ``fractions.Fraction``.  No floats anywhere.
A part is any ``numbers.Rational`` (an int or a ``Fraction``), and
``fractions`` is imported only where a ``Fraction`` is built.
``format_triple`` prints a triple with no ``Fraction`` formed; ``str`` of a
``Coeff`` is that text of its triple.
"""

from __future__ import annotations

from math import gcd
from numbers import Rational

from ._backend import QONE, QZERO, qadd, qdiv, qinv, qiszero, qmul, qneg, qnorm, qsub


# int first: isinstance matches it before the slower check of the ABC
_RATIONAL = (int, Rational)


def _to_triple(re, im=0):
    """Build a normalized triple from int or Fraction real and imaginary
    parts; a part of any other type, a float or a string among them, raises
    ``TypeError``."""
    if type(re) is int and type(im) is int:
        return (re, im, 1)
    for part in (re, im):
        if not isinstance(part, _RATIONAL):
            raise TypeError(f"a Coeff part must be int or Fraction, not {type(part).__name__}")
    d = re.denominator * im.denominator
    return qnorm(re.numerator * im.denominator, im.numerator * re.denominator, d)


class Coeff:
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        t = re._t if isinstance(re, Coeff) and not im else _to_triple(re, im)
        object.__setattr__(self, "_t", t)

    @classmethod
    def from_triple(cls, t) -> "Coeff":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_t", t)
        return obj

    @property
    def triple(self):
        return self._t

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

        _, b, d = self._t
        return Fraction(b, d)

    def __setattr__(self, name, value):
        raise AttributeError("Coeff is immutable")

    def is_zero(self) -> bool:
        return qiszero(self._t)

    def _coerce(self, other):
        if isinstance(other, Coeff):
            return other._t
        if isinstance(other, _RATIONAL):
            return _to_triple(other)
        return None

    def __add__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return Coeff.from_triple(qadd(self._t, t))

    __radd__ = __add__

    def __sub__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return Coeff.from_triple(qsub(self._t, t))

    def __rsub__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return Coeff.from_triple(qsub(t, self._t))

    def __mul__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return Coeff.from_triple(qmul(self._t, t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return Coeff.from_triple(qdiv(self._t, t))

    def __rtruediv__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return Coeff.from_triple(qdiv(t, self._t))

    def __neg__(self):
        return Coeff.from_triple(qneg(self._t))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return Coeff.from_triple(qinv(self._t)) ** (-n)
        acc = QONE
        base = self._t
        while n:
            if n & 1:
                acc = qmul(acc, base)
            base = qmul(base, base)
            n >>= 1
        return Coeff.from_triple(acc)

    def __eq__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return self._t == t

    def __hash__(self):
        # a real value hashes as the Fraction (or int) it equals
        a, b, d = self._t
        if b:
            return hash(self._t)
        from fractions import Fraction

        return hash(Fraction(a, d))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Coeff({format_triple(self._t)})"

    def __str__(self):
        return format_triple(self._t)


def as_triple(x):
    """The kernel triple of a Coeff, an int or a Fraction."""
    return x._t if isinstance(x, Coeff) else _to_triple(x)


ZERO = Coeff.from_triple(QZERO)
ONE = Coeff.from_triple(QONE)
I = Coeff.from_triple((0, 1, 1))


# Decimal conversion splits an integer of this size or more: str() takes
# any shorter one at every setting of sys.set_int_max_str_digits (which
# refuses limits below 640 digits, 0 meaning none).
_SPLIT = 10**600


def _decimal(n: int) -> str:
    """The decimal digits of n, at any length: a long n is split in two by a
    power of ten near the middle of its digits."""
    if -_SPLIT < n < _SPLIT:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half of its digits: log10(2) > 0.3
    hi, lo = divmod(n, 10**k)
    return _decimal(hi) + _decimal(lo).rjust(k, "0")


def _ratio_text(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms as ``p`` or ``p/q``: one ``gcd``."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return _decimal(num) if den == 1 else f"{_decimal(num)}/{_decimal(den)}"


def format_triple(t) -> str:
    """Canonical text form of a kernel triple, re-parseable by the
    expression parser.

    Pure reals print as ``p`` or ``p/q``; pure imaginaries as ``i``, ``-i`` or
    ``p/q*i``; mixed values as ``re+im*i`` / ``re-im*i`` with the imaginary
    magnitude printed unsigned after the sign.  The parts a/d and b/d of the
    triple (a, b, d) are each reduced by one ``gcd``, and integers of any
    length are printed, past the interpreter's limit on ``str(int)`` too.
    """
    a, b, d = t
    if b == 0:
        return _ratio_text(a, d)
    if b == d:
        im_s = "i"
    elif b == -d:
        im_s = "-i"
    else:
        im_s = f"{_ratio_text(b, d)}*i"
    if a == 0:
        return im_s
    if im_s.startswith("-"):
        return f"{_ratio_text(a, d)}-{im_s[1:]}"
    return f"{_ratio_text(a, d)}+{im_s}"
