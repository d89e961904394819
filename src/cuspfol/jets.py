"""Truncated power series (jets) over Q(i), in one and two variables.

A jet of order N stores exact coefficients for all monomials of total degree
<= N; higher-order terms are unknown, not zero.  Jets are immutable values:
arithmetic returns new objects and truncates to the minimum of the operand
orders.  Substitution works at the minimum of the orders of its inputs.
Division is :class:`Jet1`'s only, by a unit, through the kernel's
``jet1_reciprocal``; a two-variable quotient whose divisor is a series in
one variable is a product by that reciprocal embedded with
:meth:`Jet2.from_jet1`.  A monomial change is :meth:`Jet2.exponent_map`.
Products are the kernel's ``jet1_mul`` and ``jet2_mul``, and the series
reversion :meth:`Jet1.comp_inverse` takes its powers with ``jet1_mul``.

The module states each rule about jets once, and every other module calls
it: :func:`invertible_germ` (sigma(0) = 0, sigma'(0) != 0) and
:func:`invertible_linear_part` (sigma'(0) != 0 alone) for germs of (C, 0);
``truncate`` and ``coeff``, which refuse an order or an index past the
jet's own, for a caller that needs a jet to cover an order;
:func:`derivative_order` for the order a derivative drops to; and one
check each for axis names and exponents.

Internally coefficients are the kernel triples (a, b, d) ~ (a+b*i)/d; the
public surface deals in :class:`~cuspfol.coeff.Coeff`.
"""

from __future__ import annotations

from numbers import Rational
from operator import index

from ._backend import (
    QONE,
    QZERO,
    add_into,
    jet1_mul,
    jet1_reciprocal,
    jet2_mul,
    jet2_substitute,
    qadd,
    qiszero,
    qmul,
    qneg,
    qsub,
)
from .coeff import Coeff, as_triple, format_triple

DEFAULT_ORDER = 16

# int first: isinstance matches it before the slower check of the ABC
_SCALARS = (int, Coeff, Rational)


class JetError(ValueError):
    pass


def _order(order):
    """A jet order: an integer (``operator.index``, so a float raises
    ``TypeError``) that is not negative."""
    n = index(order)
    if n < 0:
        raise JetError("order must be >= 0")
    return n


def derivative_order(order):
    """The order of a derivative of a jet of order ``order``, one lower; an
    order-0 jet has none and raises :class:`JetError`."""
    if order < 1:
        raise JetError("cannot differentiate an order-0 jet")
    return order - 1


_AXES = ("x", "y")


def _axis(axis):
    """The key slot of an axis: 0 for "x", 1 for "y"; any other name raises
    :class:`JetError`."""
    if axis not in _AXES:
        raise JetError("axis must be 'x' or 'y'")
    return _AXES.index(axis)


def _check_exponents(i, j):
    if i < 0 or j < 0:
        raise JetError("negative exponent in Jet2")


class _Jet:
    """The operators :class:`Jet1` and :class:`Jet2` share.

    Each subclass supplies ``_bin`` (a coefficient-wise operation on two jets
    of its kind), ``_ONE`` (the constant 1 as its constructor takes it) and
    the order ``_n``; a scalar operand stands for the constant jet at the
    other operand's order.
    """

    __slots__ = ()

    @classmethod
    def one(cls, order=DEFAULT_ORDER):
        return cls(cls._ONE, order)

    def _operand(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, _SCALARS):
            return self.one(self._n) * other
        return None

    def __add__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self._bin(other, qadd)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self._bin(other, qsub)

    def __rsub__(self, other):
        return (-self) + other

    def _lower_order(self, order):
        """``order`` as the order of a truncation, which cannot raise the
        jet's own (:class:`JetError`)."""
        order = _order(order)
        if order > self._n:
            raise JetError(f"truncate cannot raise the order {self._n} to {order}")
        return order


class Jet1(_Jet):
    """A truncated series  c0 + c1*z + ... + cN*z^N  (+ unknown tail)."""

    __slots__ = ("_c", "_n")
    _ONE = (1,)

    def __init__(self, coeffs=(), order=DEFAULT_ORDER):
        n = _order(order)
        c = [QZERO] * (n + 1)
        for k, v in enumerate(coeffs):
            t = as_triple(v)  # past the order too: an inexact one is refused
            if k <= n:
                c[k] = t
        self._c = tuple(c)
        self._n = n

    @classmethod
    def _raw(cls, triples, order):
        obj = object.__new__(cls)
        obj._c = tuple(triples[: order + 1]) + (QZERO,) * (order + 1 - len(triples))
        obj._n = order
        return obj

    @classmethod
    def variable(cls, order=DEFAULT_ORDER):
        return cls((0, 1), order)

    @property
    def order(self):
        return self._n

    @property
    def coeffs(self):
        return tuple(Coeff.from_triple(t) for t in self._c)

    @property
    def triples(self):
        """The coefficients as kernel triples, lowest degree first."""
        return self._c

    def coeff(self, k) -> Coeff:
        if k < 0 or k > self._n:
            raise JetError(f"coefficient index {k} outside jet order {self._n}")
        return Coeff.from_triple(self._c[k])

    def is_zero(self):
        return all(qiszero(t) for t in self._c)

    def valuation(self):
        """Smallest k with nonzero z^k coefficient; None for the zero jet."""
        for k, t in enumerate(self._c):
            if not qiszero(t):
                return k
        return None

    def truncate(self, order):
        order = self._lower_order(order)
        return Jet1._raw(self._c[: order + 1], order)

    def _bin(self, other, op):
        n = min(self._n, other._n)
        return Jet1._raw(
            [op(self._c[k], other._c[k]) for k in range(n + 1)], n
        )

    def __neg__(self):
        return Jet1._raw([qneg(t) for t in self._c], self._n)

    def __mul__(self, other):
        if isinstance(other, Jet1):
            n = min(self._n, other._n)
            return Jet1._raw(jet1_mul(self._c, other._c, n), n)
        t = as_triple(other)
        return Jet1._raw([qmul(c, t) for c in self._c], self._n)

    __rmul__ = __mul__

    def derivative(self):
        """d/dz, one order lower (the top coefficient is consumed)."""
        n = derivative_order(self._n)
        out = [
            qmul(self._c[k], (k, 0, 1)) for k in range(1, self._n + 1)
        ]
        return Jet1._raw(out, n)

    def compose(self, inner: "Jet1") -> "Jet1":
        """self(inner(z)); inner must have zero constant term."""
        if not qiszero(inner._c[0]):
            raise JetError("composition target must vanish at 0")
        n = min(self._n, inner._n)
        acc = [QZERO] * (n + 1)
        for k in range(n, -1, -1):
            acc = jet1_mul(acc, inner._c, n)
            acc[0] = qadd(acc[0], self._c[k])
        return Jet1._raw(acc, n)

    def comp_inverse(self) -> "Jet1":
        """Compositional inverse g with g(f(z)) = z of an invertible germ f
        (:func:`invertible_germ` refuses any other).

        Series reversion by Lagrange inversion: with the unit h = z/f(z),
        [z^k]g = (1/k) [z^(k-1)] h^k.  h is one kernel reciprocal and each
        power h^k one :func:`~cuspfol._backend.jet1_mul` by h, at order
        N - 1.
        """
        invertible_germ(self)
        n = self._n
        h = jet1_reciprocal(self._c[1:], n - 1)
        out = [QZERO] * (n + 1)
        power = h
        for k in range(1, n + 1):
            out[k] = qmul(power[k - 1], (1, 0, k))
            if k < n:
                power = jet1_mul(power, h, n - 1)
        return Jet1._raw(out, n)

    def reciprocal(self) -> "Jet1":
        """1/self; needs a nonzero constant term.

        The kernel's :func:`~cuspfol._backend.jet1_reciprocal` runs the
        recurrence on Gaussian-integer numerators, one ``qnorm`` per output
        coefficient.
        """
        if qiszero(self._c[0]):
            raise JetError("reciprocal needs a unit (nonzero constant term)")
        return Jet1._raw(jet1_reciprocal(self._c, self._n), self._n)

    def div(self, other: "Jet1") -> "Jet1":
        """Series division by a unit, at the min of the orders.

        A divisor without a constant term raises :class:`JetError`.
        """
        if not isinstance(other, Jet1):
            raise JetError("div expects a Jet1")
        return self * other.reciprocal()

    def scale_variable(self, factor) -> "Jet1":
        """self(factor * z): coefficient k picks up factor^k."""
        f = as_triple(factor)
        out = []
        p = QONE
        for k in range(self._n + 1):
            out.append(qmul(self._c[k], p))
            p = qmul(p, f)
        return Jet1._raw(out, self._n)

    def __eq__(self, other):
        if not isinstance(other, Jet1):
            return NotImplemented
        return self._n == other._n and self._c == other._c

    def __hash__(self):
        return hash((self._n, self._c))

    def __repr__(self):
        d = {(k, 0): t for k, t in enumerate(self._c) if not qiszero(t)}
        return f"Jet1({format_poly(d, ('z', 'z'))})"


def invertible_linear_part(jet: Jet1) -> Coeff:
    """The linear coefficient sigma'(0) of a germ, once it is checked to be
    nonzero; otherwise ``JetError``."""
    c1 = jet.coeff(1)
    if c1.is_zero():
        raise JetError("germ must have invertible linear part")
    return c1


def invertible_germ(jet: Jet1) -> Jet1:
    """``jet`` itself, once it is checked to be an invertible germ of
    (C, 0): sigma(0) = 0 and sigma'(0) != 0.  Otherwise ``JetError``."""
    if not jet.coeff(0).is_zero():
        raise JetError("germ must fix the origin")
    invertible_linear_part(jet)
    return jet


class Jet2(_Jet):
    """A truncated series in two variables: {(i, j): coeff}, i+j <= order."""

    __slots__ = ("_d", "_n")
    _ONE = {(0, 0): 1}

    def __init__(self, coeffs=None, order=DEFAULT_ORDER):
        n = _order(order)
        d = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                _check_exponents(i, j)
                t = as_triple(v)  # past the order too: an inexact one is refused
                if i + j <= n and not qiszero(t):
                    d[(i, j)] = t
        self._d = d
        self._n = n

    @classmethod
    def _raw(cls, d, order):
        obj = object.__new__(cls)
        obj._d = d
        obj._n = order
        return obj

    @classmethod
    def zero(cls, order=DEFAULT_ORDER):
        return cls._raw({}, order)

    @classmethod
    def monomial(cls, i, j, c=1, order=DEFAULT_ORDER):
        return cls({(i, j): c}, order)

    @classmethod
    def var_x(cls, order=DEFAULT_ORDER):
        return cls({(1, 0): 1}, order)

    @classmethod
    def var_y(cls, order=DEFAULT_ORDER):
        return cls({(0, 1): 1}, order)

    @classmethod
    def from_jet1(cls, jet: Jet1, axis: str) -> "Jet2":
        """Embed a one-variable jet along the "x" or "y" axis."""
        if _axis(axis) == 0:
            d = {(k, 0): t for k, t in enumerate(jet._c) if not qiszero(t)}
        else:
            d = {(0, k): t for k, t in enumerate(jet._c) if not qiszero(t)}
        return cls._raw(d, jet.order)

    @property
    def order(self):
        return self._n

    def items(self):
        """Sorted (key, Coeff) pairs of the nonzero monomials."""
        return [
            ((i, j), Coeff.from_triple(t))
            for (i, j), t in sorted(self._d.items(), key=_monokey)
        ]

    def triple_items(self):
        """(key, triple) pairs of the nonzero monomials, in storage order:
        the kernel's view, with no ``Coeff`` built."""
        return self._d.items()

    def coeff(self, i, j) -> Coeff:
        return Coeff.from_triple(self.triple(i, j))

    def triple(self, i, j):
        """The kernel triple of x^i y^j (see :meth:`coeff`), with no
        ``Coeff`` built."""
        if i < 0 or j < 0 or i + j > self._n:
            raise JetError(f"monomial ({i},{j}) outside jet order {self._n}")
        return self._d.get((i, j), QZERO)

    def is_zero(self):
        return not self._d

    def valuation(self, axis=None):
        """Smallest nonzero total degree; None for the zero jet.

        With ``axis`` "x" (or "y"), the smallest exponent of x (of y) over
        the nonzero monomials instead: the largest k with x^k dividing.
        """
        if not self._d:
            return None
        if axis is None:
            return min(i + j for (i, j) in self._d)
        k = _axis(axis)
        return min(key[k] for key in self._d)

    def truncate(self, order):
        """The jet at a lower order; at its own order, the jet itself (jets
        are immutable, so nothing is copied)."""
        order = self._lower_order(order)
        if order == self._n:
            return self
        d = {k: t for k, t in self._d.items() if k[0] + k[1] <= order}
        return Jet2._raw(d, order)

    def with_order(self, order):
        """Reinterpret at a different order: truncate below it, pad with
        zeros above it.

        Raising the order asserts the stored coefficients are exact
        polynomial data (the new high-degree coefficients are claimed zero).
        """
        order = _order(order)
        if order <= self._n:
            return self.truncate(order)
        return Jet2._raw(dict(self._d), order)

    def exponent_map(self, image, order) -> "Jet2":
        """Move each monomial c x^i y^j to c x^k y^l, (k, l) = image(i, j).

        The result has the given order: images of higher total degree are
        dropped, and a negative image exponent raises :class:`JetError`.
        ``image`` must be one-to-one on the monomials of the jet.
        """
        order = _order(order)
        d = {}
        for (i, j), t in self._d.items():
            k, l = image(i, j)
            _check_exponents(k, l)
            if k + l <= order:
                d[(k, l)] = t
        return Jet2._raw(d, order)

    def _bin(self, other, op):
        """self op other for op ``qadd`` or ``qsub``: the right operand is
        added into a copy of the left one (:func:`add_into`), negated for a
        difference, so only the shared keys are added."""
        n = min(self._n, other._n)
        # truncating below the order builds a new dict, so only the jet at
        # its own order is copied
        d = dict(self._d) if n == self._n else self.truncate(n)._d
        add_into(d, other.truncate(n)._d, op is qsub)
        return Jet2._raw(d, n)

    def __neg__(self):
        return Jet2._raw({k: qneg(t) for k, t in self._d.items()}, self._n)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            n = min(self._n, other._n)
            return Jet2._raw(jet2_mul(self._d, other._d, n), n)
        t = as_triple(other)
        if qiszero(t):
            return Jet2.zero(self._n)
        return Jet2._raw({k: qmul(c, t) for k, c in self._d.items()}, self._n)

    __rmul__ = __mul__

    def dx(self) -> "Jet2":
        """Partial derivative in the first variable (order drops by one)."""
        n = derivative_order(self._n)
        d = {}
        for (i, j), t in self._d.items():
            if i >= 1:
                d[(i - 1, j)] = qmul(t, (i, 0, 1))
        return Jet2._raw(d, n)

    def dy(self) -> "Jet2":
        """Partial derivative in the second variable (order drops by one)."""
        n = derivative_order(self._n)
        d = {}
        for (i, j), t in self._d.items():
            if j >= 1:
                d[(i, j - 1)] = qmul(t, (j, 0, 1))
        return Jet2._raw(d, n)

    def substitute(self, fx: "Jet2", fy: "Jet2") -> "Jet2":
        """self(fx, fy) for substitution targets vanishing at the origin.

        The result order is min(self.order, fx.order, fy.order).

        The kernel's :func:`~cuspfol._backend.jet2_substitute` does the work
        on Gaussian-integer numerators over one denominator per
        substitution, as the dx coefficient of a form whose dy coefficient
        is 0, with one ``qnorm`` per nonzero output coefficient.
        The monomials are grouped by their power of x and summed by
        Horner's rule in fx,

            self(fx, fy) = sum_i fx^i * (sum_j a_ij * fy^j),

        so each power of x costs one product by fx and each power of y one
        product by fy.  When the change is tangent to the identity,
        fx = x + p and fy = y + q with p and q of lowest degree v >= 2, a
        monomial of degree d keeps only the terms of its binomial expansion
        with at most t = (order - d) // (v - 1) factors p or q: it is copied
        when t = 0 and expanded by the binomial theorem when t is small
        (see :func:`~cuspfol._backend._substitute`).
        """
        _check_targets(fx, fy)
        n = min(self._n, fx._n, fy._n)
        return Jet2._raw(jet2_substitute(self._d, fx._d, fy._d, n), n)

    def restrict_to_axis(self, axis: str) -> Jet1:
        """The one-variable jet on an axis: "x" sets y=0, "y" sets x=0."""
        k = _axis(axis)
        out = [QZERO] * (self._n + 1)
        for key, t in self._d.items():
            if not key[1 - k]:
                out[key[k]] = t
        return Jet1._raw(out, self._n)

    def swap_variables(self) -> "Jet2":
        return Jet2._raw({(j, i): t for (i, j), t in self._d.items()}, self._n)

    def __eq__(self, other):
        if not isinstance(other, Jet2):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._n, tuple(sorted(self._d.items()))))

    def __repr__(self):
        return f"Jet2({format_poly(self._d)})"


def _monokey(item):
    (i, j), _ = item
    return (i + j, -i)


def _check_targets(fx: Jet2, fy: Jet2):
    if (0, 0) in fx._d or (0, 0) in fy._d:
        raise JetError("substitution target must vanish at the origin")


def _fmt_coeff_factor(t):
    s = format_triple(t)
    if "+" in s[1:] or "-" in s[1:]:
        return f"({s})"
    return s


_QMINUS_ONE = (-1, 0, 1)


def format_poly(d, names=("x", "y")):
    """A polynomial dict {(i, j): triple} of kernel triples as canonical
    source text.

    The text parses back to the same polynomial; ``Jet1`` and ``Jet2`` print
    their coefficients with it.  No ``Coeff`` is built: a coefficient 1 or
    -1 is told by its triple.
    """
    if not d:
        return "0"
    xn, yn = names
    pieces = []
    for (i, j) in sorted(d, key=lambda k: (k[0] + k[1], k[0], k[1])):
        t = d[(i, j)]
        mono = []
        if i:
            mono.append(xn if i == 1 else f"{xn}^{i}")
        if j:
            mono.append(yn if j == 1 else f"{yn}^{j}")
        mono_s = "*".join(mono)
        if not mono_s:
            term = format_triple(t)
        elif t == QONE:
            term = mono_s
        elif t == _QMINUS_ONE:
            term = f"-{mono_s}"
        else:
            term = f"{_fmt_coeff_factor(t)}*{mono_s}"
        pieces.append(term)
    out = pieces[0]
    for term in pieces[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out
