"""Text syntax for plane 1-forms and meromorphic quotients.

Two input shapes share one tokenizer:

* a 1-form, a sum of terms, each an optional coefficient polynomial followed
  by ``dx`` or ``dy``::

      (2*x^3*y - y^3) dx + (x*y^2 - x^4) dy
      dx + dx

* a meromorphic quotient, marked by a ``mero:`` prefix::

      mero: (y^2 + x^3) / (x*y)

Coefficient literals are integers (ASCII digits), rationals ``p/q`` and the
imaginary unit ``i``; floating-point literals are rejected.  Arithmetic inside
a coefficient runs over exact rational functions, so ``1/2*x^2`` and
``(y^2+x^3)/(x*y)`` both mean what they say; a 1-form coefficient must come
out polynomial (a constant denominator), a ``mero:`` input keeps its
numerator/denominator pair up to one overall constant: the denominator's
lowest monomial is made monic, so printing and reparsing a pair is exact.

Inside, a value is an unreduced (numerator, denominator) pair of dicts
``{(i, j): triple}`` over the kernel's normalized ``(a, b, d)`` triples, with
a denominator of ``None`` standing for 1; values become ``Coeff`` only in the
final :class:`~cuspfol.jets.Jet2`.  A sum of polynomials is added term by term
into one dict, so a long sum costs time linear in its length; a sum with any
other denominator cross-multiplies from the left, which fixes the ``mero:``
pair.  A product with a one-term operand, such as each factor of a
``(c)*x^i*y^j`` term, shifts the other operand's keys in one comprehension;
a power of a one-term base raises only its coefficient, and any other power
is taken by repeated squaring of the polynomial.  A product, quotient or
power with an operand of two or more terms is refused at its operator,
before it is expanded, when its degree would exceed ``--order``, except in a
1-form term where an operand has a non-constant denominator: that term is
refused at its end.

All errors raised here are :class:`ParseError` carrying 1-based ``line`` and
``col`` positions into the source text.
"""

from __future__ import annotations

from ._backend import QONE, qadd, qinv, qmul, qneg
from .coeff import Coeff
from .jets import DEFAULT_ORDER, Jet2, format_poly
from .forms import OneForm

__all__ = [
    "ParseError",
    "MeromorphicPair",
    "parse_form",
    "format_form",
    "format_poly",
]


class ParseError(ValueError):
    """Syntax or validity error in a form expression, with source position."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.bare_message = message


class MeromorphicPair:
    """Numerator and denominator of a ``mero:`` input, as exact jets."""

    def __init__(self, num: Jet2, den: Jet2):
        self.num = num
        self.den = den

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __iter__(self):
        return iter((self.num, self.den))


# ---------------------------------------------------------------------------
# tokenizer: a token is a tuple (kind, value, line, col)

_DX, _DY, _INT, _NAME, _OP, _EOF = "dx", "dy", "int", "name", "op", "eof"
_OP_CHARS = "+-*/^():"
_DIGITS = "0123456789"


def _tokenize(text):
    toks = []
    append = toks.append
    line, base = 1, 0  # base: index of the first character of the line
    k, n = 0, len(text)
    while k < n:
        ch = text[k]
        if ch in " \t\r":
            k += 1
        elif ch == "\n":
            line += 1
            k += 1
            base = k
        elif ch in _OP_CHARS:
            append((_OP, ch, line, k - base + 1))
            k += 1
        elif ch in _DIGITS:
            start = k
            k += 1
            while k < n and text[k] in _DIGITS:
                k += 1
            if k < n and text[k] == ".":
                raise ParseError(
                    "floating-point literals are not supported; write an exact "
                    "rational p/q",
                    line,
                    k - base + 1,
                )
            append((_INT, int(text[start:k]), line, start - base + 1))
        elif ch.isalpha() or ch == "_":
            start = k
            k += 1
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            word = text[start:k]
            kind = word if word == _DX or word == _DY else _NAME
            append((kind, word, line, start - base + 1))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, k - base + 1)
    append((_EOF, None, line, k - base + 1))
    return toks


# ---------------------------------------------------------------------------
# exact rational-function values: (numerator, denominator) dicts
# {(i, j): triple} with j the power of y; a denominator None is 1

_ONE_KEY = (0, 0)
_ONE = {_ONE_KEY: QONE}  # compared against, never mutated


def _pmul(p, q):
    """The product of two polynomial dicts, zero sums dropped as they occur.

    A one-term operand only shifts the other operand's keys, which stay
    distinct, so no sum is formed and, with no zero divisors, none of the
    products is zero: that product is one comprehension, in the other
    operand's key order.
    """
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        ((i1, j1), c1), = p.items()
        if c1 == QONE:
            return {(i1 + i2, j1 + j2): c2 for (i2, j2), c2 in q.items()}
        return {(i1 + i2, j1 + j2): qmul(c1, c2) for (i2, j2), c2 in q.items()}
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            s = out.get(key)
            s = qmul(c1, c2) if s is None else qadd(s, qmul(c1, c2))
            if s[0] or s[1]:
                out[key] = s
            else:
                del out[key]
    return out


def _padd_into(acc, p, negate=False):
    """Add (or subtract) polynomial ``p`` into the dict ``acc`` in place."""
    for key, c in p.items():
        if negate:
            c = qneg(c)
        s = acc.get(key)
        if s is None:
            acc[key] = c
        else:
            s = qadd(s, c)
            if s[0] or s[1]:
                acc[key] = s
            else:
                del acc[key]


def _pscale(p, c):
    return {key: qmul(v, c) for key, v in p.items()}


def _ppow(p, e):
    if len(p) == 1:
        # a one-term power raises only its coefficient
        ((i, j), c), = p.items()
        return {(i * e, j * e): c if c == QONE else (Coeff.from_triple(c) ** e).triple}
    out, base = {_ONE_KEY: QONE}, p
    while e:
        if e & 1:
            out = _pmul(out, base)
        e >>= 1
        if e:
            base = _pmul(base, base)
    return out


def _den(d):
    """A denominator dict, or ``None`` when it is 1."""
    return None if d == _ONE else d


def _dmul(d1, d2):
    if d1 is None:
        return _den(d2)
    if d2 is None:
        return d1
    return _den(_pmul(d1, d2))


def _degree(*factors):
    """The degree of a product of polynomial dicts, a factor None being 1.

    Q(i)[x, y] has no zero divisors, so it is the sum of the factors'
    degrees, or 0 when a factor is zero.
    """
    if any(p is not None and not p for p in factors):
        return 0
    return sum(max(i + j for i, j in p) for p in factors if p is not None)


_RESULT = {"*": "product", "/": "quotient", "^": "power", "+": "sum", "-": "difference"}


class _RatVal:
    """A rational function held as an unreduced (num, den) polynomial pair."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = den

    def add(self, other):
        # the left-fold cross-multiplication that mero: parsing reads
        num = _pmul(self.num, other.den) if other.den is not None else dict(self.num)
        _padd_into(num, _pmul(other.num, self.den) if self.den is not None else other.num)
        return _RatVal(num, _dmul(self.den, other.den))

    def neg(self):
        return _RatVal({key: qneg(c) for key, c in self.num.items()}, self.den)

    def mul(self, other):
        return _RatVal(_pmul(self.num, other.num), _dmul(self.den, other.den))

    def div(self, other):
        num = _pmul(self.num, other.den) if other.den is not None else self.num
        return _RatVal(num, _dmul(self.den, other.num))

    def pow(self, e):
        # repeated squaring; a denominator of 1 stays None
        return _RatVal(_ppow(self.num, e), self.den and _den(_ppow(self.den, e)))

    def constant_den(self):
        """The denominator as a triple if it is constant, else None."""
        if self.den is None:
            return QONE
        if len(self.den) == 1 and _ONE_KEY in self.den:
            return self.den[_ONE_KEY]
        return None


# ---------------------------------------------------------------------------
# recursive-descent parser

class _Parser:
    def __init__(self, toks, order, mero=False):
        self.toks = toks
        self.order = order
        self.mero = mero
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def at_op(self, chars):
        tok = self.toks[self.pos]
        return tok[0] == _OP and tok[1] in chars

    def expect_op(self, ch, what):
        if not self.at_op(ch):
            self.fail(what)
        return self.advance()

    # poly := product (('+'|'-') product)*
    def parse_sum(self):
        val = self.parse_product()
        owned = False  # whether val.num is this sum's own dict
        while self.at_op("+-"):
            op = self.advance()
            negate = op[1] == "-"
            rhs = self.parse_product()
            if val.den is None and rhs.den is None:
                if not owned:
                    val = _RatVal(dict(val.num))
                    owned = True
                _padd_into(val.num, rhs.num, negate)
            else:
                val = val.add(rhs.neg() if negate else rhs)
                self.check_degree(op, val)
                owned = True
        return val

    # product := unary (('*'|'/') unary)*
    def parse_product(self):
        val = self.parse_unary()
        while self.at_op("*/"):
            if self.toks[self.pos + 1][0] in (_DX, _DY):
                break  # the '*' belongs to the term: "3*dx"
            op = self.advance()
            rhs = self.parse_unary()
            if op[1] == "/" and not rhs.num:
                self.fail("division by zero", op)
            self.check_degree(op, val, rhs)
            val = val.mul(rhs) if op[1] == "*" else val.div(rhs)
        return val

    # unary := ('+'|'-')* power
    def parse_unary(self):
        neg = False
        while self.at_op("+-"):
            if self.advance()[1] == "-":
                neg = not neg
        val = self.parse_power()
        return val.neg() if neg else val

    # power := atom ('^' INT)?
    def parse_power(self):
        val = self.parse_atom()
        if self.at_op("^"):
            caret = self.advance()
            tok = self.peek()
            if tok[0] != _INT:
                self.fail("exponent must be a nonnegative integer literal")
            self.advance()
            self.check_degree(caret, val, e=tok[1])
            val = val.pow(tok[1])
        return val

    def check_degree(self, op, val, rhs=None, e=1):
        """Refuse ``val op rhs`` (or ``val ^ e``) if its degree exceeds --order.

        A sum or difference over denominators is checked once it is formed,
        as ``val`` alone: forming it is one cross-multiplication of operands
        that passed these checks, and the degree of its numerator and
        denominator is then read off exactly.

        The degree is exact, so only inputs whose later steps discard the
        value (a cancelling subtraction, a zero factor, an exponent 0) are
        refused needlessly.  The check applies when an operand has two or
        more terms, in a mero: input or between 1-form values with constant
        denominators.  One-term operands, and 1-form values with a
        non-constant denominator, keep the checks at the end of their term,
        whose messages say what is wrong with them.
        """
        operands = (val,) if rhs is None else (val, rhs)
        for v in operands:
            if len(v.num) > 1 or (v.den is not None and len(v.den) > 1):
                break
        else:
            return  # one-term operands only
        if not self.mero and any(v.constant_den() is None for v in operands):
            return
        if rhs is None:
            degree = e * max(_degree(val.num), _degree(val.den))
        elif op[1] == "*":
            degree = max(_degree(val.num, rhs.num), _degree(val.den, rhs.den))
        else:
            degree = max(_degree(val.num, rhs.den), _degree(val.den, rhs.num))
        if degree > self.order:
            self.fail(
                f"the {_RESULT[op[1]]} has degree {degree}; raise --order "
                f"(currently {self.order}) to keep the computation exact",
                op,
            )

    # atom := INT | 'i' | 'x' | 'y' | '(' poly ')'
    def parse_atom(self):
        tok = self.peek()
        kind, value = tok[0], tok[1]
        if kind == _INT:
            self.advance()
            return _RatVal({_ONE_KEY: (value, 0, 1)} if value else {})
        if kind == _NAME:
            self.advance()
            if value == "x":
                return _RatVal({(1, 0): QONE})
            if value == "y":
                return _RatVal({(0, 1): QONE})
            if value == "i":
                return _RatVal({_ONE_KEY: (0, 1, 1)})
            self.fail(f"unknown variable {value!r} (only x, y and i)", tok)
        if kind == _OP and value == "(":
            self.advance()
            val = self.parse_sum()
            self.expect_op(")", "expected ')'")
            return val
        if kind in (_DX, _DY):
            self.fail(f"{value!r} cannot appear inside a coefficient", tok)
        self.fail("expected a number, 'i', a variable, or '('", tok)


def _poly_to_jet(d, order, tok, what):
    for (i, j) in d:
        if i + j > order:
            raise ParseError(
                f"{what} has a degree-{i + j} monomial; raise --order "
                f"(currently {order}) to keep the computation exact",
                tok[2],
                tok[3],
            )
    return Jet2({key: Coeff.from_triple(t) for key, t in d.items()}, order)


def parse_form(text, order=DEFAULT_ORDER):
    """Parse a 1-form or a ``mero:`` quotient.

    Returns an :class:`OneForm` (variables ``x``, ``y``, jets at ``order``)
    for plain input, a :class:`MeromorphicPair` for ``mero:`` input.
    """
    toks = _tokenize(text)
    first = toks[0]
    mero = first[0] == _NAME and first[1] == "mero" and toks[1][:2] == (_OP, ":")
    p = _Parser(toks, order, mero)
    if mero:
        p.pos = 2
        return _parse_mero(p, order)
    return _parse_oneform(p, order)


def _parse_mero(p, order):
    start = p.peek()
    if start[0] == _EOF:
        p.fail("empty input after 'mero:'")
    val = p.parse_sum()
    tok = p.peek()
    if tok[0] != _EOF:
        p.fail("unexpected trailing input in a mero: expression", tok)
    if not val.num:
        p.fail("the meromorphic function is identically zero", start)
    # canonical constant normalization: the denominator's lowest monomial is
    # made monic, so printing and reparsing is a fixpoint
    num, den = val.num, val.den or {_ONE_KEY: QONE}
    kmin = min(den, key=lambda k: (k[0] + k[1], k[0], k[1]))
    if den[kmin] != QONE:
        inv = qinv(den[kmin])
        num, den = _pscale(num, inv), _pscale(den, inv)
    return MeromorphicPair(
        _poly_to_jet(num, order, start, "the numerator"),
        _poly_to_jet(den, order, start, "the denominator"),
    )


def _parse_oneform(p, order):
    if p.peek()[0] == _EOF:
        p.fail("empty input")
    sums = {_DX: {}, _DY: {}}
    negate = False
    while True:
        start = p.peek()
        slot, val = _parse_term(p)
        c = val.constant_den()
        if c is None:
            p.fail(
                "a 1-form coefficient must be polynomial (non-constant "
                "denominator; use mero: input for a quotient)",
                start,
            )
        num = val.num if c == QONE else _pscale(val.num, qinv(c))
        _padd_into(sums[slot], num, negate)
        tok = p.peek()
        if tok[0] == _EOF:
            break
        if tok[0] == _OP and tok[1] in "+-":
            p.advance()
            negate = tok[1] == "-"
            continue
        p.fail("expected '+', '-', or end of input between terms", tok)
    head = p.toks[0]
    a = _poly_to_jet(sums[_DX], order, head, "the dx coefficient")
    b = _poly_to_jet(sums[_DY], order, head, "the dy coefficient")
    return OneForm(a, b, ("x", "y"))


def _parse_term(p):
    tok = p.peek()
    if tok[0] in (_DX, _DY):
        p.advance()
        return tok[0], _RatVal({_ONE_KEY: QONE})
    val = p.parse_sum()
    if p.at_op("*"):
        p.advance()
    tok = p.peek()
    if tok[0] not in (_DX, _DY):
        p.fail("expected 'dx' or 'dy' after the coefficient", tok)
    p.advance()
    return tok[0], val


# ---------------------------------------------------------------------------
# canonical printer (round-trips through parse_form at the same order)

def format_form(obj) -> str:
    """Canonical text for an :class:`OneForm` or :class:`MeromorphicPair`.

    ``parse_form(format_form(obj), order=<same order>)`` reproduces the
    object exactly (for forms in the standard x, y chart).
    """
    if isinstance(obj, MeromorphicPair):
        num = format_poly(dict(obj.num.items()))
        den = format_poly(dict(obj.den.items()))
        return f"mero: ({num}) / ({den})"
    w = obj
    names = w.variables
    parts = []
    if not w.a.is_zero():
        parts.append(f"({format_poly(dict(w.a.items()), names)}) d{names[0]}")
    if not w.b.is_zero():
        parts.append(f"({format_poly(dict(w.b.items()), names)}) d{names[1]}")
    if not parts:
        return f"0 d{names[0]}"
    return " + ".join(parts)
