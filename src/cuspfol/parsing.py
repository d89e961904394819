"""Text syntax for plane 1-forms and meromorphic quotients.

Two input shapes share one tokenizer:

* a 1-form, a sum of terms, each an optional coefficient polynomial followed
  by ``dx`` or ``dy``::

      (2*x^3*y - y^3) dx + (x*y^2 - x^4) dy
      dx + dx

* a meromorphic quotient, marked by a ``mero:`` prefix::

      mero: (y^2 + x^3) / (x*y)

Coefficient literals are integers, rationals ``p/q`` and the imaginary unit
``i``; floating-point literals are rejected.  Arithmetic inside a coefficient
runs over exact rational functions, so ``1/2*x^2`` and ``(y^2+x^3)/(x*y)``
both mean what they say; a 1-form coefficient must come out polynomial (a
constant denominator), a ``mero:`` input keeps its numerator/denominator
pair up to one overall constant: the denominator's lowest monomial is made
monic, so printing and reparsing a pair is exact.

All errors raised here are :class:`ParseError` carrying 1-based ``line`` and
``col`` positions into the source text.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import Coeff, format_coeff
from .jets import DEFAULT_ORDER, Jet2
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


@dataclass(frozen=True)
class MeromorphicPair:
    """Numerator and denominator of a ``mero:`` input, as exact jets."""

    num: Jet2
    den: Jet2

    def __iter__(self):
        return iter((self.num, self.den))


# ---------------------------------------------------------------------------
# tokenizer

_DX, _DY, _INT, _NAME, _OP, _EOF = "dx", "dy", "int", "name", "op", "eof"
_OP_CHARS = "+-*/^():"


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    line: int
    col: int


def _tokenize(text):
    toks = []
    line, col = 1, 1
    k, n = 0, len(text)
    while k < n:
        ch = text[k]
        if ch == "\n":
            line += 1
            col = 1
            k += 1
            continue
        if ch in " \t\r":
            col += 1
            k += 1
            continue
        if ch.isdigit():
            start = k
            start_col = col
            while k < n and text[k].isdigit():
                k += 1
                col += 1
            if k < n and text[k] == ".":
                raise ParseError(
                    "floating-point literals are not supported; write an exact "
                    "rational p/q",
                    line,
                    col,
                )
            toks.append(_Token(_INT, int(text[start:k]), line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = k
            start_col = col
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
                col += 1
            word = text[start:k]
            if word == "dx":
                toks.append(_Token(_DX, word, line, start_col))
            elif word == "dy":
                toks.append(_Token(_DY, word, line, start_col))
            else:
                toks.append(_Token(_NAME, word, line, start_col))
            continue
        if ch in _OP_CHARS:
            toks.append(_Token(_OP, ch, line, col))
            col += 1
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token(_EOF, None, line, col))
    return toks


# ---------------------------------------------------------------------------
# exact rational-function values: (numerator dict, denominator dict) over
# {(i, j): Coeff} with j the power of y

_ONE_P = {(0, 0): Coeff(1)}


def _pmul2(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            s = out.get(key)
            s = c1 * c2 if s is None else s + c1 * c2
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _padd2(p, q):
    out = dict(p)
    for key, c in q.items():
        s = out.get(key)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _ppow2(p, e):
    out, base = dict(_ONE_P), p
    while e:
        if e & 1:
            out = _pmul2(out, base)
        e >>= 1
        if e:
            base = _pmul2(base, base)
    return out


def _pscale2(p, c):
    if c.is_zero():
        return {}
    return {key: v * c for key, v in p.items()}


class _RatVal:
    """A rational function held as an unreduced (num, den) polynomial pair."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c):
        return cls({} if c.is_zero() else {(0, 0): c}, dict(_ONE_P))

    @classmethod
    def mono(cls, i, j):
        return cls({(i, j): Coeff(1)}, dict(_ONE_P))

    def add(self, other):
        # Polynomial sums skip the cross-multiplication by the constant 1;
        # any other pair keeps the unreduced form that mero: parsing reads.
        if self.den == _ONE_P and other.den == _ONE_P:
            return _RatVal(_padd2(self.num, other.num), dict(_ONE_P))
        return _RatVal(
            _padd2(_pmul2(self.num, other.den), _pmul2(other.num, self.den)),
            _pmul2(self.den, other.den),
        )

    def neg(self):
        return _RatVal(_pscale2(self.num, Coeff(-1)), self.den)

    def mul(self, other):
        return _RatVal(_pmul2(self.num, other.num), _pmul2(self.den, other.den))

    def div(self, other, tok):
        if not other.num:
            raise ParseError("division by zero", tok.line, tok.col)
        return _RatVal(_pmul2(self.num, other.den), _pmul2(self.den, other.num))

    def pow(self, e):
        # repeated squaring; a polynomial's denominator 1 stays as it is
        return _RatVal(
            _ppow2(self.num, e),
            dict(_ONE_P) if self.den == _ONE_P else _ppow2(self.den, e),
        )

    def constant_den(self):
        """The denominator as a Coeff if it is one, else None."""
        if list(self.den) == [(0, 0)]:
            return self.den[(0, 0)]
        return None


# ---------------------------------------------------------------------------
# recursive-descent parser

class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def at_op(self, *chars):
        tok = self.peek()
        return tok.kind == _OP and tok.value in chars

    def expect_op(self, ch, what):
        if not self.at_op(ch):
            self.fail(what)
        return self.advance()

    # poly := product (('+'|'-') product)*
    def parse_sum(self):
        val = self.parse_product()
        while self.at_op("+", "-"):
            op = self.advance()
            rhs = self.parse_product()
            val = val.add(rhs if op.value == "+" else rhs.neg())
        return val

    # product := unary (('*'|'/') unary)*
    def parse_product(self):
        val = self.parse_unary()
        while self.at_op("*", "/"):
            if self.toks[self.pos + 1].kind in (_DX, _DY):
                break  # the '*' belongs to the term: "3*dx"
            op = self.advance()
            rhs = self.parse_unary()
            val = val.mul(rhs) if op.value == "*" else val.div(rhs, op)
        return val

    # unary := ('+'|'-')* power
    def parse_unary(self):
        neg = False
        while self.at_op("+", "-"):
            if self.advance().value == "-":
                neg = not neg
        val = self.parse_power()
        return val.neg() if neg else val

    # power := atom ('^' INT)?
    def parse_power(self):
        val = self.parse_atom()
        if self.at_op("^"):
            self.advance()
            tok = self.peek()
            if tok.kind != _INT:
                self.fail("exponent must be a nonnegative integer literal")
            self.advance()
            val = val.pow(tok.value)
        return val

    # atom := INT | 'i' | 'x' | 'y' | '(' poly ')'
    def parse_atom(self):
        tok = self.peek()
        if tok.kind == _INT:
            self.advance()
            return _RatVal.const(Coeff(tok.value))
        if tok.kind == _NAME:
            self.advance()
            if tok.value == "i":
                return _RatVal.const(Coeff(0, 1))
            if tok.value == "x":
                return _RatVal.mono(1, 0)
            if tok.value == "y":
                return _RatVal.mono(0, 1)
            self.fail(f"unknown variable {tok.value!r} (only x, y and i)", tok)
        if self.at_op("("):
            self.advance()
            val = self.parse_sum()
            self.expect_op(")", "expected ')'")
            return val
        if tok.kind in (_DX, _DY):
            self.fail(f"{tok.value!r} cannot appear inside a coefficient", tok)
        self.fail("expected a number, 'i', a variable, or '('", tok)


def _poly_to_jet(d, order, tok, what):
    for (i, j) in d:
        if i + j > order:
            raise ParseError(
                f"{what} has a degree-{i + j} monomial; raise --order "
                f"(currently {order}) to keep the computation exact",
                tok.line,
                tok.col,
            )
    return Jet2(d, order)


def parse_form(text, order=DEFAULT_ORDER):
    """Parse a 1-form or a ``mero:`` quotient.

    Returns an :class:`OneForm` (variables ``x``, ``y``, jets at ``order``)
    for plain input, a :class:`MeromorphicPair` for ``mero:`` input.
    """
    toks = _tokenize(text)
    p = _Parser(toks)
    first = p.peek()
    if first.kind == _NAME and first.value == "mero":
        nxt = toks[p.pos + 1]
        if nxt.kind == _OP and nxt.value == ":":
            p.advance()
            p.advance()
            return _parse_mero(p, order)
    return _parse_oneform(p, order)


def _parse_mero(p, order):
    start = p.peek()
    if start.kind == _EOF:
        p.fail("empty input after 'mero:'")
    val = p.parse_sum()
    tok = p.peek()
    if tok.kind != _EOF:
        p.fail("unexpected trailing input in a mero: expression", tok)
    if not val.num:
        p.fail("the meromorphic function is identically zero", start)
    # canonical constant normalization: the denominator's lowest monomial is
    # made monic, so printing and reparsing is a fixpoint
    kmin = min(val.den, key=lambda k: (k[0] + k[1], k[0], k[1]))
    inv = Coeff(1) / val.den[kmin]
    num = _poly_to_jet(_pscale2(val.num, inv), order, start, "the numerator")
    den = _poly_to_jet(_pscale2(val.den, inv), order, start, "the denominator")
    return MeromorphicPair(num, den)


def _parse_oneform(p, order):
    a_val = None
    b_val = None
    if p.peek().kind == _EOF:
        p.fail("empty input")
    negate = False
    while True:
        start = p.peek()
        slot, val = _parse_term(p, start)
        if negate:
            val = val.neg()
        c = val.constant_den()
        if c is None:
            p.fail(
                "a 1-form coefficient must be polynomial (non-constant "
                "denominator; use mero: input for a quotient)",
                start,
            )
        coef = _RatVal(_pscale2(val.num, Coeff(1) / c), dict(_ONE_P))
        if slot == _DX:
            a_val = coef if a_val is None else a_val.add(coef)
        else:
            b_val = coef if b_val is None else b_val.add(coef)
        tok = p.peek()
        if tok.kind == _EOF:
            break
        if tok.kind == _OP and tok.value in "+-":
            p.advance()
            negate = tok.value == "-"
            continue
        p.fail("expected '+', '-', or end of input between terms", tok)
    a_d = a_val.num if a_val is not None else {}
    b_d = b_val.num if b_val is not None else {}
    head = p.toks[0]
    a = _poly_to_jet(a_d, order, head, "the dx coefficient")
    b = _poly_to_jet(b_d, order, head, "the dy coefficient")
    return OneForm(a, b, ("x", "y"))


def _parse_term(p, start):
    tok = p.peek()
    if tok.kind in (_DX, _DY):
        p.advance()
        return tok.kind, _RatVal.const(Coeff(1))
    val = p.parse_sum()
    if p.at_op("*"):
        p.advance()
    tok = p.peek()
    if tok.kind not in (_DX, _DY):
        p.fail("expected 'dx' or 'dy' after the coefficient", tok)
    p.advance()
    return tok.kind, val


# ---------------------------------------------------------------------------
# canonical printer (round-trips through parse_form at the same order)

def _fmt_coeff_factor(c):
    s = format_coeff(c)
    if "+" in s[1:] or "-" in s[1:]:
        return f"({s})"
    return s


def format_poly(d, names=("x", "y")):
    """A polynomial dict {(i, j): Coeff} as canonical source text."""
    if not d:
        return "0"
    xn, yn = names
    pieces = []
    for (i, j) in sorted(d, key=lambda k: (k[0] + k[1], k[0], k[1])):
        c = d[(i, j)]
        mono = []
        if i:
            mono.append(xn if i == 1 else f"{xn}^{i}")
        if j:
            mono.append(yn if j == 1 else f"{yn}^{j}")
        mono_s = "*".join(mono)
        if not mono_s:
            term = format_coeff(c)
        elif c == Coeff(1):
            term = mono_s
        elif c == Coeff(-1):
            term = f"-{mono_s}"
        else:
            term = f"{_fmt_coeff_factor(c)}*{mono_s}"
        pieces.append(term)
    out = pieces[0]
    for term in pieces[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out


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
