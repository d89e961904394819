"""Text syntax for plane 1-forms and meromorphic quotients.

Two input shapes share one tokenizer:

* a 1-form, a sum of terms, each an optional coefficient polynomial followed
  by ``dx`` or ``dy``::

      (2*x^3*y - y^3) dx + (x*y^2 - x^4) dy
      dx + dx

* a meromorphic quotient, marked by a ``mero:`` prefix::

      mero: (y^2 + x^3) / (x*y)

Coefficient literals are integers (ASCII digits), rationals ``p/q`` and the
imaginary unit ``i``; floating-point literals are rejected, and so is a
numeral longer than the interpreter converts (``sys.get_int_max_str_digits``).

Arithmetic inside a coefficient runs over exact rational functions, so
``1/2*x^2`` and ``(y^2+x^3)/(x*y)`` both mean what they say; a 1-form
coefficient must come out polynomial (a constant denominator), a ``mero:``
input keeps its numerator/denominator pair up to one overall constant: the
denominator's lowest monomial is made monic, so printing and reparsing a
pair is exact.

Inside, a value is an unreduced (numerator, denominator) pair of dicts
``{(i, j): triple}`` over the kernel's normalized ``(a, b, d)`` triples, with
a denominator of ``None`` standing for 1; the final dicts become
:class:`~cuspfol.jets.Jet2` as they are.  One precedence-climbing loop (Pratt
1973) parses a coefficient, one call per operand, but none for a literal or
variable-power word that a ``*`` folds into a one-term value (below).  A
product or power of one-term polynomials is folded into one term (``x^e``
and ``y^e`` only scale the monomial's key), and dividing by a constant
scales the numerator, so a denominator is 1 or non-constant.  A sum of
polynomials, rational coefficients included, is added term by term into
one dict, so a long sum costs time linear in its length; a sum with a
denominator cross-multiplies from the left, which fixes the ``mero:`` pair.
A product, quotient or power with an operand of two or more terms is
refused at its operator, before it is expanded, when its degree would
exceed ``--order``.  Coefficients have a size budget of
``MAX_COEFF_BITS`` bits: a product is refused at its ``*``, before it is
formed, when the largest coefficient magnitudes (``forms.magnitude``) of
its factors multiply past it, and a power at its ``^`` when its
coefficients may pass it.  In a 1-form term, an operand with a denominator
is not checked there: the term is refused at its end as not polynomial, or
at the ``^`` of a power past ``--order`` whose numerator is not constant,
which can only end non-polynomial.

Parentheses nest at most ``_MAX_NESTING`` deep, so that parsing, one call per
operand, stays well inside the interpreter's recursion limit; the first
parenthesis past it is refused.

The tokenizer is one compiled ``re.findall`` over the text.  A token is a
pair ``(kind, value)``; the words that recur (operators, ``x``, ``y``,
``i``, ``dx``, ``dy``, ``mero``, the numerals below 100) map to pairs shared
from one table, a variable power joins it when it is first read, and only
other words build a pair.  Two kinds of word stand for one term each:

* a parenthesized Gaussian-rational literal ``(p)``, ``(p/q)``,
  ``(p+r*i)``, ``(p/q-r/s*i)`` or ``(r/s*i)``, whose value is its kernel
  triple: each numeral has at most 18 digits, each denominator starts with
  a digit from 1 to 9, and a sign stands between the two parts;
* a variable power ``x^e`` or ``y^e``, e of at most 3 digits, whose value
  is its monomial key.

Each is one word only where no ``^`` follows, not even past spaces, tabs
and line ends, and the next character is not ``.``, a digit or a word
character.  So ``x^2^3``, ``x^2 ^3``, ``(1+2*i)^2``, ``x^1.5`` and ``(3)x``
are split into the plain words they cover, and every text means what it
means with plain words only, or is refused with the same message at the
same position.  A literal opens one nesting level, as its parenthesis
does.  A ``*`` whose left value is one term folds such a word on its right
into that term, with no call.  A ``*``-chain such as ``(c)*x^2*y`` is not
one word: ``1/(c)*x^2*y`` is ``(1/(c))*x^2*y``, and a chain word would make
it ``1/((c)*x^2*y)``.  A term ``(a+b*i)*x^i*y^j`` with its ``+`` is 6 words,
not 16.

All errors raised here are :class:`ParseError` carrying 1-based ``line`` and
``col`` positions into the source text.  Tokens carry no position: a
refusal names the index of its token, and its line and column are read off
the text again only when the :class:`ParseError` is raised.
"""

from __future__ import annotations

import re
import sys
from itertools import islice

from ._backend import QONE, add_into, jet2_mul, qinv, qmul, qneg, qnorm
from .coeff import Coeff
from .jets import DEFAULT_ORDER, Jet2
from .forms import MAX_COEFF_BITS, OneForm, magnitude

__all__ = [
    "ParseError",
    "MeromorphicPair",
    "parse_form",
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
# tokenizer: a token is a pair (kind, value), one shared pair per word of
# _TOKENS; positions are read off the text again only for an error

_DX, _DY, _INT, _NAME, _OP, _EOF = "dx", "dy", "int", "name", "op", "eof"
# the two words that stand for one term: a Gaussian-rational literal, whose
# value is its kernel triple (None for zero), and a variable power, whose
# value is its monomial key
_LIT, _POW = "lit", "pow"
_DIGITS = "0123456789"
# A word is one of:
# - a parenthesized Gaussian-rational literal (p), (p/q), (p+r*i),
#   (p/q+r/s*i) or (r/s*i), p and r with an optional sign, a sign required
#   between the two parts, each numeral of at most 18 ASCII digits and each
#   denominator starting with 1-9;
# - a variable power x^e or y^e, e of at most 3 ASCII digits;
# - an ASCII numeral, with the '.' of a floating-point literal if one
#   follows;
# - a run of word characters (str.isalnum() or '_') that does not start
#   with a decimal digit;
# - or any one character but a space, tab, CR or LF, which are skipped.
# The first two are words only where no '^' follows, not even past skipped
# whitespace, and no '.' or word character follows (_ALONE), so that they
# read as the words they cover would: every other text is split into the
# same words as without them.  \w and \d match exactly what
# str.isalnum() and str.isdecimal() accept, so the words are the tokens of a
# scan character by character, except a word that starts with a digit that
# is not decimal ('²') or a numeral with its '.', which _new_token refuses
# there.
_NUMERAL = r"[-+]?[0-9]{1,18}(?:/[1-9][0-9]{0,17})?"
_SIGNED = r"[-+][0-9]{1,18}(?:/[1-9][0-9]{0,17})?"
_ALONE = r"(?![ \t\r\n]*\^|[.\w])"
_WORD = re.compile(
    r"[-+*/^:)]"  # first, as the commonest words; they start no other word
    rf"|\((?:{_NUMERAL}(?:{_SIGNED}\*i)?|{_NUMERAL}\*i)\){_ALONE}"
    rf"|[xy]\^[0-9]{{1,3}}{_ALONE}"
    r"|[0-9]+\.?|[^\W\d]\w*|[^ \t\r\n]"
)
_TOKENS = {
    **{ch: (_OP, ch) for ch in "+-*/^():"},
    **{word: (_NAME, word) for word in ("x", "y", "i", "mero")},
    _DX: (_DX, _DX),
    _DY: (_DY, _DY),
    **{str(v): (_INT, v) for v in range(100)},
}
_END = (_EOF, None)


class _Refusal(Exception):
    """A :class:`ParseError` before its position is known.

    Its args are the message and an integer: the index of the token the
    parser refuses, or, from :func:`_new_token`, the offset of the refused
    character in its word.
    """


def _fraction(text):
    """The numerator and denominator of a signed numeral ``p`` or ``p/q``."""
    p, _, q = text.partition("/")
    return int(p), int(q) if q else 1


def _literal(body):
    """The kernel triple of a literal's text inside its parentheses, or None
    for zero."""
    if body[-1] == "i":
        body = body[:-2]  # the imaginary part's "*i"
        # the sign between the two parts, or none past a leading sign
        cut = max(body.rfind("+"), body.rfind("-"))
        re_text, im_text = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    else:
        re_text, im_text = body, "0"
    if "/" in body:
        p, q = _fraction(re_text)
        r, s = _fraction(im_text)
        c = qnorm(p * s, r * q, q * s)
    else:
        c = (int(re_text), int(im_text), 1)
    return c if c[0] or c[1] else None


def _new_token(word):
    """The token of a word that is not in ``_TOKENS``: a literal, a variable
    power, a numeral or a name."""
    if word[0] == "(":
        return (_LIT, _literal(word[1:-1]))
    if word[1:2] == "^":
        # kept in _TOKENS: there are at most 2,220 such words
        e = int(word[2:])
        tok = _TOKENS[word] = (_POW, (e, 0) if word[0] == "x" else (0, e))
        return tok
    if word[0] in _DIGITS:
        if word[-1] == ".":
            raise _Refusal(
                "floating-point literals are not supported; write an exact rational p/q",
                len(word) - 1,
            )
        try:
            return (_INT, int(word))
        except ValueError:  # past the interpreter's limit for int(str)
            raise _Refusal(
                f"the numeral has {len(word)} digits; at most "
                f"{sys.get_int_max_str_digits()} are allowed",
                0,
            ) from None
    if word[0].isalpha() or word[0] == "_":
        return (_NAME, word)
    raise _Refusal(f"unexpected character {word[0]!r}", 0)


def _tokenize(text):
    """The tokens of ``text``, ending with the ``eof`` token."""
    words = _WORD.findall(text)
    get = _TOKENS.get
    try:
        toks = [get(word) or _new_token(word) for word in words]
    except _Refusal:
        # the first refused word again, now with its index
        for k, word in enumerate(words):
            if word not in _TOKENS:
                try:
                    _new_token(word)
                except _Refusal as refusal:
                    message, shift = refusal.args
                    raise ParseError(message, *_position(text, k, shift)) from None
    toks.append(_END)
    return toks


def _position(text, k, shift=0):
    """The 1-based line and column of the ``k``-th token of ``text``, moved
    on by ``shift`` characters; the ``eof`` token is at the end of the text.

    Only an error calls it: it finds the token's word again, so a tab or a
    CR counts as one column, as every other character does.
    """
    match = next(islice(_WORD.finditer(text), k, None), None)
    offset = (len(text) if match is None else match.start()) + shift
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# ---------------------------------------------------------------------------
# exact rational-function values: a numerator dict {(i, j): triple}, j the
# power of y, and a denominator dict that is None when it is 1

_ONE_KEY = (0, 0)
_SLOTS = (_DX, _DY)
_ATOMS = {"x": ((1, 0), QONE), "y": ((0, 1), QONE), "i": (_ONE_KEY, (0, 1, 1))}
# binding power of the binary operators; an operator character is the value
# of an operator token only, so a token's value alone identifies one
_BIND = {"+": 1, "-": 1, "*": 2, "/": 2}
_SIGNS = frozenset("+-")
# Each nesting level costs at most two calls of _parse_expr (a right operand
# and its parenthesis), so 200 levels take at most 400 frames, well below the
# interpreter's default recursion limit of 1000.
_MAX_NESTING = 200
# a literal word opens one level, as its parenthesis would
_TOO_DEEP = f"parentheses nest deeper than {_MAX_NESTING}"
_RESULT = {"*": "product", "/": "quotient", "^": "power", "+": "sum", "-": "difference"}
_NOT_POLYNOMIAL = (
    "a 1-form coefficient must be polynomial (non-constant denominator; use "
    "mero: input for a quotient)"
)


def _fail(message, k):
    """Refuse the input at its ``k``-th token."""
    raise _Refusal(message, k)


def _pscale(p, c):
    return {key: qmul(v, c) for key, v in p.items()}


def _ppow(p, e, k):
    if len(p) == 1:
        # a one-term power raises only its coefficient (a + b*i)/d, whose
        # parts are at most (|a| + |b|)^e and d^e; a unit has bits == e
        ((i, j), c), = p.items()
        bits = e * max(abs(c[0]) + abs(c[1]), c[2]).bit_length()
    else:
        # a power is e - 1 products: each coefficient is below m^e times a
        # multinomial coefficient, m the base's magnitude
        bits = e * magnitude(p.values()).bit_length()
    if bits > max(e, MAX_COEFF_BITS):
        _fail(f"the power's coefficient may need {bits} bits; at most "
              f"{MAX_COEFF_BITS} are allowed", k)
    if len(p) == 1:
        return {(i * e, j * e): c if c == QONE else (Coeff.from_triple(c) ** e).triple}
    out, base = {_ONE_KEY: QONE}, p
    while e:
        if e & 1:
            out = jet2_mul(out, base, _degree(out, base))
        e >>= 1
        if e:
            base = jet2_mul(base, base, _degree(base, base))
    return out


def _magnitude(num, den):
    """The magnitude (``forms.magnitude``) of a (num, den) value."""
    m = magnitude(num.values())
    return m if den is None else max(m, magnitude(den.values()))


def _too_large(size):
    return (
        f"the product's coefficients may need {size.bit_length()} bits; at most "
        f"{MAX_COEFF_BITS} are allowed"
    )


def _coeff_product(c1, c2, k):
    """The product of the coefficients of two one-term factors, refused at
    the ``*`` token ``k`` past the bit budget."""
    if c1 == QONE:
        return c2
    if c2 == QONE:
        return c1
    a1, b1, d1 = c1
    a2, b2, d2 = c2
    size = (abs(a1) + abs(b1) + d1) * (abs(a2) + abs(b2) + d2)
    if size >> MAX_COEFF_BITS:
        _fail(_too_large(size), k)
    return qmul(c1, c2)


def _dmul(d1, d2):
    """The product of two denominators, None standing for 1."""
    if d1 is None:
        return d2
    return d1 if d2 is None else jet2_mul(d1, d2, _degree(d1, d2))


def _degree(*factors):
    """The degree of a product of polynomial dicts, a factor None being 1.

    Q(i)[x, y] has no zero divisors, so it is the sum of the factors'
    degrees, or 0 when a factor is zero.
    """
    if any(p is not None and not p for p in factors):
        return 0
    return sum(max(i + j for i, j in p) for p in factors if p is not None)


def _check_degree(op, k, order, term, val, rhs=None, e=1):
    """Refuse ``val op rhs`` (or ``val ^ e``) if its degree exceeds ``order``.

    ``op`` is the operator's character and ``k`` the index of its token;
    ``val`` and ``rhs`` are (num, den) pairs; ``term`` is the index of the
    first token of the 1-form term being parsed, None in a mero: input.

    A sum or difference over denominators is checked once it is formed,
    as ``val`` alone: forming it is one cross-multiplication of operands
    that passed these checks, and the degree of its numerator and
    denominator is then read off exactly.

    The degree is exact, so only inputs whose later steps discard the
    value (a cancelling subtraction, a zero factor, an exponent 0) are
    refused needlessly.  The check applies when an operand has two or
    more terms, in a mero: input or between 1-form polynomials.  One-term
    operands, and 1-form values with a denominator, keep the checks at the
    end of their term, whose messages say what is wrong with them.

    The exception is a 1-form power whose base has a denominator: past the
    order it is refused at its ``^``.  Values are unreduced pairs, so that
    denominator is never cancelled.  With a non-constant numerator the term
    can only end non-polynomial, and the refusal has that message, at the
    term's start; with a constant one a later division can leave a
    polynomial of the power's degree, and the refusal has the degree message.
    """
    num, den = val
    operands = (val,) if rhs is None else (val, rhs)
    if term is not None and den is not None and op == "^":
        if any(i or j for i, j in num) and e * max(_degree(num), _degree(den)) > order:
            _fail(_NOT_POLYNOMIAL, term)
    elif all(len(n) < 2 and (d is None or len(d) < 2) for n, d in operands):
        return  # one-term operands only
    elif term is not None and any(d is not None for _, d in operands):
        return
    if rhs is None:
        degree = e * max(_degree(num), _degree(den))
    elif op == "*":
        degree = max(_degree(num, rhs[0]), _degree(den, rhs[1]))
    else:
        degree = max(_degree(num, rhs[1]), _degree(den, rhs[0]))
    if degree > order:
        _fail(
            f"the {_RESULT[op]} has degree {degree}; raise --order "
            f"(currently {order}) to keep the computation exact",
            k,
        )


# ---------------------------------------------------------------------------
# precedence climbing (Pratt 1973): one call per operand

def _parse_expr(toks, k, order, term, floor=1, depth=0):
    """Parse the operand at ``toks[k]`` and every binary operator after it
    that binds at least ``floor``; returns ``(num, den, k)``, ``k`` the first
    token left.

    An operand is an atom, a literal or variable-power word, or a
    parenthesized sum, with any signs before it and one ``^ INT`` after it.
    The right operand of an operator is parsed by one call at a floor one
    above the operator's binding power, so it takes exactly the tighter
    operators; but the right operand of a ``*`` whose left value is one term
    is folded in, with no call, when it is a literal or variable-power word,
    which no ``^`` follows.  ``term`` is the index of the first
    token of the 1-form term being parsed, None in a mero: input; ``depth``
    counts the parentheses open around the operand.
    """
    tok = toks[k]
    neg = False
    while tok[1] in _SIGNS:
        neg ^= tok[1] == "-"
        k += 1
        tok = toks[k]
    kind, value = tok
    den = None
    if kind == _LIT:
        if depth == _MAX_NESTING:
            _fail(_TOO_DEEP, k)
        num = {_ONE_KEY: value} if value else {}
    elif kind == _POW:
        num = {value: QONE}
    elif kind == _INT:
        num = {_ONE_KEY: (value, 0, 1)} if value else {}
    elif value in _ATOMS:
        key, c = _ATOMS[value]
        num = {key: c}
    elif value == "(":
        if depth == _MAX_NESTING:
            _fail(_TOO_DEEP, k)
        num, den, k = _parse_expr(toks, k + 1, order, term, 1, depth + 1)
        if toks[k][1] != ")":
            _fail("expected ')'", k)
    elif kind == _NAME:
        _fail(f"unknown variable {value!r} (only x, y and i)", k)
    elif kind in _SLOTS:
        _fail(f"{value!r} cannot appear inside a coefficient", k)
    else:
        _fail("expected a number, 'i', a variable, or '('", k)
    k += 1
    tok = toks[k]
    if tok[1] == "^":
        kind, e = toks[k + 1]
        if kind != _INT:
            _fail("exponent must be a nonnegative integer literal", k + 1)
        if num or den is not None:
            _check_degree("^", k, order, term, (num, den), e=e)
        if den is not None:
            den = _ppow(den, e, k) if e else None
        num = _ppow(num, e, k)
        k += 2
        tok = toks[k]
    if neg:
        num = {key: qneg(c) for key, c in num.items()}
    while True:
        op = tok[1]
        bind = _BIND.get(op, 0)
        if bind < floor:
            break  # no operator, or a looser one
        at = k
        kind, value = toks[k + 1]
        if bind == 2:
            if kind in _SLOTS:
                break  # the '*' of a term: "3*dx"
            if op == "*" and (kind == _POW or kind == _LIT) and den is None and len(num) == 1:
                # a one-term value times literals and variable powers: each
                # right operand is its one token, folded with no call, until
                # the product is zero or another operand follows
                ((i, j), c), = num.items()
                while True:
                    if kind == _POW:
                        i += value[0]
                        j += value[1]
                    elif depth == _MAX_NESTING:
                        _fail(_TOO_DEEP, k + 1)
                    else:
                        c = value and _coeff_product(c, value, k)
                    k += 2
                    if not c or toks[k][1] != "*":
                        break
                    kind, value = toks[k + 1]
                    if kind != _POW and kind != _LIT:
                        break
                num = {(i, j): c} if c else {}
                tok = toks[k]
                continue
        rnum, rden, k = _parse_expr(toks, k + 1, order, term, bind + 1, depth)
        if bind == 1:
            if den is None and rden is None:
                add_into(num, rnum, op == "-")
            else:
                # the left-fold cross-multiplication that mero: parsing reads
                if rden is not None:
                    num = jet2_mul(num, rden, _degree(num, rden))
                if den is not None:
                    rnum = jet2_mul(rnum, den, _degree(rnum, den))
                add_into(num, rnum, op == "-")
                den = _dmul(den, rden)
                _check_degree(op, at, order, term, (num, den))
        elif op == "*":
            if den is None and rden is None and len(num) == 1 and len(rnum) == 1:
                # a product of one-term polynomials is one term
                ((i1, j1), c1), = num.items()
                ((i2, j2), c2), = rnum.items()
                num = {(i1 + i2, j1 + j2): _coeff_product(c1, c2, at)}
            else:
                _check_degree(op, at, order, term, (num, den), (rnum, rden))
                size = _magnitude(num, den) * _magnitude(rnum, rden)
                if size >> MAX_COEFF_BITS:
                    _fail(_too_large(size), at)
                num, den = jet2_mul(num, rnum, _degree(num, rnum)), _dmul(den, rden)
        else:
            if not rnum:
                _fail("division by zero", at)
            _check_degree(op, at, order, term, (num, den), (rnum, rden))
            if rden is not None:
                num = jet2_mul(num, rden, _degree(num, rden))
            c = rnum.get(_ONE_KEY) if len(rnum) == 1 else None
            if c is None:
                den = _dmul(den, rnum)
            else:
                # a constant divisor scales the numerator, so every
                # denominator is None or non-constant
                num = _pscale(num, qinv(c))
        tok = toks[k]
    return num, den, k


def _poly_to_jet(d, order, k, what):
    for (i, j) in d:
        if i + j > order:
            _fail(
                f"{what} has a degree-{i + j} monomial; raise --order "
                f"(currently {order}) to keep the computation exact",
                k,
            )
    # the triples are normalized and nonzero, as Jet2 keeps them
    return Jet2._raw(d, order)


def parse_form(text, order=DEFAULT_ORDER):
    """Parse a 1-form or a ``mero:`` quotient.

    Returns an :class:`OneForm` (variables ``x``, ``y``, jets at ``order``)
    for plain input, a :class:`MeromorphicPair` for ``mero:`` input.
    """
    toks = _tokenize(text)
    try:
        if toks[0] == _TOKENS["mero"] and toks[1][1] == ":":
            return _parse_mero(toks, order)
        return _parse_oneform(toks, order)
    except _Refusal as refusal:
        message, k = refusal.args
        raise ParseError(message, *_position(text, k)) from None


def _parse_mero(toks, order):
    if toks[2][0] == _EOF:
        _fail("empty input after 'mero:'", 2)
    num, den, k = _parse_expr(toks, 2, order, None)
    if toks[k][0] != _EOF:
        _fail("unexpected trailing input in a mero: expression", k)
    if not num:
        _fail("the meromorphic function is identically zero", 2)
    # canonical constant normalization: the denominator's lowest monomial is
    # made monic, so printing and reparsing is a fixpoint
    den = den or {_ONE_KEY: QONE}
    kmin = min(den, key=lambda k: (k[0] + k[1], k[0], k[1]))
    if den[kmin] != QONE:
        inv = qinv(den[kmin])
        num, den = _pscale(num, inv), _pscale(den, inv)
    return MeromorphicPair(
        _poly_to_jet(num, order, 2, "the numerator"),
        _poly_to_jet(den, order, 2, "the denominator"),
    )


def _parse_oneform(toks, order):
    if toks[0][0] == _EOF:
        _fail("empty input", 0)
    sums = {_DX: {}, _DY: {}}
    negate = False
    k = 0
    while True:
        kind = toks[k][0]
        if kind in _SLOTS:
            slot, num, k = kind, {_ONE_KEY: QONE}, k + 1
        else:
            start = k
            num, den, k = _parse_expr(toks, k, order, start)
            if toks[k][1] == "*":
                k += 1
            slot = toks[k][0]
            if slot not in _SLOTS:
                _fail("expected 'dx' or 'dy' after the coefficient", k)
            k += 1
            if den is not None:
                _fail(_NOT_POLYNOMIAL, start)
        add_into(sums[slot], num, negate)
        tok = toks[k]
        if tok[0] == _EOF:
            break
        if tok[1] not in _SIGNS:
            _fail("expected '+', '-', or end of input between terms", k)
        negate = tok[1] == "-"
        k += 1
    a = _poly_to_jet(sums[_DX], order, 0, "the dx coefficient")
    b = _poly_to_jet(sums[_DY], order, 0, "the dy coefficient")
    return OneForm(a, b, ("x", "y"))
