"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from scratch on top of
``fractions.Fraction`` pairs (re, im) — no imports from the package internals
— so that tests compare two genuinely different computations.  Formulas are
chosen to differ from the library's algorithms where possible (coefficient
recursion instead of Lagrange inversion, full products instead of per-degree
residuals in the corner first integral, the Riccati form of the Schwarzian
instead of the direct quotient formula, cofactor determinants, one product
per monomial instead of grouped substitution, pulling the anchor back
instead of the closed-form normal-form action, evaluating an expression's
text at a point instead of expanding it, tokens scanned one character at a
time with their positions instead of words matched by one regular
expression, the split columns at full order instead of modulo a power of
x).  Only the elimination shares its algorithm with the library: both are
Gauss-Jordan, here over ``Fraction`` pairs rather than normalized triples.

Four sections are exceptions.  The stated elimination operator L on
homogeneous pairs is kept as a reference recipe on the package's own ``Jet2``
and exact ``solve``; the normal form does not use it, and the tests check its
rank by parity and its round trip.  The radial form, the wedge of two
1-forms and the differential of a jet are kept on the package's ``OneForm``
and ``Jet2`` products; the wedge is the reference for the first integral's
integer re-check, and the level form of a quotient as ``Jet2`` derivatives,
products and differences the reference for its one-pass kernel.  Beside them, the arithmetic no question needs and the
tests build inputs with: sums of 1-forms, a 1-form times a scalar or a
function, a 1-form at another order, the homogeneous part of a jet and
the powers of a jet.  And the reciprocal and the Lagrange series reversion
that the integer kernel replaced are kept on the kernel's normalized
triples, one ``qnorm`` per scalar operation and one ``jet1_mul`` per power,
as the reference at orders where the coefficient recursion above is too
slow.  And the cusp reduction that the library now runs on kernel triples
is kept as it was before: blow-ups as ``Jet2.exponent_map`` calls summed
with ``Jet2`` addition, and every check a comparison of ``Coeff`` values.
And three helpers that no question needs are kept here for the tests that
read them, on the package's own types: the homography fitted to a 2-jet,
the composite of a normal form's recorded changes, and the canonical text
of a form, which parses back to it.  And the two sigma consumers that now run on kernel
triples are kept as they ran on ``Coeff`` and ``Jet1`` objects: the
monomial-probe first-integral search, with a reduced ``Rational1``
re-expanded at z for every hit, and the homographic image
of a jet as a composition with the homography's jet.
"""

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from cuspfol._backend import QZERO, jet1_mul, qadd, qinv, qiszero, qmul, qneg
from cuspfol.coeff import ZERO as CZERO, Coeff
from cuspfol.firstintegral import Rational1
from cuspfol.forms import OneForm, ReductionReport, ReductionVerdict, pullback_map
from cuspfol.jets import Jet1, Jet2, JetError, format_poly
from cuspfol.linalg import solve
from cuspfol.moduli import Homography
from cuspfol.parsing import MeromorphicPair

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ginv(a):
    n = a[0] * a[0] + a[1] * a[1]
    if n == 0:
        raise ZeroDivisionError
    return (a[0] / n, -a[1] / n)


def gdiv(a, b):
    return gmul(a, ginv(b))


def g_is_zero(a):
    return a[0] == 0 and a[1] == 0


def from_int(k):
    return (Fraction(k), Fraction(0))


# --- one-variable series as coefficient lists -------------------------------


def s_trim(c, n):
    c = list(c[: n + 1])
    c += [ZERO] * (n + 1 - len(c))
    return c


def s_add(a, b, n):
    a, b = s_trim(a, n), s_trim(b, n)
    return [gadd(a[k], b[k]) for k in range(n + 1)]


def s_mul(a, b, n):
    out = [ZERO] * (n + 1)
    for k, ak in enumerate(a[: n + 1]):
        if g_is_zero(ak):
            continue
        for m, bm in enumerate(b[: n + 1 - k]):
            if g_is_zero(bm):
                continue
            out[k + m] = gadd(out[k + m], gmul(ak, bm))
    return out


def s_scal(a, c):
    return [gmul(x, c) for x in a]


def s_recip(a, n):
    if g_is_zero(a[0]):
        raise ZeroDivisionError("series reciprocal of a non-unit")
    inv0 = ginv(a[0])
    out = [inv0]
    for k in range(1, n + 1):
        s = ZERO
        for m in range(1, k + 1):
            am = a[m] if m < len(a) else ZERO
            s = gadd(s, gmul(am, out[k - m]))
        out.append(gmul((-s[0], -s[1]), inv0))
    return out


def s_diff(a):
    return [gmul(a[k], from_int(k)) for k in range(1, len(a))]


def s_compose(g, f, n):
    """g(f(z)) mod z^(n+1) by Horner's rule, for f with f(0) = 0."""
    acc = [ZERO] * (n + 1)
    for c in reversed(s_trim(g, n)):
        acc = s_mul(acc, f, n)
        acc[0] = gadd(acc[0], c)
    return acc


def recursive_inverse(f, n):
    """Series reversion degree by degree, for f with f(0)=0, f'(0) != 0.

    g_1 = 1/f_1; for k >= 2, g_k is the value that cancels [z^k] g(f(z))
    with g known up to degree k-1, and it enters that coefficient with the
    factor f_1^k.
    """
    assert g_is_zero(f[0]) and not g_is_zero(f[1])
    inv1 = ginv(f[1])
    g = [ZERO, inv1]
    inv1_k = inv1
    for k in range(2, n + 1):
        inv1_k = gmul(inv1_k, inv1)
        bad = s_compose(g, f, k)[k]
        g.append(gmul((-bad[0], -bad[1]), inv1_k))
    return g


def schwarzian_riccati(f, n):
    """Schwarzian via u = f''/f':  S(f) = u' - u^2/2  (order n-3 output)."""
    d1 = s_diff(s_trim(f, n))
    d2 = s_diff(d1)
    u = s_mul(d2, s_recip(d1, n - 2), n - 2)
    u2 = s_mul(u, u, n - 3)
    return s_add(s_diff(u), s_scal(u2, (Fraction(-1, 2), Fraction(0))), n - 3)


# --- two-variable polynomials as {(i, j): pair} dicts -----------------------


def p2_add(a, b):
    out = dict(a)
    for k, v in b.items():
        w = gadd(out.get(k, ZERO), v)
        if g_is_zero(w):
            out.pop(k, None)
        else:
            out[k] = w
    return out


def p2_mul(a, b, n=None):
    out = {}
    for (i1, j1), u in a.items():
        for (i2, j2), v in b.items():
            if n is not None and i1 + i2 + j1 + j2 > n:
                continue
            k = (i1 + i2, j1 + j2)
            w = gadd(out.get(k, ZERO), gmul(u, v))
            if g_is_zero(w):
                out.pop(k, None)
            else:
                out[k] = w
    return out


def p2_dx(a):
    return {
        (i - 1, j): gmul(v, from_int(i)) for (i, j), v in a.items() if i >= 1
    }


def p2_dy(a):
    return {
        (i, j - 1): gmul(v, from_int(j)) for (i, j), v in a.items() if j >= 1
    }


def p2_scal(a, c):
    out = {}
    for k, v in a.items():
        w = gmul(v, c)
        if not g_is_zero(w):
            out[k] = w
    return out


def p2_substitute(a, fx, fy, n, monomials=None):
    """a(fx, fy) up to degree n, one full product per monomial.

    The per-monomial substitution: powers of fx and fy are built up front
    and every monomial a_ij x^i y^j contributes fx^i * fy^j * a_ij to the
    sum.  No grouping and no pass-through.  ``monomials``, when given, is a
    dict of the products fx^i * fy^j already formed for the same targets
    and n, keyed by (i, j); it is read and filled.
    """
    monomials = {} if monomials is None else monomials
    max_i = max((i for (i, _) in a), default=0)
    max_j = max((j for (_, j) in a), default=0)
    px, py = [{(0, 0): ONE}], [{(0, 0): ONE}]
    for _ in range(max_i):
        px.append(p2_mul(px[-1], fx, n))
    for _ in range(max_j):
        py.append(p2_mul(py[-1], fy, n))
    out = {}
    for (i, j), c in a.items():
        if (i, j) not in monomials:
            monomials[(i, j)] = p2_mul(px[i], py[j], n)
        out = p2_add(out, p2_scal(monomials[(i, j)], c))
    return out


def p2_pullback(a, b, fx, fy, n):
    """The 1-form a dx + b dy pulled back by (fx, fy), up to degree n; the
    two coefficients share their substituted monomials."""
    monomials = {}
    asub = p2_substitute(a, fx, fy, n + 1, monomials)
    bsub = p2_substitute(b, fx, fy, n + 1, monomials)
    return (
        p2_add(p2_mul(asub, p2_dx(fx), n), p2_mul(bsub, p2_dx(fy), n)),
        p2_add(p2_mul(asub, p2_dy(fx), n), p2_mul(bsub, p2_dy(fy), n)),
    )


def p2_div(a, b, n):
    """a / b up to degree n for b(0, 0) != 0, by coefficient recursion.

    Monomial by monomial in increasing degree: q_k = (a_k - sum of
    b_m q_(k-m) over m != 0) / b_0.
    """
    inv0 = ginv(b[(0, 0)])
    q = {}
    for d in range(n + 1):
        for i in range(d + 1):
            key = (i, d - i)
            s = a.get(key, ZERO)
            for (bi, bj), bv in b.items():
                prev = q.get((i - bi, d - i - bj))
                if (bi, bj) != (0, 0) and prev is not None:
                    s = gsub(s, gmul(bv, prev))
            if not g_is_zero(s):
                q[key] = gmul(s, inv0)
    return q


def split_t_columns(sigma, alpha, n):
    """The T columns of the order-n split of the cohomological equation.

    ``sigma`` is the coefficient-pair list of the gluing germ and ``alpha``
    the pair of A = 1 + alpha*y.  With x3 = x*A + sigma(y) and the factor
    A*x3 / (A + x*dA/dx), the column of the T monomial x^i y^j (i > j,
    i + j < n) is factor * x3^i * sigma(y)^j, kept at every monomial of
    degree <= n.
    """
    s2 = {(0, k): c for k, c in enumerate(sigma[: n + 1]) if not g_is_zero(c)}
    a = p2_add({(0, 0): ONE}, {(0, 1): alpha})
    x3 = p2_add(p2_mul({(1, 0): ONE}, a, n), s2)
    jac = {(i, j): gmul(c, from_int(i + 1)) for (i, j), c in a.items()}
    factor_x3 = [p2_div(p2_mul(a, x3, n), jac, n)]
    s2_pow = [{(0, 0): ONE}]
    for _ in range(n):
        factor_x3.append(p2_mul(factor_x3[-1], x3, n))
        s2_pow.append(p2_mul(s2_pow[-1], s2, n))
    return {
        (i, d - i): p2_mul(factor_x3[i], s2_pow[d - i], n)
        for d in range(n)
        for i in range(d, -1, -1)
        if i > d - i
    }


def split_matrix(sigma, alpha, n):
    """Row keys and rows of the full order-n split matrix, as pairs.

    Rows run over the monomials x^p y^q of degree <= n; the columns are
    the T columns of :func:`split_t_columns`, then one column -x^i y^j per
    A2 monomial, those with 2i >= j.
    """
    t_cols = split_t_columns(sigma, alpha, n)
    keys = [(p, d - p) for d in range(n + 1) for p in range(d, -1, -1)]
    a2_keys = [key for key in keys if 2 * key[0] >= key[1]]
    minus_one = (Fraction(-1), Fraction(0))
    rows = [
        [col.get(key, ZERO) for col in t_cols.values()]
        + [minus_one if a2 == key else ZERO for a2 in a2_keys]
        for key in keys
    ]
    return keys, rows


def action_matrix_by_pullback(n):
    """The normal form's degree-n action matrix, by pulling the anchor back.

    Column c is the change id + (basis pair c) with the pairs ordered
    (x^(n-k) y^k, 0) then (0, x^(n-k) y^k); the anchor y^2 (x dy - y dx) is
    pulled back exactly along it, and the rows read the y^2-divisible
    monomials x^(m-j) y^j (j >= 2, m = n + 2) of the dx then the dy
    coefficient of the difference.  Only the part linear in the change
    reaches degree n + 2, so this is the linear action.
    """
    order = n + 5
    minus_one = (Fraction(-1), Fraction(0))
    a0, b0 = {(0, 3): minus_one}, {(1, 2): ONE}
    m = n + 2
    rows = [(m - j, j) for j in range(2, m + 1)]
    cols = []
    for comp in range(2):
        for k in range(n + 1):
            p = {(n - k, k): ONE} if comp == 0 else {}
            q = {(n - k, k): ONE} if comp == 1 else {}
            fx = p2_add({(1, 0): ONE}, p)
            fy = p2_add({(0, 1): ONE}, q)
            a1, b1 = p2_pullback(a0, b0, fx, fy, order)
            da = p2_add(a1, p2_scal(a0, minus_one))
            db = p2_add(b1, p2_scal(b0, minus_one))
            cols.append([da.get(key, ZERO) for key in rows] + [db.get(key, ZERO) for key in rows])
    dim = 2 * (n + 1)
    return [[cols[c][r] for c in range(dim)] for r in range(dim)]


def first_integral_full_residual(a, b, n):
    """The normalized first integral H of the corner form A du + B dv.

    Degree by degree: the degree-d residual of H_u*B - H_v*A is read off
    the full products at order n-1, then the next homogeneous part of H is
    found by back-substitution against A(0,0) and B(0,0), starting from
    H(u, 0) = u + O(u^2).  ``a`` and ``b`` are {(i, j): pair} dicts.
    """
    a0, b0 = a.get((0, 0), ZERO), b.get((0, 0), ZERO)
    minus_one = (Fraction(-1), Fraction(0))
    h = {}
    for d in range(n):
        res = p2_add(
            p2_mul(p2_dx(h), b, n - 1), p2_scal(p2_mul(p2_dy(h), a, n - 1), minus_one)
        )
        hk = ONE if d == 0 else ZERO
        if not g_is_zero(hk):
            h[(d + 1, 0)] = hk
        for m in range(d + 1):
            rm = res.get((d - m, m), ZERO)
            num = gadd(gmul(gmul(from_int(d + 1 - m), hk), b0), rm)
            hk = gdiv(num, gmul(from_int(m + 1), a0))
            if not g_is_zero(hk):
                h[(d - m, m + 1)] = hk
    return h


def det_cofactor(m):
    """Exact determinant by cofactor expansion (small matrices only)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    out = ZERO
    for j in range(n):
        if g_is_zero(m[0][j]):
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = gmul(m[0][j], det_cofactor(minor))
        if j % 2:
            term = (-term[0], -term[1])
        out = gadd(out, term)
    return out


def hankel_of_series(pairs, size, shift=0):
    """Hankel determinant [c_{shift+i+j}] of a coefficient-pair list."""
    m = [[pairs[shift + i + j] for j in range(size)] for i in range(size)]
    return det_cofactor(m)


# --- Gauss-Jordan elimination ------------------------------------------------


def rref_reference(rows, limit):
    """Reduced row echelon form of a matrix of pairs, in place.

    Plain Gauss-Jordan over Fraction pairs: for each of the first ``limit``
    columns the pivot is the first row at or below the current one that is
    nonzero there; it is swapped up, divided by its pivot, and subtracted
    from every other row that is nonzero in that column.  Returns the pivot
    columns in row order and, for each output row, the index of the input
    row it started as.
    """
    pivots = []
    origin = list(range(len(rows)))
    r = 0
    for c in range(limit):
        if r == len(rows):
            break
        p = next((k for k in range(r, len(rows)) if not g_is_zero(rows[k][c])), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        origin[r], origin[p] = origin[p], origin[r]
        inv = ginv(rows[r][c])
        rows[r] = [gmul(v, inv) for v in rows[r]]
        for k in range(len(rows)):
            f = rows[k][c]
            if k != r and not g_is_zero(f):
                rows[k] = [
                    v if g_is_zero(w) else gsub(v, gmul(f, w))
                    for v, w in zip(rows[k], rows[r])
                ]
        pivots.append(c)
        r += 1
    return pivots, origin


def solve_reference(rows, rhs):
    """Solve A x = b over Fraction pairs, carrying an identity block.

    Gauss-Jordan on [A | b | I] with the pivots of :func:`rref_reference`.
    Returns ``(rank, solution, certificate)``: a particular solution with
    the free unknowns zero when the system is feasible, and otherwise the
    identity-block part of the first non-pivot row whose right-hand side is
    nonzero, as a list of (row index, pair) over its nonzero entries.
    """
    m = len(rows)
    if m == 0:
        return 0, [], None
    n = len(rows[0])
    work = [
        list(row) + [b] + [ONE if k == j else ZERO for k in range(m)]
        for j, (row, b) in enumerate(zip(rows, rhs))
    ]
    pivots, _ = rref_reference(work, n)
    rank = len(pivots)
    for row in work[rank:]:
        if not g_is_zero(row[n]):
            cert = [(k, v) for k, v in enumerate(row[n + 1 :]) if not g_is_zero(v)]
            return rank, None, cert
    solution = [ZERO] * n
    for row, c in zip(work, pivots):
        solution[c] = row[n]
    return rank, solution, None


# --- expression text evaluated at a point ------------------------------------


def p2_eval(a, x, y):
    """The value of a {(i, j): pair} polynomial at the point (x, y)."""
    out = ZERO
    for (i, j), c in a.items():
        term = c
        for _ in range(i):
            term = gmul(term, x)
        for _ in range(j):
            term = gmul(term, y)
        out = gadd(out, term)
    return out


def eval_expr(text, x, y):
    """The value of a coefficient expression at the point (x, y).

    The expression grammar of the form syntax, read straight off the text:
    sums, products, quotients, unary signs and powers ``^`` with a
    nonnegative integer literal, over integer literals, ``i``, ``x`` and
    ``y``.  Raises ZeroDivisionError where a divisor vanishes at the point.
    """
    toks = re.findall(r"[0-9]+|[A-Za-z_]+|\S", text) + [None]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        val = product()
        while toks[pos] in ("+", "-"):
            val = (gadd if take() == "+" else gsub)(val, product())
        return val

    def product():
        val = unary()
        while toks[pos] in ("*", "/"):
            val = (gmul if take() == "*" else gdiv)(val, unary())
        return val

    def unary():
        if toks[pos] in ("+", "-"):
            sign = take()
            val = unary()
            return val if sign == "+" else gsub(ZERO, val)
        val = atom()
        if toks[pos] == "^":
            take()
            base, val = val, ONE
            for _ in range(int(take())):
                val = gmul(val, base)
        return val

    def atom():
        tok = take()
        if tok == "(":
            val = expr()
            if take() != ")":
                raise ValueError(f"expected ')' in {text!r}")
            return val
        if tok.isdigit():
            return from_int(int(tok))
        named = {"i": (Fraction(0), Fraction(1)), "x": x, "y": y}
        if tok not in named:
            raise ValueError(f"unexpected {tok!r} in {text!r}")
        return named[tok]

    val = expr()
    if toks[pos] is not None:
        raise ValueError(f"trailing input in {text!r}")
    return val


# --- tokens by a scan character by character ---------------------------------


def tokenize_by_characters(text):
    """The tokens of the form syntax, scanned one character at a time.

    Returns ``(tokens, error)``: the tokens as ``(kind, value, line, col)``
    with 1-based positions, ending with ``("eof", None, line, col)`` at the
    end of the text, and ``None``; or the tokens before the first refused
    character and ``(message, line, col)`` of its refusal.  Spaces, tabs,
    CRs and LFs separate tokens; an ASCII numeral is an integer, refused
    when a '.' follows it or when it has more digits than the interpreter
    converts; a word starts with a letter or '_' and goes on over
    ``str.isalnum()`` characters and '_'; any other character is refused.
    """
    toks = []
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
        elif ch in "+-*/^():":
            toks.append(("op", ch, line, k - base + 1))
            k += 1
        elif ch in "0123456789":
            start = k
            k += 1
            while k < n and text[k] in "0123456789":
                k += 1
            if k < n and text[k] == ".":
                message = "floating-point literals are not supported; write an exact rational p/q"
                return toks, (message, line, k - base + 1)
            limit = sys.get_int_max_str_digits()
            if limit and k - start > limit:
                message = f"the numeral has {k - start} digits; at most {limit} are allowed"
                return toks, (message, line, start - base + 1)
            toks.append(("int", int(text[start:k]), line, start - base + 1))
        elif ch.isalpha() or ch == "_":
            start = k
            k += 1
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            word = text[start:k]
            toks.append((word if word in ("dx", "dy") else "name", word, line, start - base + 1))
        else:
            return toks, (f"unexpected character {ch!r}", line, k - base + 1)
    toks.append(("eof", None, line, k - base + 1))
    return toks, None


# --- bridges to package values (public API only) ----------------------------


def pair_of_coeff(c):
    return (c.re, c.im)


def jet1_pairs(jet):
    return [pair_of_coeff(c) for c in jet.coeffs]


def jet2_pairs(jet):
    return {k: pair_of_coeff(c) for k, c in jet.items()}


# --- reversion on normalized kernel triples -----------------------------------


def triple_reciprocal(c, n):
    """1/f up to degree n for a list of kernel triples, term by term."""
    inv0 = qinv(c[0])
    out = [inv0]
    for k in range(1, n + 1):
        s = QZERO
        for m in range(1, k + 1):
            if not qiszero(c[m]):
                s = qadd(s, qmul(c[m], out[k - m]))
        out.append(qneg(qmul(s, inv0)))
    return out


def triple_lagrange_inverse(f, n):
    """The compositional inverse of f (kernel triples, f(0) = 0 != f'(0)) by
    Lagrange inversion, [z^k]g = (1/k) [z^(k-1)] h^k with h = z/f, each
    power h^k one ``jet1_mul`` of normalized triples."""
    h = triple_reciprocal(f[1:], n - 1)
    g = [QZERO]
    hk = h
    for k in range(1, n + 1):
        g.append(qmul(hk[k - 1], (1, 0, k)))
        if k < n:
            hk = jet1_mul(hk, h, n - 1)
    return g


# --- the stated elimination operator L on homogeneous pairs -------------------


@dataclass(frozen=True)
class HomogeneousPair:
    """A pair (P, Q) of homogeneous polynomials of one common degree."""

    P: Jet2
    Q: Jet2
    degree: int

    def __post_init__(self):
        for comp in (self.P, self.Q):
            for (i, j), _ in comp.items():
                if i + j != self.degree:
                    raise ValueError(
                        f"component is not homogeneous of degree {self.degree}"
                    )


def L_apply(pair: HomogeneousPair) -> HomogeneousPair:
    """The elimination operator on homogeneous pairs of degree n >= 2:

    L(P, Q) = (x Q_x - y P_x + Q,  x Q_y - x P_x + P).
    """
    if pair.degree < 2:
        raise ValueError("L is defined for degree >= 2")
    p, q = pair.P, pair.Q
    n = max(p.order, q.order)
    x = Jet2.var_x(n)
    y = Jet2.var_y(n)
    px = p.dx().with_order(n)
    qx = q.dx().with_order(n)
    qy = q.dy().with_order(n)
    first = x * qx - y * px + q
    second = x * qy - x * px + p
    return HomogeneousPair(first, second, pair.degree)


def _pair_basis(n, order):
    basis = []
    for k in range(n + 1):
        basis.append((Jet2.monomial(n - k, k, 1, order), Jet2.zero(order)))
    for k in range(n + 1):
        basis.append((Jet2.zero(order), Jet2.monomial(n - k, k, 1, order)))
    return basis


def _pair_coords(p: Jet2, q: Jet2, n):
    out = []
    for comp in (p, q):
        for k in range(n + 1):
            out.append(comp.coeff(n - k, k))
    return out


def L_solve(target: HomogeneousPair) -> HomogeneousPair:
    """The L-preimage of a homogeneous pair, by exact linear solve.

    The 2(n+1) x 2(n+1) coefficient matrix is produced by applying L to the
    monomial basis and full rank is asserted.  L is one-to-one at odd
    degrees only: at every even degree n the pair x^(n/2) y^(n/2-1) * (x, y)
    is in its kernel, so there this raises ``AssertionError`` naming n.
    """
    n = target.degree
    if n < 2:
        raise ValueError("L is defined for degree >= 2")
    order = max(target.P.order, target.Q.order, n)
    dim = 2 * (n + 1)
    cols = []
    for p, q in _pair_basis(n, order):
        img = L_apply(HomogeneousPair(p, q, n))
        cols.append(_pair_coords(img.P, img.Q, n))
    rows = [[cols[c][r] for c in range(dim)] for r in range(dim)]
    rhs = _pair_coords(target.P, target.Q, n)
    res = solve(rows, rhs)
    if not res.feasible or res.rank != dim:
        raise AssertionError(f"L is not invertible at degree {n} (rank {res.rank})")
    sol = res.solution
    pd = {}
    qd = {}
    for k in range(n + 1):
        if not sol[k].is_zero():
            pd[(n - k, k)] = sol[k]
        if not sol[n + 1 + k].is_zero():
            qd[(n - k, k)] = sol[n + 1 + k]
    return HomogeneousPair(Jet2(pd, order), Jet2(qd, order), n)


# --- 1-forms and jets on the package's OneForm and Jet2 ----------------------


def radial_form(order, variables=("x", "y")) -> OneForm:
    """The radial 1-form  x dy - y dx."""
    return OneForm(
        Jet2.monomial(0, 1, -1, order), Jet2.monomial(1, 0, 1, order), variables
    )


def differential(f: Jet2, variables=("x", "y")) -> OneForm:
    """The exact 1-form  df = f_x dx + f_y dy  (order drops by one)."""
    return OneForm(f.dx(), f.dy(), variables)


def mero_form_by_jets(num: Jet2, den: Jet2) -> OneForm:
    """den*d(num) - num*d(den) as ``forms.form_of_meromorphic`` formed it
    before its one-pass kernel: four derivative jets, four ``Jet2``
    products and two differences."""
    return OneForm(den * num.dx() - num * den.dx(), den * num.dy() - num * den.dy())


def wedge(u: OneForm, v: OneForm) -> Jet2:
    """The coefficient of dx^dy in u^v, i.e.  u_a v_b - u_b v_a."""
    assert u.variables == v.variables, "1-forms live in different charts"
    return u.a * v.b - u.b * v.a


def form_sum(*forms) -> OneForm:
    """The sum of 1-forms of one chart, at the least of their orders."""
    first, *rest = forms
    a, b = first.a, first.b
    for w in rest:
        assert w.variables == first.variables, "1-forms live in different charts"
        a, b = a + w.a, b + w.b
    return OneForm(a, b, first.variables)


def form_scale(w: OneForm, f) -> OneForm:
    """f*w for a scalar or a ``Jet2`` f."""
    return OneForm(w.a * f, w.b * f, w.variables)


def form_at_order(w: OneForm, order) -> OneForm:
    """w truncated to a lower order, or read as exact polynomial data at a
    higher one (``Jet2.with_order``)."""
    return OneForm(w.a.with_order(order), w.b.with_order(order), w.variables)


def homogeneous_part(jet: Jet2, deg) -> Jet2:
    """The terms of total degree ``deg``, at the jet's order."""
    return Jet2({k: c for k, c in jet.items() if k[0] + k[1] == deg}, jet.order)


def jet_power(jet, e):
    """jet^e for an integer e >= 0, by repeated products."""
    acc = jet.one(jet.order)
    for _ in range(e):
        acc = acc * jet
    return acc


# --- the cusp reduction on exponent maps, Jet2 sums and Coeff comparisons -----


def ref_radial_tangency(w: OneForm, degree):
    """The cofactor P with A_d dx + B_d dy = P*(x dy - y dx), or None: the
    identity x*A_d + y*B_d = 0 read one ``Coeff`` at a time, and P read off
    B_d by an exponent map."""
    ad = homogeneous_part(w.a, degree)
    bd = homogeneous_part(w.b, degree)
    n = w.order
    if ad.is_zero() and bd.is_zero():
        return Jet2.zero(n)
    d = degree
    for k in range(d + 2):
        a_k = ad.coeff(k - 1, d + 1 - k) if k else CZERO
        b_k = bd.coeff(k, d - k) if k <= d else CZERO
        if a_k != -b_k:
            return None
    return bd.exponent_map(lambda i, j: (i - 1, j), n - 1)


def ref_linear_change(w: OneForm, m) -> OneForm:
    """w pulled back by (m00 x + m01 y, m10 x + m11 y), targets as Jet2 sums."""
    (m00, m01), (m10, m11) = m
    n = w.order
    fx = Jet2.monomial(1, 0, Coeff(m00), n) + Jet2.monomial(0, 1, Coeff(m01), n)
    fy = Jet2.monomial(1, 0, Coeff(m10), n) + Jet2.monomial(0, 1, Coeff(m11), n)
    return pullback_map(w, fx, fy, order=n)


def ref_pullback_blowup(w: OneForm, chart, new_var=None) -> OneForm:
    """The blow-up pullback as exponent maps and ``Jet2`` sums, at order
    2*order + 1."""
    out = 2 * w.order + 1
    xname, yname = w.variables
    if chart == "x":
        a = w.a.exponent_map(lambda i, j: (i + j, j), out) + w.b.exponent_map(
            lambda i, j: (i + j, j + 1), out
        )
        b = w.b.exponent_map(lambda i, j: (i + j + 1, j), out)
        return OneForm(a, b, (xname, new_var or "t"))
    a = w.a.exponent_map(lambda i, j: (i, i + j + 1), out)
    b = w.a.exponent_map(lambda i, j: (i + 1, i + j), out) + w.b.exponent_map(
        lambda i, j: (i, i + j), out
    )
    return OneForm(a, b, (new_var or "s", yname))


def ref_exceptional_divide(w: OneForm, divisor_var):
    """(w / v^k, k) for the largest power v^k dividing both coefficients."""
    idx = w.variables.index(divisor_var)
    axis = "xy"[idx]
    k = min(
        (v for v in (w.a.valuation(axis), w.b.valuation(axis)) if v is not None),
        default=0,
    )
    if not k:
        return w, 0
    n = w.order - k
    shift = (lambda i, j: (i - k, j)) if idx == 0 else (lambda i, j: (i, j - k))
    return OneForm(w.a.exponent_map(shift, n), w.b.exponent_map(shift, n), w.variables), k


def ref_reduce_cusp(w: OneForm) -> ReductionReport:
    """``forms.reduce_cusp`` on the helpers above: every zero test and every
    comparison on ``Coeff`` values, the restriction to D2 as a ``Jet1``."""
    rep = ReductionReport(order=w.order)

    def finish(verdict, reason):
        rep.verdict, rep.reason = verdict, reason
        return rep

    n = w.order
    v = w.valuation()
    if v is None:
        return finish(ReductionVerdict.INCONCLUSIVE, "form vanishes to the working order")
    if v != 3:
        return finish(
            ReductionVerdict.WRONG_REDUCTION_TREE,
            f"valuation {v} != 3: the reduction tree of a cusp starts at multiplicity 3",
        )
    rep.is_valuation_3 = True
    p = ref_radial_tangency(w, 3)
    if p is None:
        return finish(
            ReductionVerdict.NOT_DICRITICAL,
            "degree-3 part is not radial: the first blow-up is not dicritical",
        )
    p20, p11, p02 = p.coeff(2, 0), p.coeff(1, 1), p.coeff(0, 2)
    if not (p11 * p11 - 4 * p20 * p02).is_zero():
        return finish(
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "tangency cone has two distinct directions (cofactor is not a perfect square)",
        )
    if p02.is_zero():
        rep.applied_linear_change = ((0, 1), (1, 0))
    elif not p11.is_zero():
        rep.applied_linear_change = ((1, 0), (-p11 / (2 * p02), 1))
    if rep.applied_linear_change is not None:
        w = ref_linear_change(w, rep.applied_linear_change)
    p = ref_radial_tangency(w, 3)
    a = CZERO if p is None else p.coeff(0, 2)
    assert not a.is_zero() and p == Jet2.monomial(0, 2, a, p.order)
    rep.p2_coefficient = a
    rep.moved_form = w
    if n < 5:
        return finish(
            ReductionVerdict.INCONCLUSIVE,
            f"degree-3 checks pass but order {n} < 5 cannot certify the blow-ups",
        )
    w1, k1 = ref_exceptional_divide(ref_pullback_blowup(w, "x", "t"), w.variables[0])
    rep.exceptional_power_1 = k1
    assert k1 == 4 and w1.b.restrict_to_axis("y") == Jet1([0, 0, a], w1.order)
    rep.singular_points_on_D2 = [(CZERO, 2)]
    rep.tangency_at_infinity = False
    if not w1.a.coeff(0, 0).is_zero():
        return finish(
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "tangency point on D2 is a regular point of the transformed foliation",
        )
    c, a5, b4 = w1.a.coeff(0, 1), w1.a.coeff(1, 0), w1.b.coeff(1, 0)
    if c.is_zero() and a5.is_zero() and b4.is_zero():
        return finish(
            ReductionVerdict.WRONG_REDUCTION_TREE,
            "tangency point has multiplicity >= 2 after the first blow-up",
        )
    if not (a5.is_zero() and b4 == -c and not c.is_zero()):
        return finish(
            ReductionVerdict.NOT_DICRITICAL,
            "second blow-up is not dicritical: linear part at the tangency point is not radial",
        )
    w2, k2 = ref_exceptional_divide(ref_pullback_blowup(w1, "y", "xi"), "t")
    rep.second_chart_form = w2
    rep.exceptional_power_2 = k2
    assert k2 == 2 and w2.a.coeff(0, 0) == c and w2.b.coeff(0, 0) == a
    return finish(
        ReductionVerdict.CUSP_TYPE_ABSOLUTELY_DICRITICAL,
        "two blow-ups reduce the foliation, regular and transverse to both divisor components",
    )


# ---------------------------------------------------------------------------
# helpers that only tests read


def fit_homography(jet):
    """The homography matching the 2-jet: lam = f'(0), mu = -f''(0)/(2f'(0))."""
    c1 = jet.coeff(1)
    if c1.is_zero():
        raise JetError("cannot fit a homography to a singular germ")
    return Homography(c1, -jet.coeff(2) / c1)


def normal_form_transform(data):
    """The composite of a ``NormalFormData``'s recorded changes id + (P, Q),
    in the order they were applied, as a pair of jet components."""
    x = Jet2.var_x(data.order)
    y = Jet2.var_y(data.order)
    comp_x, comp_y = x, y
    for p, q in data.changes:
        fx, fy = x + p, y + q
        comp_x = comp_x.substitute(fx, fy)
        comp_y = comp_y.substitute(fx, fy)
    return comp_x, comp_y


def format_form(obj) -> str:
    """Canonical text for a ``OneForm`` or ``MeromorphicPair``:
    ``parse_form(format_form(obj), order=<same order>)`` reproduces the
    object exactly (for forms in the standard x, y chart)."""
    if isinstance(obj, MeromorphicPair):
        num = format_poly(dict(obj.num.triple_items()))
        den = format_poly(dict(obj.den.triple_items()))
        return f"mero: ({num}) / ({den})"
    names = obj.variables
    parts = [
        f"({format_poly(dict(jet.triple_items()), names)}) d{name}"
        for jet, name in ((obj.a, names[0]), (obj.b, names[1]))
        if not jet.is_zero()
    ]
    return " + ".join(parts) or f"0 d{names[0]}"


# ---------------------------------------------------------------------------
# the sigma consumers on Coeff and Jet1 objects


def pade_by_horner(g, d, n):
    """g as a reduced ``Rational1`` of degree <= d to order n, or None.

    The Hankel rows coefficient_m(Q*g) = 0, d < m <= n, as ``Coeff`` rows
    through ``linalg.solve``; P is the head of the ``Jet1`` product Q*g;
    P/Q is reduced to a ``Rational1`` and re-expanded as the quotient of the
    jets of its numerator and denominator, which is Horner's rule at the
    variable jet, and kept only if that expansion is g.
    """
    rows = [[g.coeff(m - k) for k in range(1, d + 1)] for m in range(d + 1, n + 1)]
    res = solve(rows, [-g.coeff(m) for m in range(d + 1, n + 1)])
    if not res.feasible:
        return None
    q = (Coeff(1),) + tuple(res.solution)
    prod = Jet1(q, n) * g.truncate(n)
    cand = Rational1(tuple(prod.coeff(k) for k in range(d + 1)), q)
    if Jet1(cand.num, n).div(Jet1(cand.den, n)) != g.truncate(n):
        return None
    return cand


def witness_by_horner(sigma, d, n):
    """(probes, r1, r2) of the search over R1 = z^k, k <= d: sigma^k by
    ``Jet1`` powering and :func:`pade_by_horner` on each; the relation is
    the first hit, and r1 and r2 are None when no probe hits."""
    s = sigma.truncate(n)
    probes = []
    found = (None, None)
    for k in range(1, d + 1):
        r2 = pade_by_horner(jet_power(s, k), d, n)
        probes.append((k, r2 is not None))
        if r2 is not None and found[0] is None:
            found = (Rational1((0,) * k + (1,)), r2)
    return (tuple(probes), *found)


def homographic_image_by_composition(f, h):
    """(f o h) * (h')^2 through the order of f, by composing with h's jet."""
    hj = h.to_jet(f.order + 1)  # so that h' is known through z^n
    d = hj.derivative()
    return f.compose(hj) * d * d
