"""The arithmetic kernel.

Everything hot in the library bottoms out here: exact arithmetic in Q(i),
truncated power-series convolution in one and two variables, the
reciprocal of a one-variable series, the formal first integral of a
regular corner germ, substitution into two-variable series, and reduced
row echelon form over Q(i).

A Gaussian-rational scalar is a normalized integer triple ``(a, b, d)``
standing for ``(a + b*i)/d`` with ``d > 0`` and ``gcd(a, b, d) == 1``.  Zero
is ``(0, 0, 1)``.  All functions take and return triples in normal form.

The series products (:func:`jet1_mul`, :func:`jet2_mul`) keep one
denominator per operand: its nonzero coefficients are scaled to the lcm of
their denominators, the Gaussian-integer numerators are convolved in plain
integers, and each nonzero output coefficient is normalized once, over the
product of the two lcms.  A product therefore makes one ``qnorm`` per output
coefficient, not one per term and one per partial sum.  They are the only
series products: the parser's exact polynomial products are
:func:`jet2_mul` at the degree of the product, and the powers of the
series reversion (``Jet1.comp_inverse``) are :func:`jet1_mul` products.
The level form den*d(num) - num*d(den) of a quotient (:func:`mero_form`)
is one pass over the pairs of terms of num and den on the same rule, with
no derivative or product jet: each pair adds a multiple of one integer
product to one dx and one dy coefficient.

The one-variable series routines keep to the same rule.  The reciprocal
(:func:`jet1_reciprocal`) sums each coefficient's recurrence in Gaussian
integers over the lcm of the denominators it reads.  The first integral
(:func:`first_integral`) forms each degree's residual in integers over
one denominator per homogeneous part, visits only the parts that meet a
nonconstant term of the form, and skips each coefficient whose inputs are
zero.  The image of a series under a homography,
(f o h) * (h')^2 with h = lam*z/(1 + mu*z)
(:func:`jet1_homographic_image`), is read off its binomial closed form in
Gaussian integers, with no composition.  Each of them normalizes an output
coefficient once.

Substitution (:func:`jet2_substitute`) and the pullback of a 1-form
(:class:`FormNumerators`) follow the same rule, with one denominator per
substitution: the coefficients and the targets are scaled to their lcms,
the sum of the substituted monomials is taken in Gaussian integers over the
lcm of the denominators they pick up from the targets, and each nonzero
output coefficient is normalized once.  Every numerator product, in one
variable or two, goes through one integer multiply-add loop,
:func:`_convolve`.  Inside a two-variable call at order n it keys the
monomial x^i y^j by the integer (i + j)(n + 1) + j, and z^k of one
variable by k: the key of a product is the sum of its factors' keys and its
degree bound is a bound on that sum, so the loop adds and compares
integers, and the pairs (i, j) are formed again only for the output, one
``divmod`` per nonzero coefficient.

A substitution and a pullback carry a 1-form a dx + b dy as one form
accumulator that maps each key to ``[re_dx, im_dx, re_dy, im_dy]``, so
the one form-product loop :func:`_convolve_form` visits each key and each
term it is multiplied by once for both coefficients; a jet is
substituted as the dx coefficient of a form with dy coefficient 0.  A
change tangent to the identity, x + p and y + q with p and q of lowest
degree v, keeps at most t = (n - e) // (v - 1) factors p or q on a
monomial of degree e: a monomial with t = 0 is copied, one with t at most
``_TAYLOR_BANDS`` is expanded by the binomial theorem over products
p^k q^l formed once per substitution, and the others, and every monomial
of any other change, go through Horner's rule in the x target.  The
pullback (:func:`_pullback`) multiplies the substituted pair (A, B) by the
Jacobian in one pass, A J0 + B J1 for dx and A J2 + B J3 for dy.

There is one entry to the pullback, :class:`FormNumerators`: it keeps a
1-form as numerators over one denominator across any number of pullbacks,
dividing out one ``gcd`` after each unless the denominator is 1, and forms
triples only when asked.  A single pullback forms them once; the normal
form reads a few coefficients between its steps and forms them only at
the end.  :func:`is_first_integral` re-checks a first integral,
H_u B - H_v A = 0, in one integer pass with no normalization.

The elimination (:func:`rref`) is a plain Gauss-Jordan on rows of triples.
On request it reports the pivots it divides by, from which
``linalg.determinant`` reads a determinant with no second elimination.
"""

from itertools import chain
from math import comb, gcd

BACKEND = "python"

QZERO = (0, 0, 1)
QONE = (1, 0, 1)


def qnorm(a, b, d):
    """Normalize a raw triple: positive denominator, gcd 1."""
    if d == 0:
        raise ZeroDivisionError("zero denominator in Gaussian rational")
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(gcd(a, b), d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    return (a, b, d)


def qiszero(t):
    return t[0] == 0 and t[1] == 0


def qadd(t, u):
    a1, b1, d1 = t
    a2, b2, d2 = u
    return qnorm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def qsub(t, u):
    a1, b1, d1 = t
    a2, b2, d2 = u
    return qnorm(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def qneg(t):
    a, b, d = t
    return (-a, -b, d)


def qmul(t, u):
    a1, b1, d1 = t
    a2, b2, d2 = u
    if (a1 == 0 and b1 == 0) or (a2 == 0 and b2 == 0):
        return QZERO
    return qnorm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def qinv(t):
    a, b, d = t
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError("inverse of zero Gaussian rational")
    return qnorm(a * d, -b * d, n)


def qdiv(t, u):
    return qmul(t, qinv(u))


def add_into(acc, p, negate=False):
    """Add (or subtract) the {key: triple} dict ``p`` into the dict ``acc``
    in place; a sum that cancels deletes its key."""
    for key, c in p.items():
        if negate:
            c = qneg(c)
        if key in acc:
            c = qadd(acc[key], c)
            if not (c[0] or c[1]):
                del acc[key]
                continue
        acc[key] = c


def _scaled(terms):
    """Bring an operand's nonzero terms to one denominator.

    Each term is a tuple ``(*key, a, b, d)``.  Returns ``(terms', D)`` with
    ``D`` the lcm of the denominators and ``terms'`` the same terms as
    ``(*key, a*D/d, b*D/d, 1)``; when ``D`` is 1 the list is returned as it is.
    """
    den = 1
    for t in terms:
        d = t[-1]
        if d != 1 and den % d:
            den = den // gcd(den, d) * d
    if den == 1:
        return terms, 1
    scaled = [
        (*t[:-3], t[-3] * (den // t[-1]), t[-2] * (den // t[-1]), 1) for t in terms
    ]
    return scaled, den


def _nonzero1(c, n):
    """The nonzero coefficients of a list up to degree n as ``(k, a, b, d)``."""
    return [(k, a, b, d) for k, (a, b, d) in enumerate(c[: n + 1]) if a or b]


def jet1_mul(ca, cb, n):
    """Convolve two coefficient lists, truncated at degree n (inclusive).

    Each operand's nonzero coefficients are brought to the lcm of their
    denominators, the Gaussian-integer numerators are convolved by
    :func:`_convolve`, keyed by their exponents with ``end`` = n + 1, and
    each nonzero output coefficient is normalized once, over the product of
    the two lcms.
    """
    out = [QZERO] * (n + 1)
    ta, da = _scaled(_nonzero1(ca, n))
    if not ta:
        return out
    tb, db = _scaled(_nonzero1(cb, n))
    acc = _convolve([(k, (a, b)) for k, a, b, _ in ta], tb, n + 1, {})
    den = da * db
    for k, (re, im) in acc.items():
        if re or im:
            out[k] = qnorm(re, im, den)
    return out


def jet1_reciprocal(c, n):
    """1/f up to degree n, for a coefficient list f with f(0) != 0.

    f is scaled to the lcm D of its denominators, f = F/D, and the constant
    term is made real: with u = conj(F0)/gcd(Re F0, Im F0) the product
    u*F0 is a positive integer N.  Then

        [z^k](1/f) = -(u/N) * sum_(m=1..k) F_m [z^(k-m)](1/f):

    the sum runs over the nonzero F_m only, in Gaussian integers over the
    lcm of the denominators of the coefficients it reads, and each output
    coefficient is normalized once.
    """
    terms, den = _scaled(_nonzero1(c, n))
    _, fa, fb, _ = terms[0]
    g = gcd(fa, fb)
    ua, ub = fa // g, -fb // g
    norm = fa * ua - fb * ub
    out = [qnorm(ua * den, ub * den, norm)]
    for k in range(1, n + 1):
        reached = [
            (a, b, out[k - m]) for m, a, b, _ in terms[1:] if m <= k and not qiszero(out[k - m])
        ]
        lcm = 1
        for _, _, (_, _, d) in reached:
            if lcm % d:
                lcm = lcm // gcd(lcm, d) * d
        sa = sb = 0
        for a, b, (x, y, d) in reached:
            f = lcm // d
            sa += (a * x - b * y) * f
            sb += (a * y + b * x) * f
        out.append(
            qnorm(ub * sb - ua * sa, -(ua * sb + ub * sa), norm * lcm) if sa or sb else QZERO
        )
    return out


def jet1_homographic_image(c, lam, mu, n):
    """The coefficients of (f o h) * (h')^2 up to degree n, h = lam*z/(1 + mu*z).

    Since h^k (h')^2 = lam^(k+2) z^k (1 + mu*z)^-(k+4), coefficient m is

        sum_(j=0..m) f_(m-j) lam^(m-j+2) (-mu)^j C(m+3, j).

    The terms f_k lam^(k+2) are brought to one denominator D, as F_k/D, and
    -mu is M/E with M a Gaussian integer; with B_k = F_k E^k, coefficient
    m is the Gaussian integer sum_j C(m+3, j) B_(m-j) M^j over D E^m, one
    integer multiply-add per pair (k, j) with B_k and M^j nonzero, and is
    normalized once.  For mu = 0 only j = 0 remains.
    """
    power = qmul(lam, lam)
    terms = []
    for k, t in enumerate(c[: n + 1]):
        if t[0] or t[1]:
            terms.append((k, *qmul(t, power)))
        power = qmul(power, lam)
    terms, den = _scaled(terms)
    ma, mb, e = qneg(mu)
    b = [None] * (n + 1)  # B_k as (re, im), None where f_k = 0
    for k, x, y, _ in terms:
        ek = e**k
        b[k] = (x * ek, y * ek)
    mpow = [(1, 0)]  # M^j, only while nonzero
    if ma or mb:
        for _ in range(n):
            x, y = mpow[-1]
            mpow.append((x * ma - y * mb, x * mb + y * ma))
    out = [QZERO] * (n + 1)
    em = den
    for m in range(n + 1):
        re = im = 0
        for j in range(min(m, len(mpow) - 1) + 1):
            bk = b[m - j]
            if bk is None:
                continue
            (x, y), (u, v) = bk, mpow[j]
            w = comb(m + 3, j)
            re += w * (x * u - y * v)
            im += w * (x * v + y * u)
        if re or im:
            out[m] = qnorm(re, im, em)
        em *= e
    return out


def first_integral(a, b, n):
    """The formal first integral of  A du + B dv  at order n.

    ``a`` and ``b`` are {(i, j): triple} dicts with nonzero constant terms
    a0 and b0.  Returns the {(i, j): triple} dict of the H with H(0, 0) = 0,
    H(u, 0) = u and H_u*B - H_v*A = 0 up to degree n - 1.  At u^(d-m) v^m
    the degree-d part of that equation solves for the coefficient h[m+1]
    of u^(d-m) v^(m+1):

        h[m+1] = ((d+1-m) (b0/a0) h[m] + res[m]/a0) / (m+1),

    where res is the degree-d part of sum_(e<d) [H_u]_e [B]_(d-e) -
    [H_v]_e [A]_(d-e), and h[0] = 0 past degree 0.  So h[m+1] is zero, and
    is skipped, when h[m] and res[m] both are.

    The residual is formed in integers: the parts of degree 1 .. n-1 of B
    and -A are scaled once to one denominator, each homogeneous part of
    H_u and H_v to one denominator (its part of H's), and a degree's
    residual is summed over the lcm of the parts of H that reach it.  The
    degrees k where A or B has a nonconstant term are listed once, and the
    degree-d residual visits the parts of H of degree d - k for those k
    only.  Each nonzero h[m+1] is normalized once.
    """
    ia, ib, id_ = qinv(a[(0, 0)])
    ra, rb, rd = qmul(b[(0, 0)], (ia, ib, id_))
    terms, den = _scaled(
        [
            (i + j, j, side, sign * x, sign * y, d)
            for side, sign, f in ((0, 1, b), (1, -1, a))
            for (i, j), (x, y, d) in f.items()
            if (x or y) and 0 < i + j < n
        ]
    )
    coef = [([], []) for _ in range(n)]  # degree k: numerators of [B]_k, -[A]_k
    for k, j, side, x, y, _ in terms:
        coef[k][side].append((j, x, y))
    degrees = sorted({t[0] for t in terms})  # where A or B has a nonconstant term
    out = {}
    grads = []  # degree e: (den, [H_u]_e, [H_v]_e) as (m, re, im), or None
    for d in range(n):
        reached = [(d - k, grads[d - k]) for k in degrees if k <= d and grads[d - k]]
        lcm = 1
        for _, (dh, _, _) in reached:
            lcm = lcm // gcd(lcm, dh) * dh
        re = [0] * (d + 1)
        im = [0] * (d + 1)
        for e, (dh, hu, hv) in reached:
            f = lcm // dh
            for side, grad in enumerate((hu, hv)):
                for q, s, t in coef[d - e][side]:
                    s *= f
                    t *= f
                    for p, x, y in grad:
                        re[p + q] += x * s - y * t
                        im[p + q] += x * t + y * s
        rden = lcm * den * id_
        pa, pb, pd = QONE if d == 0 else QZERO
        part = [(0, *QONE)] if d == 0 else []  # the nonzero h[m] as (m, a, b, d)
        for m in range(d + 1):
            na, nb = re[m], im[m]
            if not (pa or pb or na or nb):
                continue
            c = d + 1 - m
            sd = rd * pd
            pa, pb, pd = qnorm(
                c * (ra * pa - rb * pb) * rden + (na * ia - nb * ib) * sd,
                c * (ra * pb + rb * pa) * rden + (na * ib + nb * ia) * sd,
                rden * sd * (m + 1),
            )
            if pa or pb:
                part.append((m + 1, pa, pb, pd))
        for m, x, y, dd in part:
            out[(d + 1 - m, m)] = (x, y, dd)
        if not part or d == n - 1:
            grads.append(None)
            continue
        part, dh = _scaled(part)
        grads.append(
            (
                dh,
                [(m, (d + 1 - m) * x, (d + 1 - m) * y) for m, x, y, _ in part if m <= d],
                [(m - 1, m * x, m * y) for m, x, y, _ in part if m],
            )
        )
    return out


def _terms(d, n):
    """The nonzero terms of a {(i, j): triple} dict up to total degree n, as
    ``(k, a, b, d)`` tuples with the integer key k = (i + j)(n + 1) + j (see
    :func:`_convolve`), ready for :func:`_scaled`."""
    m = n + 1
    return [
        ((i + j) * m + j, a, b, d)
        for (i, j), (a, b, d) in d.items()
        if (a or b) and i + j <= n
    ]


def _convolve(ta, tb, end, acc):
    """Add the product of two numerator operands into ``acc``.

    ``ta`` is an iterable of pairs ``(k, (a, b))``, such as the ``items()``
    of an accumulator, and ``tb`` a list of terms ``(k, a, b, _)`` whose
    last slot is not read; both hold Gaussian-integer numerators a + b*i.
    The key of a product is the sum of its factors' keys, and products
    with key ``end`` or more are dropped.  In one variable z^k has the key
    k, and a product is of degree at most n exactly when its key is below
    ``end`` = n + 1.  Within one call of a two-variable routine at order n
    the monomial x^i y^j has the integer key k = (i + j)(n + 1) + j.  A
    product of total degree at most n has j1 + j2 <= n, so its key is
    exactly k1 + k2, with no carry, and a product is of degree at most d
    exactly when its key is below (d + 1)(n + 1).  ``acc`` maps keys to
    ``[re, im]`` and is returned; new keys appear in the order their first
    product is formed.
    """
    for k1, (a1, b1) in ta:
        room = end - k1
        for k2, a2, b2, _ in tb:
            if k2 >= room:
                continue
            key = k1 + k2
            cur = acc.get(key)
            if cur is None:
                acc[key] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
            else:
                cur[0] += a1 * a2 - b1 * b2
                cur[1] += a1 * b2 + b1 * a2
    return acc


def _normalized(acc, den, n):
    """An accumulator over ``den`` at order n as a {(i, j): triple} dict: one
    ``divmod`` and one ``qnorm`` per nonzero coefficient."""
    m = n + 1
    out = {}
    for k, (re, im) in acc.items():
        if re or im:
            e, j = divmod(k, m)
            out[(e - j, j)] = qnorm(re, im, den)
    return out


def jet2_mul(da, db, n):
    """Multiply two sparse 2-variable jets given as {(i, j): triple} dicts.

    Keys with total degree > n are dropped; zero results are not stored.
    As in :func:`jet1_mul`, the numerators are convolved over each operand's
    lcm of denominators (:func:`_convolve`) and each nonzero output
    coefficient is normalized once.  Keys appear in the order their first
    product is formed.
    """
    ta, dena = _scaled(_terms(da, n))
    tb, denb = _scaled(_terms(db, n))
    pairs = [(k, (a, b)) for k, a, b, _ in ta]
    return _normalized(_convolve(pairs, tb, (n + 1) ** 2, {}), dena * denb, n)


def mero_form(num, den, n):
    """The coefficients of den*d(num) - num*d(den) up to degree n, for num
    and den given as ``((i, j), triple)`` pairs, such as the items of a
    {(i, j): triple} dict: a pair of such dicts (dx coefficient, dy
    coefficient).

    The term q x^i y^j of den and the term p x^k y^l of num add
    (k - i) q p to x^(i+k-1) y^(j+l) in dx and (l - j) q p to
    x^(i+k) y^(j+l-1) in dy, so a pair enters exactly when
    i + j + k + l <= n + 1.  The sums are formed in Gaussian integers over
    the product of the two operands' lcms of denominators, with no product
    jet and no derivative jet, and each nonzero output coefficient is
    normalized once.
    """
    td, dd = _scaled([(i, j, a, b, d) for (i, j), (a, b, d) in den if a or b])
    tn, dn = _scaled(sorted((i + j, i, j, a, b, d) for (i, j), (a, b, d) in num if a or b))
    ax, ay = {}, {}
    for i, j, qa, qb, _ in td:
        room = n + 1 - i - j
        for e, k, l, pa, pb, _ in tn:
            if e > room:
                break
            re = qa * pa - qb * pb
            im = qa * pb + qb * pa
            c = k - i
            if c:
                cur = ax.setdefault((i + k - 1, j + l), [0, 0])
                cur[0] += c * re
                cur[1] += c * im
            c = l - j
            if c:
                cur = ay.setdefault((i + k, j + l - 1), [0, 0])
                cur[0] += c * re
                cur[1] += c * im
    common = dd * dn
    return tuple(
        {key: qnorm(re, im, common) for key, (re, im) in acc.items() if re or im}
        for acc in (ax, ay)
    )


# The monomials that a near-identity change moves at most _TAYLOR_BANDS
# times within the order are expanded by the binomial theorem, the others
# by Horner's rule (see _route).  On the 147 normal forms of the first
# dense-nf questions at seeds 43, 1 and 2035 (best of 6 interleaved rounds
# each, Python 3.11 on a shared 2-core x86-64 host), normalize took
# 0.74-0.91, 0.69-0.82, 0.73-0.88 and 0.75-0.86 of its time with no band
# (copies and Horner's rule only) at 1, 2, 3 and 4 bands; 2 was the
# fastest at each seed.
_TAYLOR_BANDS = 2


def _convolve_form(ta, tb, end, acc):
    """As :func:`_convolve`, for a form operand ``ta``: pairs
    ``(k, (a, b, c, d))`` holding the numerators a + b*i of the dx and
    c + d*i of the dy coefficient, both multiplied by each term of ``tb`` in
    one pass.  ``acc`` maps keys to ``[re_dx, im_dx, re_dy, im_dy]``."""
    for k1, (a1, b1, c1, d1) in ta:
        room = end - k1
        for k2, a2, b2, _ in tb:
            if k2 < room:
                cur = acc.get(k1 + k2)
                if cur is None:
                    cur = acc[k1 + k2] = [0, 0, 0, 0]
                cur[0] += a1 * a2 - b1 * b2
                cur[1] += a1 * b2 + b1 * a2
                cur[2] += c1 * a2 - d1 * b2
                cur[3] += c1 * b2 + d1 * a2
    return acc


def _route(acc, dx, dy, n):
    """Sort the monomials of the form accumulator ``acc`` (see
    :func:`_substitute`) by how the change (dx, dy) moves them at order n.

    Let the change be tangent to the identity, x + p and y + q with p and q
    of lowest degree v >= 2 up to degree n.  The term
    C(i, k) C(j, l) x^(i-k) y^(j-l) p^k q^l of (x + p)^i (y + q)^j has
    degree at least e + (k + l)(v - 1), for e = i + j, so within order n
    the monomial x^i y^j keeps the terms with k + l <= t(e) =
    floor((n - e) / (v - 1)) only.  A monomial with t(e) = 0 maps to
    itself.  One with 1 <= t(e) <= ``_TAYLOR_BANDS`` is itself plus those
    terms; each term with k + l >= 1 whose p^k q^l is not zero is listed
    under (k, l) as the key of x^(i-k) y^(j-l) and the numerators
    C(i, k) C(j, l) (A_ij, B_ij).  Every other monomial, and every monomial
    of any other change, is left to Horner's rule.

    Returns ``(out, bands, groups)``: a form accumulator holding
    (A_ij, B_ij) at x^i y^j for each monomial with t(e) <=
    ``_TAYLOR_BANDS``; a dict (k, l) -> [(key, (a, b, c, d))] of those
    binomial terms; and the Horner groups, i -> [(j, a, b, c, d)].
    """
    m = n + 1
    out, bands, groups = {}, {}, {}
    if dx.get((1, 0)) == QONE and dy.get((0, 1)) == QONE and (0, 1) not in dx and (1, 0) not in dy:
        lows = [[i + j for i, j in part if 2 <= i + j <= n] for part in (dx, dy)]
        # an identity up to degree n moves no monomial
        step = min(chain(*lows), default=n + 2) - 1
        # t(e) > _TAYLOR_BANDS below the key horner_end, t(e) = 0 from the
        # key copy_start on
        horner_end = (n - (_TAYLOR_BANDS + 1) * step + 1) * m
        copy_start = (n - step + 1) * m
        # the terms (k, l) of the bands, their key offsets, and the
        # binomial coefficients C(i, k) and C(j, l) by i and j
        terms = [
            (k, l, (k + l) * m + l)
            for k in range(_TAYLOR_BANDS + 1 if lows[0] else 1)
            for l in range(_TAYLOR_BANDS + 1 - k if lows[1] else 1)
            if k or l
        ]
        binom = [[comb(i, k) for i in range(m)] for k in range(_TAYLOR_BANDS + 1)]
    else:
        horner_end = copy_start = m * m
    zone = []  # the monomials of the bands as (key, i, j, t(e), a, b, c, d)
    for key, (a, b, c, d) in acc.items():
        if not (a or b or c or d):
            continue
        if key < horner_end:
            e, j = divmod(key, m)
            groups.setdefault(e - j, []).append((j, a, b, c, d))
            continue
        out[key] = [a, b, c, d]
        if key < copy_start:
            e, j = divmod(key, m)
            zone.append((key, e - j, j, (n - e) // step, a, b, c, d))
    if not zone:
        return out, bands, groups
    for k, l, off in terms:
        ck, cl = binom[k], binom[l]
        rows = []
        for key, i, j, t, a, b, c, d in zone:
            if t >= k + l and i >= k and j >= l:
                s = ck[i] * cl[j]
                rows.append((key - off, (a * s, b * s, c * s, d * s)))
        if rows:
            bands[(k, l)] = rows
    return out, bands, groups


def _substitute(acc, dx, dy, n):
    """Substitute the targets into both coefficients of a form.

    ``acc`` is a form accumulator at order n (see :class:`FormNumerators`),
    the numerators A_ij and B_ij of both coefficients over one denominator;
    it is read, not changed.  The targets ``dx`` and ``dy`` vanish at the
    origin and are read up to degree n.  Returns ``(out, lcm)``: the form
    accumulator of the substitution, over ``lcm`` times the form's
    denominator.

    Each monomial is copied, expanded by the binomial theorem or left to
    Horner's rule (see :func:`_route`).  The targets are scaled to their
    lcms, fx = FX/ex and fy = FY/ey, so p^k q^l is P^k Q^l / (ex^k ey^l),
    with P = FX - ex x and Q = FY - ey y, and a substituted monomial is
    A_ij FX^i FY^j / (ex^i ey^j).  The sum is taken over L = ``lcm``, the
    lcm of ex^k ey^l over the products P^k Q^l that a binomial term uses and
    of ex^i ey^j over the monomials Horner's rule substitutes, not the
    product ex^I ey^J of the largest powers: dense targets have ex = ey,
    and then L is ex to the largest i + j, about half the size of that
    product for a dense jet.

    The products P^k Q^l are formed once, each scaled by L / (ex^k ey^l),
    and the binomial terms of one (k, l) are multiplied by it in one pass
    (:func:`_convolve_form`).  With

        G_i = sum_j (A_ij, B_ij) (L / ex^i ey^j) FY^j

    over the monomials left to it, the numerator sum_i FX^i G_i is
    evaluated by Horner's rule in FX, one product by FX per power of x, so
    no power of FX is formed.  The powers FY^j are built once
    (:func:`_convolve`).  Each band, each Horner accumulator and each row
    (A_ij, B_ij) s FY^j of G_i is multiplied by its factor in one call of
    :func:`_convolve_form`; a row is a one-term form operand, the scalars
    (A_ij, B_ij) s at key 0.
    """
    m = n + 1
    out, bands, groups = _route(acc, dx, dy, n)
    tx, ex = _scaled(_terms(dx, n))
    ty, ey = _scaled(_terms(dy, n))
    top = {i: max(row)[0] for i, row in groups.items()}  # i -> its largest j
    exp_x, exp_y = [1], [1]
    for _ in range(max(chain(top, (k for k, _ in bands)), default=0)):
        exp_x.append(exp_x[-1] * ex)
    for _ in range(max(chain(top.values(), (l for _, l in bands)), default=0)):
        exp_y.append(exp_y[-1] * ey)
    lcm = 1
    for i, j in chain(top.items(), bands):
        q = exp_x[i] * exp_y[j]
        lcm = lcm // gcd(lcm, q) * q
    if lcm != 1:
        out = {k: [a * lcm, b * lcm, c * lcm, d * lcm] for k, (a, b, c, d) in out.items()}
    end = m * m
    ty_rest = [t for t in ty if t[0] != m + 1]
    if bands:
        # p^k q^l over ex^k ey^l, formed once: the powers of p and of q,
        # then their products
        pp, qp = [None, [t for t in tx if t[0] != m]], [None, ty_rest]
        for powers, count in ((pp, max(k for k, _ in bands)), (qp, max(l for _, l in bands))):
            while len(powers) <= count:
                last = [(key, (a, b)) for key, a, b, _ in powers[-1]]
                power = _convolve(last, powers[1], end, {})
                powers.append([(key, re, im, 1) for key, (re, im) in power.items() if re or im])
        for (k, l), rows in bands.items():
            if k and l:
                power = _convolve([(key, (a, b)) for key, a, b, _ in pp[k]], qp[l], end, {})
                tb = [(key, re, im, 1) for key, (re, im) in power.items() if re or im]
            else:
                tb = qp[l] if l else pp[k]
            s = lcm // (exp_x[k] * exp_y[l])
            tb = [(key, a * s, b * s, 1) for key, a, b, _ in tb]
            _convolve_form(rows, tb, end, out)
    if not groups:
        return out, lcm
    py = [[(0, 1, 0, 1)], ty]
    power = {k: (a, b) for k, a, b, _ in ty}
    for _ in range(max(top.values()) - 1):
        # FY^j = FY^(j-1) * FY, the last power read as an accumulator and
        # each power kept as a term list for the rows below
        power = _convolve(power.items(), ty, end, {})
        py.append([(k, re, im, 1) for k, (re, im) in power.items() if re or im])
    horner = {}  # sum over i' > i of FX^(i'-i-1) G_i'
    for i in range(max(groups), -1, -1):
        # G_i + FX * horner, up to degree n - i: it is multiplied by FX^i,
        # of valuation >= i
        part = out if i == 0 else {}
        end = (m - i) * m
        for j, a, b, c, d in groups.get(i, ()):
            s = lcm // (exp_x[i] * exp_y[j])
            _convolve_form([(0, (a * s, b * s, c * s, d * s))], py[j], end, part)
        if horner:
            _convolve_form(horner.items(), tx, end, part)
        horner = part
    return out, lcm


def jet2_substitute(d, dx, dy, n):
    """d(dx, dy) at order n, for targets vanishing at the origin: the dx
    coefficient of the form d dx + 0 dy substituted by :func:`_substitute`,
    over one denominator, with one ``qnorm`` per nonzero output coefficient.
    """
    terms, den = _scaled(_terms(d, n))
    acc, lcm = _substitute({k: [a, b, 0, 0] for k, a, b, _ in terms}, dx, dy, n)
    return _normalized({k: v[:2] for k, v in acc.items()}, den * lcm, n)


def _pullback(acc, fx, fy, n):
    """The pullback by (fx, fy), at order n, of the form accumulator ``acc``
    (see :func:`_substitute`), the targets read up to degree n there and up
    to degree n + 1 for their partial derivatives.

    The Jacobian entries J0 = fx_x, J1 = fy_x, J2 = fx_y and J3 = fy_y are
    scaled to one denominator and stacked by key, and one pass over the
    substituted pairs (A, B) forms dx: A J0 + B J1 and dy: A J2 + B J3 in
    integers; a constant term that is a scalar times the identity, as for a
    change tangent to it, is a scaled copy.  Returns ``(out, scale)``: the
    form accumulator of the pullback, over ``scale`` times the input
    denominator.
    """
    sub, lcm = _substitute(acc, fx, fy, n)
    m = n + 1
    parts = []
    for slot, f in ((0, fx), (2, fy)):
        for (i, j), (fa, fb, fd) in f.items():
            if i + j <= m:
                if i:
                    parts.append(((i + j - 1) * m + j, slot, i * fa, i * fb, fd))
                if j:
                    parts.append(((i + j - 1) * m + j - 1, slot + 4, j * fa, j * fb, fd))
    parts, jden = _scaled(parts)
    jac = {}
    for key, slot, a, b, _ in parts:
        jac.setdefault(key, [0] * 8)[slot : slot + 2] = a, b
    const = jac.get(0)
    out = {}
    if const and not any(const[2:6]) and const[:2] == const[6:]:
        p0, q0 = jac.pop(0)[:2]
        out = {
            k: [a * p0 - b * q0, a * q0 + b * p0, c * p0 - d * q0, c * q0 + d * p0]
            for k, (a, b, c, d) in sub.items()
        }
    terms = [(k, *entries) for k, entries in jac.items()]
    for k1, (a, b, c, d) in sub.items():
        room = m * m - k1
        for k2, p0, q0, p1, q1, p2, q2, p3, q3 in terms:
            if k2 < room:
                cur = out.get(k1 + k2)
                if cur is None:
                    cur = out[k1 + k2] = [0, 0, 0, 0]
                cur[0] += a * p0 - b * q0 + c * p1 - d * q1
                cur[1] += a * q0 + b * p0 + c * q1 + d * p1
                cur[2] += a * p2 - b * q2 + c * p3 - d * q3
                cur[3] += a * q2 + b * p2 + c * q3 + d * p3
    return out, lcm * jden


class FormNumerators:
    """A 1-form  a dx + b dy  at order n as Gaussian-integer numerators.

    ``acc`` maps each monomial key, as in :func:`_convolve`, to the
    numerators ``[re_dx, im_dx, re_dy, im_dy]`` of both coefficients, over
    the one positive denominator ``den``, so that a pullback visits each key
    once for both.  The key is private to this module: coefficients are
    read by their exponents (:meth:`numerator`) and the form is handed back
    as {(i, j): triple} dicts (:meth:`triples`), one ``qnorm`` per nonzero
    coefficient.  In between, :meth:`pullback` pulls the form back along
    changes of coordinates with no triple formed.
    """

    __slots__ = ("acc", "den", "n")

    def __init__(self, a, b, n, scale=QONE):
        """The form ``scale * (a dx + b dy)`` for {(i, j): triple} dicts
        ``a`` and ``b``, read up to degree n, and a triple ``scale``."""
        terms, den = _scaled([(s, *t) for s, d in ((0, a), (2, b)) for t in _terms(d, n)])
        sa, sb, sd = scale
        self.acc = {}
        for s, k, x, y, _ in terms:
            self.acc.setdefault(k, [0, 0, 0, 0])[s : s + 2] = x * sa - y * sb, x * sb + y * sa
        self.den = den * sd
        self.n = n

    def numerator(self, side, i, j):
        """The numerator ``(re, im)`` over ``den`` of x^i y^j in the dx
        (side 0) or the dy (side 1) coefficient."""
        cur = self.acc.get((i + j) * (self.n + 1) + j, (0, 0, 0, 0))
        return cur[2 * side], cur[2 * side + 1]

    def pullback(self, fx, fy):
        """Pull the form back by (fx, fy), {(i, j): triple} dicts read up to
        degree n + 1 (see :func:`_pullback`), in place.  One integer ``gcd``
        of the new denominator and all the numerators is divided out; a new
        denominator of 1 skips it."""
        acc, scale = _pullback(self.acc, fx, fy, self.n)
        den = self.den * scale
        if den > 1:
            g = gcd(den, *chain.from_iterable(acc.values()))
            if g > 1:
                acc = {k: [x // g for x in v] for k, v in acc.items() if any(v)}
                den //= g
        self.acc, self.den = acc, den

    def triples(self):
        """The two coefficients as {(i, j): triple} dicts."""
        return tuple(
            _normalized({k: v[s : s + 2] for k, v in self.acc.items()}, self.den, self.n)
            for s in (0, 2)
        )


def is_first_integral(h, a, b, n):
    """Whether  H_u B - H_v A  vanishes up to degree n - 1.

    ``h``, ``a`` and ``b`` are {(i, j): triple} dicts.  H is scaled to one
    denominator, and A and B together to another.  The partial derivatives
    of H are read off its numerators, both products are summed in one
    integer accumulator over the product of the two denominators, and no
    ``qnorm`` is taken.
    """
    m = n  # keys at order n - 1
    th, _ = _scaled(
        [
            ((i + j - 1) * m + j, i, j, x, y, d)
            for (i, j), (x, y, d) in h.items()
            if (x or y) and 0 < i + j <= n
        ]
    )
    hu = [(k, (i * x, i * y)) for k, i, j, x, y, _ in th if i]
    hv = [(k - 1, (j * x, j * y)) for k, i, j, x, y, _ in th if j]
    tf, _ = _scaled(
        [
            (side, (i + j) * m + j, sign * x, sign * y, d)
            for side, sign, f in ((0, -1, a), (1, 1, b))
            for (i, j), (x, y, d) in f.items()
            if (x or y) and i + j < n
        ]
    )
    form = ([], [])  # -A and B
    for side, *t in tf:
        form[side].append(t)
    acc = _convolve(hu, form[1], m * m, _convolve(hv, form[0], m * m, {}))
    return not any(re or im for re, im in acc.values())


def rref(rows, limit, scales=None):
    """Reduced row echelon form in place, pivoting only in the first
    ``limit`` columns; row operations apply to the full rows, so columns
    beyond ``limit`` may carry an augmented right-hand side.  When
    ``scales`` is a list, each pivot's value before its row is divided by
    it is appended, in row order.

    Plain Gauss-Jordan on dense rows of triples.  The pivot of column ``c``
    is the first row at or below the current one that is nonzero there; it
    is swapped up and divided by its pivot, and every other row that is
    nonzero in column ``c`` has that multiple of it subtracted, over the
    pivot row's nonzero entries only, with one ``qnorm`` per entry.

    Returns ``(pivots, origin)``: the pivot columns in row order, and for
    each output row the index of the input row it came from (the
    permutation the pivot swaps applied).  Since a row is never scaled
    unless it pivots and never added into another but as a multiple of a
    pivot row, output row k >= len(pivots) is input row ``origin[k]`` minus
    a combination of input rows ``origin[:len(pivots)]``, which are
    independent.
    """
    nrows = len(rows)
    origin = list(range(nrows))
    pivots = []
    r = 0
    for c in range(limit):
        if r == nrows:
            break
        p = r
        while p < nrows and not (rows[p][c][0] or rows[p][c][1]):
            p += 1
        if p == nrows:
            continue
        rows[p], rows[r] = rows[r], rows[p]
        origin[p], origin[r] = origin[r], origin[p]
        if scales is not None:
            scales.append(rows[r][c])
        inv = qinv(rows[r][c])
        prow = rows[r] = [qmul(v, inv) for v in rows[r]]
        support = [(m, v) for m, v in enumerate(prow) if v[0] or v[1]]
        for k in range(nrows):
            f = rows[k][c]
            if k == r or not (f[0] or f[1]):
                continue
            row = rows[k] = rows[k][:]
            fa, fb, fd = f
            for m, (pa, pb, pd) in support:
                # row[m] - f * pivot_row[m], normalized once
                a, b, d = row[m]
                e = fd * pd
                row[m] = qnorm(
                    a * e - (fa * pa - fb * pb) * d, b * e - (fa * pb + fb * pa) * d, d * e
                )
        pivots.append(c)
        r += 1
    return pivots, origin
