import random
from fractions import Fraction

import pytest

from cuspfol import Coeff
from cuspfol.linalg import check_certificate, determinant, matrix_rank, solve

import oracles


def rand_coeff(rng):
    return Coeff(
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
    )


def test_solve_known_system():
    rows = [[1, 2], [3, 4]]
    res = solve(rows, [5, 6])
    assert res.feasible and res.rank == 2
    x, y = res.solution
    assert x == -4 and y == Coeff(Fraction(9, 2))


def test_solution_satisfies_system_random():
    rng = random.Random(101)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rand_coeff(rng) for _ in range(n)] for _ in range(m)]
        xs = [rand_coeff(rng) for _ in range(n)]
        rhs = [sum((rows[i][j] * xs[j] for j in range(n)), Coeff(0)) for i in range(m)]
        res = solve(rows, rhs)
        assert res.feasible
        for i in range(m):
            acc = sum((rows[i][j] * res.solution[j] for j in range(n)), Coeff(0))
            assert acc == rhs[i]


def test_infeasible_certificate():
    rows = [[1, 1], [2, 2]]
    res = solve(rows, [1, 3], certificate=True)
    assert not res.feasible
    assert res.certificate is not None
    assert check_certificate(
        [[Coeff(1), Coeff(1)], [Coeff(2), Coeff(2)]], [Coeff(1), Coeff(3)], res.certificate
    )


def test_certificate_recheck_on_a_matrix_with_zero_entries():
    # the re-check multiplies every entry of the certificate's rows, zeros
    # included, and reads the verdict off the column sums and y^T b
    q = lambda *v: [Coeff(x) for x in v]  # noqa: E731
    rows = [q(1, 0, 2, 0), q(2, 0, 4, 0), q(0, 3, 0, 0)]
    y = [(0, Coeff(2)), (1, Coeff(-1))]
    assert check_certificate(rows, q(1, 1, 5), y)
    # y^T b = 2 - 2 = 0
    assert not check_certificate(rows, q(1, 2, 5), y)
    # column 1 is nonzero in row 2 alone, so y^T A = (0, 3, 0, 0)
    y_bad = [*y, (2, Coeff(1))]
    assert not check_certificate(rows, q(1, 1, 5), y_bad)
    # rows given as kernel triples read alike
    triples = [[c.triple for c in row] for row in rows]
    assert check_certificate(triples, q(1, 1, 5), y)
    assert not check_certificate(rows, q(1, 1, 5), None)


def test_certificate_random_rank_deficient():
    rng = random.Random(103)
    hits = 0
    for _ in range(30):
        n = rng.randint(2, 5)
        base = [[rand_coeff(rng) for _ in range(n)] for _ in range(n - 1)]
        dep = [sum((r[j] for r in base), Coeff(0)) for j in range(n)]
        rows = base + [dep]
        rhs = [rand_coeff(rng) for _ in range(n)]
        res = solve(rows, rhs, certificate=True)
        if not res.feasible:
            hits += 1
            assert check_certificate(rows, rhs, res.certificate)
    assert hits > 0


def test_certificate_matches_identity_block_reference():
    # solve reads the certificate off the row permutation of [A | b]; it must
    # be exactly the identity-block row a Gauss-Jordan on [A | b | I] leaves:
    # one row when the infeasible row of A is zero, several otherwise
    rng = random.Random(107)
    kinds = {"feasible": 0, "single": 0, "multi": 0, "complex": 0}
    for _ in range(300):
        m, n, k = rng.randint(1, 7), rng.randint(1, 6), rng.randint(1, 4)
        base = [[rand_coeff(rng) for _ in range(n)] for _ in range(k)]
        rows = []
        for _ in range(m):
            draw = rng.random()
            if draw < 0.15:
                rows.append([Coeff(0)] * n)
            elif draw < 0.6:
                cs = [rand_coeff(rng) for _ in range(k)]
                rows.append(
                    [sum((c * b[j] for c, b in zip(cs, base)), Coeff(0)) for j in range(n)]
                )
            else:
                rows.append([rand_coeff(rng) for _ in range(n)])
        rhs = [rand_coeff(rng) for _ in range(m)]
        rank, solution, cert = oracles.solve_reference(
            [[oracles.pair_of_coeff(c) for c in row] for row in rows],
            [oracles.pair_of_coeff(c) for c in rhs],
        )
        res = solve(rows, rhs, certificate=True)
        assert res.rank == rank
        if cert is None:
            kinds["feasible"] += 1
            assert res.feasible and res.certificate is None
            assert [oracles.pair_of_coeff(c) for c in res.solution] == solution
            continue
        assert not res.feasible
        assert [(j, oracles.pair_of_coeff(c)) for j, c in res.certificate] == cert
        assert check_certificate(rows, rhs, res.certificate)
        kinds["single" if len(cert) == 1 else "multi"] += 1
        kinds["complex"] += any(v[1] for _, v in cert)
    assert min(kinds.values()) >= 10, kinds


def test_rank_transpose_invariant():
    rng = random.Random(109)
    for _ in range(10):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rand_coeff(rng) for _ in range(n)] for _ in range(m)]
        cols = [[rows[i][j] for i in range(m)] for j in range(n)]
        assert matrix_rank(rows) == matrix_rank(cols)


def pairs(rows):
    return [[oracles.pair_of_coeff(Coeff(c)) for c in row] for row in rows]


def test_determinant_vs_cofactor_oracle():
    """Seeded Q(i) matrices of sizes 1 to 6, nonsingular and singular (one
    row a combination of the others, or a zero column), against the
    cofactor expansion; the singular ones have determinant 0."""
    rng = random.Random(113)
    singular = 0
    for trial in range(60):
        n = 1 + trial % 6
        rows = [[rand_coeff(rng) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 1 and n > 1:
            a, b = rand_coeff(rng), rand_coeff(rng)
            rows[rng.randrange(n)] = [a * x + b * y for x, y in zip(rows[0], rows[-1])]
            if rng.random() < 0.5:
                rng.shuffle(rows)
        elif trial % 3 == 2:
            col = rng.randrange(n)
            for row in rows:
                row[col] = Coeff(0)
        got = determinant(rows)
        assert (got.re, got.im) == oracles.det_cofactor(pairs(rows))
        singular += got.is_zero()
    assert singular >= 20


def test_determinant_of_the_criterion_09_hankel_matrices():
    """The Hankel matrices [c_(shift+i+j)] of e^z - 1 at order 16, every
    size 1 to 6 and shift 0 to 2, against the cofactor expansion; size 6 at
    shift 1 is criterion 09's frozen refutation."""
    from math import factorial

    series = [Coeff(0)] + [Coeff(1) / factorial(k) for k in range(1, 17)]
    for size in range(1, 7):
        for shift in range(3):
            rows = [[series[shift + i + j] for j in range(size)] for i in range(size)]
            got = determinant(rows)
            assert (got.re, got.im) == oracles.det_cofactor(pairs(rows))
    rows = [[series[1 + i + j] for j in range(6)] for i in range(6)]
    assert determinant(rows) == Coeff(-1) / Coeff(222531556847250309120000000)


def test_determinant_is_one_elimination(monkeypatch):
    import cuspfol.linalg

    calls = []
    rref = cuspfol.linalg.rref

    def counting_rref(*args, **kwargs):
        calls.append(len(args[0]))
        return rref(*args, **kwargs)

    monkeypatch.setattr(cuspfol.linalg, "rref", counting_rref)
    assert determinant([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([]) == 1
    assert calls == [3, 2, 0]


def test_determinant_singular():
    assert determinant([[1, 2], [2, 4]]).is_zero()


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve([[1]], [1, 5]),  # a right-hand side past the rows
        lambda: solve([[1], [2]], [1]),  # one short of them
        lambda: solve([], [1]),
        lambda: solve([[1, 2], [3]], [1, 2]),
        lambda: matrix_rank([[1, 2], [3]]),
        lambda: matrix_rank([[1], [2, 3]]),
        lambda: determinant([[1, 2]]),
    ],
    ids=["rhs-long", "rhs-short", "rhs-no-rows", "solve-ragged", "rank-ragged",
         "rank-ragged-short-first", "determinant-not-square"],
)
def test_shapes_that_do_not_match_are_refused(call):
    """A right-hand side whose length is not the row count, a ragged matrix
    and a matrix that is not square for ``determinant`` raise ValueError,
    not an IndexError or a result that ignores the extra entries."""
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "rows, rhs, cert",
    [
        ([[1], [1]], [1], [(0, Coeff(-1)), (1, Coeff(1))]),  # rhs one short
        ([[1], [1]], [1, 2, 3], [(0, Coeff(-1)), (1, Coeff(1))]),  # one past
        ([[1], [1, 2]], [1, 2], [(0, Coeff(-1)), (1, Coeff(1))]),  # ragged
        ([[1, 2], [1]], [1, 2], [(0, Coeff(-1)), (1, Coeff(1))]),  # short last
        ([[1], [1]], [1, 2], [(0, Coeff(-1)), (2, Coeff(1))]),  # row past them
        ([[1], [1]], [1, 2], [(-1, Coeff(-1)), (1, Coeff(1))]),  # negative row
        ([[1], [1]], [1], None),  # no certificate: the shape is still checked
    ],
    ids=["rhs-short", "rhs-long", "ragged", "ragged-short-last", "index-past",
         "index-negative", "no-certificate"],
)
def test_certificate_recheck_refuses_shapes_that_do_not_match(rows, rhs, cert):
    """check_certificate refuses, with ValueError as :func:`solve` does, a
    right-hand side whose length is not the row count, a ragged matrix and
    a certificate row outside the matrix; the same certificate on its own
    system still checks."""
    with pytest.raises(ValueError):
        check_certificate(rows, rhs, cert)
    res = solve([[1], [1]], [1, 2], certificate=True)
    assert res.certificate == [(0, Coeff(-1)), (1, Coeff(1))]
    assert check_certificate([[1], [1]], [1, 2], res.certificate)


# ---------------------------------------------------------------------------
# the certified solve


def assert_matches_reference(rows, rhs):
    """solve(..., certificate=True) gives the oracle's rank, feasibility and
    certificate, and the certificate checks."""
    rank, _, cert = oracles.solve_reference(
        [[oracles.pair_of_coeff(Coeff(c)) for c in row] for row in rows],
        [oracles.pair_of_coeff(Coeff(c)) for c in rhs],
    )
    res = solve(rows, rhs, certificate=True)
    assert res.rank == rank
    assert res.feasible == (cert is None)
    if cert is not None:
        assert [(j, oracles.pair_of_coeff(c)) for j, c in res.certificate] == cert
        assert check_certificate(rows, rhs, res.certificate)
    return res


def planted(rng, m, n, zero_rows, rank):
    """An m by n complex system: ``rank`` random rows, the others but
    ``zero_rows`` random combinations of them, ``zero_rows`` zero rows at
    random places, and a right-hand side nonzero on every row."""
    base = [[rand_coeff(rng) for _ in range(n)] for _ in range(rank)]
    rows = list(base)
    for _ in range(m - zero_rows - rank):
        cs = [rand_coeff(rng) for _ in range(rank)]
        rows.append(
            [sum((c * b[j] for c, b in zip(cs, base)), Coeff(0)) for j in range(n)]
        )
    rng.shuffle(rows)
    for _ in range(zero_rows):
        rows.insert(rng.randint(0, len(rows)), [Coeff(0)] * n)
    rhs = []
    for _ in range(m):
        c = rand_coeff(rng)
        rhs.append(c if c else Coeff(1, 1))
    return rows, rhs


def test_one_zero_row_of_corank_one_matches_the_reference():
    rng = random.Random(131)
    for _ in range(60):
        m = rng.randint(1, 8)
        n = rng.randint(m - 1, m + 3)
        rows, rhs = planted(rng, m, n, 1, m - 1)
        res = assert_matches_reference(rows, rhs)
        assert not res.feasible and res.rank == m - 1
        assert len(res.certificate) == 1


def test_two_zero_rows_or_corank_two_are_eliminated():
    rng = random.Random(137)
    for zero_rows, short in ((2, 0), (1, 1), (1, 2), (3, 1)):
        for _ in range(15):
            m = rng.randint(zero_rows + short, 8)
            n = rng.randint(1, 6)
            rank = min(m - zero_rows - short, n)
            rows, rhs = planted(rng, m, n, zero_rows, rank)
            res = assert_matches_reference(rows, rhs)
            assert not res.feasible and res.rank <= m - 2


def test_rows_equal_modulo_a_prime_keep_their_rank():
    # two rows that differ by p*e_1: independent over Q(i), equal modulo p
    p = 2147483629
    rng = random.Random(139)
    for _ in range(10):
        v = [rand_coeff(rng) for _ in range(3)]
        w = [v[0], v[1] + p, v[2]]
        rows = [v, [Coeff(0)] * 3, w]
        rhs = [rand_coeff(rng), Coeff(1), rand_coeff(rng)]
        res = assert_matches_reference(rows, rhs)
        assert res.rank == 2
        assert res.certificate == [(1, Coeff(1))]


def test_denominator_divisible_by_a_prime_is_solved_exactly():
    half = Coeff(Fraction(1, 2147483629), 2)
    rows = [[half, Coeff(1)], [Coeff(0), Coeff(0)], [Coeff(3), Coeff(1, 1)]]
    rhs = [Coeff(0), Coeff(2), Coeff(5)]
    res = assert_matches_reference(rows, rhs)
    assert res.rank == 2 and res.certificate == [(1, Coeff(1))]
