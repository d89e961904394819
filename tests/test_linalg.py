import random
from fractions import Fraction

from cuspfol import Coeff
from cuspfol.linalg import determinant, matrix_rank, solve

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
    assert res.check_certificate([[Coeff(1), Coeff(1)], [Coeff(2), Coeff(2)]], [Coeff(1), Coeff(3)])


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
            assert res.check_certificate(rows, rhs)
    assert hits > 0


def test_rank_transpose_invariant():
    rng = random.Random(109)
    for _ in range(10):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rand_coeff(rng) for _ in range(n)] for _ in range(m)]
        cols = [[rows[i][j] for i in range(m)] for j in range(n)]
        assert matrix_rank(rows) == matrix_rank(cols)


def test_determinant_vs_cofactor_oracle():
    rng = random.Random(113)
    for _ in range(10):
        n = rng.randint(1, 4)
        rows = [[rand_coeff(rng) for _ in range(n)] for _ in range(n)]
        want = oracles.det_cofactor(
            [[oracles.pair_of_coeff(c) for c in row] for row in rows]
        )
        got = determinant(rows)
        assert (got.re, got.im) == want


def test_determinant_singular():
    assert determinant([[1, 2], [2, 4]]).is_zero()
