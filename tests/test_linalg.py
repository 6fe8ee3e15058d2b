import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from sterngf.linalg import bareiss_solve_last, det_one_minus_tM, lagrange_interpolate


def leibniz_det(A):
    """Determinant as the signed sum over permutations, independent of any
    elimination."""
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(A[i][perm[i]] for i in range(n))
    return total


def test_bareiss_matches_cramer():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        v = [rng.randint(-5, 5) for _ in range(n)]
        aug = [row + [rhs] for row, rhs in zip(A, v)]
        detA, detB = bareiss_solve_last(aug)
        assert detA == leibniz_det(A)
        if detA != 0:  # on singular input Bareiss stops early with (0, 0)
            B = [row[:-1] + [rhs] for row, rhs in zip(A, v)]
            assert detB == leibniz_det(B)


def bareiss_entrywise(M):
    """The Bareiss loop written entry by entry, as a reference for the
    row-at-a-time update."""
    A = [list(row) for row in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if A[r][k] != 0), None)
        if piv is None:
            return 0, 0
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n + 1):
                A[r][c] = (A[r][c] * A[k][k] - A[r][k] * A[k][c]) // prev
            A[r][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1], sign * A[n - 1][n]


def test_bareiss_row_update_matches_entrywise_loop():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 8)
        M = [[rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10 ** 30, 10 ** 30)))
              for _ in range(n + 1)] for _ in range(n)]
        before = [list(row) for row in M]
        assert bareiss_solve_last(M) == bareiss_entrywise(M)
        assert M == before


def test_lagrange_interpolate():
    # p(x) = 2 - x + 3x^2 through 3 points
    pts = [0, 1, -1]
    vals = [2, 4, 6]
    assert lagrange_interpolate(pts, vals) == [2, -1, 3]


def fraction_lagrange(points, values):
    """The rational Lagrange formula, as a reference."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis, denom = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(points):
            if j != i:
                basis = [Fraction(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= xj * basis[k + 1]
                denom *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += Fraction(yi) / denom * b
    return coeffs


def test_newton_interpolation_matches_lagrange_on_integer_polynomials():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 12)
        poly = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(n)]
        points = [(k + 1) // 2 * (-1) ** (k + 1) for k in range(n)]  # 0, 1, -1, 2, ...
        rng.shuffle(points)
        values = [sum(c * x ** i for i, c in enumerate(poly)) for x in points]
        got = lagrange_interpolate(points, values)
        assert got == poly == fraction_lagrange(points, values)
        assert all(type(c) is int for c in got)


def test_newton_interpolation_rejects_non_integer_interpolant():
    with pytest.raises(ValueError):
        lagrange_interpolate([0, 2], [0, 1])  # t / 2


def cramer_det_one_minus_tM(rows):
    """det(I - tM) by the Cramer route: Bareiss determinants of I - tM at
    t = 0..n, interpolated."""
    n = len(rows)
    dense = [[0] * n for _ in range(n)]
    for r, row in enumerate(rows):
        for c, x in row:
            dense[r][c] += x
    points = list(range(n + 1))
    values = [bareiss_solve_last([[(r == c) - t * dense[r][c] for c in range(n)] + [0]
                                  for r in range(n)])[0] for t in points]
    return lagrange_interpolate(points, values)


def random_sparse_rows(rng, n):
    """Sparse rows [(col, coeff), ...]: some rows empty, some diagonals
    zero, entries mostly small with an occasional big one."""
    density = rng.choice((0.2, 0.5, 0.9))
    rows = []
    for r in range(n):
        if rng.random() < 0.15:
            rows.append([])
            continue
        cols = [c for c in range(n) if rng.random() < density]
        if rng.random() < 0.3:
            cols = [c for c in cols if c != r]
        rows.append([(c, rng.choice((-2, -1, 1, 2, 3, rng.randint(1, 10 ** 20))))
                     for c in cols])
    return rows


def test_berkowitz_matches_cramer_route():
    rng = random.Random(14)
    for _ in range(300):
        rows = random_sparse_rows(rng, rng.randint(1, 9))
        assert det_one_minus_tM(rows) == cramer_det_one_minus_tM(rows), rows


def test_berkowitz_small_cases():
    assert det_one_minus_tM([[(0, 5)]]) == [1, -5]
    assert det_one_minus_tM([[]]) == [1, 0]
    # [[a, b], [c, d]]: 1 - (a + d) t + (ad - bc) t^2
    assert det_one_minus_tM([[(0, 2), (1, 3)], [(0, 5), (1, 7)]]) == [1, -9, -1]
    # zero diagonal: the trace term vanishes, the t^2 term is -bc
    assert det_one_minus_tM([[(1, 3)], [(0, 5)]]) == [1, 0, -15]


def test_berkowitz_nilpotent_matrix_has_unit_determinant():
    rng = random.Random(15)
    for n in range(1, 10):
        perm = list(range(n))
        rng.shuffle(perm)
        # strictly upper triangular, conjugated by a permutation
        rows = [[] for _ in range(n)]
        for r in range(n):
            rows[perm[r]] = [(perm[c], rng.randint(-9, 9) or 1)
                             for c in range(r + 1, n) if rng.random() < 0.6]
        assert det_one_minus_tM(rows) == [1] + [0] * n
