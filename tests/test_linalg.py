import itertools
import random
from math import prod

from sterngf.linalg import bareiss_solve_last, lagrange_interpolate


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


def test_lagrange_interpolate():
    # p(x) = 2 - x + 3x^2 through 3 points
    pts = [0, 1, -1]
    vals = [2, 4, 6]
    assert lagrange_interpolate(pts, vals) == [2, -1, 3]
