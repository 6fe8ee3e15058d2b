# Exact linear algebra helpers: fraction-free Bareiss elimination over the
# integers and Lagrange interpolation.  Sizes here are moderate
# (transfer-matrix solves), so simplicity and exactness win over asymptotics.

from __future__ import annotations

from fractions import Fraction


def bareiss_solve_last(M: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination of an n x (n+1) augmented integer system.

    Returns (det A, det A_last) where A is the left n x n block and A_last is
    A with its *last* column replaced by the augmented column, so that the
    last unknown is det A_last / det A.  Only row pivoting is used; all
    divisions are exact (Bareiss).
    """
    A = [list(row) for row in M]
    n = len(A)
    sign = 1
    prev = 1
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


def lagrange_interpolate(points: list[int], values: list) -> list:
    """Coefficients (ascending, Fractions) of the unique polynomial of degree
    < len(points) through the given (point, value) pairs."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(zip(points, values)):
        # basis polynomial prod_{j != i} (x - xj) / (xi - xj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            basis = [Fraction(0)] + basis[:]
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
            denom *= xi - xj
        w = Fraction(yi) / denom
        for k in range(len(basis)):
            coeffs[k] += w * basis[k]
    return coeffs
