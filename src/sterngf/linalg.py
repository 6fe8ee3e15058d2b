# Exact linear algebra helpers over the integers: Berkowitz's division-free
# determinant of I - tM, and the fraction-free Bareiss elimination and Newton
# interpolation it is tested against.  Sizes here are moderate
# (transfer-matrix solves), so simplicity and exactness win over asymptotics.

from __future__ import annotations

from operator import mul


def det_one_minus_tM(rows: list[list[tuple[int, int]]]) -> list[int]:
    """Ascending coefficients of det(I - tM), M the sparse integer matrix
    whose row r is [(col, coeff), ...]: the characteristic polynomial of M
    reversed, by Berkowitz's division-free recursion (IPL 18, 1984).

    Write the trailing block M[k:, k:] of size s as [[a, R], [C, A]].  Its
    characteristic polynomial is T times that of A, T the (s+1) x s
    lower-triangular Toeplitz matrix with first column 1, -a, -RC, -RAC,
    ..., -RA^(s-2)C: per block, s-2 sparse mat-vecs and one truncated product.
    """
    n = len(rows)
    p = [1]
    for k in range(n - 1, -1, -1):
        block, vec = [], []  # row k gives a and R, the rows below A and C
        for row in rows[k:]:
            kept = [(c - k - 1, x) for c, x in row if c > k]  # block-local columns
            block.append(([c for c, _ in kept], [x for _, x in kept]))
            vec.append(sum(x for c, x in row if c == k))
        (r_cols, r_coeffs), a = block.pop(0), vec.pop(0)
        col = [1, -a]
        for j in range(n - k - 1):
            if j:
                vec = [sum(map(mul, xs, map(vec.__getitem__, cs))) for cs, xs in block]
            col.append(-sum(map(mul, r_coeffs, map(vec.__getitem__, r_cols))))
        p = [sum(map(mul, p, col[i::-1])) for i in range(len(col))]
    return p


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
        pivot = A[k][k]
        tail = A[k][k + 1:]
        for row in A[k + 1:]:
            ark = row[k]
            row[k + 1:] = [(x * pivot - ark * y) // prev
                           for x, y in zip(row[k + 1:], tail)]
            row[k] = 0
        prev = pivot
    return sign * A[n - 1][n - 1], sign * A[n - 1][n]


def lagrange_interpolate(points: list[int], values: list[int]) -> list[int]:
    """Integer coefficients (ascending) of the unique polynomial of degree
    < len(points) through the given (point, value) pairs, by Newton's
    divided differences.

    For an integer polynomial at integer points every divided difference is
    an integer (for t^m it is the complete homogeneous polynomial h_{m-k} of
    the points), so each division is exact; one that leaves a remainder
    raises ValueError, as the interpolant then has non-integer coefficients.
    """
    c = list(values)
    n = len(c)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            q, r = divmod(c[i] - c[i - 1], points[i] - points[i - k])
            if r:
                raise ValueError("interpolant has non-integer coefficients")
            c[i] = q
    # Horner on the Newton form: c[n-1], then (.)(t - points[k]) + c[k]
    coeffs = [0] * n
    for k in range(n - 1, -1, -1):
        xk = points[k]
        for j in range(n - 1, 0, -1):
            coeffs[j] = coeffs[j - 1] - xk * coeffs[j]
        coeffs[0] = c[k] - xk * coeffs[0]
    return coeffs
