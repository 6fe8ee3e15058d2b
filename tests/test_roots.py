import random

from fractions import Fraction
from math import isqrt

import pytest

from sterngf import polys
from sterngf.roots import (GRID, GRID_BITS, certified_disks, dominant_root_certificate,
                           grid_div, grid_mul, grid_sqrt)


def bounds(x: tuple[int, int]) -> tuple[Fraction, Fraction]:
    """The endpoints as rationals (an interval holds their numerators over
    GRID)."""
    return Fraction(x[0], GRID), Fraction(x[1], GRID)


def test_grid_sqrt_is_tight():
    """lo and hi are the floor and ceiling of GRID * sqrt(n) / d: lo/GRID <=
    sqrt(n)/d <= hi/GRID, one grid step apart unless sqrt(n)/d lies on the
    grid, where both equal it."""
    rng = random.Random(4)
    cases = [(0, 1), (0, 7), (1, 1), (4, 1), (9, 4), (49, 7), (2, 1), (3, 2 ** 60)]
    cases += [(rng.randint(0, 10 ** rng.randint(1, 40)), rng.randint(1, 2 ** rng.randint(0, 90)))
              for _ in range(300)]
    cases += [(k * k, rng.randint(1, 50)) for k in (rng.randint(0, 10 ** 30) for _ in range(50))]
    for n, d in cases:
        lo, hi = grid_sqrt(n, d)
        # lo <= GRID sqrt(n)/d  <=>  (lo d)^2 <= GRID^2 n, and so on
        assert (lo * d) ** 2 <= GRID ** 2 * n < ((lo + 1) * d) ** 2
        assert hi == 0 or ((hi - 1) * d) ** 2 < GRID ** 2 * n
        assert GRID ** 2 * n <= (hi * d) ** 2
        on_grid = isqrt(GRID ** 2 * n) ** 2 == GRID ** 2 * n and isqrt(GRID ** 2 * n) % d == 0
        assert hi - lo == (0 if on_grid else 1)
    assert grid_sqrt(0) == (0, 0)
    assert grid_sqrt(16, 2) == (2 * GRID, 2 * GRID)


def test_interval_arithmetic_encloses():
    """Intervals are pairs of integer numerators on the 2^-96 grid.  The
    product and the quotient enclose the exact results at the endpoints and
    at interior points, and round outward by at most one grid step; products
    and quotients of random numerators leave the grid, so the rounding is
    exercised.  A divisor that contains 0 raises."""
    rng = random.Random(6)
    step = Fraction(1, GRID)

    def numerator():
        return rng.randint(-50 * GRID, 50 * GRID) // rng.randint(1, 9)

    def draw():
        x = tuple(sorted((numerator(), numerator())))
        lo, hi = bounds(x)
        return x, (lo, hi, lo + (hi - lo) * Fraction(rng.randint(0, 7), 7))

    divisions = 0
    for _ in range(200):
        (x, xs), (y, ys) = draw(), draw()
        ops = [(grid_mul(*x, *y), lambda u, v: u * v)]
        if y[0] <= 0 <= y[1]:
            with pytest.raises(ZeroDivisionError):
                grid_div(*x, *y)
        else:
            ops.append((grid_div(*x, *y), lambda u, v: u / v))
            divisions += 1
        for z, op in ops:
            lo, hi = bounds(z)
            exact = [op(u, v) for u in xs for v in ys]
            assert lo <= min(exact) and max(exact) <= hi
            assert min(exact) - lo < step and hi - max(exact) < step
    assert 50 < divisions < 150
    with pytest.raises(ZeroDivisionError):
        grid_div(GRID, GRID, 0, 0)


def test_disks_contain_known_integer_roots():
    rng = random.Random(8)
    for _ in range(25):
        roots_true = rng.sample(range(-6, 7), rng.randint(2, 4))
        p = [1]
        for r in roots_true:
            p = polys.mul(p, [-r, 1])
        disks = certified_disks(p)
        assert disks is not None
        for r in roots_true:
            assert any((r - Fraction(d.re)) ** 2 + Fraction(d.im) ** 2
                       <= Fraction(d.radius, GRID) ** 2 for d in disks), (roots_true, r)
        # grid modulus bounds: mod_lo <= |centre| - radius (unless clamped
        # at 0) and |centre| + radius <= mod_hi
        for d in disks:
            mod_sq = Fraction(d.re) ** 2 + Fraction(d.im) ** 2
            if d.mod_lo:
                assert Fraction(d.mod_lo + d.radius, GRID) ** 2 <= mod_sq
            assert mod_sq <= Fraction(d.mod_hi - d.radius, GRID) ** 2


def test_dominant_certificate_golden_ratio():
    rho = dominant_root_certificate([-1, -1, 1])  # X^2 - X - 1
    assert rho is not None
    lo, hi = bounds(rho)
    assert Fraction(1618, 1000) < lo <= hi < Fraction(1619, 1000)


def test_dominant_certificate_rejects_tied_moduli():
    # X^2 - 4: roots +-2, equal modulus: no strict dominant
    assert dominant_root_certificate([-4, 0, 1]) is None


def test_dominant_certificate_degree_one():
    rho = dominant_root_certificate([-3, 1])
    assert rho == (3 << GRID_BITS, 3 << GRID_BITS)
    assert bounds(rho) == (3, 3)
