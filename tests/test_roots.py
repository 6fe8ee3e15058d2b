import random

from fractions import Fraction

import pytest

from sterngf import polys
from sterngf.roots import GRID, Iv, certified_disks, dominant_root_certificate, sqrt_bounds


def bounds(x: Iv) -> tuple[Fraction, Fraction]:
    """The endpoints as rationals (Iv holds their numerators over GRID)."""
    return Fraction(x.lo, GRID), Fraction(x.hi, GRID)


def test_sqrt_bounds_bracket():
    rng = random.Random(4)
    for _ in range(50):
        q = Fraction(rng.randint(0, 1000), rng.randint(1, 50))
        lo, hi = sqrt_bounds(q)
        assert lo * lo <= q <= hi * hi
        assert hi - lo < Fraction(1, 10 ** 12)


def test_interval_arithmetic_encloses():
    """Intervals hold integer numerators on the 2^-96 grid.  Every operation
    encloses the exact results at the endpoints and at interior points, and
    rounds outward by at most one grid step; the random rationals are off the
    grid, so the rounding is exercised."""
    rng = random.Random(6)
    step = Fraction(1, GRID)

    def rational():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 9))

    def draw():
        a, b = sorted((rational(), rational()))
        x = Iv.enclose(a, b)
        lo, hi = bounds(x)
        assert lo <= a and b <= hi and a - lo < step and hi - b < step
        return x, (lo, hi, lo + (hi - lo) * Fraction(rng.randint(0, 7), 7))

    for _ in range(200):
        (x, xs), (y, ys) = draw(), draw()
        ops = [(x + y, lambda u, v: u + v), (x - y, lambda u, v: u - v),
               (x * y, lambda u, v: u * v)]
        if y.contains_zero():
            with pytest.raises(ZeroDivisionError):
                x.divided_by(y)
        else:
            ops.append((x.divided_by(y), lambda u, v: u / v))
        for z, op in ops:
            lo, hi = bounds(z)
            exact = [op(u, v) for u in xs for v in ys]
            assert lo <= min(exact) and max(exact) <= hi
            assert min(exact) - lo < step and hi - max(exact) < step
        assert bounds(-x) == (-xs[1], -xs[0])
        assert Fraction(x.abs_hi(), GRID) == max(abs(u) for u in xs)
        assert x.contains_zero() == (xs[0] <= 0 <= xs[1])


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
            assert any((Fraction(r) - d.re) ** 2 + d.im ** 2 <= d.radius ** 2
                       for d in disks), (roots_true, r)


def test_dominant_certificate_golden_ratio():
    cert = dominant_root_certificate([-1, -1, 1])  # X^2 - X - 1
    assert cert is not None
    lo, hi = bounds(cert.rho)
    assert Fraction(1618, 1000) < lo <= hi < Fraction(1619, 1000)


def test_dominant_certificate_rejects_tied_moduli():
    # X^2 - 4: roots +-2, equal modulus: no strict dominant
    assert dominant_root_certificate([-4, 0, 1]) is None


def test_dominant_certificate_degree_one():
    cert = dominant_root_certificate([-3, 1])
    assert cert.rho == Iv.point(3)
    assert bounds(cert.rho) == (3, 3)
