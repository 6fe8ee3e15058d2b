"""Certified root enclosures for integer polynomials.

Roots are first approximated by Durand-Kerner iteration in ordinary complex
floats, then certified with exact rational arithmetic: for a monic degree-n
polynomial p and pairwise distinct approximations z_i, every root of p lies
in the union of the disks D(z_i, n*|W_i|) with W_i = p(z_i)/prod(z_i - z_j),
and a connected component made of m disks contains exactly m roots (Smith's
disk theorem).  All radii and modulus bounds below are exact rationals, so a
certificate either holds or the answer degrades to "unknown" -- it is never
silently wrong because of rounding.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import polys

_SQRT_SCALE = 1 << 64

# Disk bounds and interval endpoints are rounded outward onto this dyadic grid;
# intervals (`Iv`) hold the integer numerators, so interval arithmetic is
# integer arithmetic.  Enclosures only widen, so certificates stay sound, and
# endpoint bit-sizes stay bounded instead of exploding under repeated products.
GRID_BITS = 96
GRID = 1 << GRID_BITS


def _grid_floor(x: Fraction) -> int:
    scaled = x * GRID
    return scaled.numerator // scaled.denominator


def round_down(x: Fraction) -> Fraction:
    return Fraction(_grid_floor(x), GRID)


def round_up(x: Fraction) -> Fraction:
    return Fraction(-_grid_floor(-x), GRID)


def sqrt_bounds(q: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds for sqrt(q), q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0), Fraction(0)
    # sqrt(a/b) = sqrt(a*b)/b; bracket sqrt(a*b) with scaled isqrt
    a, b = q.numerator, q.denominator
    s = isqrt(a * b * _SQRT_SCALE * _SQRT_SCALE)
    return round_down(Fraction(s, _SQRT_SCALE * b)), round_up(Fraction(s + 1, _SQRT_SCALE * b))


@dataclass(frozen=True)
class Iv:
    """Closed interval [lo/2^96, hi/2^96]: lo and hi are integer numerators
    on the dyadic grid.  Every operation rounds outward onto the grid, with
    floor/ceil shifts of exact integer products."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    def __add__(self, other: "Iv") -> "Iv":
        return Iv(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Iv") -> "Iv":
        return Iv(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Iv") -> "Iv":
        c = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return Iv(min(c) >> GRID_BITS, -(-max(c) >> GRID_BITS))

    def __neg__(self) -> "Iv":
        return Iv(-self.hi, -self.lo)

    def divided_by(self, other: "Iv") -> "Iv":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval denominator contains zero")
        lo, hi = self.lo << GRID_BITS, self.hi << GRID_BITS
        return Iv(min(lo // other.lo, lo // other.hi, hi // other.lo, hi // other.hi),
                  -min(-lo // other.lo, -lo // other.hi, -hi // other.lo, -hi // other.hi))

    def abs_hi(self) -> int:
        """Numerator of max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    @staticmethod
    def point(n: int) -> "Iv":
        return Iv(n << GRID_BITS, n << GRID_BITS)

    @staticmethod
    def enclose(lo: Fraction, hi: Fraction) -> "Iv":
        """The grid interval enclosing [lo, hi], rounded outward."""
        return Iv(_grid_floor(lo), -_grid_floor(-hi))


def iv_poly_eval(coeffs: list[int], x: Iv) -> Iv:
    """Interval Horner evaluation of an integer polynomial."""
    acc = Iv.point(0)
    for c in reversed(coeffs):
        acc = acc * x + Iv.point(c)
    return acc


def durand_kerner(coeffs: list[float], max_iter: int = 400) -> list[complex]:
    """Simultaneous root iteration for a monic polynomial given by ascending
    float coefficients (leading 1 implied at index len(coeffs))."""
    n = len(coeffs)
    if n == 0:
        return []
    radius = 1.0 + max(abs(c) for c in coeffs)
    z = [radius ** (1 / n) * cmath.exp(2j * cmath.pi * (k + 0.25) / n)
         for k in range(n)]
    full = coeffs + [1.0]
    for _ in range(max_iter):
        moved = 0.0
        for i in range(n):
            p = 0j
            for c in reversed(full):
                p = p * z[i] + c
            q = 1 + 0j
            for j in range(n):
                if j != i:
                    q *= z[i] - z[j]
            if q == 0:
                q = 1e-300
            step = p / q
            z[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14 * (1.0 + max(abs(w) for w in z)):
            break
    return z


@dataclass(frozen=True)
class RootDisk:
    """Certified inclusion disk: rational center, rational radius bound, and
    exact bounds on the modulus of anything inside it."""

    re: Fraction
    im: Fraction
    radius: Fraction
    mod_lo: Fraction  # lower bound for |z| over the disk (clamped at 0)
    mod_hi: Fraction  # upper bound for |z| over the disk


def certified_disks(int_coeffs: list[int]) -> list[RootDisk] | None:
    """Inclusion disks for all roots of a (nonconstant) integer polynomial.

    The polynomial need not be monic; it is divided by its leading
    coefficient conceptually (roots unchanged).  Returns None when the float
    approximations are degenerate (coincident points), which callers treat as
    an inconclusive certificate.
    """
    p = polys.normalize(int_coeffs)
    n = polys.degree(p)
    if n < 1:
        return []
    lead = p[-1]
    monic = [Fraction(c, lead) for c in p]
    try:
        floats = [float(c) for c in monic[:-1]]
    except OverflowError:
        return None
    approx = durand_kerner(floats)
    centers = [(Fraction(z.real), Fraction(z.imag)) for z in approx]
    # exact Weierstrass corrections on the rationalized centers
    disks = []
    for i, (xr, xi) in enumerate(centers):
        # p(z_i) in exact Gaussian rationals
        pr, pi = Fraction(0), Fraction(0)
        for c in reversed(monic):
            pr, pi = pr * xr - pi * xi + c, pr * xi + pi * xr
        num_hi = sqrt_bounds(pr * pr + pi * pi)[1]
        den_lo = Fraction(1)
        for j, (yr, yi) in enumerate(centers):
            if j == i:
                continue
            dr, di = xr - yr, xi - yi
            lo = sqrt_bounds(dr * dr + di * di)[0]
            if lo <= 0:
                return None
            den_lo *= lo
        radius = round_up(Fraction(n) * num_hi / den_lo)
        center_lo, center_hi = sqrt_bounds(xr * xr + xi * xi)
        disks.append(RootDisk(
            re=xr, im=xi, radius=radius,
            mod_lo=max(Fraction(0), round_down(center_lo - radius)),
            mod_hi=round_up(center_hi + radius),
        ))
    return disks


@dataclass(frozen=True)
class DominantRootCert:
    """Certificate that a monic integer polynomial has a unique, simple,
    real dominant root, with rational bounds on it."""

    rho: Iv  # encloses the dominant root, rounded outward


def dominant_root_certificate(monic_coeffs: list[int]) -> DominantRootCert | None:
    """Try to certify a unique simple real dominant root.

    Requirements checked exactly: the maximum-modulus disk is disjoint from
    every other disk (hence contains exactly one root), every other root has
    certified strictly smaller modulus, and the dominant enclosure is real
    (a non-real root in a modulus-isolated disk would force a conjugate of
    equal modulus elsewhere, contradicting the strict modulus gap).
    """
    p = polys.normalize(monic_coeffs)
    if not p or p[-1] != 1:
        raise ValueError("expected a monic integer polynomial")
    n = polys.degree(p)
    if n == 0:
        return None
    if n == 1:
        return DominantRootCert(Iv.point(-p[0]))
    disks = certified_disks(p)
    if disks is None:
        return None
    dom = max(range(n), key=lambda i: disks[i].mod_hi)
    d = disks[dom]
    others = [disks[i] for i in range(n) if i != dom]
    # strict modulus gap
    sigma = max(o.mod_hi for o in others)
    if not d.mod_lo > sigma:
        return None
    # disjointness from every other disk (=> exactly one root in d)
    for o in others:
        gap_sq = (d.re - o.re) ** 2 + (d.im - o.im) ** 2
        dist_lo = sqrt_bounds(gap_sq)[0]
        if not dist_lo > d.radius + o.radius:
            return None
    # the unique root in d has strictly maximal modulus; were it non-real its
    # conjugate would be another root of equal modulus -- impossible.  Its
    # real part lies in [re - radius, re + radius].
    if not d.re - d.radius > 0:
        return None
    return DominantRootCert(Iv.enclose(d.re - d.radius, d.re + d.radius))
