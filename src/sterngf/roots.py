"""Certified root enclosures for integer polynomials.

Roots are first approximated by Durand-Kerner iteration in ordinary complex
floats, then certified in exact integer arithmetic: for a monic degree-n
polynomial p and pairwise distinct approximations z_i, every root of p lies
in the union of the disks D(z_i, n*|W_i|) with W_i = p(z_i)/prod(z_i - z_j),
and a connected component made of m disks contains exactly m roots (Smith's
disk theorem).  The centres are the float approximations themselves, which
are dyadic rationals: over one common power of two they are Gaussian
integers, so p(z_i) and every centre difference are exact.  Radii and
modulus bounds are rounded outward onto the integer grid of `Iv`, so a
certificate either holds or the answer degrades to "unknown" -- it is never
silently wrong because of rounding.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import isqrt

from . import polys

# Disk bounds and interval endpoints are rounded outward onto this dyadic grid;
# intervals (`Iv`) hold the integer numerators, so interval arithmetic is
# integer arithmetic.  Enclosures only widen, so certificates stay sound, and
# endpoint bit-sizes stay bounded instead of exploding under repeated products.
GRID_BITS = 96
GRID = 1 << GRID_BITS


def grid_sqrt(n: int, d: int = 1) -> tuple[int, int]:
    """Floor and ceiling of GRID * sqrt(n) / d, for integers n >= 0 and
    d >= 1: the tightest grid bounds on sqrt(n) / d."""
    m = n << 2 * GRID_BITS
    s = isqrt(m)
    return s // d, -(-(s + (s * s != m)) // d)


def _over_common_power_of_two(xs: list[float]) -> tuple[list[int], int]:
    """Integer numerators of the floats xs over their least common
    denominator, a power of two, and that denominator."""
    ratios = [x.as_integer_ratio() for x in xs]
    D = max(d for _, d in ratios)
    return [a * (D // d) for a, d in ratios], D


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


def iv_poly_eval(coeffs: list[int], x: Iv) -> Iv:
    """Interval Horner evaluation of an integer polynomial."""
    acc = Iv.point(0)
    for c in reversed(coeffs):
        acc = acc * x + Iv.point(c)
    return acc


DK_ITERATIONS = 400  # Durand-Kerner sweeps at most, unless the steps settle first


def durand_kerner(coeffs: list[float]) -> list[complex]:
    """Simultaneous root iteration for a monic polynomial given by ascending
    float coefficients (leading 1 implied at index len(coeffs))."""
    n = len(coeffs)
    if n == 0:
        return []
    radius = 1.0 + max(abs(c) for c in coeffs)
    z = [radius ** (1 / n) * cmath.exp(2j * cmath.pi * (k + 0.25) / n)
         for k in range(n)]
    full = coeffs + [1.0]
    for _ in range(DK_ITERATIONS):
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
    """Certified inclusion disk: its centre is the (dyadic, so exact) float
    approximation; radius and modulus bounds are grid numerators."""

    re: float
    im: float
    radius: int
    mod_lo: int  # lower bound for GRID * |z| over the disk (clamped at 0)
    mod_hi: int  # upper bound for GRID * |z| over the disk

    def re_grid(self) -> tuple[int, int]:
        """Floor and ceiling of GRID * re.  For an integer k, re > k / GRID
        exactly when the ceiling exceeds k."""
        x, d = self.re.as_integer_ratio()
        x <<= GRID_BITS
        return x // d, -(-x // d)


def centre_gap(a: RootDisk, b: RootDisk) -> int:
    """Grid floor of the distance between two disk centres."""
    (ar, br, ai, bi), D = _over_common_power_of_two([a.re, b.re, a.im, b.im])
    return grid_sqrt((ar - br) ** 2 + (ai - bi) ** 2, D)[0]


def certified_disks(int_coeffs: list[int]) -> list[RootDisk] | None:
    """Inclusion disks for all roots of a (nonconstant) integer polynomial.

    The polynomial need not be monic; it is divided by its leading
    coefficient conceptually (roots unchanged).  Returns None when the float
    approximations are degenerate (coincident points), which callers treat as
    an inconclusive certificate.

    With the centres z = (X + iY) / D over one power of two D, D^n p(z) is
    the Gaussian integer sum p_k (X + iY)^k D^(n-k), so |W_i| = n |p(z_i)| /
    (|lead| prod |z_i - z_j|) takes one grid square root above and one below
    per factor, and the radius is one ceiling division.
    """
    p = polys.normalize(int_coeffs)
    n = polys.degree(p)
    if n < 1:
        return []
    lead = p[-1]
    try:
        floats = [c / lead for c in p[:-1]]
    except OverflowError:
        return None
    centres = durand_kerner(floats)
    nums, D = _over_common_power_of_two([x for z in centres for x in (z.real, z.imag)])
    points = list(zip(nums[::2], nums[1::2]))
    scaled = [c * D ** k for k, c in enumerate(reversed(p))]  # p_n, p_(n-1) D, ...
    norm = D ** n * abs(lead)  # |p(z) / lead| = |pr + i pi| / norm
    disks = []
    for i, (X, Y) in enumerate(points):
        pr = pi = 0
        for c in scaled:
            pr, pi = pr * X - pi * Y + c, pr * Y + pi * X
        h = grid_sqrt(pr * pr + pi * pi, norm)[1]
        den_lo = 1
        for j, (U, V) in enumerate(points):
            if j == i:
                continue
            lo = grid_sqrt((X - U) ** 2 + (Y - V) ** 2, D)[0]
            if lo <= 0:
                return None
            den_lo *= lo
        radius = -(-n * h * GRID ** (n - 1) // den_lo)
        centre_lo, centre_hi = grid_sqrt(X * X + Y * Y, D)
        disks.append(RootDisk(
            re=centres[i].real, im=centres[i].imag, radius=radius,
            mod_lo=max(0, centre_lo - radius),
            mod_hi=centre_hi + radius,
        ))
    return disks


@dataclass(frozen=True)
class DominantRootCert:
    """Certificate that a monic integer polynomial has a unique, simple,
    real dominant root, with grid bounds on it."""

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
        if not centre_gap(d, o) > d.radius + o.radius:
            return None
    # the unique root in d has strictly maximal modulus; were it non-real its
    # conjugate would be another root of equal modulus -- impossible.  Its
    # real part lies in [re - radius, re + radius].
    re_lo, re_hi = d.re_grid()
    if not re_hi - d.radius > 0:  # re - radius > 0
        return None
    return DominantRootCert(Iv(re_lo - d.radius, re_hi + d.radius))
