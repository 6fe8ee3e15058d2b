"""The former `cfinite.certify_eventually_positive` and `cannot_certify`,
kept as the reference for certificate outcomes and screen verdicts.

Each certificate evaluates its expression as one list per value column,
rebuilds its annihilator, looks its growth data up by (A, n0) and its
residue images by (A, n0, basis), and runs the tail bounds on `Iv`
intervals, a copy of the former interval class of `roots` that shares no
arithmetic with it: only the dominant-root enclosure comes from `roots`.
The certificate in `cfinite` must return the same (kind, witness), and its
screen the same verdict, on every expression, and `cfinite._growth_data`
the same numerators as `_growth_data` here.  Images and growth data are
memoized here per sequence, apart from any `SeqMemo`, so the reference
reads nothing that the certificate under test filled.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from sterngf import modular, polys, roots
from sterngf.cfinite import HORIZON, Positivity, SeqMemo, indicial_poly
from sterngf.roots import GRID, GRID_BITS


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

    def __add__(self, other):
        return Iv(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return Iv(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        c = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return Iv(min(c) >> GRID_BITS, -(-max(c) >> GRID_BITS))

    def divided_by(self, other):
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval denominator contains zero")
        lo, hi = self.lo << GRID_BITS, self.hi << GRID_BITS
        return Iv(min(lo // other.lo, lo // other.hi, hi // other.lo, hi // other.hi),
                  -min(-lo // other.lo, -lo // other.hi, -hi // other.lo, -hi // other.hi))

    def abs_hi(self):
        """Numerator of max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains_zero(self):
        return self.lo <= 0 <= self.hi

    @staticmethod
    def point(n):
        return Iv(n << GRID_BITS, n << GRID_BITS)


def iv_poly_eval(coeffs, x):
    """Interval Horner evaluation of an integer polynomial."""
    acc = Iv.point(0)
    for c in reversed(coeffs):
        acc = acc * x + Iv.point(c)
    return acc


@lru_cache(maxsize=64)
def _memo(seq) -> SeqMemo:
    return SeqMemo(seq)


def expr_values(expr, N):
    memo = _memo(expr.seq)
    form = [0] * (1 + max((off for _, off in expr.shifts), default=0))
    for c, off in expr.shifts:
        form[off] += c
    out = memo.form_values(tuple(form), 0, N + 1, expr.const)
    for c, form in expr.partials:
        out = [v + c * p for v, p in zip(out, memo.prefix_sums(form, N))]
    return out


def _verdict(vals, lo, hi, kind="positive_for_all"):
    for n in range(lo, hi + 1):
        if vals[n] <= 0:
            return Positivity("not_always_positive", n)
    return Positivity(kind)


def _annihilator(expr):
    A = indicial_poly(expr.seq)
    if expr.partials or expr.const:
        A = [a - b for a, b in zip([0] + A, A + [0])]
    return A, 2 * expr.seq.order + max((off for _, off in expr.shifts), default=0) + 2


@lru_cache(maxsize=4096)
def _image(seq, A, n0, basis, p):
    memo = _memo(seq)
    k = len(A) - 1
    if basis is None:
        u = [1] * k
    elif isinstance(basis, int):
        u = memo.values(n0 + basis + k)[n0 + basis:n0 + basis + k]
    else:
        u = memo.prefix_sums(basis, n0 + k)[n0:n0 + k]
    return [sum(A[k - i] * u[j - i] for i in range(j + 1)) % p for j in range(k)]


def _proves_minimal(expr, A, n0):
    p = next((q for q in modular.PRIMES if A[0] % q), None)
    if p is None:
        return False
    parts = [(c, basis) for c, basis in (*expr.shifts, *expr.partials, (expr.const, None)) if c]
    images = [_image(expr.seq, tuple(A), n0, basis, p) for _, basis in parts]
    N = [sum(map(mul, [c for c, _ in parts], col)) for col in zip(*images)]
    return modular.gcd_degree(N, A[::-1], p) == 0


def _minimal_annihilator(vals, A, n0):
    k = polys.degree(A)
    R = A[::-1]
    u = vals[n0:n0 + k]
    N = [sum(R[i] * u[j - i] for i in range(j + 1)) for j in range(k)]
    g = polys.poly_gcd(N, R)
    if polys.degree(g) < 1:
        return A
    q = polys.exact_quotient(R, g)
    if q[0] < 0:
        q = polys.neg(q)
    return q[::-1]


def cannot_certify(expr) -> bool:
    A, n0 = _annihilator(expr)
    return (len(A) > 2 and _growth_data(expr.seq, tuple(A), n0) is None
            and _proves_minimal(expr, A, n0))


def certify_eventually_positive(expr, horizon=HORIZON) -> Positivity:
    A, n0 = _annihilator(expr)
    vals = expr_values(expr, max(horizon, n0 + 2 * polys.degree(A) + 2))
    head = _verdict(vals, 0, horizon)
    if not head.is_positive:
        return head
    if not _proves_minimal(expr, A, n0):
        A = _minimal_annihilator(vals, A, n0)
    k = polys.degree(A)

    if all(vals[n + 1] == vals[n] for n in range(n0 + k + 1, n0 + 2 * k + 2)):
        return _verdict(vals, horizon + 1, n0 + k + 1)

    if k == 1:
        grows = vals[n0] > 0 and -A[0] >= 1
        return _verdict(vals, horizon + 1, n0, "positive_for_all" if grows else "unknown")

    gd = _growth_data(expr.seq, tuple(A), n0)
    if gd is None:
        return Positivity("unknown")
    rho, b, (num, den), rho_pow, dA_rho_pow, rho_lo_pow = gd

    w0 = Iv.point(0)
    for j in range(k):
        w0 = w0 + b[j] * Iv.point(vals[n0 + j])
    c = w0.divided_by(dA_rho_pow)
    if not c.lo > 0:
        return Positivity("unknown")

    M = 0
    tpow = GRID
    c_rho_pow = c * rho_pow
    rpow = Iv.point(1)
    for j in range(max(k - 1, 1)):
        eps = Iv.point(vals[n0 + j]) - c_rho_pow * rpow
        M = max(M, -(-(eps.abs_hi() << GRID_BITS) // tpow))
        tpow = tpow * num // den
        rpow = rpow * rho

    rho_lo = rho.lo
    lo_side = c.lo * rho_lo_pow >> GRID_BITS
    hi_side = M
    n_star = n0
    while lo_side <= hi_side:
        lo_side = lo_side * rho_lo >> GRID_BITS
        hi_side = -(-hi_side * num // den)
        n_star += 1
        if n_star > n0 + 20000:
            return Positivity("unknown")
    if n_star >= len(vals):
        vals = expr_values(expr, n_star)
    return _verdict(vals, horizon + 1, n_star)


@lru_cache(maxsize=256)
def _growth_data(seq, A, n0):
    rho = roots.dominant_root_certificate(list(A))
    rho = None if rho is None else Iv(*rho)
    k = len(A) - 1
    if rho is None or not rho.lo > GRID:
        return None
    b = [Iv.point(0)] * k
    b[k - 1] = Iv.point(A[k])
    for j in range(k - 1, 0, -1):
        b[j - 1] = Iv.point(A[j]) + rho * b[j]
    dA = iv_poly_eval(polys.deriv(list(A)), rho)
    b_hi = [bj.abs_hi() for bj in b[: k - 1]]
    den = 16 * GRID
    tau = None
    for i in range(1, 16):
        t = rho.lo * i
        if GRID * t ** (k - 1) >= sum(bh * t ** j * den ** (k - 1 - j)
                                      for j, bh in enumerate(b_hi)):
            tau = (t, den)
            break
    if tau is None or dA.contains_zero():
        return None
    rho_pow = Iv.point(1)
    for _ in range(n0):
        rho_pow = rho_pow * rho
    return (rho, tuple(b), tau, rho_pow, dA * rho_pow,
            rho.lo ** n0 >> (GRID_BITS * (n0 - 1)))
