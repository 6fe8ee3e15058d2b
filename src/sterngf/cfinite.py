"""Integer sequences defined by linear recurrences with constant coefficients.

A sequence of order L is the pair (initial values g_0..g_{L-1}, recurrence
coefficients c_1..c_L) with

    f(i) = c_1 f(i-1) + c_2 f(i-2) + ... + c_L f(i-L),   c_L != 0.

Alongside term evaluation this module provides the shift algebra used by the
state machinery (rewriting f(n+J) over the basis f(n..n+L-1), translating
linear forms one level down), the indicial polynomial, classification of the
dominant indicial root (PV or not), and a sound-but-incomplete certificate of
eventual positivity for integer combinations of shifted terms and partial
sums.  "Unknown" is always an acceptable answer for the certificate; callers
must treat it conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from math import gcd
from operator import add, mul, sub

from . import modular, polys, roots
from .roots import GRID, GRID_BITS, grid_div, grid_mul

HORIZON = 64  # levels a certificate checks exactly before its tail bound


@dataclass(frozen=True)
class CFiniteSeq:
    """Order-L integer linear recurrence with initial values."""

    init: tuple[int, ...]
    rec: tuple[int, ...]

    def __post_init__(self):
        if len(self.init) != len(self.rec) or not self.rec:
            raise ValueError("need len(init) == len(rec) >= 1")
        if self.rec[-1] == 0:
            raise ValueError("trailing recurrence coefficient must be nonzero")
        object.__setattr__(self, "init", tuple(int(x) for x in self.init))
        object.__setattr__(self, "rec", tuple(int(x) for x in self.rec))

    @property
    def order(self) -> int:
        return len(self.rec)


class SeqMemo:
    """Memo of one sequence: its terms, prefix sums of linear forms over
    them, dominant-root and growth certificates per annihilator, and the
    annihilator frames that certificates share (`frame`).  Every entry is a
    pure function of the sequence and its key, so what a caller reads never
    depends on which caller filled it first."""

    def __init__(self, seq: CFiniteSeq):
        self.seq = seq
        self.vals: list[int] = list(seq.init)
        self.prefix: dict[tuple[int, ...], list[int]] = {}
        self.certs: dict[tuple[int, ...], tuple[int, int] | None] = {}
        self.growth: dict[tuple[tuple[int, ...], int], tuple | None] = {}
        self.frames: dict[tuple[int, int], list] = {}  # (len(A), n0) -> frame

    def values(self, n: int) -> list[int]:
        """The value list, grown to cover index n; callers may index it but
        must not mutate it."""
        vals = self.vals
        if len(vals) <= n:
            L = self.seq.order
            rec = self.seq.rec
            while len(vals) <= n:
                vals.append(sum(c * v for c, v in zip(rec, reversed(vals[-L:]))))
        return vals

    def form_values(self, form: tuple[int, ...], start: int, stop: int,
                    const: int = 0) -> list[int]:
        """const + <form, f(i..i+len(form)-1)> for i = start..stop-1: the one
        evaluator of a linear form over consecutive terms."""
        fs = self.values(stop + len(form) - 2)
        out = [const] * (stop - start)
        for j, c in enumerate(form):
            if c:
                out = [o + c * f for o, f in zip(out, fs[start + j:stop + j])]
        return out

    def prefix_sums(self, form: tuple[int, ...], n: int) -> list[int]:
        """S(m) = sum_{i<m} <form, f(i..i+L-1)> as a list grown to cover
        index n; callers may index it but must not mutate it."""
        pre = self.prefix.setdefault(form, [0])
        if len(pre) <= n:
            for val in self.form_values(form, len(pre) - 1, n):
                pre.append(pre[-1] + val)
        return pre

    def frame(self, expr: PosExpr) -> list:
        """[A, n0, p, R, residues], shared by every expression with expr's
        largest shift offset and constant-or-partial presence, built on first
        use under the key (len(A), n0): (A, n0) = _annihilator(expr), the
        first prime p not dividing A(0) (or None), R = A reversed split mod p
        (`_split_reversed`) and `residues` by basis element."""
        L = self.seq.order
        key = (L + 1 + bool(expr.partials or expr.const),
               2 * L + 2 + max((off for _, off in expr.shifts), default=0))
        fr = self.frames.get(key)
        if fr is None:
            A, n0 = _annihilator(expr)
            p = next((q for q in modular.PRIMES if A[0] % q), None)
            R = _split_reversed(A, p) if p else None
            fr = self.frames[key] = [A, n0, p, R, {}]
        return fr

    def residues(self, fr: list, basis) -> list[int]:
        """The residue data of one basis element b in frame fr, kept there:
        the image R * u mod t^k mod p of u = b(n0..n0+k-1), with b f(n + basis)
        for an int, the partial sum S_basis(n) for a form and 1 for None, as
        its values at R's known roots, then itself if R's rest is not 1."""
        A, n0, p, (xs, Q), kept = fr
        k = len(A) - 1
        if basis is None:
            u = [1] * k
        elif isinstance(basis, int):
            u = self.values(n0 + basis + k)[n0 + basis:n0 + basis + k]
        else:
            u = self.prefix_sums(basis, n0 + k)[n0:n0 + k]
        img = [sum(A[k - i] * u[j - i] for i in range(j + 1)) % p for j in range(k)]
        kept[basis] = [reduce(lambda v, a: (v * x + a) % p, reversed(img), 0)
                       for x in xs] + (img if len(Q) > 1 else [])
        return kept[basis]


def term(seq: CFiniteSeq, n: int) -> int:
    """f(n), by iterating the recurrence."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    return SeqMemo(seq).values(n)[n]


def reduce_shift(seq: CFiniteSeq, J: int) -> tuple[int, ...]:
    """Coefficients a with f(n+J) = sum_j a_j f(n+j), valid for all n >= 0.

    For J < L this is a basis vector; beyond that the recurrence is applied
    repeatedly (induction on J).
    """
    if J < 0:
        raise ValueError("shift must be nonnegative")
    L = seq.order
    if J < L:
        return tuple(1 if j == J else 0 for j in range(L))
    a = reduce_shift(seq, L - 1)
    for _ in range(J - L + 1):
        a = shift_level(seq, a)
    return a


def shift_level(seq: CFiniteSeq, beta: tuple[int, ...]) -> tuple[int, ...]:
    """Rewrite the linear form <beta, f(n..n+L-1)> over the basis one level
    down: the result b satisfies <b, f(n-1..n+L-2)> = <beta, f(n..n+L-1)> for
    every n >= 1.  For order 1 with rec (b,) this is multiplication by b."""
    L = seq.order
    if len(beta) != L:
        raise ValueError("linear form length must equal the order")
    c = seq.rec
    top = beta[L - 1]
    return tuple([top * c[L - 1]] + [beta[j - 1] + top * c[L - 1 - j] for j in range(1, L)])


def indicial_poly(seq: CFiniteSeq) -> list[int]:
    """X^L - c_1 X^(L-1) - ... - c_L, ascending coefficients."""
    return [-c for c in reversed(seq.rec)] + [1]


# ---------------------------------------------------------------------------
# PV classification


@dataclass(frozen=True)
class PVResult:
    kind: str  # "pv" | "not_pv" | "undecided"
    reason: str = ""
    roots: tuple = ()  # (re, im, radius) floats, informational only


def _cyclotomic_factor(p: list[int], max_deg: int) -> int | None:
    """Smallest k with Phi_k dividing p and deg Phi_k <= max_deg, else None.

    deg Phi_k = phi(k) >= sqrt(k/2), so no k beyond 2 max_deg^2 qualifies
    (Bradford & Davenport, ISSAC 1988)."""
    for k in range(1, 2 * max_deg * max_deg + 1):
        if sum(1 for j in range(1, k + 1) if gcd(j, k) == 1) > max_deg:
            continue
        if polys.exact_quotient(p, polys.cyclotomic(k)) is not None:
            return k
    return None


def pv_classify(seq: CFiniteSeq) -> PVResult:
    """Decide whether the dominant indicial root is a PV number, counting all
    other roots of the indicial polynomial as its conjugates.

    Roots of modulus exactly one are detected exactly when they are roots of
    unity (cyclotomic divisibility); everything else is classified through
    certified disks.  When a disk straddles the unit circle and no exact test
    applies the verdict is "undecided" rather than a guess.
    """
    q = indicial_poly(seq)
    L = seq.order
    if L == 1:
        r = seq.rec[0]
        if r > 1:
            try:
                return PVResult("pv", roots=((float(r), 0.0, 0.0),))
            except OverflowError:  # the verdict is exact; no float writes the root
                return PVResult("pv")
        if abs(r) == 1:
            return PVResult("not_pv", "root of modulus 1")
        if r < -1:
            return PVResult("not_pv", "no real root exceeding 1")
        raise AssertionError("unreachable: c_L != 0")
    k = _cyclotomic_factor(q, L)
    if k is not None:
        return PVResult("not_pv", f"root of modulus 1 (root of unity, order {k})")

    sf = polys.square_free_part(q)
    repeated = polys.poly_gcd(q, polys.deriv(q))
    disks = roots.certified_disks(sf)
    if disks is None:
        return PVResult("undecided", "root approximations degenerate")
    rep_disks = []
    if polys.degree(repeated) >= 1:
        rep_disks = roots.certified_disks(repeated)
        if rep_disks is None:
            return PVResult("undecided", "root approximations degenerate")

    info = tuple((d.re, d.im, d.radius / GRID) for d in disks)
    dom = max(disks, key=lambda d: d.mod_hi)
    rest = [d for d in disks if d is not dom]

    if dom.mod_hi <= GRID:
        # every root certified inside or on the unit circle, and roots of
        # unity were already excluded: the largest root cannot exceed 1
        return PVResult("not_pv", "no root exceeding 1", roots=info)

    # everything except the dominant root must sit strictly inside the circle
    for d in rest:
        if d.mod_hi < GRID:
            continue
        if d.mod_lo > GRID:
            return PVResult("not_pv", "a conjugate lies outside the unit circle", roots=info)
        return PVResult("undecided", "a conjugate is numerically on the unit circle", info)

    # a repeated root acts as its own conjugate: it must be inside the circle
    for d in rep_disks:
        if not d.mod_hi < GRID:
            if d.mod_lo > GRID:
                return PVResult("not_pv", "a repeated root of modulus greater than 1", roots=info)
            return PVResult("undecided", "a repeated root is numerically on the unit circle", info)

    # dominant disk: isolated (so it holds exactly one distinct root), with a
    # certified modulus above 1; every other root being inside the circle
    # forces that root to be real (a non-real root would need an
    # equal-modulus conjugate among the others)
    if not dom.mod_lo > GRID:
        return PVResult("undecided", "dominant root numerically on the unit circle", info)
    for o in rest:
        if not roots.centre_gap(dom, o) > dom.radius + o.radius:
            return PVResult("undecided", "dominant root not isolated numerically", info)
    if not dom.re_grid()[1] - dom.radius > GRID:  # re - radius > 1
        return PVResult("undecided", "dominant root numerically at 1", info)
    return PVResult("pv", roots=info)


# ---------------------------------------------------------------------------
# Eventual positivity of recurrence expressions


@dataclass(frozen=True)
class PosExpr:
    """Integer expression  const + sum c*f(n+off) + sum c*S_v(n)  where
    S_v(n) = sum_{m<n} <v, f(m..m+L-1)> is a partial sum of a linear form."""

    seq: CFiniteSeq
    shifts: tuple[tuple[int, int], ...] = ()    # (coeff, offset)
    partials: tuple[tuple[int, tuple[int, ...]], ...] = ()  # (coeff, form)
    const: int = 0


@dataclass(frozen=True)
class Positivity:
    kind: str  # "positive_for_all" | "not_always_positive" | "unknown"
    witness: int | None = None

    @property
    def is_positive(self) -> bool:
        return self.kind == "positive_for_all"


def expr_values(memo: SeqMemo, expr: PosExpr, N: int) -> list[int]:
    """expr(0..N) as one list, made in one pass: const, plus or minus each
    shifted term's slice of the memo's values and each partial sum's prefix
    list, scaled unless its coefficient is +-1."""
    fs = memo.values(N + max((off for _, off in expr.shifts), default=0))
    cols = [(c, fs[off:off + N + 1]) for c, off in expr.shifts]
    cols += [(c, memo.prefix_sums(form, N)) for c, form in expr.partials]
    acc = repeat(expr.const, N + 1)
    for c, col in cols:
        acc = map(sub if c < 0 else add, acc, col if c in (1, -1) else map(mul, repeat(abs(c)), col))
    return list(acc)


_POSITIVE, _UNKNOWN = Positivity("positive_for_all"), Positivity("unknown")


def _verdict(vals: list[int], lo: int, hi: int, kind: Positivity = _POSITIVE) -> Positivity:
    """A witness at the least n in lo..hi with vals[n] <= 0, else `kind`."""
    if lo <= hi and min(vals[lo:hi + 1]) <= 0:
        return Positivity("not_always_positive",
                          next(n for n in range(lo, hi + 1) if vals[n] <= 0))
    return kind


def _annihilator(expr: PosExpr) -> tuple[list[int], int]:
    """A monic A with A(E) expr = 0 for all n >= 0 (E the shift), and the
    level n0 where the certificate's tail starts.  Shifted terms are killed
    by the indicial polynomial; partial sums and constants need (X - 1)."""
    A = indicial_poly(expr.seq)
    if expr.partials or expr.const:
        A = [a - b for a, b in zip([0] + A, A + [0])]  # (X - 1) * A
    return A, 2 * expr.seq.order + max((off for _, off in expr.shifts), default=0) + 2


def _proves_minimal(memo: SeqMemo, expr: PosExpr) -> bool:
    """True when residues prove the annihilator A of expr's frame the least
    one from the frame's n0 on: N = R * u mod t^k (see _minimal_annihilator)
    is linear in expr, so its residue data combines that of expr's basis
    elements (`SeqMemo.residues`).  N and R are coprime over GF(p), as
    `modular.proves_coprime` would prove on N, iff N vanishes at none of R's
    known roots and is coprime to R's rest Q."""
    fr = memo.frame(expr)
    _, _, p, R, kept = fr
    if p is None:
        return False
    cs, cols = [], []
    for c, basis in (*expr.shifts, *expr.partials, (expr.const, None)):
        if c:
            cs.append(c)
            cols.append(kept.get(basis) or memo.residues(fr, basis))
    if not cs:  # expr = 0: every polynomial annihilates it
        return False
    xs, Q = R
    N = [sum(map(mul, cs, col)) % p for col in zip(*cols)]
    return all(N[:len(xs)]) and (len(Q) == 1 or modular.gcd_degree(N[len(xs):], Q, p) == 0)


def _split_reversed(A: list[int], p: int) -> tuple[list[int], list[int]]:
    """R = A reversed mod p as the roots 1/r of R for A's integer roots r,
    |r| <= 64, and the rest Q of R without them: N is coprime to R iff it
    vanishes at none of the roots and is coprime to Q.  p must not divide
    A(0), which every such r divides."""
    found, Q = [], A
    for r in range(-64, 65):
        if r and A[0] % r == 0 and (q := polys.exact_quotient(Q, [-r, 1])) is not None:
            found.append(pow(r, -1, p))
            while q is not None:
                Q, q = q, polys.exact_quotient(q, [-r, 1])
    return found, [a % p for a in reversed(Q)]


def _minimal_annihilator(vals: list[int], A: list[int], n0: int) -> list[int]:
    """The least monic divisor of A that annihilates the expression from n0
    on, given its values vals (e.g. a plain geometric inside a higher-order
    closure).

    With R = A reversed (R(0) = 1, as A(0) != 0), the tail u = vals[n0:] has
    generating function N / R, N = R * u mod t^k.  Its minimal annihilator is
    the reduced denominator R / gcd(N, R), normalised to constant term 1 and
    reversed (Everest et al., Recurrence Sequences, 2003): deg N < deg R, so
    no power of X joins it.  Exact, from k values, by a PRS gcd: the
    certificate asks only when `_proves_minimal` has not proved A minimal.
    """
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


def cannot_certify(expr: PosExpr, memo: SeqMemo) -> bool:
    """True when the certificate of expr cannot come out positive, told
    without any value of expr: residues prove A minimal and A has no growth
    data.  As A(0) != 0 and deg A >= 2, a minimal A is neither eventually
    constant nor geometric, so the certificate ends in a head witness or
    "unknown".  False proves nothing.  memo must belong to expr.seq."""
    A, n0 = memo.frame(expr)[:2]
    return (len(A) > 2 and _growth_data(memo, tuple(A), n0) is None
            and _proves_minimal(memo, expr))


def certify_eventually_positive(expr: PosExpr, horizon: int = HORIZON,
                                memo: SeqMemo | None = None) -> Positivity:
    """Sound certificate that expr(n) > 0 for every n >= 0.

    Exact positivity is checked for n = 0..horizon; beyond the horizon the
    expression is certified through its annihilating recurrence: either it is
    eventually constant (detected exactly), or it has a certified simple real
    dominant root rho > 1 with a positive leading projection, in which case
    an explicit geometric tail bound gives a crossover index past which the
    dominant mode provably wins, and everything up to the crossover is
    checked exactly.  Any failed sub-certificate yields "unknown".

    The expression is evaluated once, as a list of its values; its
    annihilator and residue data come from its frame (`SeqMemo.frame`), its
    growth data from the memo, and the bounds past the horizon are (lo, hi)
    pairs of integer numerators on the grid of `roots`, rounded outward by
    `roots.grid_mul` and `roots.grid_div`.  memo must belong to expr.seq;
    without one a throwaway memo is used.
    """
    if memo is None:
        memo = SeqMemo(expr.seq)
    fr = memo.frame(expr)
    A, n0 = fr[0], fr[1]
    k = len(A) - 1
    vals = expr_values(memo, expr, max(horizon, n0 + 2 * k + 2))
    head = _verdict(vals, 0, horizon)
    if head is not _POSITIVE:
        return head
    if not _proves_minimal(memo, expr):
        A = _minimal_annihilator(vals, A, n0)
        k = len(A) - 1

    # eventually-zero difference => eventually constant (> 0 was checked)
    if vals[n0 + k + 1:n0 + 2 * k + 2] == vals[n0 + k + 2:n0 + 2 * k + 3]:
        return _verdict(vals, horizon + 1, n0 + k + 1)

    if k == 1:
        # exactly geometric: expr(n) = expr(n0) * a^(n - n0) for n >= n0
        grows = vals[n0] > 0 and -A[0] >= 1
        return _verdict(vals, horizon + 1, n0, _POSITIVE if grows else _UNKNOWN)

    gd = _growth_data(memo, tuple(A), n0)
    if gd is None:
        return _UNKNOWN
    rho_lo, b, (num, den), rho_pow, dA_rho_pow, rho_lo_pow, steps = gd

    # leading projection c = w(n0) / (A'(rho) * rho^n0); b_j times an exact
    # value needs no rounding
    w_lo = w_hi = 0
    for (b_lo, b_hi), v in zip(b, vals[n0:n0 + k]):
        x, y = b_lo * v, b_hi * v
        w_lo, w_hi = (w_lo + x, w_hi + y) if x <= y else (w_lo + y, w_hi + x)
    c_lo, c_hi = grid_div(w_lo, w_hi, *dA_rho_pow)
    if not c_lo > 0:
        return _UNKNOWN

    M = 0
    c_rho_pow = grid_mul(c_lo, c_hi, *rho_pow)
    for v, (r_lo, r_hi, tpow) in zip(vals[n0:], steps):
        lo, hi = grid_mul(*c_rho_pow, r_lo, r_hi)
        v <<= GRID_BITS
        M = max(M, -(-(max(abs(v - hi), abs(v - lo)) << GRID_BITS) // tpow))

    # crossover: smallest n* >= n0 with c rho^n > M tau^(n - n0) onwards
    lo_side = c_lo * rho_lo_pow >> GRID_BITS
    hi_side = M
    n_star = n0
    while lo_side <= hi_side:
        lo_side = lo_side * rho_lo >> GRID_BITS
        hi_side = -(-hi_side * num // den)
        n_star += 1
        if n_star > n0 + 20000:
            return _UNKNOWN
    if n_star >= len(vals):
        vals = expr_values(memo, expr, n_star)
    return _verdict(vals, horizon + 1, n_star)


def _growth_data(memo: SeqMemo, A: tuple[int, ...], n0: int) -> tuple | None:
    """Annihilator-level certificate data, reusable across expressions, as
    the tuple (rho_lo, b, tau, rho_pow, dA_rho_pow, rho_lo_pow, steps) for
    the dominant-root enclosure rho = (rho_lo, rho_hi): the interval
    coefficients b of B = A/(X - rho), the exact geometric tail ratio
    tau = (num, den) with tau^(k-1) >= sum |b_j| tau^j, rho^n0,
    A'(rho) * rho^n0, rho_lo^n0 rounded down, and (rho^j, tau^j rounded
    down) for j < max(k - 1, 1); None when a part cannot be certified.
    Intervals are (lo, hi) pairs of numerators on the grid of `roots`; a
    plain tuple, as a dataclass would cost about 13 KB at import."""
    key = (A, n0)
    if key in memo.growth:
        return memo.growth[key]
    if A not in memo.certs:
        memo.certs[A] = roots.dominant_root_certificate(list(A))
    rho = memo.certs[A]
    out = None
    k = len(A) - 1
    if rho is not None and rho[0] > GRID:
        # B = A / (X - rho), interval coefficients via synthetic division
        b = [(A[k] << GRID_BITS,) * 2]
        for j in range(k - 1, 0, -1):
            a, (lo, hi) = A[j] << GRID_BITS, grid_mul(*rho, *b[-1])
            b.append((a + lo, a + hi))
        b.reverse()
        # A'(rho) by Horner over k A[k], ..., 1 A[1]
        d_lo = d_hi = 0
        for j in range(k, 0, -1):
            a, (lo, hi) = j * A[j] << GRID_BITS, grid_mul(d_lo, d_hi, *rho)
            d_lo, d_hi = a + lo, a + hi
        # tau = rho_lo * i/16 for the least i that passes, tested exactly
        # over the common denominator den = 16 * GRID
        b_hi = [max(abs(lo), abs(hi)) for lo, hi in b[: k - 1]]
        den = 16 * GRID
        tau = None
        for i in range(1, 16):
            t = rho[0] * i
            if GRID * t ** (k - 1) >= sum(bh * t ** j * den ** (k - 1 - j)
                                          for j, bh in enumerate(b_hi)):
                tau = (t, den)
                break
        if tau is not None and not d_lo <= 0 <= d_hi:
            rho_pow = (GRID, GRID)
            for _ in range(n0):
                rho_pow = grid_mul(*rho_pow, *rho)
            steps, rpow, tpow = [], (GRID, GRID), GRID
            for _ in range(max(k - 1, 1)):
                steps.append((*rpow, tpow))
                rpow, tpow = grid_mul(*rpow, *rho), tpow * tau[0] // tau[1]
            out = (rho[0], tuple(b), tau, rho_pow, grid_mul(d_lo, d_hi, *rho_pow),
                   rho[0] ** n0 >> (GRID_BITS * (n0 - 1)), tuple(steps))
    memo.growth[key] = out
    return out
