"""Product specifications, the coefficient array a(n,k), and the state calculus.

A ProductSpec describes the polynomial family

    F_n(x) = P(x) * prod_{i=0}^{n-1} ( sum_j c_j x^{<e_j, f(i..i+L-1)>} )

with f a C-finite sequence of order L; a(n,k) are the coefficients of F_n.
The constant factor term is encoded as e = 0.  Peeling the last factor gives
the level recurrence

    a(n,k) = sum_j c_j a(n-1, k - <e_j, f(n-1..n+L-2)>),

and correlation sums of shifted rows close into a finite-or-infinite linear
system over "states".  A state is a multiset of factors (d_i, beta_i) whose
value at level n is

    f_S(n) = sum_{k in Z} prod_i a(n, k + d_i - <beta_i, f(n..n+L-1)>).

Summing over all of Z (the coefficient support is finite) makes shifting k a
sound normalization move unconditionally; at the root state the (0, 0) factor
kills every k < 0, so the value agrees with the k >= 0 sums of interest.

Dead states (identically zero because the shifted supports can never all
overlap) are pruned by the closure, but only under a sound certificate:
exact support checks up to a horizon plus an eventual-positivity certificate
for the support gap beyond it.  An inconclusive certificate keeps the state;
that can only grow the system, never corrupt it.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial, prod
from operator import add, gt, sub

from . import polys
from .cfinite import (HORIZON, CFiniteSeq, PosExpr, SeqMemo, cannot_certify,
                      certify_eventually_positive, reduce_shift, shift_level)

DEFAULT_MAX_COEFFS = 1 << 28
_INT64_GUARD = 1 << 62
_CHUNK = 1 << 16  # values of k per slice product of the correlation sum
SPEC_MEMO_LIMIT = 16  # per-spec memos kept at once, least recently used dropped
SYSTEM_MEMO_LIMIT = 1 << 14  # nnz + states of the closed systems kept per spec, oldest dropped
STREAM_MEMO_LIMIT = 1 << 18  # 64-bit words of the rendered streams kept per spec, oldest dropped
DEADNESS_MEMO_LIMIT = 1 << 10  # head columns, and pair records, kept per spec; oldest dropped
PICK_LIMIT = 1 << 20  # factor slots (picks times factors) one evolve step may enumerate
# a pair's head mask holds one flag byte per level 0..HORIZON; this one has them all
_ALL_LEVELS = int.from_bytes(b"\x01" * (HORIZON + 1), "little")


class SpecValidationError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    pass


def validate_alpha(alpha) -> tuple[int, ...]:
    """Correlation pattern [a_0..a_{m-1}]: nonnegative, a_0 >= 1, no trailing
    zeros (a trailing zero would silently change the intended pattern)."""
    a = tuple(int(x) for x in alpha)
    if not a or a[0] < 1:
        raise SpecValidationError("alpha must start with a positive entry")
    if any(x < 0 for x in a):
        raise SpecValidationError("alpha entries must be nonnegative")
    if a[-1] == 0:
        raise SpecValidationError("alpha must not end in zero")
    return a


@dataclass(frozen=True)
class ProductSpec:
    """P(x), the exponent sequence, and the factor term list (c_j, e_j)."""

    P: tuple[int, ...]
    seq: CFiniteSeq
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        P = tuple(polys.normalize(list(self.P)))
        if not P:
            raise SpecValidationError("P must be a nonzero polynomial")
        object.__setattr__(self, "P", P)
        L = self.seq.order
        tt = tuple((int(c), tuple(int(x) for x in e)) for c, e in self.terms)
        if not tt:
            raise SpecValidationError("factor needs at least one term")
        seen = set()
        for c, e in tt:
            if c == 0:
                raise SpecValidationError("factor coefficients must be nonzero")
            if len(e) != L:
                raise SpecValidationError(f"exponent vector {e} must have length {L}")
            if e in seen:
                raise SpecValidationError(f"duplicate exponent vector {e}")
            seen.add(e)
        object.__setattr__(self, "terms", tt)
        _cache(self)  # certifies the exponent forms, once per registered spec


@dataclass(frozen=True)
class State:
    """Canonical multiset of factors (d, beta); see the module docstring for
    the correlation sum it denotes.  Canonical means the componentwise
    minimum of the beta vectors is zero and factors are sorted by (beta, d)."""

    factors: tuple[tuple[int, tuple[int, ...]], ...]

    def sort_key(self):
        return tuple([(beta, d) for d, beta in self.factors])


def canonicalize(raw: list[tuple[int, tuple[int, ...]]]) -> State:
    """Shift all beta vectors by their componentwise minimum (a shift of the
    summation variable k) and sort the factors; raw is left as it is."""
    mins = tuple(map(min, zip(*[beta for _, beta in raw])))
    if any(mins):
        keyed = [(tuple(map(sub, beta, mins)), d) for d, beta in raw]
    else:
        keyed = [(beta, d) for d, beta in raw]
    keyed.sort()
    return State(tuple([(d, beta) for beta, d in keyed]))


def root_state(alpha, L: int) -> State:
    """State of the correlation sum sum_k prod_i a(n, k+i)^alpha_i: offset i
    repeated alpha_i times, all beta zero."""
    a = validate_alpha(alpha)
    if sum(a) > PICK_LIMIT:  # checked before the tuple of factors is built
        raise ResourceLimitError(f"a pattern of {sum(a)} factors (limit {PICK_LIMIT})")
    zero = (0,) * L
    return State(tuple((i, zero) for i, m in enumerate(a) for _ in range(m)))


# ---------------------------------------------------------------------------
# per-spec memo


class _Pair:
    """The deadness inputs of one factor pair under its key (beta_i -
    beta_j, d_i - d_j), oriented so that the gap <beta_i - beta_j, f(n..)>
    - (d_i - d_j) is >= 0 at the tail's first level: one `head` flag byte
    per level n <= HORIZON, set where |gap| > U(n), and the tail
    certificate's outcome, None until it is asked.  A plain slotted class:
    a dataclass would cost about 0.5 ms at import."""

    __slots__ = ("head", "certified")

    def __init__(self, head: int):
        self.head = head
        self.certified: bool | None = None


class _SpecCache:
    """Everything memoized for one spec: the sequence memo, level degree
    bounds, the deadness tail certificate, the inputs of deadness verdicts
    (head columns by beta and pair records by key, at most
    DEADNESS_MEMO_LIMIT of each), the multiset pick table of each group
    size, the closed systems by root state (their nonzeros and states at
    most SYSTEM_MEMO_LIMIT in all), the longest brute-force prefix
    u_alpha(0..n) by root state (at most SYSTEM_MEMO_LIMIT 64-bit words in
    all; only the expansion of F_0..F_n fills it, never the engine, so the
    oracle stays independent of what it checks), and the rendered views of
    the longest stream u(0..N) that `terms` printed, by root state (at most
    STREAM_MEMO_LIMIT 64-bit words in all; only `closure.rendered_terms`
    fills it).  Each entry is a function of the spec and its key alone."""

    def __init__(self, spec: ProductSpec):
        self.spec = spec
        self.memo = SeqMemo(spec.seq)
        self.U_prefix: list[int] = [polys.degree(list(spec.P))]
        self.heads: dict[tuple[int, ...], list[int]] = {}  # beta -> column
        self.pairs: dict[tuple[tuple[int, ...], int], _Pair] = {}  # (dbeta, dd) -> record
        self.picks: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}  # m -> pick table
        self.systems: dict[State, tuple[object, int]] = {}  # root -> (system, size)
        self.prefixes: dict[State, tuple[list[int], int]] = {}  # root -> (terms, words)
        self.streams: dict[State, tuple[tuple[int, dict], int]] = {}  # root -> ((N, views), words)

    def head(self, beta: tuple[int, ...]) -> list[int]:
        """<beta, f(n..n+L-1)> for n = 0..HORIZON + 1: the exact head of
        every factor (d, beta) is this column minus d, and its last entry
        is the level where the tail starts."""
        col = self.heads.get(beta)
        if col is None:
            col = _remember(self.heads, beta, self.memo.form_values(beta, 0, HORIZON + 2))
        return col

    @cached_property
    def head_bound(self) -> list[int]:
        """U(n) for n = 0..HORIZON."""
        self.degree_bound(HORIZON)
        return self.U_prefix[:HORIZON + 1]

    def pair(self, key: tuple[tuple[int, ...], int], col_i: list[int],
             col_j: list[int]) -> _Pair:
        """The record of the pair of factors (d_i, beta_i), (d_j, beta_j)
        under key (beta_i - beta_j, d_i - d_j), given the head columns of
        beta_i and beta_j."""
        rec = self.pairs.get(key)
        if rec is None:
            gaps = map(sub, map(sub, col_i, col_j), itertools.repeat(key[1]))
            rec = _remember(self.pairs, key, _Pair(int.from_bytes(
                bytes(map(gt, map(abs, gaps), self.head_bound)), "little")))
        return rec

    def pick_table(self, m: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """The multisets of m picks among the spec's terms, as term index
        tuples, and their weights: the multiset taking term j k_j times
        stands for m! / prod k_j! ordered picks of coefficient
        prod c_j^k_j each."""
        table = self.picks.get(m)
        if table is None:
            coeffs = [c for c, _ in self.spec.terms]
            idxs = list(itertools.combinations_with_replacement(range(len(coeffs)), m))
            table = self.picks[m] = (
                [factorial(m) // prod(map(factorial, Counter(idx).values()))
                 * prod(map(coeffs.__getitem__, idx)) for idx in idxs], idxs)
        return table

    @staticmethod
    def keep(table: dict, key, value, size: int, limit: int) -> None:
        """table[key] = (value, size), replacing what the key held and
        dropping the oldest entries until the sizes kept fit the limit; a
        value over the limit on its own is not kept.  Sizes are nonzeros
        plus states for a closed system and 64-bit words for a prefix of
        terms or a rendered stream."""
        if size > limit:
            return
        table.pop(key, None)
        total = size + sum(kept for _, kept in table.values())
        while total > limit:
            total -= table.pop(next(iter(table)))[1]
        table[key] = (value, size)

    def degree_bound(self, n: int) -> int:
        """U(n): upper bound for deg F_n, growing by the largest exponent
        form at each level."""
        U = self.U_prefix
        if len(U) <= n:
            cols = [self.memo.form_values(e, len(U) - 1, n) for _, e in self.spec.terms]
            for width in map(max, zip(*cols)):
                U.append(U[-1] + width)
        return U[n]

    @cached_property
    def tail(self) -> tuple[tuple[int, ...], int] | None:
        """(form, U(start)) for the deadness tail, which starts at level
        start = HORIZON + 1; None when it cannot be certified.

        The term with the largest exponent form at start must be certified
        to dominate every other term's form at all levels >= start.  Its
        form, rewritten over f(m..m+L-1), then has partial sums equal to
        the degree bound's growth from start on."""
        start = HORIZON + 1
        seq, terms, memo = self.spec.seq, self.spec.terms, self.memo
        at_start = [memo.form_values(e, start, start + 1)[0] for _, e in terms]
        e_star = terms[at_start.index(max(at_start))][1]
        for _, e in terms:
            if e != e_star:
                expr = PosExpr(seq, shifts=tuple(
                    (a - b, start + t) for t, (a, b) in enumerate(zip(e_star, e)) if a != b),
                    const=1)
                if not certify_eventually_positive(expr, memo=memo).is_positive:
                    return None
        form = [0] * seq.order
        for t, x in enumerate(e_star):
            if x:
                for u, r in enumerate(reduce_shift(seq, start + t)):
                    form[u] += x * r
        return tuple(form), self.degree_bound(start)


def _remember(table: dict, key, value):
    """table[key] = value, first dropping the oldest entries so that at
    most DEADNESS_MEMO_LIMIT stay; returns value."""
    while len(table) >= DEADNESS_MEMO_LIMIT:
        del table[next(iter(table))]
    table[key] = value
    return value


@lru_cache(maxsize=SPEC_MEMO_LIMIT)
def _cache(spec: ProductSpec) -> _SpecCache:
    """The spec's memo, from the one bounded registry of them.  Only a spec
    whose exponent forms are certified gets a slot: lru_cache keeps no call
    that raised, and a reloaded spec is not checked again."""
    cache = _SpecCache(spec)
    for _, e in spec.terms:
        if any(e):
            # form + 1 > 0: the certificate's exact head finds the least
            # negative level, its tail covers the levels beyond
            expr = PosExpr(spec.seq, shifts=tuple(
                (x, j) for j, x in enumerate(e) if x), const=1)
            cert = certify_eventually_positive(expr, memo=cache.memo)
            if cert.witness is not None and cert.witness <= HORIZON:
                raise SpecValidationError(
                    f"exponent form {e} is negative at level {cert.witness}")
            if not cert.is_positive:
                raise SpecValidationError(
                    f"cannot certify exponent form {e} stays nonnegative")
    return cache


# ---------------------------------------------------------------------------
# deadness


def is_dead(spec: ProductSpec, state: State) -> bool:
    """Sound test that the state's correlation sum vanishes for every n >= 0.

    At level n the factor supports are intervals of length U(n) starting at
    <beta_i, f(n..)> - d_i; the product can only be nonzero when they all
    intersect, so a support spread exceeding U(n) at every level kills the
    state.  The spread exceeds U(n) exactly when some factor pair's gap
    does, so up to HORIZON the state is checked exactly by OR-ing its pairs'
    head masks; beyond, one factor pair's gap must be certified positive
    forever.  Any inconclusive certificate returns False (alive), which is
    always safe.

    The verdict is a pure function of its arguments and is not memoized;
    its inputs are, per spec and each at most DEADNESS_MEMO_LIMIT: the head
    column of each beta, and each pair's record under the key (beta_i -
    beta_j, d_i - d_j), whose head mask and certified expression the key
    and the spec's tail fix.  Equal factors are taken once, and a pair whose
    gap is at most U(start) at the tail's first level is not certified: its
    expression is <= 0 at n = 0, so its certificate could only fail; nor
    is one whose failure residues show first (`cfinite.cannot_certify`).
    """
    factors = list(dict.fromkeys(state.factors))
    if len(factors) < 2:
        return False
    cache = _cache(spec)
    start = HORIZON + 1
    cols = [cache.head(beta) for _, beta in factors]
    offs = [col[start] - d for col, (d, _) in zip(cols, factors)]
    order = sorted(range(len(offs)), key=offs.__getitem__, reverse=True)
    # every pair (i, j) with i before j in order, so its gap at start is >= 0,
    # in the order the tail tries them
    pairs = []
    covered = 0
    for a, i in enumerate(order):
        d_i, beta_i = factors[i]
        for j in reversed(order[a + 1:]):
            d_j, beta_j = factors[j]
            key = (tuple(map(sub, beta_i, beta_j)), d_i - d_j)
            rec = cache.pair(key, cols[i], cols[j])
            covered |= rec.head
            pairs.append((offs[i] - offs[j], key, rec))
    # a level no pair covers has spread <= U(n) and keeps the state
    if covered != _ALL_LEVELS or cache.tail is None:
        return False
    tail_form, base = cache.tail
    memo = cache.memo
    for gap, (delta, dd), rec in pairs:
        if gap <= base:
            continue
        if rec.certified is None:
            shifts = tuple((x, start + t) for t, x in enumerate(delta) if x)
            expr = PosExpr(memo.seq, shifts=shifts, partials=((-1, tail_form),),
                           const=-dd - base)
            rec.certified = (not cannot_certify(expr, memo)
                             and certify_eventually_positive(expr, memo=memo).is_positive)
        if rec.certified:
            return True
    return False


def _offsets_at(memo: SeqMemo, factors, n: int) -> list[int]:
    """<beta_i, f(n..n+L-1)> - d_i for each factor (d_i, beta_i); a zero
    beta, as at the root state, gives -d_i at every level."""
    return [memo.form_values(beta, n, n + 1, -d)[0] if any(beta) else -d
            for d, beta in factors]


# ---------------------------------------------------------------------------
# evolution


def evolve(spec: ProductSpec, state: State) -> list[tuple[int, State]]:
    """Exact identity f_S(n) = sum coeff * f_S'(n-1), valid for all n >= 1.

    Every beta is first rewritten one level down, then the product of factor
    terms is expanded: each factor independently picks a term (c_j, e_j),
    contributing e_j to its beta and c_j to the coefficient.  The raw state
    of a pick is a multiset, so m equal factors that pick terms j with
    multiplicities k_j give the same raw state in every order: the
    m! / prod k_j! ordered picks of that multiset, each with coefficient
    prod c_j^k_j.  So equal factors are grouped, each group enumerates the
    multisets of its picks once with that multinomial weight (the spec's
    pick table of its size, which the group's factors index), and the
    product runs lazily over the groups: one canonicalization per multiset
    pick, and rows equal to the sums over all ordered picks.  Each pick
    fills one slot per factor, so their count, prod C(T + m - 1, m) for T
    terms, times the number of factors must not exceed PICK_LIMIT.  The
    states are merged, and every target with a nonzero coefficient is
    kept, dead or not: pruning is the closure's decision.  The row is
    returned sorted, so system construction is deterministic.
    """
    seq, terms = spec.seq, spec.terms
    groups = Counter(state.factors)
    count = prod(comb(len(terms) + m - 1, m) for m in groups.values())
    slots = count * len(state.factors)
    if slots > PICK_LIMIT:
        raise ResourceLimitError(f"a state of {len(state.factors)} factors needs {count} "
                                 f"picks, {slots} factor slots (limit {PICK_LIMIT})")
    cache = _cache(spec)
    weights, picks = [], []
    for (d, beta), m in groups.items():
        beta = shift_level(seq, beta)
        moved = [(d, tuple(map(add, beta, e))) for _, e in terms]
        group_weights, idxs = cache.pick_table(m)
        weights.append(group_weights)
        picks.append([tuple(map(moved.__getitem__, idx)) for idx in idxs])
    acc: dict[State, int] = {}
    raws = map(list, map(itertools.chain.from_iterable, itertools.product(*picks)))
    for w, raw in zip(map(prod, itertools.product(*weights)), raws):
        st = canonicalize(raw)
        acc[st] = acc.get(st, 0) + w
    row = [(c, st) for st, c in acc.items() if c]
    row.sort(key=lambda t: t[1].sort_key())
    return row


def initial_value(spec: ProductSpec, state: State) -> int:
    """f_S(0): the empty product leaves F_0 = P, so the sum is finite."""
    return state_oracle(spec, state, 0, coeffs=spec.P)


# ---------------------------------------------------------------------------
# brute-force expansion and oracles


def expand_Fn(spec: ProductSpec, n: int, *, force_python: bool = False,
              max_coeffs: int = DEFAULT_MAX_COEFFS):
    """Exact coefficients of F_n(x), index k -> a(n,k): the last level of
    expand_levels, with its up-front size check."""
    if n < 0:
        raise ValueError(f"level {n} is negative")
    for coeffs in expand_levels(spec, n, force_python=force_python,
                                max_coeffs=max_coeffs):
        pass
    return coeffs


def expand_levels(spec: ProductSpec, n: int, *, force_python: bool = False,
                  max_coeffs: int = DEFAULT_MAX_COEFFS):
    """Iterator over the exact coefficients of F_0, ..., F_n in one
    incremental pass, each level built from the one before.

    Degrees grow like the dominant indicial root to the n-th power, so this
    is only for moderate n.  The level sizes are known from the degree
    bound, so they are checked before anything is expanded: the first level
    over max_coeffs raises ResourceLimitError at once.  Dense integer
    arithmetic runs on int64 numpy arrays while a per-level bound proves no
    overflow is possible, and falls back to Python integers beyond that;
    numpy is imported only when the int64 kernel runs.

    The int64 levels share one buffer of F_n's length, each level written
    over the one before: a level is yielded as a view of that buffer, valid
    only until the next level is requested, so a caller that keeps levels
    must copy them.  A level on Python integers is a list of its own.
    """
    cache = _cache(spec)
    if n >= 0 and cache.degree_bound(n) + 1 > max_coeffs:
        m = next(m for m in range(n + 1) if cache.degree_bound(m) + 1 > max_coeffs)
        raise ResourceLimitError(
            f"F_{m} needs {cache.degree_bound(m) + 1} coefficients (limit {max_coeffs})")
    return _levels(spec, cache, n, force_python)


def _levels(spec: ProductSpec, cache: _SpecCache, n: int, force_python: bool):
    if n < 0:
        return
    coeff_sum = sum(abs(c) for c, _ in spec.terms)
    widths = [cache.memo.form_values(e, 0, n) for _, e in spec.terms]
    buf = None
    if not force_python and max(abs(c) for c in spec.P) * coeff_sum < _INT64_GUARD:
        import numpy as np
        # every level fits: each grows by the largest width, so F_n is the longest
        buf = np.zeros(cache.degree_bound(n) + 1, dtype=np.int64)
        size = len(spec.P)
        buf[:size] = spec.P
    else:
        lst = list(spec.P)
    for m in range(n + 1):
        if m:
            exps = [(c, w[m - 1]) for (c, _), w in zip(spec.terms, widths)]
            width = max(e for _, e in exps)
            if buf is not None and _max_abs(buf[:size]) * coeff_sum >= _INT64_GUARD:
                lst = buf[:size].tolist()
                buf = None
            if buf is not None:
                _step_in_place(buf, size, size + width, exps)
                size += width
            else:
                new = [0] * (len(lst) + width)
                for c, e in exps:
                    for k, v in enumerate(lst):
                        if v:
                            new[e + k] += c * v
                lst = new
        yield buf[:size] if buf is not None else lst


def _step_in_place(buf, size: int, new_size: int, exps) -> None:
    """Overwrite buf[:size], one level, with buf[:new_size], the next:
    new[k] = sum_j c_j old[k - w_j], one _CHUNK of k at a time from the top
    down.  Every width w_j is >= 0, so a chunk [lo, hi) reads only old
    indices below hi: its own, read before the chunk is written, and lower
    ones, not yet written.  Past the old level buf holds zeros."""
    import numpy as np
    acc = np.empty(min(_CHUNK, new_size), dtype=np.int64)
    for hi in range(new_size, 0, -_CHUNK):
        lo = max(hi - _CHUNK, 0)
        out = acc[:hi - lo]
        out.fill(0)
        for c, w in exps:
            src_lo, src_hi = max(lo - w, 0), min(hi - w, size)
            if src_lo >= src_hi:
                continue
            dst, src = out[src_lo + w - lo:src_hi + w - lo], buf[src_lo:src_hi]
            if c == 1:
                dst += src
            elif c == -1:
                dst -= src
            else:
                dst += c * src
        buf[lo:hi] = out


def state_oracle(spec: ProductSpec, state: State, n: int, *, coeffs=None) -> int:
    """Direct evaluation of the state's correlation sum at level n: the sum
    over k of prod_i a[k - o_i], taken as products of shifted slices, one
    _CHUNK of k at a time.  The m_s factors whose slices start at s share
    that slice and take one power of it, so a chunk is
    sum_k prod_s a[s + k]^m_s.  On an int64 array whose products provably
    fit, numpy computes them: a chunk of two factors whose sum provably fits
    too is one np.dot of the two views, and otherwise the powers are
    multiplied in one array.  Anything else runs on Python integers."""
    a = expand_Fn(spec, n) if coeffs is None else coeffs
    groups = {}  # each distinct factor with its count
    for f in state.factors:
        groups[f] = groups.get(f, 0) + 1
    offs = _offsets_at(_cache(spec).memo, groups, n)
    k_lo = max(offs)
    mult = {}  # factors per slice start, the start an index at k = k_lo
    for o, m in zip(offs, groups.values()):
        mult[k_lo - o] = mult.get(k_lo - o, 0) + m
    count = min(offs) + len(a) - k_lo  # the k whose indices all lie in a
    np = sys.modules.get("numpy")  # an ndarray exists only once numpy is loaded
    is_arr = np is not None and isinstance(a, np.ndarray)
    factors = len(state.factors)
    bound = _max_abs(a) ** factors if is_arr and count > 0 else _INT64_GUARD
    total = 0
    for lo in range(0, count, _CHUNK):
        size = min(_CHUNK, count - lo)
        cols = {s: a[s + lo:s + lo + size] for s in mult}
        if factors == 2 and bound * size < _INT64_GUARD:
            x, *y = cols.values()  # no y when both factors share one slice
            total += int(np.dot(x, y[0] if y else x))
        elif bound < _INT64_GUARD:
            seg = np.ones(size, dtype=np.int64)
            for s, m in mult.items():
                seg *= cols[s] if m == 1 else cols[s] ** m
            total += int(seg.sum()) if bound * size < _INT64_GUARD else sum(seg.tolist())
        else:
            if is_arr:
                cols = {s: col.tolist() for s, col in cols.items()}
            powers = [col if m == 1 else list(map(pow, col, itertools.repeat(m)))
                      for col, m in zip(cols.values(), mult.values())]
            total += sum(map(prod, zip(*powers)))
    return total


def u_alpha_oracle(spec: ProductSpec, alpha, n: int, *, coeffs=None) -> int:
    """Exact u_alpha(n) = sum_{k>=0} prod_i a(n, k+i)^alpha_i: the root
    state's correlation sum."""
    return state_oracle(spec, root_state(alpha, spec.seq.order), n, coeffs=coeffs)


def u_alpha_terms(spec: ProductSpec, alpha, n: int) -> list[int]:
    """u_alpha(0..n) from one incremental expansion of F_0..F_n: the root
    state's correlation sum at each level; a level over the coefficient
    limit is reported before anything is expanded.  The spec's memo keeps
    the longest prefix expanded so far under the root state, so a request
    it covers is a fresh list sliced from it."""
    root = root_state(alpha, spec.seq.order)
    cache = _cache(spec)
    kept = cache.prefixes.get(root)
    if kept is not None and n < len(kept[0]):
        return kept[0][:n + 1]
    terms = [state_oracle(spec, root, m, coeffs=coeffs)
             for m, coeffs in enumerate(expand_levels(spec, n))]
    if terms:  # longer than what was kept, which it replaces
        cache.keep(cache.prefixes, root, terms,
                   sum(t.bit_length() // 64 + 1 for t in terms), SYSTEM_MEMO_LIMIT)
    return terms[:]


def _max_abs(arr) -> int:
    """max |a_k| without an array-sized temporary."""
    return max(int(arr.max()), -int(arr.min()))
