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
overlap) are pruned, but only under a sound certificate: exact support checks
up to a horizon plus an eventual-positivity certificate for the support gap
beyond it.  An inconclusive certificate keeps the state; that can only grow
the system, never corrupt it.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, prod
from operator import sub

from . import polys
from .cfinite import (HORIZON, CFiniteSeq, PosExpr, SeqMemo, certify_eventually_positive,
                      reduce_shift, shift_level)

DEFAULT_MAX_COEFFS = 1 << 28
_INT64_GUARD = 1 << 62
_CHUNK = 1 << 16  # elements per int64 temporary of the numpy correlation sum
SPEC_MEMO_LIMIT = 16  # per-spec memos kept at once, least recently used dropped
DEAD_MEMO_LIMIT = 1 << 15  # deadness verdicts kept per spec, oldest dropped


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
        cache = _cache(self)  # reloading a validated spec skips the checks
        if cache.validated:
            return
        for _, e in tt:
            if any(e):
                # form + 1 > 0: the certificate's exact head finds the least
                # negative level, its tail covers the levels beyond
                expr = PosExpr(self.seq, shifts=tuple(
                    (x, j) for j, x in enumerate(e) if x), const=1)
                cert = certify_eventually_positive(expr, memo=cache.memo)
                if cert.witness is not None and cert.witness <= HORIZON:
                    raise SpecValidationError(
                        f"exponent form {e} is negative at level {cert.witness}")
                if not cert.is_positive:
                    raise SpecValidationError(
                        f"cannot certify exponent form {e} stays nonnegative")
        cache.validated = True


@dataclass(frozen=True)
class State:
    """Canonical multiset of factors (d, beta); see the module docstring for
    the correlation sum it denotes.  Canonical means the componentwise
    minimum of the beta vectors is zero and factors are sorted by (beta, d)."""

    factors: tuple[tuple[int, tuple[int, ...]], ...]

    def sort_key(self):
        return tuple((beta, d) for d, beta in self.factors)


def canonicalize(raw: list[tuple[int, tuple[int, ...]]]) -> State:
    """Shift all beta vectors by their componentwise minimum (a shift of the
    summation variable k) and sort the factors."""
    mins = list(map(min, zip(*[beta for _, beta in raw])))
    shifted = sorted([(tuple(map(sub, beta, mins)), d) for d, beta in raw])
    return State(tuple([(d, beta) for beta, d in shifted]))


def root_state(alpha, L: int) -> State:
    """State of the correlation sum sum_k prod_i a(n, k+i)^alpha_i: offset i
    repeated alpha_i times, all beta zero."""
    a = validate_alpha(alpha)
    zero = (0,) * L
    return State(tuple((i, zero) for i, m in enumerate(a) for _ in range(m)))


# ---------------------------------------------------------------------------
# per-spec memo


class _SpecCache:
    """Everything memoized for one spec: the sequence memo, level degree
    bounds, deadness verdicts (at most DEAD_MEMO_LIMIT), the deadness tail
    certificate and whether the spec was validated.  Each entry is a
    function of the spec alone."""

    def __init__(self, spec: ProductSpec):
        self.spec = spec
        self.memo = SeqMemo(spec.seq)
        self.U_prefix: list[int] = [polys.degree(list(spec.P))]
        self.dead: dict[State, bool] = {}
        self.validated = False

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


@lru_cache(maxsize=SPEC_MEMO_LIMIT)
def _cache(spec: ProductSpec) -> _SpecCache:
    """The spec's memo, from the one bounded registry of them."""
    return _SpecCache(spec)


# ---------------------------------------------------------------------------
# deadness


def is_dead(spec: ProductSpec, state: State) -> bool:
    """Sound test that the state's correlation sum vanishes for every n >= 0.

    At level n the factor supports are intervals of length U(n) starting at
    <beta_i, f(n..)> - d_i; the product can only be nonzero when they all
    intersect, so a support spread exceeding U(n) at every level kills the
    state.  The spread is checked exactly up to HORIZON; beyond, one
    factor pair's gap must be certified positive forever.  Any inconclusive
    certificate returns False (alive), which is always safe.
    """
    cache = _cache(spec)
    dead = cache.dead
    if state in dead:
        return dead[state]
    verdict = _deadness_verdict(cache, state)
    if len(dead) >= DEAD_MEMO_LIMIT:
        del dead[next(iter(dead))]
    dead[state] = verdict
    return verdict


def _offsets_at(memo: SeqMemo, state: State, n: int) -> list[int]:
    """<beta_i, f(n..n+L-1)> - d_i for each factor (d_i, beta_i)."""
    return [memo.form_values(beta, n, n + 1, -d)[0] for d, beta in state.factors]


def _deadness_verdict(cache: _SpecCache, state: State) -> bool:
    if len(state.factors) < 2:
        return False
    H = HORIZON
    memo = cache.memo
    cache.degree_bound(H)
    cols = [memo.form_values(beta, 0, H + 1, -d) for d, beta in state.factors]
    for offs, bound in zip(zip(*cols), cache.U_prefix):
        if max(offs) - min(offs) <= bound:
            return False
    if cache.tail is None:
        return False
    tail_form, base = cache.tail
    start = H + 1

    offs = _offsets_at(memo, state, start)
    order = sorted(range(len(offs)), key=lambda i: offs[i], reverse=True)
    pairs = [(i, j) for i in order for j in reversed(order) if i != j]
    for i, j in pairs:
        d_i, beta_i = state.factors[i]
        d_j, beta_j = state.factors[j]
        delta = tuple(a - b for a, b in zip(beta_i, beta_j))
        shifts = tuple((x, start + t) for t, x in enumerate(delta) if x)
        expr = PosExpr(memo.seq, shifts=shifts, partials=((-1, tail_form),),
                       const=-(d_i - d_j) - base)
        if certify_eventually_positive(expr, memo=memo).is_positive:
            return True
    return False


# ---------------------------------------------------------------------------
# evolution


def evolve(spec: ProductSpec, state: State,
           dead: set[State] | None = None) -> list[tuple[int, State]]:
    """Exact identity f_S(n) = sum coeff * f_S'(n-1), valid for all n >= 1.

    Every beta is first rewritten one level down, then the product of factor
    terms is expanded: each factor independently picks a term (c_j, e_j),
    contributing e_j to its beta and c_j to the coefficient.  The raw state
    of a pick is a multiset, so m equal factors that pick terms j with
    multiplicities k_j give the same raw state in every order: the
    m! / prod k_j! ordered picks of that multiset, each with coefficient
    prod c_j^k_j.  So equal factors are grouped, each group enumerates the
    multisets of its picks once with that multinomial weight, and the product
    runs over the groups: one canonicalization per multiset pick, and rows
    equal to the sums over all ordered picks.  The resulting states are
    merged and pruned of dead targets, which are added to `dead` when it is
    given.  The row is returned sorted, so system construction is
    deterministic.
    """
    seq = spec.seq
    groups = []
    for (d, beta), m in Counter(state.factors).items():
        beta = shift_level(seq, beta)
        moved = [(c, (d, tuple(b + x for b, x in zip(beta, e)))) for c, e in spec.terms]
        picks = []
        for pick in itertools.combinations_with_replacement(moved, m):
            weight = factorial(m) // prod(factorial(k) for k in Counter(pick).values())
            picks.append((weight * prod(c for c, _ in pick), [f for _, f in pick]))
        groups.append(picks)
    acc: dict[State, int] = {}
    for combo in itertools.product(*groups):
        st = canonicalize([f for _, raw in combo for f in raw])
        acc[st] = acc.get(st, 0) + prod(c for c, _ in combo)
    row = []
    for st, c in acc.items():
        if c == 0:
            continue
        if not is_dead(spec, st):
            row.append((c, st))
        elif dead is not None:
            dead.add(st)
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
    numpy is imported only when the int64 kernel runs.  Each level is a
    numpy array or a list, and is never written to after it is yielded.
    """
    cache = _cache(spec)
    if n >= 0 and cache.degree_bound(n) + 1 > max_coeffs:
        m = next(m for m in range(n + 1) if cache.degree_bound(m) + 1 > max_coeffs)
        raise ResourceLimitError(
            f"F_{m} needs {cache.degree_bound(m) + 1} coefficients (limit {max_coeffs})")
    return _levels(spec, cache, n, force_python)


def _levels(spec: ProductSpec, cache: _SpecCache, n: int, force_python: bool):
    coeff_sum = sum(abs(c) for c, _ in spec.terms)
    widths = [cache.memo.form_values(e, 0, n) for _, e in spec.terms]
    arr = None
    if not force_python and max(abs(c) for c in spec.P) * coeff_sum < _INT64_GUARD:
        import numpy as np
        arr = np.zeros(len(spec.P), dtype=np.int64)
        arr[:] = spec.P
    else:
        lst = list(spec.P)
    for m in range(n + 1):
        if m:
            exps = [(c, w[m - 1]) for (c, _), w in zip(spec.terms, widths)]
            width = max(e for _, e in exps)
            if arr is not None:
                mx = _max_abs(arr)
                if mx * coeff_sum >= _INT64_GUARD:
                    lst = arr.tolist()
                    arr = None
            if arr is not None:
                new = np.zeros(len(arr) + width, dtype=np.int64)
                for c, e in exps:
                    if c == 1:
                        new[e:e + len(arr)] += arr
                    elif c == -1:
                        new[e:e + len(arr)] -= arr
                    else:
                        new[e:e + len(arr)] += c * arr
                arr = new
            else:
                new = [0] * (len(lst) + width)
                for c, e in exps:
                    for k, v in enumerate(lst):
                        if v:
                            new[e + k] += c * v
                lst = new
        yield arr if arr is not None else lst


def state_oracle(spec: ProductSpec, state: State, n: int, *, coeffs=None) -> int:
    """Direct evaluation of the state's correlation sum at level n."""
    a = expand_Fn(spec, n) if coeffs is None else coeffs
    deg = len(a) - 1
    offs = _offsets_at(_cache(spec).memo, state, n)
    k_lo = max(offs)
    k_hi = min(o + deg for o in offs)
    total = 0
    for k in range(k_lo, k_hi + 1):
        p = 1
        for o in offs:
            v = int(a[k - o])
            if v == 0:
                p = 0
                break
            p *= v
        total += p
    return total


def u_alpha_oracle(spec: ProductSpec, alpha, n: int, *, coeffs=None) -> int:
    """Exact u_alpha(n) = sum_{k>=0} prod_i a(n, k+i)^alpha_i by expansion."""
    a = validate_alpha(alpha)
    arr = expand_Fn(spec, n) if coeffs is None else coeffs
    np = sys.modules.get("numpy")  # an ndarray exists only once numpy is loaded
    if np is not None and isinstance(arr, np.ndarray):
        got = _u_alpha_numpy(arr, a)
        if got is not None:
            return got
    m = len(a)
    size = len(arr)
    total = 0
    for k in range(size):
        p = 1
        for i, e in enumerate(a):
            if not e:
                continue
            v = int(arr[k + i]) if k + i < size else 0
            if v == 0:
                p = 0
                break
            p *= v ** e
        total += p
    return total


def u_alpha_terms(spec: ProductSpec, alpha, n: int) -> list[int]:
    """u_alpha(0..n) from one incremental expansion of F_0..F_n; a level
    over the coefficient limit is reported before anything is expanded."""
    validate_alpha(alpha)
    return [u_alpha_oracle(spec, alpha, m, coeffs=coeffs)
            for m, coeffs in enumerate(expand_levels(spec, n))]


def _max_abs(arr) -> int:
    """max |a_k| without an array-sized temporary."""
    return max(int(arr.max()), -int(arr.min()))


def _u_alpha_numpy(arr, alpha: tuple[int, ...]) -> int | None:
    """Vectorized correlation sum with an exactness guard: per-term products
    are bounded and accumulation is chunked so int64 can never overflow."""
    import numpy as np
    mx = _max_abs(arr) or 1
    bound = 1
    for e in alpha:
        bound *= mx ** e
    if bound >= _INT64_GUARD:
        return None
    span = len(alpha) - 1
    n_terms = len(arr) - span
    if n_terms <= 0:
        return None
    chunk = max(1, min(_INT64_GUARD // bound, _CHUNK))
    total = 0
    for lo in range(0, n_terms, chunk):
        hi = min(lo + chunk, n_terms)
        seg = np.ones(hi - lo, dtype=np.int64)
        for i, e in enumerate(alpha):
            for _ in range(e):
                seg *= arr[lo + i:hi + i]
        total += int(seg.sum())
    return total
