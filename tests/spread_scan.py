"""The former `core.is_dead`, kept as the reference for deadness verdicts.

It scans the support spread level by level: the factor supports at level n
start at <beta_i, f(n..)> - d_i and have length U(n), so a state whose
spread max - min exceeds U(n) at every level n <= HORIZON has a dead head.
Its tail takes the factor pairs by falling offset at the tail's first level
and certifies each one's gap afresh, with no pair memo.  `core.is_dead`
must give the same verdict on every state.
"""

from sterngf import core
from sterngf.cfinite import HORIZON, PosExpr, certify_eventually_positive


def spread_scan_is_dead(spec, state) -> bool:
    factors = list(dict.fromkeys(state.factors))
    if len(factors) < 2:
        return False
    cache = core._cache(spec)
    start = HORIZON + 1
    cols = [cache.memo.form_values(beta, 0, start + 1, -d) for d, beta in factors]
    for n in range(start):
        levels = [col[n] for col in cols]
        if max(levels) - min(levels) <= cache.degree_bound(n):
            return False
    if cache.tail is None:
        return False
    base = cache.tail[1]
    offs = [col[start] for col in cols]
    order = sorted(range(len(offs)), key=offs.__getitem__, reverse=True)
    for i in order:
        for j in reversed(order):
            if offs[i] - offs[j] <= base:
                continue
            (d_i, beta_i), (d_j, beta_j) = factors[i], factors[j]
            if pair_certified(spec, (tuple(x - y for x, y in zip(beta_i, beta_j)), d_i - d_j)):
                return True
    return False


def pair_certified(spec, key) -> bool:
    """The tail certificate of the pair gap under key (dbeta, dd), made
    afresh: <dbeta, f(n..)> - dd - U(n) > 0 for every n > HORIZON."""
    cache = core._cache(spec)
    tail_form, base = cache.tail
    delta, dd = key
    shifts = tuple((x, HORIZON + 1 + t) for t, x in enumerate(delta) if x)
    expr = PosExpr(spec.seq, shifts=shifts, partials=((-1, tail_form),), const=-dd - base)
    return certify_eventually_positive(expr, memo=cache.memo).is_positive


def head_mask(spec, key) -> int:
    """The head flags a pair record under key (dbeta, dd) must hold: byte n
    is 1 where |<dbeta, f(n..)> - dd| > U(n), for n = 0..HORIZON."""
    cache = core._cache(spec)
    delta, dd = key
    gaps = cache.memo.form_values(delta, 0, HORIZON + 1, -dd)
    return int.from_bytes(bytes(abs(g) > cache.degree_bound(n) for n, g in enumerate(gaps)),
                          "little")
