"""Seeded random specs against the brute-force oracle.

Each draw is a small PV spec: an order 1-2 sequence with a PV dominant root,
nonnegative exponent forms, and a correlation pattern of at most two
factors.  On its closed system, M^n v must equal `state_oracle` at every
state for n <= 4, every state's unpruned `evolve` row must satisfy
f_S(n) = sum c f_T(n-1) under `state_oracle` for n <= 6, and every target
`is_dead` prunes must have a zero `state_oracle` for n <= 6.  A state
wrongly pruned as dead, or a term lost in evolution, breaks one of them.
The fitted and the eliminated generating functions must be equal.  A system served from the spec's memo,
after other specs ran, must equal a fresh build, and so must its fitted GF.
"""

import random

import pytest

from sterngf import (
    CFiniteSeq,
    LimitExceeded,
    ProductSpec,
    SpecValidationError,
    build_system,
    core,
    evolve,
    expand_levels,
    is_dead,
    pv_classify,
    solve_gf,
    state_oracle,
)

SEED = 20261019
SPECS = 30
STATE_LIMIT = 200
ALPHAS = ([1], [2], [1, 1], [1, 0, 1])


def random_systems(seed: int, count: int):
    """(spec, alpha, closed system) for `count` draws that validate and close
    within STATE_LIMIT states."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        L = rng.randint(1, 2)
        seq = CFiniteSeq(tuple(rng.randint(1, 2) for _ in range(L)),
                         tuple(rng.randint(1, 2) for _ in range(L)))
        if pv_classify(seq).kind != "pv":
            continue
        forms = {tuple(rng.randint(0, 2) for _ in range(L)) for _ in range(rng.randint(2, 3))}
        terms = tuple((rng.choice((1, 1, 2, -1)), e) for e in sorted(forms))
        P = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
        alpha = rng.choice(ALPHAS)
        try:
            spec = ProductSpec(P=P, seq=seq, terms=terms)
            out.append((spec, alpha, build_system(spec, alpha, limit=STATE_LIMIT)))
        except (SpecValidationError, LimitExceeded):
            continue
    return out


SYSTEMS = random_systems(SEED, SPECS)


def levels(spec, n):
    return [[int(x) for x in a] for a in expand_levels(spec, n)]


@pytest.mark.parametrize("case", range(SPECS))
def test_matrix_powers_match_state_oracle(case):
    spec, alpha, sys_ = SYSTEMS[case]
    coeffs = levels(spec, 4)
    vec = list(sys_.v)
    for n in range(5):
        want = [state_oracle(spec, st, n, coeffs=coeffs[n]) for st in sys_.states]
        assert vec == want, (spec, alpha, n)
        vec = [sum(c * vec[col] for col, c in row) for row in sys_.rows]


@pytest.mark.parametrize("case", range(SPECS))
def test_unpruned_rows_are_the_evolution_identity(case):
    spec, alpha, sys_ = SYSTEMS[case]
    coeffs = levels(spec, 6)
    for st in sys_.states:
        row = evolve(spec, st)
        for n in range(1, 7):
            assert state_oracle(spec, st, n, coeffs=coeffs[n]) == sum(
                c * state_oracle(spec, tgt, n - 1, coeffs=coeffs[n - 1])
                for c, tgt in row), (spec, alpha, st, n)


@pytest.mark.parametrize("case", range(SPECS))
def test_pruned_dead_targets_vanish(case):
    spec, alpha, sys_ = SYSTEMS[case]
    dead = {tgt for st in sys_.states for _, tgt in evolve(spec, st)
            if is_dead(spec, tgt)}
    coeffs = levels(spec, 6)
    for st in dead:
        assert all(state_oracle(spec, st, n, coeffs=coeffs[n]) == 0
                   for n in range(7)), (spec, alpha, st)


@pytest.mark.parametrize("case", range(SPECS))
def test_fit_equals_eliminate(case):
    spec, alpha, sys_ = SYSTEMS[case]
    assert solve_gf(sys_, "eliminate") == solve_gf(sys_), (spec, alpha)


@pytest.mark.parametrize("case", range(SPECS))
def test_memo_served_system_equals_a_fresh_build(case):
    spec, alpha, _ = SYSTEMS[case]
    other_spec, other_alpha, _ = SYSTEMS[(case + 1) % SPECS]
    first = build_system(spec, alpha, limit=STATE_LIMIT)
    build_system(other_spec, other_alpha, limit=STATE_LIMIT)
    served = build_system(spec, alpha, limit=STATE_LIMIT)
    assert served.rows is first.rows
    gf = solve_gf(served)
    core._cache.cache_clear()
    fresh = build_system(spec, alpha, limit=STATE_LIMIT)
    assert fresh.rows is not first.rows
    assert ((served.states, served.rows, served.v, served.report)
            == (fresh.states, fresh.rows, fresh.v, fresh.report)), (spec, alpha)
    assert gf == solve_gf(fresh), (spec, alpha)
