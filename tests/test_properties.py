"""Seeded random specs against the brute-force oracle.

Each draw is a small PV spec: an order 1-2 sequence with a PV dominant root,
nonnegative exponent forms, and a correlation pattern of at most two
factors.  On its closed system, M^n v must equal `state_oracle` at every
state for n <= 4, and every dead target `evolve` drops must have a zero
`state_oracle` for n <= 6.  A state wrongly pruned as dead, or a term lost
in evolution, breaks one of the two.
"""

import random

import pytest

from sterngf import (
    CFiniteSeq,
    LimitExceeded,
    ProductSpec,
    SpecValidationError,
    build_system,
    evolve,
    expand_levels,
    pv_classify,
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
def test_pruned_dead_targets_vanish(case):
    spec, alpha, sys_ = SYSTEMS[case]
    dead = set()
    for st in sys_.states:
        evolve(spec, st, dead)
    coeffs = levels(spec, 6)
    for st in dead:
        assert all(state_oracle(spec, st, n, coeffs=coeffs[n]) == 0
                   for n in range(7)), (spec, alpha, st)
