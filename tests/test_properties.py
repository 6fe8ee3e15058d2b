"""Seeded random specs against the brute-force oracle.

Each draw is a small PV spec: a sequence with a PV dominant root and
nonnegative exponent forms.  Most draws have order 1-2 and a correlation
pattern of at most two factors; others have order 1-3 and a pattern of
three factors, so states hold three factors whose pairs deadness tries in
turn; the last have order 2-3 and exponent vectors with a negative entry,
so beta differences take both signs.  On its closed system, M^n v must
equal `state_oracle` at every state for n <= 4, every state's unpruned
`evolve` row must satisfy f_S(n) = sum c f_T(n-1) under `state_oracle` for
n <= 6, and every target `is_dead` prunes must have a zero `state_oracle`
for n <= 6.  A state wrongly pruned as dead, or a term lost in evolution,
breaks one of them.  Every target's deadness verdict must equal the former
level-by-level spread scan's (`spread_scan.py`), and every pair record's
outcome, screened by residues or certified, must equal a fresh certificate's.  The fitted and the
eliminated generating functions must be equal, the fitted one's series must
begin with the oracle's u_alpha(0..8), and a `terms` run long
enough to be served from the fitted recurrence must equal the sparse
M^n v stream.  A system served from the spec's memo, after other specs
ran, must equal a fresh build, and so must its fitted GF.  The brute-force
oracle's int64 path must give every level of F_0..F_8 and u_alpha(0..8)
exactly as its Python-integer path does, with the default chunk and a
small one whose boundaries cut every level.  Twelve more draws have a
sequence that is not PV (an indicial root 1, or a repeated root), so the
residue screen rejects pairs and the PRS gcd finds smaller annihilators;
their closures rarely close, so on the targets each closure judges within
60 states the verdicts must equal the spread scan's and the pair records
fresh certificates.  The extended tier runs every
check on 40 more three-factor draws.
"""

import random
from functools import lru_cache

import pytest

from sterngf import (
    CFiniteSeq,
    LimitExceeded,
    PosExpr,
    ProductSpec,
    SpecValidationError,
    build_system,
    certify_eventually_positive,
    cfinite,
    core,
    evolve,
    expand_levels,
    is_dead,
    pv_classify,
    polys,
    root_state,
    series,
    solve_gf,
    state_oracle,
    stream_terms,
    u_alpha_terms,
)
from sterngf.cfinite import HORIZON
from sterngf.closure import _fit_length

from spread_scan import spread_scan_is_dead

SEED = 20261019
STATE_LIMIT = 200
ALPHAS = ([1], [2], [1, 1], [1, 0, 1])
THREE_FACTOR_ALPHAS = ([3], [1, 1, 1], [2, 1])
ORACLE_LEVEL = 8
SMALL_CHUNK = 29


def random_systems(seed: int, count: int, orders=(1, 2), alphas=ALPHAS, low=0,
                   limit=STATE_LIMIT):
    """(spec, alpha, closed system) for `count` draws that validate and close
    within `limit` states; exponent entries lie in [low, 2], and with
    low < 0 some entry of each draw is negative."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        L = rng.choice(orders)
        seq = CFiniteSeq(tuple(rng.randint(1, 2) for _ in range(L)),
                         tuple(rng.randint(1, 2) for _ in range(L)))
        if pv_classify(seq).kind != "pv":
            continue
        forms = {tuple(rng.randint(low, 2) for _ in range(L)) for _ in range(rng.randint(2, 3))}
        if low < 0 and min(map(min, forms)) >= 0:
            continue
        terms = tuple((rng.choice((1, 1, 2, -1)), e) for e in sorted(forms))
        P = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
        alpha = rng.choice(alphas)
        try:
            spec = ProductSpec(P=P, seq=seq, terms=terms)
            out.append((spec, alpha, build_system(spec, alpha, limit=limit)))
        except (SpecValidationError, LimitExceeded):
            continue
    return out


SIGNED_DRAWS = 10
SIGNED_LIMIT = 150  # a larger closure makes the eliminate check take seconds
SYSTEMS = (random_systems(SEED, 30)
           + random_systems(SEED, 10, orders=(1, 2, 3, 3), alphas=THREE_FACTOR_ALPHAS)
           + random_systems(SEED + 2, SIGNED_DRAWS, orders=(2, 3),
                            alphas=ALPHAS + THREE_FACTOR_ALPHAS, low=-1, limit=SIGNED_LIMIT))
SPECS = len(SYSTEMS)
EXTENDED_SPECS = 40


def judged_targets(spec, alpha, limit):
    """Every target the closure of alpha judges until it closes or passes
    `limit` states, in the order it judges them."""
    judged = []
    judge = core.is_dead
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "is_dead", lambda sp, st: judged.append(st) or judge(sp, st))
        try:
            build_system(spec, alpha, limit=limit)
        except LimitExceeded:
            pass
    return judged


def screened_draws(seed: int, count: int, limit: int = 60):
    """(spec, alpha, judged targets) for `count` draws whose sequence is not
    PV: its indicial polynomial has the root 1 or a repeated root.  Pair
    expressions then often have a minimal annihilator without growth data,
    which the residue screen rejects, or a smaller one, which the PRS gcd
    finds.  Such closures rarely close, so each draw keeps the targets its
    closure judged within `limit` states, and only a draw with 10 or more."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        L = rng.choice((2, 3))
        r = rng.randint(2, 3)
        indicial = [1]
        for root in rng.choice(([1, r], [r, r])) + [rng.choice((-1, 1, 2, 3))] * (L - 2):
            indicial = polys.mul(indicial, [-root, 1])
        seq = CFiniteSeq(tuple(rng.randint(1, 4) for _ in range(L)),
                         tuple(-a for a in reversed(indicial[:-1])))
        forms = {tuple(rng.randint(0, 2) for _ in range(L)) for _ in range(rng.randint(2, 3))}
        terms = tuple((rng.choice((1, 1, 2, -1)), e) for e in sorted(forms))
        alpha = rng.choice(([2], [1, 1], [3], [1, 1, 1], [2, 1]))
        try:
            spec = ProductSpec(P=(1,), seq=seq, terms=terms)
        except SpecValidationError:
            continue
        targets = judged_targets(spec, alpha, limit)
        if len(targets) >= 10:
            out.append((spec, alpha, targets))
    return out


SCREENED_DRAWS = 12


@pytest.fixture(scope="module")
def screened():
    """The non-PV draws, built when a test first asks for them rather than
    when the module is collected."""
    return screened_draws(SEED + 2, SCREENED_DRAWS)


@lru_cache(maxsize=1)
def extended_systems():
    """More three-factor draws, for the extended tier."""
    return random_systems(SEED + 1, EXTENDED_SPECS, orders=(1, 2, 3, 3),
                          alphas=THREE_FACTOR_ALPHAS)


def levels(spec, n):
    return [[int(x) for x in a] for a in expand_levels(spec, n)]


def check_matrix_powers(spec, alpha, sys_):
    coeffs = levels(spec, 4)
    vec = list(sys_.v)
    for n in range(5):
        want = [state_oracle(spec, st, n, coeffs=coeffs[n]) for st in sys_.states]
        assert vec == want, (spec, alpha, n)
        vec = [sum(c * vec[col] for col, c in row) for row in sys_.rows]


def check_evolution_identity(spec, alpha, sys_):
    coeffs = levels(spec, 6)
    for st in sys_.states:
        row = evolve(spec, st)
        for n in range(1, 7):
            assert state_oracle(spec, st, n, coeffs=coeffs[n]) == sum(
                c * state_oracle(spec, tgt, n - 1, coeffs=coeffs[n - 1])
                for c, tgt in row), (spec, alpha, st, n)


def check_dead_targets_vanish(spec, alpha, sys_):
    dead = {tgt for st in sys_.states for _, tgt in evolve(spec, st)
            if is_dead(spec, tgt)}
    coeffs = levels(spec, 6)
    for st in dead:
        assert all(state_oracle(spec, st, n, coeffs=coeffs[n]) == 0
                   for n in range(7)), (spec, alpha, st)


def system_targets(spec, sys_):
    return {tgt for st in sys_.states for _, tgt in evolve(spec, st)}


def check_deadness_matches_spread_scan(spec, alpha, sys_, targets=None):
    for st in targets or system_targets(spec, sys_):
        assert is_dead(spec, st) == spread_scan_is_dead(spec, st), (spec, alpha, st)


def check_pair_records_are_fresh_certificates(spec, alpha, sys_, targets=None):
    """From a cleared registry, judge every target, then compare each pair
    record's outcome, screened or certified, with a certificate made afresh
    on a throwaway sequence memo."""
    core._cache.cache_clear()
    for st in targets or system_targets(spec, sys_):
        is_dead(spec, st)
    cache = core._cache(spec)
    for (delta, dd), rec in cache.pairs.items():
        if rec.certified is not None:
            tail_form, base = cache.tail
            expr = PosExpr(spec.seq, tuple((x, HORIZON + 1 + t) for t, x in enumerate(delta) if x),
                           ((-1, tail_form),), -dd - base)
            assert rec.certified == certify_eventually_positive(expr).is_positive, (spec, delta, dd)


def check_series_prefix(spec, alpha, sys_):
    """The fitted GF's series begins with u_alpha(0..ORACLE_LEVEL) as the
    brute-force oracle computes them."""
    assert series(solve_gf(sys_), ORACLE_LEVEL + 1) == u_alpha_terms(
        spec, alpha, ORACLE_LEVEL), (spec, alpha)


def check_fit_equals_eliminate(spec, alpha, sys_):
    assert solve_gf(sys_, "eliminate") == solve_gf(sys_), (spec, alpha)


def check_recurrence_stream(spec, alpha, sys_):
    """n + 1 = 2 * (2 dim + 10) terms are served from the fitted recurrence."""
    n = 2 * _fit_length(sys_) - 1
    vec = list(sys_.v)
    want = [vec[sys_.root]]
    for _ in range(n):
        vec = [sum(c * vec[col] for col, c in row) for row in sys_.rows]
        want.append(vec[sys_.root])
    assert stream_terms(sys_, n) == want, (spec, alpha)


def check_oracle_paths_agree(spec, alpha, monkeypatch):
    """Each int64 level, read as it is yielded, equals the Python-integer
    level, and u_alpha_terms, expanded from a cleared registry rather than
    served by a kept prefix, equals the root state's sums over those."""
    lists = list(expand_levels(spec, ORACLE_LEVEL, force_python=True))
    for m, level in enumerate(expand_levels(spec, ORACLE_LEVEL)):
        assert [int(x) for x in level] == lists[m], (spec, m)
    root = root_state(alpha, spec.seq.order)
    want = [state_oracle(spec, root, m, coeffs=level) for m, level in enumerate(lists)]
    core._cache.cache_clear()
    levels = []
    monkeypatch.setattr(core, "state_oracle", lambda spec, state, n, **kwargs: (
        levels.append(n) or state_oracle(spec, state, n, **kwargs)))
    assert u_alpha_terms(spec, alpha, ORACLE_LEVEL) == want, (spec, alpha)
    assert levels == list(range(ORACLE_LEVEL + 1))


def check_memo_served_system(spec, alpha, other):
    """Build, build `other` (a (spec, alpha) pair), build again: the served
    system and its fitted GF equal a fresh build's."""
    first = build_system(spec, alpha, limit=STATE_LIMIT)
    build_system(*other, limit=STATE_LIMIT)
    served = build_system(spec, alpha, limit=STATE_LIMIT)
    assert served.rows is first.rows
    gf = solve_gf(served)
    core._cache.cache_clear()
    fresh = build_system(spec, alpha, limit=STATE_LIMIT)
    assert fresh.rows is not first.rows
    assert ((served.states, served.rows, served.v, served.report)
            == (fresh.states, fresh.rows, fresh.v, fresh.report)), (spec, alpha)
    assert gf == solve_gf(fresh), (spec, alpha)


@pytest.mark.parametrize("case", range(SPECS))
def test_matrix_powers_match_state_oracle(case):
    check_matrix_powers(*SYSTEMS[case])


@pytest.mark.parametrize("case", range(SPECS))
def test_unpruned_rows_are_the_evolution_identity(case):
    check_evolution_identity(*SYSTEMS[case])


@pytest.mark.parametrize("case", range(SPECS))
def test_pruned_dead_targets_vanish(case):
    check_dead_targets_vanish(*SYSTEMS[case])


@pytest.mark.parametrize("case", range(SPECS))
def test_deadness_matches_the_spread_scan(case):
    check_deadness_matches_spread_scan(*SYSTEMS[case])


def test_screened_draws_are_not_pv_and_exercise_the_screen_and_the_prs_gcd(screened, monkeypatch):
    """From a cleared registry, the screened draws' targets make the screen
    reject pairs and the certificate fall back to the PRS gcd, each many
    times."""
    rejected, fallbacks = [], []
    screen, minimal = core.cannot_certify, cfinite._minimal_annihilator
    monkeypatch.setattr(core, "cannot_certify",
                        lambda expr, memo: rejected.append(screen(expr, memo)) or rejected[-1])
    monkeypatch.setattr(cfinite, "_minimal_annihilator",
                        lambda *args: fallbacks.append(minimal(*args)) or fallbacks[-1])
    core._cache.cache_clear()
    for spec, _, targets in screened:
        assert pv_classify(spec.seq).kind != "pv"
        for st in targets:
            is_dead(spec, st)
    core._cache.cache_clear()
    assert sum(rejected) > 20 and len(fallbacks) > 20


@pytest.mark.parametrize("case", range(SCREENED_DRAWS))
def test_screened_deadness_matches_the_spread_scan(screened, case):
    spec, alpha, targets = screened[case]
    check_deadness_matches_spread_scan(spec, alpha, None, targets)


@pytest.mark.parametrize("case", range(SCREENED_DRAWS))
def test_screened_pair_records_are_fresh_certificates(screened, case):
    spec, alpha, targets = screened[case]
    check_pair_records_are_fresh_certificates(spec, alpha, None, targets)


def test_signed_draws_prune_states_whose_beta_differences_change_sign():
    """Dead targets of the signed draws hold factor pairs whose beta
    difference has a negative and a positive entry."""
    mixed = 0
    for spec, _, sys_ in SYSTEMS[-SIGNED_DRAWS:]:
        for st in {tgt for row_st in sys_.states for _, tgt in evolve(spec, row_st)}:
            betas = [beta for _, beta in st.factors]
            diffs = [[x - y for x, y in zip(a, b)] for a in betas for b in betas]
            mixed += is_dead(spec, st) and any(min(d) < 0 < max(d) for d in diffs)
    assert mixed > 50


@pytest.mark.parametrize("case", range(SPECS))
def test_pair_records_are_fresh_certificates(case):
    check_pair_records_are_fresh_certificates(*SYSTEMS[case])


@pytest.mark.parametrize("case", range(SPECS))
def test_gf_series_prefix_is_the_oracle(case):
    check_series_prefix(*SYSTEMS[case])


@pytest.mark.parametrize("case", range(SPECS))
def test_fit_equals_eliminate(case):
    check_fit_equals_eliminate(*SYSTEMS[case])


@pytest.mark.parametrize("case", range(SPECS))
def test_recurrence_served_terms_equal_the_sparse_stream(case):
    check_recurrence_stream(*SYSTEMS[case])


@pytest.mark.parametrize("chunk", (core._CHUNK, SMALL_CHUNK), ids=str)
@pytest.mark.parametrize("case", range(SPECS))
def test_oracle_int64_and_list_paths_agree(case, chunk, monkeypatch):
    monkeypatch.setattr(core, "_CHUNK", chunk)
    check_oracle_paths_agree(*SYSTEMS[case][:2], monkeypatch)


@pytest.mark.parametrize("case", range(SPECS))
def test_memo_served_system_equals_a_fresh_build(case):
    spec, alpha, _ = SYSTEMS[case]
    check_memo_served_system(spec, alpha, SYSTEMS[(case + 1) % SPECS][:2])


@pytest.mark.extended
@pytest.mark.parametrize("case", range(EXTENDED_SPECS))
def test_three_factor_draw_extended(case):
    draws = extended_systems()
    spec, alpha, sys_ = draws[case]
    for check in (check_matrix_powers, check_evolution_identity, check_dead_targets_vanish,
                  check_deadness_matches_spread_scan, check_fit_equals_eliminate,
                  check_series_prefix, check_recurrence_stream):
        check(spec, alpha, sys_)
    check_memo_served_system(spec, alpha, draws[(case + 1) % EXTENDED_SPECS][:2])
