import json
import pathlib
import random

import numpy as np
import pytest

from sterngf import cli, core, polys
from sterngf import (
    CFiniteSeq,
    ProductSpec,
    ResourceLimitError,
    SpecValidationError,
    State,
    canonicalize,
    evolve,
    expand_Fn,
    expand_levels,
    initial_value,
    is_dead,
    root_state,
    state_oracle,
    term,
    u_alpha_oracle,
    u_alpha_terms,
    validate_alpha,
)

ORACLE = json.load(open(pathlib.Path(__file__).parent / "_oracle_data.json"))

BASE = ProductSpec(P=(1,), seq=CFiniteSeq((1,), (2,)),
                   terms=((1, (0,)), (1, (1,)), (1, (2,))))
FIB = ProductSpec(P=(1,), seq=CFiniteSeq((1, 2), (1, 1)),
                  terms=((1, (0, 0)), (1, (1, 0)), (1, (0, 1))))
CHALLENGE = ProductSpec(P=(1,), seq=CFiniteSeq((2, 3), (3, -2)),
                        terms=((1, (0, 0)), (1, (1, 0)), (1, (0, 1))))

F0 = State(((0, (0,)), (0, (0,))))
F1 = State(((0, (0,)), (0, (1,))))


# ---------------------------------------------------------------------------
# spec validation


def test_alpha_validation():
    assert validate_alpha([2]) == (2,)
    assert validate_alpha((1, 0, 2)) == (1, 0, 2)
    for bad in ([], [0, 1], [2, 0], [-1]):
        with pytest.raises(SpecValidationError):
            validate_alpha(bad)


def test_spec_rejects_duplicate_exponent():
    with pytest.raises(SpecValidationError):
        ProductSpec(P=(1,), seq=CFiniteSeq((1,), (2,)),
                    terms=((1, (1,)), (2, (1,))))


def test_spec_rejects_zero_coefficient():
    with pytest.raises(SpecValidationError):
        ProductSpec(P=(1,), seq=CFiniteSeq((1,), (2,)), terms=((0, (1,)),))


def test_spec_rejects_zero_polynomial():
    with pytest.raises(SpecValidationError):
        ProductSpec(P=(0,), seq=CFiniteSeq((1,), (2,)), terms=((1, (1,)),))


def test_spec_rejects_negative_exponent_form():
    # f(i) = 2^i: the form 2 f(i) - 3 f(i+1) is negative everywhere
    with pytest.raises(SpecValidationError):
        ProductSpec(P=(1,), seq=CFiniteSeq((1, 2), (0, 2)),
                    terms=((1, (0, 0)), (1, (2, -3))),)


@pytest.mark.parametrize("seq, form, msg", [
    # f = 1, -2, 4, ...: first negative at level 1
    (CFiniteSeq((1,), (-2,)), (1,), "exponent form (1,) is negative at level 1"),
    # f(i) = 100 - i: nonnegative through level 64, negative from level 101
    (CFiniteSeq((100, 99), (2, -1)), (1, 0),
     "cannot certify exponent form (1, 0) stays nonnegative"),
])
def test_spec_validation_messages(seq, form, msg):
    zero = (0,) * seq.order
    with pytest.raises(SpecValidationError) as exc:
        ProductSpec(P=(1,), seq=seq, terms=((1, zero), (1, form)))
    assert str(exc.value) == msg


# ---------------------------------------------------------------------------
# states and canonical form


def test_root_state_square():
    assert root_state([2], 1) == F0


def test_root_state_pair():
    assert root_state([1, 1], 1) == State(((0, (0,)), (1, (0,))))


def test_root_state_run_of_five():
    st = root_state([1, 1, 1, 1, 1], 1)
    assert [d for d, _ in st.factors] == [0, 1, 2, 3, 4]


def test_canonicalize_shifts_to_zero_minimum():
    # the (1,1)-shifted square collapses back to the plain square
    assert canonicalize([(0, (1,)), (0, (1,))]) == F0


def test_canonicalize_sorts_factors():
    a = canonicalize([(0, (1,)), (0, (0,))])
    b = canonicalize([(0, (0,)), (0, (1,))])
    assert a == b == F1


def test_canonicalize_idempotent():
    rng = random.Random(1)
    for _ in range(50):
        raw = [(rng.randint(-2, 2), (rng.randint(-3, 3), rng.randint(-3, 3)))
               for _ in range(rng.randint(1, 4))]
        st = canonicalize(raw)
        assert canonicalize(list(st.factors)) == st


def test_canonicalize_permutation_invariant():
    rng = random.Random(2)
    for _ in range(50):
        raw = [(rng.randint(-2, 2), (rng.randint(-3, 3),))
               for _ in range(rng.randint(1, 4))]
        shuffled = raw[:]
        rng.shuffle(shuffled)
        assert canonicalize(raw) == canonicalize(shuffled)


def test_canonicalize_translation_invariant():
    rng = random.Random(3)
    for _ in range(50):
        raw = [(rng.randint(-2, 2), (rng.randint(-3, 3), rng.randint(-3, 3)))
               for _ in range(rng.randint(1, 4))]
        g = (rng.randint(-5, 5), rng.randint(-5, 5))
        moved = [(d, tuple(b + x for b, x in zip(beta, g))) for d, beta in raw]
        assert canonicalize(raw) == canonicalize(moved)


# ---------------------------------------------------------------------------
# deadness


def test_dead_gap_two():
    assert is_dead(BASE, State(((0, (0,)), (0, (2,)))))


def test_dead_gap_three():
    assert is_dead(BASE, State(((0, (0,)), (0, (3,)))))


def test_alive_f1():
    assert not is_dead(BASE, F1)


def test_dead_states_evaluate_to_zero():
    dead = [State(((0, (0,)), (0, (2,)))), State(((0, (0,)), (0, (3,))))]
    for st in dead:
        for n in range(13):
            assert state_oracle(BASE, st, n) == 0, (st, n)


def test_deadness_with_nontrivial_P():
    # a wide P keeps the gap-2 state alive at n = 0 (supports overlap there),
    # so pruning it would corrupt initial conditions
    spec = ProductSpec(P=(1, 1, 1, 1), seq=CFiniteSeq((1,), (2,)),
                       terms=((1, (0,)), (1, (1,)), (1, (2,))))
    st = State(((0, (0,)), (0, (2,))))
    assert state_oracle(spec, st, 0) == 2
    assert not is_dead(spec, st)


# ---------------------------------------------------------------------------
# evolution: the worked two-state example


def test_evolve_f0():
    row = evolve(BASE, F0)
    assert row == [(3, F0), (4, F1)]


def test_evolve_f1():
    row = evolve(BASE, F1)
    assert row == [(1, F0), (2, F1)]


def test_evolve_single_factor_row_sum():
    row = evolve(BASE, root_state([1], 1))
    assert row == [(3, root_state([1], 1))]


def test_initial_values_worked_example():
    assert initial_value(BASE, F0) == 1
    assert initial_value(BASE, F1) == 0


def test_initial_value_nontrivial_P():
    spec = ProductSpec(P=(1, 1), seq=CFiniteSeq((1,), (2,)),
                       terms=((1, (0,)), (1, (1,)), (1, (2,))))
    assert initial_value(spec, root_state([2], 1)) == 2


def test_evolution_soundness_bfs_3_levels():
    # f_S(n) = sum coeff * f_S'(n-1) for every state reachable in 3 steps
    for spec in (BASE, FIB):
        seen = {root_state([2], spec.seq.order)}
        frontier = list(seen)
        for _ in range(3):
            nxt = []
            for st in frontier:
                for _, tgt in evolve(spec, st):
                    if tgt not in seen:
                        seen.add(tgt)
                        nxt.append(tgt)
            frontier = nxt
        coeffs = {n: expand_Fn(spec, n) for n in range(9)}
        for st in seen:
            row = evolve(spec, st)
            for n in range(1, 9):
                lhs = state_oracle(spec, st, n, coeffs=coeffs[n])
                rhs = sum(c * state_oracle(spec, tgt, n - 1, coeffs=coeffs[n - 1])
                          for c, tgt in row)
                assert lhs == rhs, (spec.seq, st, n)


def test_scalar_specialization_shift_is_multiplication():
    st = State(((0, (3,)), (1, (1,))))
    row = evolve(BASE, st)
    # all targets' betas derive from doubled betas plus term exponents
    for _, tgt in row:
        assert all(b >= 0 for _, beta in tgt.factors for b in beta)


# ---------------------------------------------------------------------------
# brute-force expansion and oracles


def test_expand_F0_is_P():
    assert list(expand_Fn(BASE, 0)) == [1]


def test_expand_F2_hand():
    assert list(expand_Fn(BASE, 2)) == [1, 1, 2, 1, 2, 1, 1]


def test_expand_degree_formula():
    for n in range(7):
        assert len(expand_Fn(BASE, n)) - 1 == 2 * (2 ** n - 1)


def test_expand_python_and_numpy_agree():
    for spec in (BASE, FIB, CHALLENGE):
        for n in range(7):
            a = expand_Fn(spec, n)
            b = expand_Fn(spec, n, force_python=True)
            assert [int(x) for x in a] == [int(x) for x in b]


def test_expand_resource_bound():
    with pytest.raises(ResourceLimitError):
        expand_Fn(BASE, 40)
    with pytest.raises(ValueError):
        expand_Fn(BASE, -1)


def test_expand_levels_match_the_product_definition():
    for spec in (BASE, FIB, CHALLENGE):
        want = [list(spec.P)]
        for i in range(7):
            exps = [(c, sum(x * term(spec.seq, i + j) for j, x in enumerate(e)))
                    for c, e in spec.terms]
            factor = [0] * (1 + max(k for _, k in exps))
            for c, k in exps:
                factor[k] += c
            want.append(polys.mul(want[-1], factor))
        for force_python in (False, True):
            levels = list(expand_levels(spec, 7, force_python=force_python))
            assert [polys.normalize([int(x) for x in a]) for a in levels] == want


def test_expand_levels_names_first_level_over_limit():
    # deg F_n = 2^(n+1) - 2 for base Stern: F_7 is the first over 200
    msg = r"^F_7 needs 255 coefficients \(limit 200\)$"
    with pytest.raises(ResourceLimitError, match=msg):
        expand_levels(BASE, 12, max_coeffs=200)


def test_state_oracle_worked_values():
    assert state_oracle(BASE, F1, 1) == 1
    assert state_oracle(BASE, F0, 2) == 13


def test_state_oracle_matches_initial_value():
    for spec in (BASE, FIB, CHALLENGE):
        for st in (root_state([2], spec.seq.order), root_state([1, 1], spec.seq.order)):
            assert state_oracle(spec, st, 0) == initial_value(spec, st)


def test_root_state_value_equals_u_alpha():
    for spec in (BASE, FIB):
        for alpha in ([2], [1, 1], [3]):
            st = root_state(alpha, spec.seq.order)
            for n in range(9):
                assert state_oracle(spec, st, n) == u_alpha_oracle(spec, alpha, n)


def test_u_alpha_base_u2():
    assert [u_alpha_oracle(BASE, [2], n) for n in range(6)] == [1, 3, 13, 59, 269, 1227]


def test_u_alpha_row_sums():
    # alpha=[1] is just F_n(1) = P(1) * (sum of c_j)^n
    for n in range(6):
        assert u_alpha_oracle(BASE, [1], n) == 3 ** n


def test_u_alpha_challenge_prefix():
    got = [u_alpha_oracle(CHALLENGE, [2], n) for n in range(9)]
    assert got == ORACLE["challenge_w"][:9]


def test_u_alpha_fib_prefix():
    got = [u_alpha_oracle(FIB, [2], n) for n in range(10)]
    assert got == ORACLE["fib_u2"][:10]


def test_u_alpha_terms_match_per_level_oracle():
    for spec, alpha, n in ((BASE, [2], 8), (FIB, [1, 1], 10), (CHALLENGE, [2], 14)):
        assert u_alpha_terms(spec, alpha, n) == [
            u_alpha_oracle(spec, alpha, m) for m in range(n + 1)]
    assert u_alpha_terms(BASE, [2], -1) == []


def test_u_alpha_terms_follow_the_u2_recurrence_across_chunks():
    # F_17 has 2^18 - 1 coefficients: the numpy sum runs over several chunks
    u = u_alpha_terms(BASE, [2], 17)
    assert u[:2] == [1, 3]
    assert all(u[n] == 5 * u[n - 1] - 2 * u[n - 2] for n in range(2, 18))


COOKBOOK_SPECS = [cli.load_spec_file(str(path))[0] for path in
                  sorted((pathlib.Path(cli.__file__).parent / "cookbook").glob("*.json"))]
DEGREE_TWO = ([1], [2], [1, 1], [1, 0, 1])  # the patterns of total degree <= 2


def oracle_values(spec, alpha, n):
    """The set of (u_alpha(n), root state's value) pairs from the int64
    array, the Python-integer list and a tuple of F_n's coefficients; the
    array's numpy sum must run, so the dispatch is what is compared."""
    arr = expand_Fn(spec, n)
    lst = expand_Fn(spec, n, force_python=True)
    assert isinstance(arr, np.ndarray) and isinstance(lst, list)
    assert core._u_alpha_numpy(arr, tuple(alpha)) is not None
    st = root_state(alpha, spec.seq.order)
    return {(u_alpha_oracle(spec, alpha, n, coeffs=c), state_oracle(spec, st, n, coeffs=c))
            for c in (arr, lst, tuple(lst))}


@pytest.mark.parametrize("alpha", DEGREE_TWO, ids=str)
def test_oracle_paths_agree_on_cookbook_specs(alpha):
    for spec in COOKBOOK_SPECS:
        for n in (3, 8):
            want = {(u_alpha_oracle(spec, alpha, n),) * 2}
            assert oracle_values(spec, alpha, n) == want, (spec, n)


def test_oracle_paths_agree_across_numpy_chunks():
    # F_17 has 2^18 - 1 coefficients, four chunks of the numpy sum
    assert oracle_values(BASE, [2], 17) == {(u_alpha_terms(BASE, [2], 17)[17],) * 2}
