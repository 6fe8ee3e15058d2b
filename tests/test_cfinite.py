import json
import pathlib
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sterngf import cfinite, cli, closure, core, gfs, polys
from sterngf.cfinite import (
    HORIZON,
    CFiniteSeq,
    PosExpr,
    SeqMemo,
    _annihilator,
    _cyclotomic_factor,
    _minimal_annihilator,
    _proves_minimal,
    cannot_certify,
    certify_eventually_positive,
    expr_values,
    indicial_poly,
    pv_classify,
    reduce_shift,
    shift_level,
    term,
)
from sterngf.roots import GRID

import reference_certificate

POW2 = CFiniteSeq((1,), (2,))
POW2P1 = CFiniteSeq((2, 3), (3, -2))   # 2^i + 1
FIB01 = CFiniteSeq((0, 1), (1, 1))


def k_bonacci(k):
    return CFiniteSeq((0,) + (1,) * (k - 1), (1,) * k)


def test_term_powers_of_two():
    assert term(POW2, 5) == 32


def test_term_two_to_i_plus_one():
    assert [term(POW2P1, i) for i in range(6)] == [2, 3, 5, 9, 17, 33]
    assert term(POW2P1, 5) == 33


def test_term_fibonacci():
    assert term(FIB01, 10) == 55


def test_term_rejects_negative_index():
    with pytest.raises(ValueError):
        term(POW2, -1)


def test_reduce_shift_basis_and_beyond():
    assert reduce_shift(FIB01, 1) == (0, 1)
    assert reduce_shift(FIB01, 2) == (1, 1)
    assert reduce_shift(FIB01, 3) == (1, 2)


def test_reduce_shift_identity_property():
    rng = random.Random(3)
    seqs = [POW2, POW2P1, FIB01, k_bonacci(3), CFiniteSeq((1, 0, 2), (2, 0, -1))]
    for seq in seqs:
        for J in range(13):
            a = reduce_shift(seq, J)
            for n in range(0, 31, 5):
                want = term(seq, n + J)
                got = sum(c * term(seq, n + j) for j, c in enumerate(a))
                assert got == want, (seq, J, n)


def test_shift_level_scalar_doubles():
    assert shift_level(POW2, (1,)) == (2,)
    assert shift_level(POW2, (3,)) == (6,)


def test_shift_level_fibonacci():
    assert shift_level(FIB01, (0, 1)) == (1, 1)


def test_shift_level_negative_coefficients():
    assert shift_level(POW2P1, (0, 1)) == (-2, 3)


def test_shift_level_semantics():
    for seq in (POW2, POW2P1, FIB01, k_bonacci(4)):
        rng = random.Random(17)
        L = seq.order
        for _ in range(12):
            beta = tuple(rng.randint(-3, 3) for _ in range(L))
            out = shift_level(seq, beta)
            for n in range(1, 31, 7):
                lhs = sum(b * term(seq, n - 1 + j) for j, b in enumerate(out))
                rhs = sum(b * term(seq, n + j) for j, b in enumerate(beta))
                assert lhs == rhs


def test_shift_level_linear():
    rng = random.Random(23)
    for _ in range(15):
        b1 = tuple(rng.randint(-3, 3) for _ in range(2))
        b2 = tuple(rng.randint(-3, 3) for _ in range(2))
        s = tuple(x + y for x, y in zip(b1, b2))
        got = tuple(x + y for x, y in zip(shift_level(FIB01, b1), shift_level(FIB01, b2)))
        assert shift_level(FIB01, s) == got


def test_indicial_poly():
    assert indicial_poly(POW2) == [-2, 1]
    assert indicial_poly(FIB01) == [-1, -1, 1]
    assert indicial_poly(POW2P1) == [2, -3, 1]


def test_pv_k_bonacci():
    for k in range(2, 7):
        assert pv_classify(k_bonacci(k)).kind == "pv", k


def test_pv_scalar():
    assert pv_classify(POW2).kind == "pv"


def test_pv_two_to_i_plus_one_not_pv_exact_reason():
    res = pv_classify(POW2P1)
    assert res.kind == "not_pv"
    assert "modulus 1" in res.reason


def test_pv_conjugate_outside():
    # X^2 - X - 4: roots ~2.56, ~-1.56 -> a conjugate outside the circle
    res = pv_classify(CFiniteSeq((0, 1), (1, 4)))
    assert res.kind == "not_pv"


def test_pv_no_root_exceeding_one():
    res = pv_classify(CFiniteSeq((1,), (1,)))
    assert res.kind == "not_pv"


def rational_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b by long division over Q."""
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        q = quo[k] = rem[-1] / b[-1]
        for i, c in enumerate(b):
            rem[k + i] -= q * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


@lru_cache(maxsize=None)
def rational_cyclotomic(k: int) -> tuple:
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num, rem = rational_divmod(num, list(rational_cyclotomic(d)))
            assert not rem
    return tuple(num)


@lru_cache(maxsize=None)
def totient(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


def reference_cyclotomic_factor(p: list, max_deg: int):
    """The scan over every k up to 4 L^2 + 6 that pv_classify used to make,
    with deg Phi_k = phi(k) and divisibility over Q."""
    for k in range(1, 4 * max_deg * max_deg + 7):
        if totient(k) <= max_deg and not rational_divmod(p, list(rational_cyclotomic(k)))[1]:
            return k
    return None


PV_PIN_POLYS = [
    [-2, -1, 1], [-2, -1, -1, 1], [-2, 1, -2, 1], [-2, -1, -1, -1, -1, 1],
    [-2, 3, -3, 1], [-2, 1, 0, 0, -2, 1], [-2, 3, -3, 3, -3, 1],
    [-2, 1, 2, -1, -2, 1], [1, 2, -1, -2, 1], [-6, -1, -2, 1], [-1, -1, 0, 1],
]


def test_cyclotomic_factor_matches_reference_scan():
    for q in PV_PIN_POLYS:
        assert _cyclotomic_factor(q, len(q) - 1) == reference_cyclotomic_factor(q, len(q) - 1), q
    assert [_cyclotomic_factor(q, len(q) - 1) for q in PV_PIN_POLYS[:8]] == [
        2, 3, 4, 5, 6, 8, 10, 12]
    rng = random.Random(5)
    small = [k for k in range(1, 40) if totient(k) <= 6]
    for _ in range(150):
        g = [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))] + [rng.choice([1, -1, 2])]
        p = polys.mul(g, list(rational_cyclotomic(rng.choice(small))))
        if rng.random() < 0.3:
            p = polys.mul(p, list(rational_cyclotomic(rng.choice(small))))
        p = [int(c) for c in p]
        L = len(p) - 1
        assert _cyclotomic_factor(p, L) == reference_cyclotomic_factor(p, L), p


# ---------------------------------------------------------------------------
# eventual positivity


def test_positive_constant_margin():
    # 2*2^n - 2(2^n - 1) = 2: the margin that kills the gap-2 state
    expr = PosExpr(POW2, shifts=((2, 0),), partials=((-2, (1,)),), const=0)
    assert [2 * 2 ** n - 2 * (2 ** n - 1) for n in range(4)] == [2, 2, 2, 2]
    assert certify_eventually_positive(expr).kind == "positive_for_all"


def test_not_always_positive_with_witness():
    # 2(2^n - 1) - 2^n = 2^n - 2: fails at n = 0
    expr = PosExpr(POW2, shifts=((-1, 0),), partials=((2, (1,)),), const=0)
    res = certify_eventually_positive(expr)
    assert res.kind == "not_always_positive"
    assert res.witness == 0


def test_negative_constant():
    expr = PosExpr(POW2, const=-1)
    res = certify_eventually_positive(expr)
    assert res.kind == "not_always_positive"
    assert res.witness == 0


def test_positive_growing():
    # 2^(n+1) - n - 3 is positive from n = 0 on... check: n=0: 2-0-3 < 0
    expr = PosExpr(POW2, shifts=((2, 0),), const=-3, partials=((1, (0,)),))
    # partial of the zero form is 0; expr = 2*2^n - 3: n=0 -> -1
    res = certify_eventually_positive(expr)
    assert res.kind == "not_always_positive" and res.witness == 0
    expr2 = PosExpr(POW2, shifts=((2, 0),), const=-1)
    assert certify_eventually_positive(expr2).kind == "positive_for_all"


def test_positive_fibonacci_difference():
    # f(n+1) - f(n) + 1 > 0 for the Fibonacci-style exponent sequence
    seq = CFiniteSeq((1, 2), (1, 1))
    expr = PosExpr(seq, shifts=((1, 1), (-1, 0)), const=1)
    assert certify_eventually_positive(expr).kind == "positive_for_all"


def test_positivity_soundness_spot_check():
    # never claim positive-for-all when a nonpositive value exists well past
    # the horizon: expressions vanishing at some n <= 10 * horizon
    seq = POW2
    horizon = 6
    for drop in (40, 55):
        # 2^drop - 2^n is zero at n = drop > horizon
        expr = PosExpr(seq, shifts=((-1, 0),), const=2 ** drop)
        res = certify_eventually_positive(expr, horizon=horizon)
        assert res.kind != "positive_for_all"


def test_positivity_alternating_unknown_or_witness():
    # (-2)^n sequence: never certified positive
    seq = CFiniteSeq((1,), (-2,))
    expr = PosExpr(seq, shifts=((1, 0),))
    assert certify_eventually_positive(expr).kind != "positive_for_all"


COOKBOOK = pathlib.Path(cli.__file__).parent / "cookbook"
COOKBOOK_SEQS = sorted({
    CFiniteSeq(tuple(d["seq"]["init"]), tuple(d["seq"]["rec"]))
    for d in (json.loads(p.read_text()) for p in COOKBOOK.glob("*.json"))
}, key=lambda seq: (seq.order, seq.init, seq.rec))
CHECK_UPTO = 300


@st.composite
def cookbook_exprs(draw):
    """Shifted terms, at most one partial sum and a constant over a cookbook
    sequence, with a horizon that is often short, so the tail certificate
    does the work."""
    seq = draw(st.sampled_from(COOKBOOK_SEQS))
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    shifts = draw(st.lists(st.tuples(coeff, st.integers(0, 9)), max_size=3))
    partials = draw(st.lists(st.tuples(
        coeff, st.tuples(*[st.integers(-2, 2)] * seq.order)), max_size=1))
    const = draw(st.integers(-40, 40))
    horizon = draw(st.sampled_from([0, 2, 5, 12, 64]))
    return PosExpr(seq, tuple(shifts), tuple(partials), const), horizon


def brute_values(expr: PosExpr, upto: int) -> list[int]:
    """expr(0..upto) straight from the recurrence, independently of the memo."""
    seq = expr.seq
    L = seq.order
    f = list(seq.init)
    while len(f) < upto + 10 + L:
        f.append(sum(c * v for c, v in zip(seq.rec, reversed(f[-L:]))))
    out = [expr.const + sum(c * f[n + off] for c, off in expr.shifts)
           for n in range(upto + 1)]
    for c, form in expr.partials:
        total = 0
        for n in range(upto + 1):
            out[n] += c * total
            total += sum(b * f[n + j] for j, b in enumerate(form))
    return out


# 2f(n+1) - 3f(n) on the Fibonacci-style sequence 1, 2, 3, 5, ... is
# 1, 0, 1, 1, 2, 3, ...: its dominant mode is positive, so at horizon 0 only
# the exact check up to the crossover can find the zero at n = 1
DIP = PosExpr(CFiniteSeq((1, 2), (1, 1)), shifts=((2, 1), (-3, 0)))


@settings(max_examples=300, deadline=None)
@given(cookbook_exprs())
@example((DIP, 0))
@example((PosExpr(DIP.seq, DIP.shifts, const=1), 0))
def test_certificate_sound_on_cookbook_sequences(case):
    expr, horizon = case
    res = certify_eventually_positive(expr, horizon)
    if res.kind == "unknown":
        return
    vals = brute_values(expr, max(CHECK_UPTO, res.witness or 0))
    if res.kind == "positive_for_all":
        assert min(vals) > 0
    else:
        assert res.kind == "not_always_positive"
        assert vals[res.witness] <= 0
        assert all(v > 0 for v in vals[:res.witness])


@settings(max_examples=300, deadline=None)
@given(cookbook_exprs())
@example((DIP, 0))
@example((PosExpr(DIP.seq, DIP.shifts, const=1), 0))
def test_residue_screen_agrees_with_the_certificate(case):
    """A screen rejection means the certificate is not positive, and an
    annihilator the residues prove minimal is the one the PRS gcd finds."""
    expr, horizon = case
    memo = SeqMemo(expr.seq)
    if cannot_certify(expr, memo):
        assert not certify_eventually_positive(expr, horizon, memo).is_positive
    A, n0 = _annihilator(expr)
    if _proves_minimal(memo, expr):
        assert _minimal_annihilator(expr_values(memo, expr, n0 + len(A)), A, n0) == A


def test_screen_without_shifted_terms():
    """Equal betas with different d give a pair expression with no shifted
    term, read from n0 = 2L + 2.  Over f = 0 it is a constant, whose
    annihilator X - 1 the residues cannot prove minimal; over 2^n + 1 its
    full annihilator (X - 2)(X - 1)^2 is minimal and has no growth data, so
    the screen rejects it, though it is positive and the certificate says
    "unknown"."""
    spec, _ = cli.parse_spec({"P": [1], "seq": {"init": [0], "rec": [2]},
                              "factor": [{"c": 1, "e": [0]}, {"c": 1, "e": [1]}]})
    tail_form, base = core._cache(spec).tail
    memo = SeqMemo(spec.seq)
    expr = PosExpr(spec.seq, partials=((-1, tail_form),), const=3 - base)
    assert _annihilator(expr) == ([2, -3, 1], 4)
    assert not _proves_minimal(memo, expr)
    assert not cannot_certify(expr, memo)
    assert certify_eventually_positive(expr, memo=memo).is_positive
    expr = PosExpr(POW2P1, partials=((1, (1, 0)),), const=5)
    assert _annihilator(expr) == ([-2, 5, -4, 1], 6)
    assert cannot_certify(expr, memo := SeqMemo(POW2P1))
    assert certify_eventually_positive(expr, memo=memo).kind == "unknown"


def test_screen_passes_expressions_of_shifted_terms_alone():
    """No partial sum and no constant: A is the indicial polynomial alone,
    of degree 1 for 2^n, where the certificate's geometric branch decides,
    and of degree 2 for 2^n + 1, whose A has growth data."""
    for expr, A in [(PosExpr(POW2, shifts=((1, 0),)), [-2, 1]),
                    (PosExpr(POW2P1, shifts=((1, 3),)), [2, -3, 1])]:
        memo = SeqMemo(expr.seq)
        assert _annihilator(expr)[0] == A
        assert not cannot_certify(expr, memo)
        assert certify_eventually_positive(expr, memo=memo).is_positive


# ---------------------------------------------------------------------------
# the reference certificate


def matches_reference(expr, horizon=HORIZON, memo=None):
    """Certificate and screen of expr, on memo (a fresh one by default),
    equal the former ones of `reference_certificate`; returns the
    certificate."""
    memo = memo or SeqMemo(expr.seq)
    got = certify_eventually_positive(expr, horizon, memo)
    want = reference_certificate.certify_eventually_positive(expr, horizon)
    assert (got.kind, got.witness) == (want.kind, want.witness), (expr, horizon)
    assert cannot_certify(expr, memo) == reference_certificate.cannot_certify(expr), expr
    return got


@lru_cache(maxsize=16)
def shared_memo(seq):
    return SeqMemo(seq)


@settings(max_examples=300, deadline=None)
@given(cookbook_exprs())
@example((DIP, 0))
def test_certificate_matches_the_reference_on_cookbook_sequences(case):
    """On one memo per sequence, so the draws share their frames."""
    expr, horizon = case
    matches_reference(expr, horizon, shared_memo(expr.seq))


def test_certificates_match_the_reference_on_closures(monkeypatch):
    """Every certificate and screen that the five cold closures and three
    more make, from a cleared registry, equals the reference's."""
    made, screened = [], []
    certify, screen = core.certify_eventually_positive, core.cannot_certify

    def recording(expr, horizon=HORIZON, memo=None):
        got = certify(expr, horizon, memo)
        made.append((expr, horizon, got.kind, got.witness))
        return got

    def screening(expr, memo):
        got = screen(expr, memo)
        screened.append((expr, got))
        return got

    monkeypatch.setattr(core, "certify_eventually_positive", recording)
    monkeypatch.setattr(core, "cannot_certify", screening)
    core._cache.cache_clear()
    try:
        for name, alpha, limit in CLOSURE_COLD + [("fibonacci", [4], 5000),
                                                  ("challenge", [1, 1], 500),
                                                  ("tribonacci", [1, 1], 5000)]:
            spec, _ = cli.load_spec_file(str(COOKBOOK / f"{name}.json"))
            try:
                closure.build_system(spec, alpha, limit=limit)
            except closure.LimitExceeded:
                assert name == "challenge"
    finally:
        core._cache.cache_clear()
    for expr, horizon, kind, witness in made:
        want = reference_certificate.certify_eventually_positive(expr, horizon)
        assert (kind, witness) == (want.kind, want.witness), (expr, horizon)
    for expr, rejected in screened:
        assert rejected == reference_certificate.cannot_certify(expr), expr
    assert len(made) > 400 and len(screened) > 1300 and sum(r for _, r in screened) > 900


def test_growth_data_matches_the_reference_on_closures(monkeypatch):
    """For every (A, n0) whose growth data the closures of the cold
    benchmark workloads ask for, from a cleared registry, `_growth_data`
    holds the reference's numerators field for field: an interval as its
    (lo, hi) pair, the dominant root as its lower end, and the steps
    (rho^j, tau^j) as the reference's certificate computes them."""
    asked = {}
    growth = cfinite._growth_data

    def recording(memo, A, n0):
        asked[memo.seq, A, n0] = growth(memo, A, n0)
        return asked[memo.seq, A, n0]

    def pair(x):
        return (x.lo, x.hi) if hasattr(x, "lo") else x

    monkeypatch.setattr(cfinite, "_growth_data", recording)
    core._cache.cache_clear()
    try:
        for name, alpha, limit in CLOSURE_COLD + [("base_stern", [2], 5000)]:
            spec, _ = cli.load_spec_file(str(COOKBOOK / f"{name}.json"))
            try:
                closure.build_system(spec, alpha, limit=limit)
            except closure.LimitExceeded:
                assert name == "challenge"
    finally:
        core._cache.cache_clear()
    for (seq, A, n0), got in asked.items():
        want = reference_certificate._growth_data(seq, A, n0)
        if want is None:
            assert got is None, (A, n0)
            continue
        rho, b, tau, rho_pow, dA_rho_pow, rho_lo_pow = want
        steps, rpow, tpow = [], reference_certificate.Iv.point(1), GRID
        for _ in range(max(len(A) - 2, 1)):
            steps.append((rpow.lo, rpow.hi, tpow))
            rpow, tpow = rpow * rho, tpow * tau[0] // tau[1]
        assert tuple(map(pair, got)) == (
            rho.lo, tuple(map(pair, b)), tau, pair(rho_pow), pair(dA_rho_pow),
            rho_lo_pow, tuple(steps)), (A, n0)
    assert len(asked) > 12 and sum(g is not None for g in asked.values()) > 10


F321 = CFiniteSeq((3, 6, 14), (6, -11, 6))  # 3^i + 2^i + 1


def test_residue_proofs_read_each_expressions_own_frame():
    """f(n + 1) and f(n + 1) + 1 share n0 but not their annihilator, the
    indicial polynomial and (X - 1) times it: each is proved minimal from
    its own frame, and the two frames are distinct objects."""
    memo = SeqMemo(FIB01)
    plain, with_const = PosExpr(FIB01, shifts=((1, 1),)), PosExpr(FIB01, shifts=((1, 1),), const=1)
    assert _proves_minimal(memo, plain) and _proves_minimal(memo, with_const)
    assert memo.frame(plain) is not memo.frame(with_const)
    for expr in (plain, with_const):
        assert tuple(memo.frame(expr)[:2]) == _annihilator(expr)


@pytest.mark.parametrize("expr", [
    # no shifted term: n0 = 2L + 2
    PosExpr(POW2P1, partials=((1, (1, 0)),), const=5),
    PosExpr(FIB01, partials=((2, (0, 1)),), const=-3),
    PosExpr(F321, partials=((-1, (1, 0, 0)),), const=40),
    # no partial sum and no constant: A is the indicial polynomial
    PosExpr(POW2, shifts=((3, 2),)),
    PosExpr(POW2P1, shifts=((1, 3), (-1, 1))),
    PosExpr(k_bonacci(3), shifts=((2, 4), (-1, 0))),
    # two shifts at the same offset
    PosExpr(FIB01, shifts=((3, 4), (-2, 4), (1, 0)), const=1),
    PosExpr(POW2P1, shifts=((1, 2), (1, 2)), partials=((-1, (1, 0)),)),
])
def test_certificate_edge_cases_match_the_reference(expr):
    A, n0 = _annihilator(expr)
    assert n0 == 2 * expr.seq.order + 2 + max((off for _, off in expr.shifts), default=0)
    assert len(A) == expr.seq.order + 1 + bool(expr.partials or expr.const)
    for horizon in (0, 5, HORIZON):
        matches_reference(expr, horizon)


@pytest.mark.parametrize("expr, least", [
    # 2f(n) - f(n+1) = 1 on 2^n + 1: the constant's X - 1 divides A
    (PosExpr(POW2P1, shifts=((2, 0), (-1, 1))), [-1, 1]),
    # f(n+1) - f(n) = 2 * 3^n + 2^n: a quadratic with growth data
    (PosExpr(F321, shifts=((1, 1), (-1, 0))), [6, -5, 1]),
])
def test_failed_residue_proof_matches_the_reference(monkeypatch, expr, least):
    """When the residues cannot prove A minimal, the PRS gcd finds the
    least annihilator, and the certificate goes on from it."""
    found = []
    minimal = cfinite._minimal_annihilator

    def recording(vals, A, n0):
        found.append(minimal(vals, A, n0))
        return found[-1]

    monkeypatch.setattr(cfinite, "_minimal_annihilator", recording)
    assert matches_reference(expr).is_positive
    assert found == [least]


# ---------------------------------------------------------------------------
# minimal annihilators


def reference_minimal_annihilator(vals, A, n0):
    """The minimal annihilator as it was guessed and proved: Berlekamp-Massey
    over Q on a window of 3k + 8 values proposes m, which is accepted only if
    it divides A and m(E)expr vanishes on deg(A/m) consecutive points."""
    k = polys.degree(A)
    window = vals[n0:n0 + 3 * k + 8]
    L, C = gfs.berlekamp_massey(window)
    if L >= k or 2 * L + 2 > len(window):
        return A
    cand = C[::-1]
    quot = polys.exact_quotient(A, cand)
    if quot is None:
        return A
    d = len(cand) - 1
    for s in range(len(quot)):
        if sum(cand[j] * vals[n0 + s + j] for j in range(d + 1)):
            return A
    return cand


def extend_by(A, vals, upto):
    """vals continued through index upto by the monic recurrence A(E) = 0."""
    k = polys.degree(A)
    out = list(vals)
    while len(out) <= upto:
        out.append(-sum(A[j] * out[len(out) - k + j] for j in range(k)))
    return out


CLOSURE_COLD = [("base_stern", [6], 5000), ("base_stern", [1, 1, 1, 1], 5000),
                ("fibonacci", [3], 5000), ("tribonacci", [2], 5000),
                ("challenge", [2], 500)]


def test_minimal_annihilator_matches_reference_on_closures(monkeypatch):
    """Every annihilator that five cold closures, and challenge [1,1],
    settle is the one the Berlekamp-Massey guess, given its full window,
    proves: when residues prove the full A minimal, when the PRS gcd
    computes it, and when the deadness screen rejects a pair because A is
    minimal and has no growth data.  Deadness settles each pair expression
    once per spec, so the five settle about 650 annihilators, and
    challenge [1,1] adds 469."""
    settled, screened = [], []
    proves_minimal, minimal = cfinite._proves_minimal, cfinite._minimal_annihilator
    screen = core.cannot_certify

    def check(memo, expr, A, n0, got):
        window = cfinite.expr_values(memo, expr, n0 + 3 * polys.degree(A) + 8)
        assert got == reference_minimal_annihilator(window, A, n0), (expr, A, n0)

    def residue_checked(memo, expr):
        proved = proves_minimal(memo, expr)
        if proved:
            A, n0 = memo.frame(expr)[:2]
            check(memo, expr, A, n0, A)
            settled.append(False)
        return proved

    def gcd_checked(vals, A, n0):
        got = minimal(vals, A, n0)
        window = extend_by(A, vals, n0 + 3 * polys.degree(A) + 8)
        assert got == reference_minimal_annihilator(window, A, n0), (A, n0)
        settled.append(len(got) < len(A))
        return got

    def screen_checked(expr, memo):
        rejected = screen(expr, memo)
        if rejected:
            A, n0 = cfinite._annihilator(expr)
            check(memo, expr, A, n0, A)
            assert cfinite._growth_data(memo, tuple(A), n0) is None
            screened.append(expr)
        return rejected

    monkeypatch.setattr(cfinite, "_proves_minimal", residue_checked)
    monkeypatch.setattr(cfinite, "_minimal_annihilator", gcd_checked)
    monkeypatch.setattr(core, "cannot_certify", screen_checked)
    core._cache.cache_clear()
    try:
        for name, alpha, limit in CLOSURE_COLD + [("challenge", [1, 1], 500)]:
            spec, _ = cli.load_spec_file(str(COOKBOOK / f"{name}.json"))
            try:
                closure.build_system(spec, alpha, limit=limit)
            except closure.LimitExceeded:
                assert name == "challenge"
    finally:
        core._cache.cache_clear()
    assert len(settled) > 1000 and any(settled) and len(screened) > 900


def test_minimal_annihilator_matches_reference_on_random_sequences():
    """Sequences annihilated by products of cyclotomics, X - 1 and random
    integer quadratics, often lying in a proper factor's solution space.
    The gcd reads vals[n0:n0 + k] only: the values before n0 are junk and
    none follow."""
    rng = random.Random(10)
    shrunk = 0
    for _ in range(200):
        factors = [polys.cyclotomic(rng.randint(1, 12)) for _ in range(rng.randint(0, 2))]
        factors += [[-1, 1]] * rng.randint(0, 2)
        for _ in range(rng.randint(0, 2)):
            factors.append([rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-4, 4), 1])
        if not factors:
            factors = [[-2, 1]]
        A = [1]
        for f in factors:
            A = polys.mul(A, f)
        sub = [f for f in factors if rng.random() < 0.6] or [[1]]
        B = [1]
        for f in sub:
            B = polys.mul(B, f)
        k = polys.degree(A)
        n0 = rng.randint(0, 6)
        seed = [rng.randint(-9, 9) for _ in range(polys.degree(B))]
        vals = [rng.randint(-99, 99) for _ in range(n0)] + extend_by(B, seed, 3 * k + 8)
        got = _minimal_annihilator(vals[:n0 + k], A, n0)
        assert got == reference_minimal_annihilator(vals, A, n0), (A, B, seed, n0)
        assert got[-1] == 1 and polys.exact_quotient(A, got) is not None
        shrunk += len(got) < len(A)
    assert shrunk > 50


def test_closure_never_calls_berlekamp_massey(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("berlekamp_massey called")

    monkeypatch.setattr(gfs, "berlekamp_massey", refuse)
    core._cache.cache_clear()
    try:
        spec, _ = cli.load_spec_file(str(COOKBOOK / "base_stern.json"))
        assert closure.build_system(spec, [6]).dim > 0
    finally:
        core._cache.cache_clear()
