import json
import pathlib

import pytest

from sterngf import (
    CFiniteSeq,
    LimitExceeded,
    ProductSpec,
    build_system,
    guess_gf,
    make_gf,
    series,
    solve_gf,
    stream_terms,
    u_alpha_oracle,
)
from sterngf import cli, closure, polys

COOKBOOK = pathlib.Path(cli.__file__).parent / "cookbook"
ORACLE = json.load(open(pathlib.Path(__file__).parent / "_oracle_data.json"))

BASE = ProductSpec(P=(1,), seq=CFiniteSeq((1,), (2,)),
                   terms=((1, (0,)), (1, (1,)), (1, (2,))))
FIB = ProductSpec(P=(1,), seq=CFiniteSeq((1, 2), (1, 1)),
                  terms=((1, (0, 0)), (1, (1, 0)), (1, (0, 1))))
CHALLENGE = ProductSpec(P=(1,), seq=CFiniteSeq((2, 3), (3, -2)),
                        terms=((1, (0, 0)), (1, (1, 0)), (1, (0, 1))))

U2_GF = make_gf([1, -2], [1, -5, 2])


def test_build_worked_example_matrix():
    s = build_system(BASE, [2])
    assert s.dim == 2
    assert s.rows == [[(0, 3), (1, 4)], [(0, 1), (1, 2)]]
    assert s.v == [1, 0]
    assert s.root == 0
    assert s.report.outcome == "closed"


def test_build_single_factor():
    s = build_system(BASE, [1])
    assert s.dim == 1
    assert s.rows == [[(0, 3)]]
    assert s.v == [1]


def test_build_deterministic():
    a = build_system(FIB, [2])
    b = build_system(FIB, [2])
    assert a.states == b.states
    assert a.rows == b.rows
    assert a.v == b.v


def test_limit_exceeded_is_reported_not_crashed():
    with pytest.raises(LimitExceeded) as ei:
        build_system(CHALLENGE, [2], limit=100)
    rep = ei.value.report
    assert rep.outcome == "limit_exceeded"
    assert rep.state_count > rep.limit == 100
    assert rep.to_json()["outcome"] == "limit_exceeded"


def test_stream_terms_match_series():
    s = build_system(BASE, [2])
    assert stream_terms(s, 4) == [1, 3, 13, 59, 269]
    assert series(U2_GF, 9) == stream_terms(s, 8)


def power_terms(sys_, n):
    """u(0..n) from plain products M v, independent of stream_terms."""
    vec = list(sys_.v)
    out = [vec[sys_.root]]
    for _ in range(n):
        vec = [sum(c * vec[col] for col, c in row) for row in sys_.rows]
        out.append(vec[sys_.root])
    return out


# deg num >= deg den for base_stern [3], [5] and fibonacci [2], so the
# numerator enters the recurrence past deg den too
@pytest.mark.parametrize("name, alpha", [
    ("base_stern", [3]), ("base_stern", [5]), ("fibonacci", [2]),
    ("base_stern", [1, 0, 1]), ("tribonacci", [2])])
def test_stream_terms_on_both_sides_of_the_switch(name, alpha):
    spec, _ = cli.load_spec_file(str(COOKBOOK / f"{name}.json"))
    s = build_system(spec, alpha)
    n_fit = 2 * s.dim + 10  # the terms solve_gf streams
    want = power_terms(s, 5 * n_fit)
    for n in (2 * n_fit - 2, 2 * n_fit - 1, 2 * n_fit, 2 * n_fit + 1, 5 * n_fit):
        assert stream_terms(s, n) == want[:n + 1], n


def test_stream_terms_fits_only_past_the_switch(monkeypatch):
    s = build_system(BASE, [5])
    n_fit = 2 * s.dim + 10
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_gf(*args)

    monkeypatch.setattr(closure, "solve_gf", counted)
    for n in (0, 1, n_fit - 1, 2 * n_fit - 2):
        stream_terms(s, n)
    assert calls == []
    stream_terms(s, 2 * n_fit - 1)
    assert calls == [(s,)]


def test_stream_terms_refuses_a_dividing_recurrence(monkeypatch):
    s = build_system(BASE, [2])
    monkeypatch.setattr(closure, "solve_gf", lambda sys_: make_gf([1], [2, -1]))
    with pytest.raises(ValueError, match=r"den\(0\) = 2"):
        stream_terms(s, 1000)  # gfs.series refuses it


def test_matrix_powers_give_every_state_value():
    # f(n) = M^n v componentwise, against the direct correlation-sum oracle
    from sterngf import state_oracle
    for spec, alpha in ((BASE, [2]), (FIB, [2])):
        s = build_system(spec, alpha)
        vec = list(s.v)
        for n in range(7):
            for idx, st in enumerate(s.states):
                assert vec[idx] == state_oracle(spec, st, n), (alpha, n, idx)
            vec = [sum(c * vec[col] for col, c in row) for row in s.rows]


def test_stream_alpha_one_powers():
    s = build_system(BASE, [1])
    assert stream_terms(s, 3) == [1, 3, 9, 27]


def test_solve_gf_u2_both_methods():
    s = build_system(BASE, [2])
    assert solve_gf(s, "eliminate") == U2_GF
    assert solve_gf(s, "fit") == U2_GF
    assert solve_gf(s) == U2_GF
    with pytest.raises(ValueError):
        solve_gf(s, "auto")  # the CLI maps --method auto to fit


def test_solve_gf_u5():
    s = build_system(BASE, [5])
    want = make_gf([-1, 11, 20], [-1, 14, 47])
    assert solve_gf(s) == want


def test_method_agreement_small_corpus():
    for spec, alpha in ((BASE, [2]), (BASE, [1, 1]), (BASE, [3]), (FIB, [2])):
        s = build_system(spec, alpha)
        assert s.dim <= 64
        assert solve_gf(s, "eliminate") == solve_gf(s, "fit"), (spec.seq, alpha)


def test_denominator_degree_bounded_by_dim():
    for spec, alpha in ((BASE, [2]), (BASE, [5]), (FIB, [2])):
        s = build_system(spec, alpha)
        gf = solve_gf(s)
        assert polys.degree(list(gf.den)) <= s.dim


def test_gf_series_equals_oracle():
    for spec, alpha in ((BASE, [2]), (BASE, [1, 1]), (FIB, [2]), (FIB, [1, 1])):
        s = build_system(spec, alpha)
        gf = solve_gf(s)
        got = series(gf, 9)
        want = [u_alpha_oracle(spec, alpha, n) for n in range(9)]
        assert got == want == stream_terms(s, 8), (spec.seq, alpha)


def test_fit_path_reproduces_guard_window():
    s = build_system(BASE, [5])
    gf = solve_gf(s, "fit")
    assert series(gf, 2 * s.dim + 8) == stream_terms(s, 2 * s.dim + 7)


def test_guess_gf_agrees_with_solve():
    for spec, alpha, n in ((BASE, [2], 10), (BASE, [5], 14), (FIB, [2], 25)):
        s = build_system(spec, alpha)
        assert guess_gf(spec, alpha, n) == solve_gf(s), (spec.seq, alpha)


def test_guess_gf_fail_propagates():
    assert guess_gf(CHALLENGE, [2], 23, max_den_deg=9) is None
