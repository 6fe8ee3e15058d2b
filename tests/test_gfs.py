import random
from math import prod

import pytest

from sterngf import gfs, modular, polys
from sterngf.gfs import (
    InsufficientTermsError,
    RationalGF,
    berlekamp_massey,
    fit_recurrence,
    make_gf,
    series,
)

# the paper's published 26-value table for the hard-problem sequence; it does
# not admit a low-order recurrence, which fit_recurrence must report
PUBLISHED_HARD_TABLE = [
    1, 3, 13, 55, 233, 1033, 4359, 19081, 83653, 363973, 1604755, 7071677,
    31361931, 139661731, 623089471, 2788501361, 12507807967, 56197511503,
    252874682743, 1139273972183, 5137458451565, 23186535210405,
    104711215601401, 473121563716987, 2138654595620755, 9670566829508677,
]


def u2_terms(n):
    out = [1, 3]
    while len(out) < n:
        out.append(5 * out[-1] - 2 * out[-2])
    return out[:n]


def test_make_gf_canonicalizes_sign_and_content():
    # paper shape (20t^2+11t-1)/(47t^2+14t-1): canonical flips both signs
    gf = make_gf([-1, 11, 20], [-1, 14, 47])
    assert gf.num == (1, -11, -20)
    assert gf.den == (1, -14, -47)
    # common polynomial factor and common content are removed; the value is
    # preserved, never rescaled
    gf2 = make_gf([3 * c for c in polys.mul([1, 1], [1, -2])],
                  [3 * c for c in polys.mul([1, 1], [1, -5, 2])])
    assert gf2.num == (1, -2) and gf2.den == (1, -5, 2)
    half = make_gf([1, -2], [2, -10, 4])
    assert half.den == (2, -10, 4)  # distinct value, distinct canonical form
    # den(0) = 2: the series has the fractions 1/2, 3/2, ... and no integer
    # kernel computes it
    with pytest.raises(ValueError):
        series(half, 3)


def test_make_gf_idempotent_unique():
    gf = make_gf([2, -4], [2, -10, 4])
    again = make_gf(list(gf.num), list(gf.den))
    assert gf == again


def test_series_of_u2_gf():
    gf = make_gf([1, -2], [1, -5, 2])
    assert series(gf, 5) == [1, 3, 13, 59, 269]


def test_series_geometric():
    assert series(make_gf([1], [1, -3]), 4) == [1, 3, 9, 27]


def test_series_constant():
    assert series(make_gf([1], [1]), 3) == [1, 0, 0]


def test_series_rejects_vanishing_denominator():
    with pytest.raises(ZeroDivisionError):
        series(make_gf([1], [0, 1]), 3)


def test_berlekamp_massey_minimal_order():
    L, C = berlekamp_massey(u2_terms(10))
    assert L == 2
    assert C == [1, -5, 2]


def test_berlekamp_massey_primitive_integer():
    rng = random.Random(3)
    for _ in range(30):
        den = [rng.choice([1, -1])] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        if not polys.normalize(den[1:]) or not polys.normalize(num):
            continue
        terms = series(make_gf(num, den), 16)
        L, C = berlekamp_massey(terms)
        assert all(type(c) is int for c in C)
        assert C[0] > 0 and polys.content(C) == 1
        # a scaled sequence has the same recurrences
        assert berlekamp_massey([3 * t for t in terms]) == (L, C)
        for n in range(L, len(terms)):
            assert sum(c * terms[n - i] for i, c in enumerate(C)) == 0


def test_fit_recurrence_u2():
    gf = fit_recurrence(u2_terms(10), max_den_deg=3)
    assert gf == make_gf([1, -2], [1, -5, 2])


def test_fit_recurrence_all_ones():
    gf = fit_recurrence([1] * 8, max_den_deg=2)
    assert gf == make_gf([1], [1, -1])


def test_fit_recurrence_polynomial_part():
    # numerator degree above denominator degree: tail-only recurrence
    base = make_gf([5, 0, 7, -4], [1, -1])  # has a polynomial part
    gf = fit_recurrence(series(base, 14), max_den_deg=4)
    assert gf == base


def test_fit_recurrence_published_hard_table_fails():
    assert fit_recurrence(PUBLISHED_HARD_TABLE, max_den_deg=10) is None


def test_fit_recurrence_insufficient_terms_distinct_error():
    with pytest.raises(InsufficientTermsError):
        fit_recurrence(u2_terms(10), max_den_deg=10)


def test_fit_round_trip_random_small():
    rng = random.Random(2024)
    done = 0
    while done < 25:
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        den = [rng.choice([1, -1])] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
        if not polys.normalize(num) or polys.normalize(den)[-1] == 0:
            continue
        g = make_gf(num, den)
        if polys.degree(list(g.den)) == 0 and polys.degree(list(g.num)) < 1:
            continue
        need = 2 * polys.degree(list(g.den)) + 2 + 3 + 4
        terms = series(g, need)
        got = fit_recurrence(terms, max_den_deg=polys.degree(list(g.den)) + 1)
        assert got == g, (num, den)
        done += 1


def reference_fit(terms, max_den_deg, guard=3):
    """fit_recurrence as it ran on Berlekamp-Massey over Q: the reference the
    multi-modular fit is held to."""
    L, C = berlekamp_massey(terms)
    num = [sum(C[i] * terms[j - i] for i in range(min(j, len(C) - 1) + 1))
           for j in range(L)] or [0]
    gf = make_gf(num, C)
    den_deg = polys.degree(list(gf.den))
    if den_deg > max_den_deg or len(terms) < L + den_deg + guard:
        return None
    return gf if gfs._reproduces(gf, terms) else None


def random_gf(rng, bits, den_deg, num_deg):
    def coeff():
        return rng.randint(-2 ** bits, 2 ** bits)
    while True:
        g = make_gf([coeff() for _ in range(num_deg + 1)],
                    [1] + [coeff() for _ in range(den_deg)])
        if len(g.den) == den_deg + 1 and len(g.num) == num_deg + 1:
            return g


def fit_order(g):
    """L = max(deg den, deg num + 1) of a canonical GF."""
    return max(len(g.den) - 1, len(g.num))


def assert_fits_like_reference(terms, max_den_deg, guard=3):
    got = fit_recurrence(terms, max_den_deg, guard)
    assert got == reference_fit(terms, max_den_deg, guard)
    return got


def test_fit_matches_reference_on_wide_integer_gfs(monkeypatch):
    # den[0] = 1 and 200-bit coefficients: the symmetric lift needs 7 primes
    runs = []
    massey_mod = gfs._massey_mod
    monkeypatch.setattr(gfs, "_massey_mod", lambda s, p: runs.append(p) or massey_mod(s, p))
    rng = random.Random(7)
    for _ in range(12):
        g = random_gf(rng, 200, rng.randint(1, 4), rng.randint(0, 4))
        n = 2 * fit_order(g) + 3 + rng.randint(0, 4)
        terms = series(g, n)
        runs.clear()
        assert assert_fits_like_reference(terms, len(g.den) - 1) == g
        assert len(runs) >= 7


def test_fit_matches_reference_on_published_hard_table():
    for max_den_deg in (3, 10, 11):
        assert assert_fits_like_reference(PUBLISHED_HARD_TABLE, max_den_deg) is None


def test_fit_matches_reference_on_polynomial_parts():
    rng = random.Random(9)
    for _ in range(15):
        d = rng.randint(1, 3)
        g = random_gf(rng, 30, d, d + rng.randint(1, 6))
        terms = series(g, 2 * fit_order(g) + 3)
        assert assert_fits_like_reference(terms, d + 1) == g


def test_fit_matches_reference_at_the_guard_threshold():
    # n_terms one either side of L + deg den + guard; with a polynomial part
    # (L >= deg den + 2) both windows are long enough to be asked.  Below
    # the edge the answer is None; at it, g when the window pins g (n_terms
    # >= 2L), else whatever shorter fit the window admits, as over Q
    rng = random.Random(10)
    outcomes = set()
    for _ in range(20):
        d = rng.randint(1, 3)
        g = random_gf(rng, rng.choice([5, 100]), d, d + rng.randint(1, 5))
        L = fit_order(g)
        guard = rng.choice([0, 1, 3, L - d, L - d + 2])
        for n in (L + d + guard - 1, L + d + guard):
            terms = series(g, n)
            got = assert_fits_like_reference(terms, d, guard)
            outcomes.add((n - L - d - guard, got == g))
            if n < L + d + guard or n >= 2 * L:
                assert got == (g if n == L + d + guard else None)
    assert outcomes >= {(-1, False), (0, True), (0, False)}
    # without a polynomial part the window is long enough, and a degree
    # bound one short of the denominator rejects
    g = random_gf(rng, 60, 3, 2)
    terms = series(g, 2 * 3 + 3)
    assert assert_fits_like_reference(terms, 2) is None


def test_fit_never_runs_massey_over_q(monkeypatch):
    def refuse(*args):
        raise AssertionError("Berlekamp-Massey over Q on the fit path")

    monkeypatch.setattr(gfs, "berlekamp_massey", refuse)
    assert fit_recurrence(u2_terms(10), max_den_deg=3) == make_gf([1, -2], [1, -5, 2])
    assert fit_recurrence(PUBLISHED_HARD_TABLE, max_den_deg=10) is None


def test_fit_rejects_a_lift_every_prime_agrees_on():
    # u2 with one term moved by the product of the whole prime table: every
    # prime sees u2 and lifts its GF, yet the terms are u2 + P*t^12, whose
    # GF over Q has the same denominator and L = 15.  Only the exact
    # check stands between that lift and a wrong answer; with every prime
    # of the table unlucky the fit cannot decide, and says so
    terms = u2_terms(30)
    terms[12] += prod(modular.PRIMES)
    want = reference_fit(terms, 10)
    assert want.den == (1, -5, 2) and len(want.num) == 15
    with pytest.raises(ArithmeticError):
        fit_recurrence(terms, max_den_deg=10)


def test_reproduces_matches_series():
    # the windowed check against its definition, series(gf) == terms, on
    # integer series, reproduced or with one term moved
    rng = random.Random(21)
    for _ in range(200):
        den = [rng.choice([1, -1])] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 7))]
        gf = make_gf(num, den)
        n = rng.randint(1, 16)
        terms = series(gf, n)
        if rng.random() < 0.5:
            terms[rng.randrange(n)] += rng.choice((-1, 1))
        assert gfs._reproduces(gf, terms) == (series(gf, n) == terms)


def is_prime(n):
    """Deterministic Miller-Rabin: bases 2, 3, 5, 7 decide every n below
    3 215 031 751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_table():
    assert [n for n in range(200) if is_prime(n)] == [
        n for n in range(2, 200) if all(n % q for q in range(2, n))]
    assert is_prime(2 ** 31 - 1) and not is_prime(2 ** 31 - 3)
    assert len(set(modular.PRIMES)) == len(modular.PRIMES) == 64
    for p in modular.PRIMES:
        assert 2 ** 30 < p < 2 ** 31 and is_prime(p), p


def test_make_gf_falls_back_to_poly_gcd_without_certificate(monkeypatch):
    calls = []
    poly_gcd = polys.poly_gcd

    def counting(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(gfs.polys, "poly_gcd", counting)
    p = modular.PRIMES[0]
    # coprime over Z, and coprime images: no PRS gcd
    assert make_gf([1, -2], [1, -5, 2]) == make_gf([2, -4], [2, -10, 4])
    assert calls == []
    # a shared factor over Z: the images share it too, so the PRS gcd runs
    gf = make_gf(polys.mul([1, 1], [1, -2]), polys.mul([1, 1], [1, -5, 2]))
    assert gf == RationalGF((1, -2), (1, -5, 2)) and len(calls) == 1
    # coprime over Z, but t divides both images mod p: the PRS gcd decides
    assert make_gf([p, 1], [p, 2]) == RationalGF((p, 1), (p, 2))
    assert len(calls) == 2


def test_modular_lifts_and_gcd():
    rng = random.Random(11)
    for _ in range(20):
        vals = [rng.randint(-2 ** 90, 2 ** 90) for _ in range(5)]
        res, m = [v % modular.PRIMES[0] for v in vals], modular.PRIMES[0]
        for p in modular.PRIMES[1:4]:
            res, m = modular.crt(res, m, [v % p for v in vals], p), m * p
        assert modular.symmetric_lift(res, m) == vals
    p = modular.PRIMES[0]
    assert modular.gcd_degree(polys.mul([1, 1], [1, -2]), polys.mul([1, 1], [3, 1]), p) == 1
    assert modular.gcd_degree([1, -2], [1, -5, 2], p) == 0
    assert modular.gcd_degree([p, 1], [p, 2], p) == 1
    assert modular.gcd_degree([], [], p) == -1
    assert modular.proves_coprime([1, -2], [1, -5, 2])
    assert not modular.proves_coprime(polys.mul([1, 1], [1, -2]), polys.mul([1, 1], [3, 1]))
    # 1 + p x divides both, but is 1 mod p: p divides lc(b), so it cannot decide
    assert modular.gcd_degree([1, p], polys.mul([1, p], [2, 1]), p) == 0
    assert not modular.proves_coprime([1, p], polys.mul([1, p], [2, 1]))
