import random
from math import gcd

import pytest

from sterngf import polys
from sterngf.gfs import (
    InsufficientTermsError,
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
    assert series(half, 3) == [x / 2 for x in series(gf2, 3)]


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
        den = [rng.choice([2, 3, -2, 5])] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        if not polys.normalize(den[1:]) or not polys.normalize(num):
            continue
        terms = series(make_gf(num, den), 16)
        scale = 1
        for t in terms:
            scale = scale * t.denominator // gcd(scale, t.denominator)
        ints = [int(t * scale) for t in terms]
        L, C = berlekamp_massey(terms)
        assert all(type(c) is int for c in C)
        assert C[0] > 0 and polys.content(C) == 1
        # a rational sequence and the same sequence scaled to integers
        assert berlekamp_massey(ints) == (L, C)
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
    terms = [int(x) for x in series(base, 14)]
    gf = fit_recurrence(terms, max_den_deg=4)
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
        den = [rng.choice([1, -1, 2])] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
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
