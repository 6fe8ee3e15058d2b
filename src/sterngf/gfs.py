"""Rational generating functions in one variable t, exactly.

A RationalGF is a pair of integer-coefficient polynomials in canonical form:
no common polynomial factor, no common integer content across the two
coefficient lists taken together, and a positive constant term in the
denominator.  Construction normalizes, so equality is plain field equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import polys


class InsufficientTermsError(ValueError):
    """fit_recurrence was given fewer terms than the requested degree needs."""


@dataclass(frozen=True)
class RationalGF:
    num: tuple
    den: tuple

    def __str__(self) -> str:
        return f"({polys.pretty(list(self.num))}) / ({polys.pretty(list(self.den))})"


def _integral(values: list) -> list[int]:
    """values (ints or Fractions) times the lcm of their denominators."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def make_gf(num: list, den: list) -> RationalGF:
    """Canonical RationalGF from integer or rational coefficient lists."""
    num, den = polys.normalize(num), polys.normalize(den)
    if polys.is_zero(den):
        raise ZeroDivisionError("zero denominator")
    if polys.is_zero(num):
        return RationalGF((), (1,))
    # one rational scale makes both integer with coprime joint content
    ints = _integral(num + den)
    c = polys.content(ints)
    num, den = [x // c for x in ints[:len(num)]], [x // c for x in ints[len(num):]]
    g = polys.poly_gcd(num, den)
    if polys.degree(g) > 0:
        # g is primitive, so by Gauss's lemma the quotients are integral and
        # keep the joint content 1
        num, den = polys.exact_quotient(num, g), polys.exact_quotient(den, g)
    if den[0] < 0:
        num, den = polys.neg(num), polys.neg(den)
    elif den[0] == 0:
        # sign convention needs den(0) > 0; a zero constant term means the
        # "series" would not start at t^0, which no caller here produces.
        raise ZeroDivisionError("denominator vanishes at t = 0")
    return RationalGF(tuple(num), tuple(den))


def series(gf: RationalGF, n_terms: int) -> list[Fraction]:
    """First n_terms Taylor coefficients of gf at t = 0, exact."""
    num, den = gf.num, gf.den
    if not den or den[0] == 0:
        raise ZeroDivisionError("denominator vanishes at t = 0")
    out: list[Fraction] = []
    d0 = den[0]
    for n in range(n_terms):
        s = Fraction(num[n] if n < len(num) else 0)
        for i in range(1, min(n, len(den) - 1) + 1):
            s -= den[i] * out[n - i]
        out.append(s / d0)
    return out


def berlekamp_massey(terms: list) -> tuple[int, list[int]]:
    """Minimal connection polynomial of a finite sequence over Q.

    Returns (L, C), C a primitive integer list with C[0] > 0 and
    len(C) - 1 <= L, such that sum(C[i] * terms[n-i] for i = 0..) = 0 holds
    for L <= n < len(terms), and no shorter linear recurrence generates the
    whole sequence from its seed.  Massey's iteration runs fraction-free:
    any scalar multiple of a connection vector is one, so the update
    C' = b*C - d*x^m*B needs no division, and stripping the content of C'
    keeps it primitive.  Rational terms are first scaled to integers, which
    changes no linear recurrence.
    """
    terms = _integral(terms)
    C = [1]
    B = [1]
    L, m, b = 0, 1, 1
    for n, s_n in enumerate(terms):
        d = C[0] * s_n
        for i in range(1, min(L, len(C) - 1) + 1):
            d += C[i] * terms[n - i]
        if d == 0:
            m += 1
            continue
        new = [b * c for c in C]
        if len(new) < len(B) + m:
            new += [0] * (len(B) + m - len(new))
        for i, Bi in enumerate(B):
            new[i + m] -= d * Bi
        g = 0
        for c in new:
            g = gcd(g, c)
        if g > 1:
            new = [c // g for c in new]
        if 2 * L <= n:
            L, B, b, m = n + 1 - L, C, d, 1
        else:
            m += 1
        C = new
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    if C[0] < 0:
        C = [-c for c in C]
    return L, C


def fit_recurrence(terms: list, max_den_deg: int, guard: int = 3) -> RationalGF | None:
    """Reconstruct the rational generating function behind exact sequence terms.

    Finds the minimal linear recurrence annihilating the tail of the sequence
    (Berlekamp-Massey), rebuilds the numerator by convolution, and
    accepts only when the fit is overdetermined by at least `guard` extra
    terms beyond the 2L values that pin an order-L recurrence.  Returns None
    ("no fit") when the minimal recurrence needs a denominator of degree
    beyond max_den_deg, raises InsufficientTermsError when the supplied data
    could not have certified a degree-max_den_deg fit in the first place.
    """
    n_terms = len(terms)
    if max_den_deg < 0:
        raise ValueError("max_den_deg must be nonnegative")
    if n_terms < 2 * max_den_deg + 1 + guard:
        raise InsufficientTermsError(
            f"{n_terms} terms cannot certify denominator degree {max_den_deg} "
            f"with guard {guard}; need {2 * max_den_deg + 1 + guard}"
        )
    L, C = berlekamp_massey(terms)
    num = [0] * max(L, 1)
    for j in range(min(L, n_terms)):
        acc = 0
        for i in range(min(j, len(C) - 1) + 1):
            acc += C[i] * terms[j - i]
        num[j] = acc
    gf = make_gf(num, C)
    den_deg = polys.degree(list(gf.den))
    if den_deg > max_den_deg:
        return None
    if n_terms < L + den_deg + guard:
        # recurrence window shorter than denominator unknowns plus the guard
        return None
    if not _reproduces(gf, terms):
        return None
    return gf


def _reproduces(gf: RationalGF, terms: list) -> bool:
    """den * terms == num as power series through len(terms) coefficients
    (equivalent to series(gf) == terms, but divisionless)."""
    den, num = gf.den, gf.num
    for n in range(len(terms)):
        acc = 0
        for i in range(min(n, len(den) - 1) + 1):
            acc += den[i] * terms[n - i]
        want = num[n] if n < len(num) else 0
        if acc != want:
            return False
    return True
