"""Rational generating functions of integer sequences in one variable t.

A RationalGF is a pair of integer-coefficient polynomials in canonical form:
no common polynomial factor, no common integer content across the two
coefficient lists taken together, and a positive constant term in the
denominator.  Construction normalizes, so equality is plain field equality.
The series, the fit and its reference Berlekamp-Massey all run over Z: by
Fatou's lemma the reduced GF of an integer series has den(0) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from . import modular, polys


class InsufficientTermsError(ValueError):
    """fit_recurrence was given fewer terms than the requested degree needs."""


@dataclass(frozen=True)
class RationalGF:
    num: tuple
    den: tuple

    def __str__(self) -> str:
        return f"({polys.pretty(list(self.num))}) / ({polys.pretty(list(self.den))})"


def make_gf(num: list, den: list) -> RationalGF:
    """Canonical RationalGF from integer coefficient lists."""
    num, den = polys.normalize(num), polys.normalize(den)
    if polys.is_zero(den):
        raise ZeroDivisionError("zero denominator")
    if polys.is_zero(num):
        return RationalGF((), (1,))
    # dividing out the joint content makes it 1
    c = polys.content(num + den)
    num, den = [x // c for x in num], [x // c for x in den]
    # the PRS gcd runs only when one prime cannot prove num and den coprime
    g = [1] if modular.proves_coprime(num, den) else polys.poly_gcd(num, den)
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


def series(gf: RationalGF, n_terms: int) -> list[int]:
    """First n_terms Taylor coefficients of gf at t = 0, from den * U = num:
    u(m) = num[m] - sum den[k] u(m - k), one order-deg(den) step per term
    and no division.  ValueError when den(0) != 1: a reduced GF whose
    constant term is not 1 has no integer series."""
    den = gf.den
    if den[0] != 1:
        raise ValueError(f"den(0) = {den[0]}: not the GF of an integer series")
    d = len(den) - 1
    tail = [-c for c in den[:0:-1]]  # -den[d], ..., -den[1]
    num = gf.num + (0,) * (n_terms - len(gf.num))
    u = [0] * d  # d leading zeros: u(m - d..m - 1) is always u[m:m + d]
    for m in range(n_terms):
        u.append(num[m] + sum(map(mul, tail, u[m:m + d])))
    return u[d:]


def berlekamp_massey(terms: list) -> tuple[int, list[int]]:
    """Minimal connection polynomial of a finite integer sequence over Q: the
    reference fit of the tests.  No engine path calls it; the fit runs
    modulo primes (`fit_recurrence`) and certificates compute their minimal
    annihilator from a gcd (`cfinite._minimal_annihilator`).

    Returns (L, C), C a primitive integer list with C[0] > 0 and
    len(C) - 1 <= L, such that sum(C[i] * terms[n-i] for i = 0..) = 0 holds
    for L <= n < len(terms), and no shorter linear recurrence generates the
    whole sequence from its seed.  Massey's iteration runs fraction-free:
    any scalar multiple of a connection vector is one, so the update
    C' = b*C - d*x^m*B needs no division, and stripping the content of C'
    keeps it primitive.
    """
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


def _massey_mod(s: list[int], p: int) -> tuple[int, list[int]]:
    """Berlekamp-Massey over GF(p): (L, C) with C[0] = 1, deg C <= L and no
    trailing zeros, for residues s in [0, p)."""
    rs = s[::-1]  # rs[N-1-n+i] == s[n-i], so a slice lines up with C
    top = len(s) - 1
    C, B = [1], [1]
    L, m, b_inv = 0, 1, 1
    for n in range(len(s)):
        k = top - n
        d = sum(map(mul, C, rs[k:k + len(C)])) % p
        if not d:
            m += 1
            continue
        q = d * b_inv % p
        T = C
        C = C + [0] * (len(B) + m - len(C))
        C[m:m + len(B)] = [(c - q * x) % p for c, x in zip(C[m:m + len(B)], B)]
        if 2 * L <= n:
            L, B, b_inv, m = n + 1 - L, T, pow(d, -1, p), 1
        else:
            m += 1
    while C[-1] == 0:
        C.pop()
    return L, C


def fit_recurrence(terms: list, max_den_deg: int, guard: int = 3) -> RationalGF | None:
    """Reconstruct the rational generating function behind exact integer terms.

    The answer is that of Berlekamp-Massey over Q: the minimal linear
    recurrence of the terms (length L, connection polynomial C) and the
    numerator C * terms mod t^L.  It is None ("no fit") when deg C exceeds
    max_den_deg or the window is shorter than L + deg C + guard, i.e. not
    overdetermined by `guard` terms.  InsufficientTermsError means the window
    could not have certified a degree-max_den_deg fit at all.

    Massey runs only over the 31-bit primes of `modular.PRIMES`, with C
    normalised to C[0] = 1.  For all but finitely many primes the run mod p is
    the image of the run over Q: same L, same deg C, C mod p.  Primes are
    grouped by (L, deg C); one outside the largest group is unlucky and is set
    aside.  After each prime the group's C is combined by CRT and lifted: by
    Fatou the reduced denominator of an integer sequence has den[0] = 1, so C
    over Q is integral and its symmetric residues are exact once the modulus
    passes 2 max |C[i]|.

    Acceptance is exact.  A lift that annihilates the last term is made a
    candidate GF (den(0) = 1, since C[0] = 1), and is returned only if its
    series is the terms and the degree checks pass with L = max(deg den,
    deg num + 1) taken from the candidate (else None).  It is the answer
    over Q: two GFs that reproduce N >= L1 + L2 terms are equal, since
    num1*den2 - num2*den1 has degree below L1 + L2 and vanishes mod t^N.  A
    reproducing candidate has L >= L_Q by minimality, and L <= the group's
    L, which is L_Q once the group holds one prime whose run is the image of
    the run over Q; and two minimal fits that both pass the guard check are
    equal by the same degree count.

    The loop ends: the lift from such primes is C itself once the modulus
    passes the Hadamard bound of the window's Hankel minors (which bound the
    coefficients of C), and C always reproduces its window.  When the group's
    modular L and deg C already fail a degree check, two agreeing primes
    settle None without a lift: the C over Q of a saturated window has
    coefficients of that Hadamard size, beyond any prime table.  None is the
    conservative answer, and no GF is returned without the exact check.  A fit
    whose coefficients outgrow the whole table raises ArithmeticError.
    """
    n_terms = len(terms)
    if max_den_deg < 0:
        raise ValueError("max_den_deg must be nonnegative")
    if n_terms < 2 * max_den_deg + 1 + guard:
        raise InsufficientTermsError(
            f"{n_terms} terms cannot certify denominator degree {max_den_deg} "
            f"with guard {guard}; need {2 * max_den_deg + 1 + guard}"
        )

    def rejected(L: int, den_deg: int) -> bool:
        return den_deg > max_den_deg or n_terms < L + den_deg + guard

    rev = terms[::-1]
    groups: dict[tuple[int, int], list] = {}  # (L, deg C) -> [primes, modulus, C mod modulus]
    for p in modular.PRIMES:
        L, C = _massey_mod([x % p for x in terms], p)
        group = groups.get((L, len(C) - 1))
        if group is None:
            group = groups[L, len(C) - 1] = [1, p, C]
        else:
            group[:] = [group[0] + 1, group[1] * p, modular.crt(group[2], group[1], C, p)]
        count, modulus, res = group
        if count < max(g[0] for g in groups.values()):
            continue
        if rejected(L, len(C) - 1):
            if count >= 2:
                return None
            continue
        den = modular.symmetric_lift(res, modulus)
        if L < n_terms and sum(map(mul, den, rev)):
            continue  # does not even annihilate the last term
        num = [sum(map(mul, den[:j + 1], terms[j::-1])) for j in range(max(L, 1))]
        gf = make_gf(num, den)
        if series(gf, n_terms) == terms:
            den_deg = len(gf.den) - 1
            return None if rejected(max(den_deg, len(gf.num)), den_deg) else gf
    raise ArithmeticError(f"fit needs more than {len(modular.PRIMES)} primes")

