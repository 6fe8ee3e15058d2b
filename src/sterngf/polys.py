# Dense univariate polynomials as ascending coefficient lists.
#
# [1, -5, 2] is 1 - 5t + 2t^2.  The zero polynomial is the empty list and
# every function returns a normalized list (no trailing zeros).  Entries are
# Python ints or Fractions; arithmetic never leaves exact types.

from __future__ import annotations

from fractions import Fraction
from math import gcd


def normalize(p: list) -> list:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def degree(p: list) -> int:
    """Degree of a normalized polynomial; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p: list) -> bool:
    return len(p) == 0


def add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    res = list(a)
    for i, c in enumerate(b):
        res[i] += c
    return normalize(res)


def neg(a: list) -> list:
    return [-c for c in a]


def scale(a: list, c) -> list:
    if c == 0:
        return []
    return [c * x for x in a]


def mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] += x * y
    return normalize(res)


def eval_at(p: list, x):
    """Horner evaluation; exact for int/Fraction arguments."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def deriv(p: list) -> list:
    return normalize([i * c for i, c in enumerate(p)][1:])


def divmod_exact(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder over the rationals.  b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    db, lead = len(b) - 1, Fraction(b[-1])
    while len(normalize(rem)) - 1 >= db:
        rem = normalize(rem)
        k = len(rem) - 1 - db
        q = rem[-1] / lead
        quo[k] = q
        for i, c in enumerate(b):
            rem[k + i] -= q * c
        rem[-1] = Fraction(0)
    return normalize(quo), normalize(rem)


def divides(b: list, a: list) -> bool:
    """True iff b divides a exactly (over Q)."""
    if not a:
        return True
    if not b:
        return False
    _, r = divmod_exact(a, b)
    return is_zero(r)


def content(p: list) -> int:
    """gcd of integer coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g


def to_int_coeffs(p: list) -> list:
    """Clear denominators of a rational polynomial, returning a primitive
    integer polynomial with the same roots (sign of the leading coeff kept)."""
    if not p:
        return []
    den = 1
    for c in p:
        den = den * Fraction(c).denominator // gcd(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in p]
    g = content(ints)
    return [c // g for c in ints]


def pseudo_rem(a: list, b: list) -> list:
    """Integer pseudo-remainder of lead(b)^(deg a - deg b + 1) * a by b."""
    a, b = normalize(a), normalize(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(rem) - 1 >= db and rem:
        k = len(rem) - 1 - db
        top = rem[-1]
        rem = [lead * c for c in rem]
        for i, c in enumerate(b):
            rem[k + i] -= top * c
        rem = normalize(rem)
    return rem


def poly_gcd(a: list, b: list) -> list:
    """Primitive integer gcd with positive leading coefficient; gcd(0,0) = 0.

    Primitive pseudo-remainder sequence: stripping the integer content after
    every step keeps coefficient growth tame on high-degree inputs, where
    plain rational Euclid blows up.
    """
    a, b = to_int_coeffs(normalize(a)), to_int_coeffs(normalize(b))
    if degree(a) < degree(b):
        a, b = b, a
    while b:
        r = to_int_coeffs(pseudo_rem(a, b))
        a, b = b, r
    g = a
    if g and g[-1] < 0:
        g = neg(g)
    return g


def square_free_part(p: list) -> list:
    """p with repeated roots collapsed to multiplicity one (primitive, int)."""
    p = to_int_coeffs(p)
    if degree(p) < 1:
        return p
    g = poly_gcd(p, deriv(p))
    if degree(g) < 1:
        return p
    q, _ = divmod_exact(p, g)
    return to_int_coeffs(q)


def cyclotomic(k: int) -> list:
    """k-th cyclotomic polynomial (integer coefficients, ascending)."""
    # Phi_k = (X^k - 1) / prod_{d | k, d < k} Phi_d
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num, r = divmod_exact(num, cyclotomic(d))
            assert is_zero(r)
    return to_int_coeffs(num)


def pretty(p: list, var: str = "t") -> str:
    """Human-readable rendering, constant term first."""
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        term = f"{mag}{var}" if i == 1 else f"{mag}{var}^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
