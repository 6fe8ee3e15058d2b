# Dense univariate polynomials as ascending coefficient lists.
#
# [1, -5, 2] is 1 - 5t + 2t^2.  The zero polynomial is the empty list and
# every function returns a normalized list (no trailing zeros).  Division,
# gcd, square-free part and cyclotomics take and return integer polynomials:
# by Gauss's lemma a primitive (or monic) divisor of an integer polynomial
# over Q also divides it over Z, so no rational arithmetic is needed.

from __future__ import annotations

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


def neg(a: list) -> list:
    return [-c for c in a]


def mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] += x * y
    return normalize(res)


def deriv(p: list) -> list:
    return normalize([i * c for i, c in enumerate(p)][1:])


def exact_quotient(a: list, b: list) -> list | None:
    """a / b by integer synthetic division, or None when a step leaves a
    remainder (b does not divide a over Z).  For a primitive or monic b this
    is divisibility over Q as well (Gauss's lemma)."""
    a, b = normalize(a), normalize(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    d, lead = len(b) - 1, b[-1]
    rem = list(a)
    quo = [0] * max(0, len(a) - d)
    for k in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[k + d], lead)
        if r:
            return None
        quo[k] = q
        for i, c in enumerate(b):
            rem[k + i] -= q * c
    return None if any(rem) else quo


def content(p: list) -> int:
    """gcd of integer coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g


def primitive(p: list) -> list:
    """p divided by its content (sign kept)."""
    g = content(p)
    return [c // g for c in p] if g > 1 else list(p)


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
    a, b = primitive(normalize(a)), primitive(normalize(b))
    if degree(a) < degree(b):
        a, b = b, a
    while b:
        r = primitive(pseudo_rem(a, b))
        a, b = b, r
    g = a
    if g and g[-1] < 0:
        g = neg(g)
    return g


def square_free_part(p: list) -> list:
    """p with repeated roots collapsed to multiplicity one (primitive, int)."""
    p = primitive(p)
    if degree(p) < 1:
        return p
    g = poly_gcd(p, deriv(p))
    if degree(g) < 1:
        return p
    return exact_quotient(p, g)


def cyclotomic(k: int) -> list:
    """k-th cyclotomic polynomial (integer coefficients, ascending)."""
    # Phi_k = (X^k - 1) / prod_{d | k, d < k} Phi_d
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num = exact_quotient(num, cyclotomic(d))
    return num


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
