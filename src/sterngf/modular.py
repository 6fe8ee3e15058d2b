"""Word-size modular arithmetic: a fixed table of 31-bit primes, Chinese
remaindering with its symmetric lift back to Z, and the gcd of integer
polynomials mod p.

Residues are plain ints in [0, p); a product of two fits in 62 bits.
"""

from __future__ import annotations

# the 64 largest primes below 2**31, in descending order; a literal, so that
# neither a call nor the import pays for a prime search
PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921, 2147482877, 2147482873, 2147482867, 2147482859,
    2147482819, 2147482817, 2147482811, 2147482801, 2147482763, 2147482739,
    2147482697, 2147482693, 2147482681, 2147482663, 2147482661, 2147482621,
    2147482591, 2147482583, 2147482577, 2147482507, 2147482501, 2147482481,
    2147482417, 2147482409, 2147482367, 2147482361, 2147482349, 2147482343,
    2147482327, 2147482291, 2147482273, 2147482237,
)


def crt(residues: list[int], modulus: int, new: list[int], p: int) -> list[int]:
    """Combine residues mod `modulus` with `new` mod a prime p not dividing
    it into residues in [0, modulus * p)."""
    k = pow(modulus, -1, p)
    return [x + modulus * ((r - x) * k % p) for x, r in zip(residues, new)]


def symmetric_lift(residues: list[int], modulus: int) -> list[int]:
    """The integers of least absolute value with the given residues: exact
    for integers of absolute value below modulus / 2."""
    half = modulus >> 1
    return [x - modulus if x > half else x for x in residues]


def _reduced(a: list[int], p: int) -> list[int]:
    out = [c % p for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a mod p, b mod p) over GF(p); -1 when both vanish.

    Certificate use: a common factor g of a and b over Z, primitive, of
    degree >= 1, has lc(g) | lc(b); for p not dividing lc(b), g mod p keeps
    its degree and divides both images.  So degree 0 here proves gcd(a, b)
    = 1 over Z up to content.
    """
    a, b = _reduced(a, p), _reduced(b, p)
    while b:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        while len(a) > db:
            q, k = a[-1] * inv % p, len(a) - 1 - db
            a[k:] = [(x - q * y) % p for x, y in zip(a[k:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def proves_coprime(a: list[int], b: list[int]) -> bool:
    """True when gcd(a mod p, b mod p) = 1 for the first prime p not dividing
    lc(b), which proves gcd(a, b) = 1 over Z up to content (see gcd_degree);
    False proves nothing."""
    p = next((q for q in PRIMES if b[-1] % q), None)
    return p is not None and gcd_degree(a, b, p) == 0
