import random

from sterngf import polys


def test_mul_identity():
    assert polys.mul([1, 1, 1], [1]) == [1, 1, 1]


def test_mul_hand_convolution():
    # (1+x+x^2)(1+x^2+x^4), expanded by hand
    assert polys.mul([1, 1, 1], [1, 0, 1, 0, 1]) == [1, 1, 2, 1, 2, 1, 1]


def test_mul_commutes():
    rng = random.Random(7)
    for _ in range(40):
        a = [rng.randint(-4, 4) for _ in range(rng.randint(0, 5))]
        b = [rng.randint(-4, 4) for _ in range(rng.randint(0, 5))]
        assert polys.mul(a, b) == polys.mul(b, a)


def test_normalize_strips_trailing_zeros():
    assert polys.normalize([1, 2, 0, 0]) == [1, 2]
    assert polys.normalize([0, 0]) == []
    assert polys.degree([]) == -1


def plus(a, b):
    n = max(len(a), len(b))
    return polys.normalize([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                            for i in range(n)])


def test_exact_quotient_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        # a monic b, then a primitive non-monic one
        for lead in (1, rng.choice([-3, 2, 3])):
            b = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [lead]
            b = polys.primitive(b)
            q = polys.normalize([rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
            assert polys.exact_quotient(polys.mul(b, q), b) == q
            r = polys.normalize([rng.randint(-3, 3) for _ in range(len(b) - 1)])
            if r:  # deg r < deg b
                assert polys.exact_quotient(plus(polys.mul(b, q), r), b) is None


def test_exact_quotient_is_division_over_Z():
    # 1 + t = (2 + 2t) / 2 over Q, but no integer quotient exists
    assert polys.exact_quotient([1, 1], [2, 2]) is None
    assert polys.exact_quotient([2, 2], [1, 1]) == [2]
    assert polys.exact_quotient([], [1, 1]) == []
    assert polys.exact_quotient([1], [1, 1]) is None


def test_primitive():
    assert polys.primitive([4, -6, 2]) == [2, -3, 1]
    assert polys.primitive([-4, 6, -2]) == [-2, 3, -1]
    assert polys.primitive([]) == []


def test_poly_gcd_common_factor():
    common = [1, 1]  # 1 + t
    a = polys.mul(common, [2, 0, 1])
    b = polys.mul(common, [-1, 1])
    g = polys.poly_gcd(a, b)
    assert g == [1, 1]


def test_square_free_part():
    p = polys.mul(polys.mul([-1, 1], [-1, 1]), [-2, 1])  # (x-1)^2 (x-2)
    assert polys.square_free_part(p) == polys.mul([-1, 1], [-2, 1])


def test_cyclotomic_small():
    assert polys.cyclotomic(1) == [-1, 1]
    assert polys.cyclotomic(2) == [1, 1]
    assert polys.cyclotomic(3) == [1, 1, 1]
    assert polys.cyclotomic(4) == [1, 0, 1]
    assert polys.cyclotomic(6) == [1, -1, 1]
    # product of Phi_d over d | 6 is X^6 - 1
    prod = [1]
    for d in (1, 2, 3, 6):
        prod = polys.mul(prod, polys.cyclotomic(d))
    assert prod == [-1, 0, 0, 0, 0, 0, 1]


def test_deriv():
    assert polys.deriv([1, -5, 2]) == [-5, 4]
