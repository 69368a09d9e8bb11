"""Test-only references for the set-up of a field and its constituent
layouts, by the routes the library used before it built them from base
rows and power walks: the CRT idempotent by extended Euclid, the
generator by the exponent test with its powers walked after it, and a
square root of -1 by a walk over the field."""

import math
from array import array

from qckit import galois
from qckit.polynomial import Poly, poly_egcd


def idempotent(field, m, factor):
    """e_f = u (u^-1 mod f) with u = (Y^m - 1)/f: 1 mod f, 0 mod u."""
    unity = Poly.unity_modulus(field, m)
    u = unity // factor
    d, w, _ = poly_egcd(u, factor)
    assert d.degree == 0
    return (u * w.scale(field.inv(d.coeffs[0]))) % unity


def generator_powers(field):
    """[g^0, ..., g^(q-2)] for the generator the tables are built from:
    the first candidate in _build_tables' scrambled order that passes the
    exponent test, its powers by the digit-sum walk (or by digit products
    where the sum table would pass the bound)."""
    p, q, order = field.p, field.q, field.q - 1
    step = next(s for s in range(order * 5 // 8, order) if math.gcd(s, order) == 1)
    candidates = (1 + i * step % order for i in range(order))
    g = galois._first_generator(q, field._digit_mul, candidates)
    k = (field.e + 1) // 2
    half = p ** k
    if half * half > galois._DIGIT_SUM_BOUND:
        powers = [1]
        while len(powers) < order:
            powers.append(field._digit_mul(powers[-1], g))
        return powers
    sums = galois._digit_sums(p, k)

    def plus(x, y):
        return sums[x % half * half + y % half] + half * sums[x // half * half + y // half]

    def images(unit, ndigits):
        out = [0]
        for j in range(ndigits):
            image = field._digit_mul(unit * p ** j, g)
            multiples = [0]
            for _ in range(p - 1):
                multiples.append(plus(multiples[-1], image))
            out = [plus(m, x) for m in multiples for x in out]
        return out

    low, high = images(1, k), images(half, field.e - k)
    powers = array("H", [0]) * order
    lo, hi = 1, 0
    for i in range(order):
        powers[i] = lo + half * hi
        lo, hi = (sums[low[lo] % half * half + high[hi] % half],
                  sums[low[lo] // half * half + high[hi] // half])
    assert (lo, hi) == (1, 0)
    return list(powers)


def sqrt_minus_one(field):
    """The first gamma in counting order with gamma^2 = -1; 1 in
    characteristic 2; None when there is none."""
    if field.char == 2:
        return field.one
    minus_one = field.neg(field.one)
    return next((a for a in field.element_list() if field.mul(a, a) == minus_one), None)
