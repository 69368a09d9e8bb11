"""A test-only reference for the factorization of x^m - 1, by the route
the library took before it stayed on packed rows: Berlekamp's ladder is one
``Poly`` remainder per power of x, the coset sums are added coefficient
by coefficient, the split takes one gcd per scalar, and Rabin's
certificate reduces a fresh monomial x^e mod f for each exponent it needs.
Every gcd here is Euclid over ``Poly`` remainders made monic with the
field's ``inv`` and ``mul``, so no packed gcd or ladder is involved."""

import functools
import itertools
import math

from qckit import galois
from qckit.linear_code import _Basis
from qckit.polynomial import Poly, _cyclotomic, cyclotomic_cosets


def poly_gcd(a, b):
    """The monic gcd of two polynomials, by Euclid's remainders."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    inv = a.field.inv(a.coeffs[-1])
    return Poly(a.field, [a.field.mul(inv, x) for x in a.coeffs])


def poly_powmod(b, exp, f):
    """b^exp mod f by square and multiply, each product reduced mod f."""
    result, b = Poly.one(f.field) % f, b % f
    while exp:
        if exp & 1:
            result = result * b % f
        exp >>= 1
        if exp:
            b = b * b % f
    return result


def fixed_basis(field, comp, count, order):
    """Coset sums spanning Berlekamp's fixed subalgebra mod comp, as lists."""
    zero, deg, x, modulus = field.zero, len(comp) - 1, Poly.x(field), Poly(field, comp)
    ladder = [Poly.one(field)]
    for _ in range(order):
        ladder.append(ladder[-1] * x % modulus)
    assert ladder.pop() == Poly.one(field), (order, comp)
    total = functools.partial(functools.reduce, field.add)
    span, basis = _Basis(field, deg), []
    for coset in sorted(cyclotomic_cosets(field.q, order), key=lambda c: math.gcd(c[0], order) > 1):
        if len(basis) == count:
            break
        sums = map(total, itertools.zip_longest(*(ladder[j].coeffs for j in coset), fillvalue=zero))
        v = list(Poly(field, sums).coeffs)
        if span.insert(v):
            basis.append(v)
    assert len(basis) == count, (comp, count)
    return basis


def equal_degree_split(field, comp, d, order):
    """Berlekamp's split of a product of degree-d irreducibles, one gcd per scalar."""
    count = (len(comp) - 1) // d
    if count == 1:
        return [list(comp)]
    factors = [Poly(field, comp)]
    for v in fixed_basis(field, comp, count, order):
        if len(factors) == count:
            break
        refined = []
        for u in factors:
            rest, w = u, (Poly(field, v) % u if u.degree > d else Poly.zero(field))
            for c in field.element_list():
                if rest.degree <= d or not w.degree:
                    break
                g = poly_gcd(w - Poly.constant(field, c), rest)
                if g.degree:
                    refined.append(g)
                    rest = rest // g
            if rest.degree:
                refined.append(rest)
        factors = refined
    assert [u.degree for u in factors] == [d] * count, (comp, d)
    return [list(u.coeffs) for u in factors]


def factor_unity(field, m):
    """The monic irreducible factors of x^m - 1 as coefficient lists, in the
    order of ``polynomial.factor_unity``: by cyclotomic component, then split."""
    return [f for d in range(1, m + 1) if m % d == 0
            for f in equal_degree_split(field, [c % field.char for c in _cyclotomic(d)],
                                        galois.multiplicative_order(field.q, d), d)]


def unity_factor_certificate(field, f, m):
    """Rabin's test with x^(q^k) = x^(q^k mod m) mod f once x^m = 1 mod f,
    each power a monomial reduced mod f on its own."""
    f = Poly(field, f)
    x_power = lambda e: Poly(field, [field.zero] * e + [field.one]) % f
    frobenius = lambda k: x_power(pow(field.q, k, m)) - x_power(1)
    n = f.degree
    return (x_power(m) == Poly.one(field) and frobenius(n).is_zero
            and all(poly_gcd(frobenius(n // r), f).degree == 0 for r in galois.factorint(n)))
