"""A test-only reference for the factorization of x^m - 1, by the list route
the library took before it stayed on packed rows: Berlekamp's ladder is one
``poly_mod_raw`` call per power of x, the coset sums are added coefficient
by coefficient, the split takes one list gcd per scalar, and Rabin's
certificate reduces a fresh monomial x^e mod f for each exponent it needs.
Every gcd here is Euclid over ``poly_mod_raw`` made monic with the field's
``inv`` and ``mul``, so no packed gcd or ladder is involved."""

import functools
import itertools
import math

from qckit import galois
from qckit.galois import poly_divmod_raw, poly_mod_raw, poly_sub_raw, strip_raw
from qckit.linear_code import _Basis
from qckit.polynomial import _cyclotomic, cyclotomic_cosets


def list_gcd(field, a, b):
    """The monic gcd of two coefficient lists."""
    a, b = strip_raw(field, a), strip_raw(field, b)
    while b:
        a, b = b, poly_mod_raw(field, a, b)
    if not a:
        return a
    inv = field.inv(a[-1])
    return [field.mul(inv, x) for x in a]


def fixed_basis(field, comp, count, order):
    """Coset sums spanning Berlekamp's fixed subalgebra mod comp, as lists."""
    zero, one, deg = field.zero, field.one, len(comp) - 1
    ladder = [[one]]
    for _ in range(order):
        ladder.append(poly_mod_raw(field, [zero] + ladder[-1], comp))
    assert ladder.pop() == [one], (order, comp)
    total = functools.partial(functools.reduce, field.add)
    span, basis = _Basis(field, deg), []
    for coset in sorted(cyclotomic_cosets(field.q, order), key=lambda c: math.gcd(c[0], order) > 1):
        if len(basis) == count:
            break
        v = strip_raw(field, map(total, itertools.zip_longest(*(ladder[j] for j in coset), fillvalue=zero)))
        if span.insert(v):
            basis.append(v)
    assert len(basis) == count, (comp, count)
    return basis


def equal_degree_split(field, comp, d, order):
    """Berlekamp's split of a product of degree-d irreducibles, one list gcd per scalar."""
    count = (len(comp) - 1) // d
    if count == 1:
        return [list(comp)]
    factors = [list(comp)]
    for v in fixed_basis(field, comp, count, order):
        if len(factors) == count:
            break
        refined = []
        for u in factors:
            rest, w = u, (poly_mod_raw(field, v, u) if len(u) - 1 > d else [])
            for c in field.element_list():
                if len(rest) - 1 <= d or len(w) <= 1:
                    break
                g = list_gcd(field, poly_sub_raw(field, w, [c]), rest)
                if len(g) > 1:
                    refined.append(g)
                    rest = poly_divmod_raw(field, rest, g)[0]
            if len(rest) > 1:
                refined.append(rest)
        factors = refined
    assert [len(u) - 1 for u in factors] == [d] * count, (comp, d)
    return factors


def factor_unity(field, m):
    """The monic irreducible factors of x^m - 1 as coefficient lists, in the
    order of ``polynomial.factor_unity``: by cyclotomic component, then split."""
    return [f for d in range(1, m + 1) if m % d == 0
            for f in equal_degree_split(field, [c % field.char for c in _cyclotomic(d)],
                                        galois.multiplicative_order(field.q, d), d)]


def unity_factor_certificate(field, f, m):
    """Rabin's test with x^(q^k) = x^(q^k mod m) mod f once x^m = 1 mod f,
    each power a monomial reduced mod f on its own."""
    x_power = lambda e: poly_mod_raw(field, [field.zero] * e + [field.one], f)
    frobenius = lambda k: poly_sub_raw(field, x_power(pow(field.q, k, m)), x_power(1))
    n = len(f) - 1
    return (x_power(m) == [field.one] and not frobenius(n)
            and all(len(list_gcd(field, frobenius(n // r), f)) == 1 for r in galois.factorint(n)))
