"""A test-only reference for the root exponents of cyclic codes by the root
the library took before it rooted them in F_q[x]/(f): the canonical
primitive n-th root was beta = g^((q^k - 1)/n) for the smallest generator g
of the degree-k extension that ``extension_of`` builds (k the order of q
mod n), and every label is read by Horner's rule at the n powers of beta
in that field.  The generator search walks the extension, so it is refused
above 2^22 elements."""

import functools
import math

from qckit.errors import BoundExceeded
from qckit.galois import extension_of, multiplicative_order
from qckit.polynomial import Poly, factor_cyclic_modulus


@functools.cache
def splitting_root(field, n):
    """(the extension, beta), or None where the generator search is refused."""
    ext = extension_of(field, multiplicative_order(field.q, n))
    try:
        return ext, ext.pow(ext.generator(), (ext.q - 1) // n)
    except BoundExceeded:
        return None


def zeros(field, n, coeffs):
    """{i : g(beta^i) = 0}, sorted, for g given by its coefficients."""
    ext, beta = splitting_root(field, n)
    point, out = ext.one, []
    for i in range(n):
        if ext.eval_base_poly(coeffs, point) == ext.zero:
            out.append(i)
        point = ext.mul(point, beta)
    return out


@functools.cache
def factor_exponents(field, n):
    """Irreducible-factor coefficients -> {i : f(beta^i) = 0}."""
    return {f.coeffs: frozenset(zeros(field, n, f.coeffs)) for f in factor_cyclic_modulus(field, n).all_factors()}


def multiplier_images(field, n, g):
    """{a: the generator of mu_a(<g>)} over the units a mod n, by the
    defining-set route on beta's labels: the product of the factors whose
    labels lie in a^-1 T, T the labels of g."""
    labels, exps, images = factor_exponents(field, n), zeros(field, n, g.coeffs), {}
    for a in range(1, n + 1):
        if math.gcd(a, n) == 1:
            shifted = {pow(a, -1, n) * i % n for i in exps}
            images[a] = Poly.one(field)
            for f in factor_cyclic_modulus(field, n).all_factors():
                if labels[f.coeffs] <= shifted:
                    images[a] = images[a] * f
    return images
