"""Defining sets rooted in F_q[x]/(f0) against the splitting-field root they
replaced (``splitting_reference``), for every n <= 31 coprime to q where the
old root answers: one unit c relates the two labels of every factor, and
every multiplier image is the same."""

import functools
import math
import operator
import random

import pytest

import splitting_reference as ref
from qckit.cyclic import cyclic_make, defining_set, factor_exponents, multiplier_apply
from qckit.galois import field_from_q
from qckit.polynomial import factor_cyclic_modulus

FIELDS = (2, 3, 4, 5, 7, 8, 9, 16)


def _lengths(field):
    return [n for n in range(1, 32) if n % field.char and ref.splitting_root(field, n)]


def _relating_units(field, n):
    """The units c with c * old(f) = new(f) for every factor f: beta = alpha^c."""
    old, new = ref.factor_exponents(field, n), factor_exponents(field, n)
    assert old.keys() == new.keys()
    return [c for c in range(1, n + 1) if math.gcd(c, n) == 1
            and all(frozenset(c * i % n for i in old[f]) == new[f] for f in old)]


@pytest.mark.parametrize("q", FIELDS)
def test_one_unit_relates_the_two_labels(q):
    field = field_from_q(q)
    for n in _lengths(field):
        units = _relating_units(field, n)
        assert units, (q, n)
        for f in factor_cyclic_modulus(field, n).all_factors():
            code = cyclic_make(field, n, f)
            assert list(defining_set(code, alpha_power=units[0])) == ref.zeros(field, n, f.coeffs), (q, n, f)


@pytest.mark.parametrize("q, n", [(2, 17), (3, 11), (4, 9)])
def test_the_root_convention_changed(q, n):
    assert 1 not in _relating_units(field_from_q(q), n)


@pytest.mark.parametrize("q", FIELDS)
def test_multiplier_images_match_the_splitting_field_route(q):
    """On every factor and on four seeded products of factors."""
    field, rng = field_from_q(q), random.Random(q)
    for n in _lengths(field):
        factors = factor_cyclic_modulus(field, n).all_factors()
        divisors = factors + [functools.reduce(operator.mul, rng.sample(factors, len(factors) // 2 + 1))
                              for _ in range(4)]
        for g in divisors:
            code = cyclic_make(field, n, g)
            for a, image in ref.multiplier_images(field, n, g).items():
                assert multiplier_apply(code, a).g == image, (q, n, g, a)
