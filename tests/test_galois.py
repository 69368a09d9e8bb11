"""Field handles: axioms, canonical moduli, constituent fields."""

import random

import pytest

from qckit.errors import BadParameters, BoundExceeded, NotPrime
from qckit.galois import (
    constituent_field,
    field_from_q,
    find_sqrt_minus_one,
    make_field,
    multiplicative_order,
)


FIELDS = [field_from_q(q) for q in (2, 3, 4, 5, 8, 9, 13, 25, 27)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_field_axioms_sampled(field):
    rng = random.Random(7)
    els = field.element_list()
    assert len(els) == field.q
    for _ in range(40):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_generator_has_full_order(field):
    g = field.generator()
    seen = set()
    a = field.one
    for _ in range(field.q - 1):
        seen.add(a)
        a = field.mul(a, g)
    assert a == field.one
    assert len(seen) == field.q - 1


def test_canonical_modulus_is_deterministic():
    a = make_field(2, 2)
    b = make_field(2, 2)
    assert a.modulus == b.modulus == (1, 1, 1)
    assert make_field(3, 2).modulus[-1] == 1  # monic


def test_element_coeff_roundtrip():
    for field in (field_from_q(5), field_from_q(9)):
        for a in field.element_list():
            coeffs = field.coeffs_of(a)
            assert len(coeffs) == field.e
            assert field.element_from_coeffs(coeffs) == a


def test_conjugation_exponent_on_self_reciprocal_slot():
    base = field_from_q(2)
    local = constituent_field(base, (1, 1, 1))
    # nu: a -> a^(q^(d/2)) = a^2 on a degree-2 self-reciprocal slot.
    for a in local.element_list():
        assert local.conjugate(a) == local.pow(a, 2)


@pytest.mark.parametrize("q,expected", [
    (2, True), (3, False), (4, True), (5, True),
    (7, False), (9, True), (13, True), (27, False),
])
def test_find_sqrt_minus_one(q, expected):
    field = field_from_q(q)
    gamma = find_sqrt_minus_one(field)
    assert (gamma is not None) == expected
    if gamma is not None:
        assert field.mul(gamma, gamma) == field.neg(field.one)


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 15) == 4
    assert multiplicative_order(3, 8) == 2
    for q in (2, 3, 4, 9, 16):
        assert multiplicative_order(q, 1) == 1


def test_constituent_field_arithmetic():
    base = field_from_q(2)
    # F_2[Y]/(Y^2 + Y + 1), the degree-2 factor of Y^3 - 1.
    local = constituent_field(base, (1, 1, 1))
    assert local.q == 4
    els = local.element_list()
    assert len(els) == 4
    for a in els:
        if a != local.zero:
            assert local.mul(a, local.inv(a)) == local.one
    y = local.y_class
    assert local.pow(y, 3) == local.one
    assert local.mul(y, local.y_inverse()) == local.one


def test_constituent_field_conjugation():
    base = field_from_q(2)
    local = constituent_field(base, (1, 1, 1))
    assert local.self_reciprocal
    y = local.y_class
    # Conjugation must send the class of Y to the class of Y^{-1}.
    assert local.conjugate(y) == local.y_inverse()
    for a in local.element_list():
        assert local.conjugate(local.conjugate(a)) == a


def test_base_elements_are_the_same_ints_in_a_constituent_field():
    base = field_from_q(3)
    local = constituent_field(base, (1, 0, 1))  # Y^2 + 1, a factor of Y^4 - 1
    for b in base.element_list():
        assert b == local.from_base_coeffs([b, base.zero])


def test_fields_beyond_the_bound_are_refused_before_p_to_the_e_or_trial_division():
    # 2^(10^12) would not fit in memory; 10^18 + 3 is prime.
    for p, e in ((2, 10 ** 12), (10 ** 18 + 3, 1), (10 ** 18 + 3, 10 ** 12)):
        with pytest.raises(BoundExceeded):
            make_field(p, e)
    with pytest.raises(BoundExceeded):
        field_from_q(10 ** 18 + 3)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(BadParameters):
        make_field(2, 0)
    with pytest.raises(NotPrime):
        field_from_q(12)
