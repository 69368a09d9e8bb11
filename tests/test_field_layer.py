"""The integer field layer: log/exp tables against digit-polynomial
arithmetic and sympy, counting order, and the fields above the table
bound, where digit polynomials are the only path."""

import random

import pytest

from qckit.galois import (
    TABLE_BOUND,
    constituent_field,
    extension_of,
    factorint,
    field_from_q,
    make_field,
    poly_mul_raw,
)
from qckit.polynomial import factor_cyclic_modulus

# Every q <= 256 that is a proper prime power.
SMALL_Q = [q for q in range(4, 257)
           if len(factorint(q)) == 1 and max(factorint(q).values()) > 1]


def _digits(i, p, count):
    out = []
    for _ in range(count):
        i, r = divmod(i, p)
        out.append(r)
    return out


def _reference_mul(field, a, b):
    """Product through base-coefficient polynomials, reduced by the modulus."""
    base = field.base
    prod = poly_mul_raw(base, field.base_coeffs(a), field.base_coeffs(b))
    return field.from_base_coeffs(prod)


def _reference_add(field, a, b, sign=1):
    p = field.p
    return field.element_from_coeffs(
        [(x + sign * y) % p for x, y in zip(field.coeffs_of(a), field.coeffs_of(b))]
    )


def _check_against_reference(field, pairs):
    for a, b in pairs:
        assert field.add(a, b) == _reference_add(field, a, b)
        assert field.sub(a, b) == _reference_add(field, a, b, sign=-1)
        product = field.mul(a, b)
        assert product == _reference_mul(field, a, b) == field._digit_mul(a, b)
    for a, _ in pairs:
        assert field.neg(a) == _reference_add(field, 0, a, sign=-1)
        if a:
            inverse = field.inv(a)
            assert field.mul(a, inverse) == 1
            assert inverse == field._digit_inv(a)
            assert field.pow(a, -1) == inverse


def _sample_pairs(field, count, seed):
    rng = random.Random(seed)
    fixed = [0, 1, field.q - 1]
    others = [rng.randrange(field.q) for _ in range(9)]
    if field.q <= 256:
        return [(a, b) for a in range(field.q) for b in fixed + others]
    return [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(count)]


@pytest.mark.parametrize("q", SMALL_Q)
def test_table_arithmetic_matches_digit_polynomials(q):
    field = field_from_q(q)
    assert field._log is not None
    _check_against_reference(field, _sample_pairs(field, 0, q))


CONSTITUENT_CASES = [(2, 13), (4, 13), (5, 14), (3, 14), (4, 15), (9, 8), (2, 21)]


@pytest.mark.parametrize("q,m", CONSTITUENT_CASES)
def test_constituent_tables_match_digit_polynomials(q, m):
    base = field_from_q(q)
    for f in factor_cyclic_modulus(base, m).all_factors():
        local = constituent_field(base, f.coeffs)
        assert local.q <= TABLE_BOUND
        _check_against_reference(local, _sample_pairs(local, 300, m))


@pytest.mark.parametrize("q", [q for q in SMALL_Q if q <= 128])
def test_extension_field_matches_sympy(q):
    gt = pytest.importorskip("sympy.polys.galoistools")
    ZZ = pytest.importorskip("sympy.polys.domains").ZZ
    field = field_from_q(q)
    p = field.p
    modulus = list(reversed(field.modulus))
    rng = random.Random(q)
    for _ in range(200):
        a, b = rng.randrange(q), rng.randrange(q)
        high_first = [list(reversed(field.coeffs_of(x))) for x in (a, b)]
        product = gt.gf_rem(gt.gf_mul(*high_first, p, ZZ), modulus, p, ZZ)
        expected = [int(c) for c in reversed(product)]
        expected += [0] * (field.e - len(expected))
        assert field.coeffs_of(field.mul(a, b)) == expected


def _check_axioms(field, seed, rounds=20):
    rng = random.Random(seed)
    for _ in range(rounds):
        a, b, c = (rng.randrange(field.q) for _ in range(3))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        assert field.sub(field.add(a, b), b) == a
        if a:
            assert field.mul(a, field.inv(a)) == field.one
            assert field.pow(a, field.q - 1) == field.one


@pytest.mark.parametrize("p,e", [(65537, 1), (2, 17)])
def test_fields_above_the_table_bound(p, e):
    field = make_field(p, e)
    assert field.q > TABLE_BOUND and field._log is None
    _check_axioms(field, p + e)


def test_large_odd_extension_above_the_table_bound():
    base = field_from_q(3)
    ext = extension_of(base, 11)
    assert ext.q > TABLE_BOUND and ext._log is None
    _check_axioms(ext, 11)
    rng = random.Random(3)
    for _ in range(20):
        a, b = rng.randrange(ext.q), rng.randrange(ext.q)
        assert ext.mul(a, b) == _reference_mul(ext, a, b)
        assert ext.add(a, b) == _reference_add(ext, a, b)


def test_field_without_a_digit_sum_table():
    # 23^3: the digitwise-sum table of two-digit halves would have 23^4
    # entries, so the generator powers are stepped by digit polynomials.
    field = make_field(23, 3)
    assert field._log is not None
    _check_against_reference(field, _sample_pairs(field, 300, 23))


@pytest.mark.parametrize("field", [
    field_from_q(5), field_from_q(16), field_from_q(27),
    extension_of(field_from_q(4), 3),
    extension_of(field_from_q(3), 4),
], ids=repr)
def test_counting_order_is_integer_order(field):
    elements = field.element_list()
    assert len(elements) == field.q
    for i, a in enumerate(elements):
        assert a == i
        assert field.coeffs_of(a) == _digits(i, field.p, field.e)
        assert field.element_from_coeffs(field.coeffs_of(a)) == a
    if field.base is not None:
        for a in elements:
            assert field.from_base_coeffs(field.base_coeffs(a)) == a


@pytest.mark.parametrize("q,coeffs", [
    (4, [0, 1]), (8, [0, 1, 0]), (9, [1, 1]), (16, [0, 1, 0, 0]), (25, [2, 1]),
])
def test_generator_is_pinned(q, coeffs):
    field = field_from_q(q)
    assert field.coeffs_of(field.generator()) == coeffs


def test_generator_is_the_smallest_in_counting_order():
    for field in (field_from_q(49), extension_of(field_from_q(2), 6)):
        g = field.generator()
        order = field.q - 1
        for a in range(1, g):
            assert any(field.pow(a, order // r) == 1 for r in factorint(order))
