"""The integer field layer: log/exp tables against digit-polynomial
arithmetic and sympy, tables built once a field's products pay for
them, counting order, and the fields above the table bound, where digit
polynomials are the only path."""

import random

import pytest

from qckit import galois
from qckit.errors import DivisionByZero
from qckit.galois import (
    TABLE_BOUND,
    constituent_field,
    extension_of,
    factorint,
    field_from_q,
    make_field,
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
    """Schoolbook product of the base coefficients, reduced by the modulus,
    one base-field add and mul at a time: a route apart from both the
    tables and the row kernels of _digit_mul."""
    base, d, modulus = field.base, field.degree, field.modulus
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(_digits(a, base.q, d)):
        for j, y in enumerate(_digits(b, base.q, d)):
            prod[i + j] = base.add(prod[i + j], base.mul(x, y))
    for k in range(2 * d - 2, d - 1, -1):  # c Y^k = c Y^(k-d) (Y^d - f) + c Y^(k-d) f
        for j, fj in enumerate(modulus[:d]):
            prod[k - d + j] = base.sub(prod[k - d + j], base.mul(prod[k], fj))
    return sum(c * base.q ** i for i, c in enumerate(prod[:d]))


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


def _with_tables(field):
    """The field after it has spent its product budget on digit products,
    so that an extension computes with log/exp tables."""
    assert field.q <= TABLE_BOUND
    while field.e > 1 and field._log is None:
        field.mul(1, 1)
    return field


def _sample_pairs(field, count, seed):
    rng = random.Random(seed)
    fixed = [0, 1, field.q - 1]
    others = [rng.randrange(field.q) for _ in range(9)]
    if field.q <= 256:
        return [(a, b) for a in range(field.q) for b in fixed + others]
    return [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(count)]


@pytest.mark.parametrize("q", SMALL_Q)
def test_table_arithmetic_matches_digit_polynomials(q):
    field = _with_tables(field_from_q(q))
    _check_against_reference(field, _sample_pairs(field, 0, q))


CONSTITUENT_CASES = [(2, 13), (4, 13), (5, 14), (3, 14), (4, 15), (9, 8), (2, 21)]


@pytest.mark.parametrize("q,m", CONSTITUENT_CASES)
def test_constituent_tables_match_digit_polynomials(q, m):
    base = field_from_q(q)
    for f in factor_cyclic_modulus(base, m).all_factors():
        local = _with_tables(constituent_field(base, f.coeffs))
        _check_against_reference(local, _sample_pairs(local, 300, m))


def _fresh_gf5_6():
    """A new GF(5^6) constituent of Y^7 - 1 over GF(5), built past the memo."""
    base = field_from_q(5)
    (f,) = [f for f in factor_cyclic_modulus(base, 7).all_factors() if f.degree == 6]
    return galois._constituent_field.__wrapped__(base, f.coeffs)


def test_fresh_extension_fields_have_no_tables():
    for field in (_fresh_gf5_6(), galois._field.__wrapped__(2, 10), galois._field.__wrapped__(3, 5)):
        assert field.q <= TABLE_BOUND and field._log is None
        assert field._rent == field.q // field.degree ** 2


def _count_table_builds(field):
    builds = []
    build = field._build_tables
    field._build_tables = lambda: (builds.append(1), build())
    return builds


@pytest.mark.parametrize("make", [_fresh_gf5_6, lambda: galois._field.__wrapped__(2, 10)],
                         ids=["GF(5^6) constituent", "GF(2^10)"])
def test_tables_are_built_once_the_products_pay(make):
    field = make()
    budget = field.q // field.degree ** 2
    builds = _count_table_builds(field)
    # Bound before the switch, as a kernel's loop does.
    add, sub, neg, mul = field.add, field.sub, field.neg, field.mul
    rng = random.Random(field.q)
    pairs = [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(budget + 20)]
    for a, b in pairs[:budget - 1]:
        assert mul(a, b) == field._digit_mul(a, b)
    assert field._log is None and not builds
    a, b = pairs[budget - 1]
    assert field.mul(a, b) == field._digit_mul(a, b)
    assert field._log is not None and len(builds) == 1
    digit_products = []
    field._digit_mul = lambda a, b: digit_products.append(1)
    for a, b in pairs[budget:]:
        assert mul(a, b) == field.mul(a, b) == field._exp[field._log[a] + field._log[b]]
        assert add(a, b) == field.add(a, b)
        assert sub(a, b) == field.sub(a, b) and neg(a) == field.neg(a)
    assert not digit_products and len(builds) == 1


def test_an_inverse_costs_two_products_per_bit_of_q():
    field = _fresh_gf5_6()
    builds = _count_table_builds(field)
    cost = 2 * field.q.bit_length()
    inverses = -(-(field.q // field.degree ** 2) // cost)
    for a in range(2, inverses + 1):
        assert field._digit_mul(a, field.inv(a)) == 1
    assert field._log is None and not builds
    inverse = field.inv(inverses + 1)
    assert field._log is not None and len(builds) == 1
    assert inverse == field._digit_inv(inverses + 1)


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


@pytest.mark.parametrize("p", [2, 3, 65537, 1048573])  # 1048573: the largest prime under 2^20
def test_prime_field_operations_are_int_arithmetic_mod_p(p):
    field = make_field(p)
    rng = random.Random(p)
    samples = [0, 1, p - 1] + [rng.randrange(p) for _ in range(200)]
    for a, b in zip(samples, reversed(samples)):
        assert field.add(a, b) == (a + b) % p
        assert field.sub(a, b) == (a - b) % p
        assert field.neg(a) == -a % p
        assert field.mul(a, b) == a * b % p
        n = rng.randrange(-2 * p, 2 * p) if a else rng.randrange(2 * p)
        assert field.pow(a, n) == pow(a, n, p)
        if a:
            assert field.inv(a) == pow(a, -1, p)
    with pytest.raises(DivisionByZero):
        field.inv(0)


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
    field = _with_tables(make_field(23, 3))
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
