"""The set-up of fields and constituent layouts, each against the route
it replaced (``setup_reference``): CRT idempotents from the derivative of
Y^m - 1, log/exp tables from the first generator found on its own power
walk, Y -> Y^-1 from a down-ladder of base rows, and the square root of
-1 from a non-square.  The reciprocal map makes no product in its target
field, so it neither spends that field's product budget nor builds its
tables."""

import math
import random

import pytest

from qckit import galois
from qckit import quasi_cyclic as qc_mod
from qckit.galois import factorint, field_from_q, find_sqrt_minus_one, reciprocal_map
from qckit.polynomial import factor_cyclic_modulus

import setup_reference


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_idempotents_match_extended_euclid(q):
    field = field_from_q(q)
    for m in range(1, 32):
        if math.gcd(m, q) == 1:
            for f in factor_cyclic_modulus(field, m).all_factors():
                assert qc_mod._idempotent(field, m, f).coeffs == setup_reference.idempotent(field, m, f).coeffs, (m, f)


def _fresh(p, e):
    """GF(p^e) built past the memo, with no tables yet."""
    field = galois._field.__wrapped__(p, e)
    assert field._log is None
    return field


TABLE_FIELDS = [(p, e) for p in range(2, 65) if galois.is_prime(p) for e in range(2, 13) if p ** e <= 2 ** 12]


@pytest.mark.parametrize("p,e", TABLE_FIELDS + [(23, 3)], ids=lambda x: str(x))
def test_tables_come_from_the_same_generator(p, e):
    field, order = _fresh(p, e), p ** e - 1
    if (p, e) == (23, 3):  # the sum table would pass the bound: the digit-product walk
        assert p ** (2 * ((e + 1) // 2)) > galois._DIGIT_SUM_BOUND
    field._build_tables()
    powers = setup_reference.generator_powers(_fresh(p, e))
    assert list(field._exp[:order]) == powers
    assert [field._log[a] for a in powers] == list(range(order))


def _reciprocal_pairs(q, ms):
    """(src, dst) for every map Y -> Y^-1 between the slots of Y^m - 1 that
    is not the identity."""
    field = field_from_q(q)
    for m in ms:
        if math.gcd(m, q) == 1:
            classification, _, fields = qc_mod._slots(field, m)
            s = classification.s
            for i, src in enumerate(fields):
                dst = fields[i if i < s else s + ((i - s) ^ 1)]
                if reciprocal_map(src, dst) is not None:
                    yield src, dst


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_down_ladder_rows_are_the_powers_of_y_inverse(q):
    # Y^i is the element |base|^i of src, and its image is the ladder's row i.
    pairs = list(_reciprocal_pairs(q, range(1, 31)))
    assert pairs
    for src, dst in pairs:
        image, y_inv = reciprocal_map(src, dst), dst.y_inverse()
        for i in range(src.degree):
            assert image(src.base.q ** i) == dst.pow(y_inv, i), (src, i)


def _fresh_layout(q, m, degree):
    """The fields of the factors of Y^m - 1 of the given degree, built past
    the memo."""
    base = field_from_q(q)
    factors = [f for f in factor_cyclic_modulus(base, m).all_factors() if f.degree == degree]
    return [galois._constituent_field.__wrapped__(base, f.coeffs) for f in factors]


@pytest.mark.parametrize("q,m,degree", [(5, 7, 6), (2, 23, 11), (3, 11, 5), (4, 13, 6)])
def test_reciprocal_map_makes_no_product_in_its_target(q, m, degree):
    src, *others = _fresh_layout(q, m, degree)
    dst = src if src.self_reciprocal else others[0]
    assert dst.q <= galois.TABLE_BOUND and dst._log is None and dst._rent > 0
    rent = dst._rent
    image = reciprocal_map.__wrapped__(src, dst)
    assert dst._log is None and dst._rent == rent
    rng, y_inv = random.Random(m), dst.y_inverse()
    for a in [rng.randrange(src.q) for _ in range(50)]:
        assert image(a) == dst.eval_base_poly(src.base_coeffs(a), y_inv)


PRIME_POWERS = [q for q in range(2, 257) if len(factorint(q)) == 1]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_sqrt_minus_one_is_the_first_root_in_counting_order(q):
    field = field_from_q(q)
    assert find_sqrt_minus_one(field) == setup_reference.sqrt_minus_one(field)
