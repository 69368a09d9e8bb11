"""Module-level memos are functools.cache: validation still runs on
every call, equal keys give the same object, and failures are not
cached."""

import pytest

from qckit import cyclic as cy
from qckit import galois
from qckit import quasi_cyclic as qc_mod
from qckit import selftest
from qckit.errors import BoundExceeded, FieldMismatch
from qckit.galois import constituent_field, extension_of, make_field
from qckit.polynomial import factor_cyclic_modulus


def test_make_field_checks_the_bound_on_a_cached_field():
    field = make_field(2, 4)
    with pytest.raises(BoundExceeded):
        make_field(2, 4, bound=8)
    assert make_field(2, 4) is field


def test_constituent_field_list_and_tuple_moduli_share_one_field():
    F2 = make_field(2)
    assert constituent_field(F2, [1, 1, 1]) is constituent_field(F2, (1, 1, 1))


def test_failures_are_not_cached():
    F2 = make_field(2)
    for _ in range(2):
        with pytest.raises(FieldMismatch):
            constituent_field(F2, (1, 0, 1))  # (Y + 1)^2


@pytest.mark.parametrize("memo", [
    galois._field, galois._constituent_field, extension_of, factor_cyclic_modulus,
    cy._splitting_data, cy.factor_exponents, qc_mod._slots, qc_mod._idempotent, selftest._corpus_200,
])
def test_memos_count_and_clear(memo):
    assert hasattr(memo, "cache_info") and hasattr(memo, "cache_clear")


def test_cache_clear_recomputes_an_equal_value():
    F3 = make_field(3)
    first = factor_cyclic_modulus(F3, 8)
    assert factor_cyclic_modulus(F3, 8) is first
    factor_cyclic_modulus.cache_clear()
    again = factor_cyclic_modulus(F3, 8)
    assert again is not first
    assert [f.coeffs for f in again.all_factors()] == [f.coeffs for f in first.all_factors()]
