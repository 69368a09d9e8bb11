"""Module-level memos are functools.cache: validation still runs on
every call, equal keys give the same object, and failures are not
cached."""

import random

import pytest

from qckit import cyclic as cy
from qckit import galois
from qckit import quasi_cyclic as qc_mod
from qckit import selftest
from qckit.errors import BoundExceeded, FieldMismatch
from qckit.galois import constituent_field, extension_of, make_field
from qckit.polynomial import factor_cyclic_modulus
from qckit.selftest import random_qc_code


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
    cy._root_powers, cy.factor_exponents, qc_mod._slots, qc_mod._idempotent, qc_mod._lifts, selftest._corpus_200,
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


def test_memos_clear_from_the_top_down():
    # _slots keeps the classification factor_cyclic_modulus returned, so
    # clearing only the lower memo leaves an equal but distinct one there.
    F3 = make_field(3)
    kept = qc_mod._slots(F3, 4)[0]
    factor_cyclic_modulus.cache_clear()
    assert qc_mod.crt_decompose(random_qc_code(F3, 2, 4, random.Random(1))).classification is kept
    assert kept is not factor_cyclic_modulus(F3, 4)
    assert [f.coeffs for f in kept.all_factors()] == [f.coeffs for f in factor_cyclic_modulus(F3, 4).all_factors()]
    qc_mod._slots.cache_clear()
    factor_cyclic_modulus.cache_clear()
    qc = random_qc_code(F3, 2, 4, random.Random(2))
    assert qc_mod.crt_decompose(qc).classification is factor_cyclic_modulus(F3, 4)
