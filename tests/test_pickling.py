"""Fields, codes and decompositions survive pickle: a field is rebuilt
from its constructor's arguments (so a hand-built modulus survives), a
code from its generator matrix, and the unpickled field's arithmetic is
the original's."""

import pickle
import random

import pytest

from qckit.galois import FieldSpec, constituent_field, extension_of, field_from_q
from qckit.linear_code import code_from_rows
from qckit.quasi_cyclic import crt_decompose, qc_dual, qc_make

from dual_reference import conjugate as reference_conjugate

F2, F9 = field_from_q(2), field_from_q(9)


def round_trip(x):
    return pickle.loads(pickle.dumps(x))


def past_table_switch():
    field = extension_of(F9, 2)  # GF(81): its tables are built after q // d^2 products
    for a in range(1, field.q):
        field.mul(a, a)
    assert field._log is not None
    return field


@pytest.mark.parametrize("make", [
    lambda: F2, lambda: F9, lambda: field_from_q(256), lambda: constituent_field(F2, (1, 1, 0, 1)),
    lambda: extension_of(F9, 2), past_table_switch,
    lambda: FieldSpec(2, F2, (1, 1, 0, 0, 1), constituent=True),  # hand-built, not the default modulus
])
def test_fields_round_trip_with_their_arithmetic(make):
    field = make()
    back = round_trip(field)
    assert back == field and hash(back) == hash(field)
    assert (back.modulus, back.base, back.constituent) == (field.modulus, field.base, field.constituent)
    assert all(back.conjugate(a) == reference_conjugate(field, a) for a in range(min(field.q, 256)))
    rng = random.Random(field.q)
    for _ in range(300):
        a, b = rng.randrange(field.q), rng.randrange(field.q)
        for op in ("add", "sub", "mul"):
            assert getattr(back, op)(a, b) == getattr(field, op)(a, b)
        assert back.neg(a) == field.neg(a)
        if a:
            assert back.inv(a) == field.inv(a)


def shifted(row, d):
    return row[-d:] + row[:-d]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_codes_and_decompositions_round_trip(q):
    field = field_from_q(q)
    rng = random.Random(q)
    l, m = 2, 5
    v = tuple(rng.randrange(q) for _ in range(l * m))
    qc = qc_make(field, l, m, [shifted(v, l * s) for s in range(m)])
    qc_dual(qc)  # fills the decomposition and the dual on the code object
    code = code_from_rows(field, [tuple(rng.randrange(q) for _ in range(7)) for _ in range(3)])
    assert round_trip(code) == code and round_trip(code).pivots == code.pivots
    back = round_trip(qc)
    assert back == qc and back.code.k == qc.code.k
    decomp = crt_decompose(qc)
    again = round_trip(decomp)
    assert (again.field, again.l, again.m) == (decomp.field, decomp.l, decomp.m)
    assert again.factors == decomp.factors and again.fields == decomp.fields
    assert again.comps == decomp.comps
    assert back._decomposition.comps == decomp.comps
