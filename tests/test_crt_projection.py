"""crt_decompose projects each slot row[j::l] with one reduction, inside
from_base_coeffs, and only for canonical rows until the local ranks
account for the code; checked against the per-Poly projection (phi,
then ``% f``) of every row, which test_module_generators also applies
to its codes.  Also: the zero code passes through every
decompose/reconstruct/serialize path without a special case."""

import random

import pytest

from qckit import serialize
from qckit.galois import constituent_field, field_from_q
from qckit.linear_code import LinearCode, code_from_rows
from qckit.polynomial import factor_cyclic_modulus
from qckit.quasi_cyclic import crt_decompose, crt_reconstruct, phi, qc_dual, qc_make
from qckit.selftest import DEFAULT_SEED, _corpus_200, random_qc_code


def per_poly_components(qc):
    """The reference route: slot polynomials from phi, each reduced by
    Poly ``% f`` before it becomes a local-field element."""
    comps = []
    for f in factor_cyclic_modulus(qc.field, qc.m).all_factors():
        local = constituent_field(qc.field, f.coeffs)
        rows = [
            tuple(local.from_base_coeffs((p % f).coeffs) for p in phi(qc.field, qc.l, qc.m, row))
            for row in qc.code.gen
        ]
        comps.append(code_from_rows(local, rows, n=qc.l))
    return comps


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_projection_matches_the_per_poly_route(q):
    field = field_from_q(q)
    rng = random.Random(4000 + q)
    shapes = [
        (l, m) for l in range(1, 9) for m in range(1, 32) if m % field.char
        and q ** max(f.degree for f in factor_cyclic_modulus(field, m).all_factors()) <= 2 ** 12
    ]
    for l, m in rng.sample(shapes, 14):
        qc = random_qc_code(field, l, m, rng)
        comps = crt_decompose(qc).comps
        assert [c.gen for c in comps] == [c.gen for c in per_poly_components(qc)], (q, l, m)


def test_projection_matches_the_per_poly_route_on_the_selftest_corpus():
    for qc in _corpus_200(DEFAULT_SEED):
        fresh = qc_make(qc.field, qc.l, qc.m, qc.code)  # no decomposition kept yet
        assert [c.gen for c in crt_decompose(fresh).comps] == [c.gen for c in per_poly_components(qc)]


def test_code_from_rows_without_rows_is_the_zero_code():
    F2 = field_from_q(2)
    assert code_from_rows(F2, [], n=3) == LinearCode.zero_code(F2, 3)


@pytest.mark.parametrize("q, l, m", [(2, 2, 3), (4, 3, 5), (5, 2, 4)])
def test_zero_code_through_decompose_dual_and_json(q, l, m):
    field = field_from_q(q)
    zero = qc_make(field, l, m, [])
    decomp = crt_decompose(zero)
    assert all(c.k == 0 and c.n == l for c in decomp.comps)
    assert crt_reconstruct(decomp) == zero
    assert qc_dual(zero).code == LinearCode.full_code(field, l * m)
    assert serialize.code_from_json(serialize.code_to_json(zero.code)).code == zero.code
