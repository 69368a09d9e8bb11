"""One Y -> Y^-1 map builds every constituent of the dual: slot i holds the
Euclidean dual of the constituent at its reciprocal slot, carried into
slot i by the map.  Checked against the route it replaced (conjugation by
repeated squaring and Horner transport, in ``dual_reference``), with the
self-duality report over a field with a reciprocal pair pinned."""

import json
import math
import random

import pytest

from qckit import cli, selftest, serialize
from qckit.errors import FieldMismatch
from qckit.galois import constituent_field, field_from_q, reciprocal_map
from qckit.linear_code import LinearCode, code_from_rows, conjugate_code, euclidean_dual, hermitian_dual
from qckit.quasi_cyclic import _dual_components, _slots, construct_selfdual_qc, crt_decompose, is_selfdual, qc_make

from dual_reference import dual_components

F2 = field_from_q(2)
QS = (2, 3, 4, 5, 7, 8, 9)


def closed_qc(field, l, m, vectors):
    """The QC code spanned by the vectors and their shifts by T^l."""
    n = l * m
    return qc_make(field, l, m, [tuple(v[(i - s * l) % n] for i in range(n)) for v in vectors for s in range(m)])


def layouts(q):
    """(m, local fields) for every m <= 30 coprime to q."""
    field = field_from_q(q)
    for m in range(1, 31):
        if math.gcd(m, q) == 1:
            yield m, _slots(field, m)[2]


def test_dual_components_match_the_reference_on_the_selftest_corpus():
    for qc in selftest._corpus_200(selftest.DEFAULT_SEED):
        decomp = crt_decompose(qc)
        assert _dual_components(decomp).comps == dual_components(decomp)


@pytest.mark.parametrize("q", QS)
def test_dual_components_match_the_reference_for_every_coprime_m(q):
    # One generator and its T^3 shifts: each constituent has dimension at
    # most 1 in length 3, so each dual constituent has dimension 2 or 3.
    field, rng = field_from_q(q), random.Random(q)
    ms = [m for m, _ in layouts(q)]
    assert len(ms) >= 10
    for m in ms:
        qc = closed_qc(field, 3, m, [[field.random_element(rng) for _ in range(3 * m)]])
        decomp = crt_decompose(qc)
        assert _dual_components(decomp).comps == dual_components(decomp), m


@pytest.mark.parametrize("q", QS)
def test_conjugation_is_the_frobenius_power_on_self_reciprocal_fields(q):
    rng = random.Random(q)
    seen = set()
    for m, fields in layouts(q):
        for local in fields:
            if local.self_reciprocal and local.degree % 2 == 0 and local not in seen:
                seen.add(local)
                exponent = local.base.q ** (local.degree // 2)
                sample = set(rng.randrange(local.q) for _ in range(50)) | {local.y_class}
                for a in sample:
                    assert local.conjugate(a) == local.pow(a, exponent)
                assert local.conjugate(local.y_class) == local.y_inverse()
    assert seen


def test_pair_images_are_horner_at_y_inverse():
    # Over GF(2) an image is the XOR of the y^-i at the element's set bits.
    rng = random.Random(58)
    for m in (7, 21, 23, 31, 47, 63):
        classification, _, fields = _slots(F2, m)
        s = classification.s
        for i in range(s, len(fields)):
            src, dst = fields[i], fields[s + ((i - s) ^ 1)]
            y_inv = dst.y_inverse()
            sample = range(src.q) if src.q <= 256 else [src.q - 1] + [rng.randrange(src.q) for _ in range(200)]
            for a in sample:
                assert reciprocal_map(src, dst)(a) == dst.eval_base_poly(src.base_coeffs(a), y_inv)


def test_identity_maps_keep_the_code_and_wrong_targets_raise():
    g2 = _slots(F2, 7)[2][1]  # Y^3 + Y + 1, not self-reciprocal
    linear = _slots(F2, 3)[2][0]  # Y + 1
    assert reciprocal_map(linear, linear) is None and reciprocal_map(g2, g2) is None
    assert reciprocal_map(F2, F2) is None
    code = code_from_rows(g2, [(1, 2, 3)])
    assert conjugate_code(code) is code and hermitian_dual(code) == euclidean_dual(code)
    low, high = _slots(field_from_q(5), 4)[2][2:]  # Y - 3 and Y - 2, with 2 * 3 = 1 mod 5
    assert (low.modulus, high.modulus) == ((2, 1), (3, 1))
    assert conjugate_code(code_from_rows(low, [(1, 2)]), high) == LinearCode(high, 2, [(1, 2)])
    f3 = field_from_q(3)
    plus_one, pair, partner = (constituent_field(f3, f) for f in ((1, 0, 1), (2, 1, 1), (2, 2, 1)))
    assert reciprocal_map(pair, partner) is not None and reciprocal_map(pair, pair) is None
    for src, dst in ((g2, F2), (F2, f3), (plus_one, pair), (pair, plus_one), (pair, constituent_field(F2, (1, 1, 1)))):
        with pytest.raises(FieldMismatch):
            reciprocal_map(src, dst)


SELF_DUAL = construct_selfdual_qc(F2, 2, 7)
NOT_SELF_DUAL = closed_qc(F2, 2, 7, [(0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1)])


@pytest.mark.parametrize("qc, result, findings", [
    (SELF_DUAL, True, [True, True]),
    (NOT_SELF_DUAL, False, [True, False]),
])
def test_selfdual_report_lists_each_pair_once_at_its_first_slot(tmp_path, capsys, qc, result, findings):
    # Y^7 - 1 = (Y + 1)(Y^3 + Y + 1)(Y^3 + Y^2 + 1) over GF(2): one
    # self-reciprocal slot, then one pair.
    cert = is_selfdual(qc)
    assert cert.result is result
    assert cert.component_report == [
        {"factor": (1, 1), "kind": "self-reciprocal", "hermitian_selfdual": findings[0]},
        {"factor": (1, 0, 1, 1), "kind": "pair", "dual_paired": findings[1]},
    ]
    serialize.dump_code(qc.code, tmp_path / "c.json", qc=qc)
    assert cli.main(["selfdual", str(tmp_path / "c.json"), "--json"]) == (0 if result else 1)
    assert json.loads(capsys.readouterr().out) == {
        "selfdual": result,
        "components": [
            {"factor": [[1], [1]], "kind": "self-reciprocal", "hermitian_selfdual": findings[0]},
            {"factor": [[1], [0], [1], [1]], "kind": "pair", "dual_paired": findings[1]},
        ],
    }
