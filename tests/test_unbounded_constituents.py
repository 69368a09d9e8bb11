"""Constituent fields of any size: the QC pipeline runs where a
constituent field has more than 2^22 elements, and only the operations
that walk a field (listing it, searching it for a generator) are refused
there.  The search for the smallest irreducible modulus skips constant
term 0 and is pinned against a walk over every candidate."""

import itertools
import json
import random

import pytest

from qckit import cli, serialize
from qckit.cyclic import cyclic_make, defining_set, multiplier_apply
from qckit.errors import BoundExceeded
from qckit.galois import _smallest_irreducible, field_from_q, make_field, poly_is_irreducible
from qckit.linear_code import apply_monomial, euclidean_dual
from qckit.quasi_cyclic import (_dual_components, _slots, construct_isodual_qc, construct_selfdual_qc,
                                crt_decompose, crt_reconstruct, is_isodual, is_selfdual, qc_dual, qc_make)

F2, F3 = field_from_q(2), field_from_q(3)
# The smallest co-lengths at which GF(2) and GF(3) have a constituent
# field of more than 2^22 elements: degree 23 and degree 16.
PAST_THE_OLD_BOUND = [(F2, 47), (F3, 17)]
IDS = ["q2-m47", "q3-m17"]


def random_qc(field, m):
    """An index-2 QC code: one random vector and its shifts by T^2."""
    rng, n = random.Random(2), 2 * m
    v = [rng.randrange(field.q) for _ in range(n)]
    return qc_make(field, 2, m, [tuple(v[(i - 2 * s) % n] for i in range(n)) for s in range(m)])


def biggest_constituent_field(field, m):
    return max(_slots(field, m)[2], key=lambda local: local.q)


@pytest.mark.parametrize("field,m", PAST_THE_OLD_BOUND, ids=IDS)
def test_the_layouts_pass_the_old_bound(field, m):
    assert biggest_constituent_field(field, m).q > 2 ** 22
    assert 0 < random_qc(field, m).code.k < 2 * m


@pytest.mark.parametrize("field,m", PAST_THE_OLD_BOUND, ids=IDS)
def test_crt_round_trip(field, m):
    qc = random_qc(field, m)
    decomp = crt_decompose(qc)
    assert decomp.dimension() == qc.code.k
    assert crt_reconstruct(decomp).code == qc.code


@pytest.mark.parametrize("field,m", PAST_THE_OLD_BOUND, ids=IDS)
def test_qc_dual_agrees_with_both_routes(field, m):
    qc = random_qc(field, m)
    dual = qc_dual(qc)  # raises DualMismatch unless the kernel and component routes agree
    assert dual.code == euclidean_dual(qc.code)
    assert dual.code == crt_reconstruct(_dual_components(crt_decompose(qc))).code
    assert dual.code.k == qc.n - qc.code.k


@pytest.mark.parametrize("field,m", PAST_THE_OLD_BOUND, ids=IDS)
def test_is_selfdual(field, m):
    qc = random_qc(field, m)
    cert = is_selfdual(qc)
    assert cert.result is False
    classification = _slots(field, m)[0]
    assert [f["kind"] for f in cert.component_report] == ["self-reciprocal"] * classification.s + ["pair"] * classification.t


def test_is_selfdual_holds_on_a_selfdual_code():
    assert is_selfdual(construct_selfdual_qc(F2, 2, 47)).result


def test_is_isodual_past_the_old_bound():
    qc, verdict = construct_isodual_qc(F2, 2, 47)
    assert (verdict.result, verdict.criterion) == ("isodual", "holds")
    assert apply_monomial(qc.code, verdict.witness) == qc_dual(qc).code
    assert is_isodual(random_qc(F2, 47)).result == "not_isodual"  # k = 46


@pytest.mark.parametrize("field,m", PAST_THE_OLD_BOUND, ids=IDS)
def test_cli_answers_past_the_old_bound(field, m, tmp_path, capsys):
    qc = random_qc(field, m)
    code_path, dual_path = tmp_path / "code.json", tmp_path / "dual.json"
    serialize.dump_code(qc.code, code_path, qc=qc)
    assert cli.main(["decompose", str(code_path), "--json"]) in (0, 1)
    degrees = [c["local_field_degree"] for c in json.loads(capsys.readouterr().out)["constituents"]]
    assert degrees == [local.degree for local in _slots(field, m)[2]]
    assert cli.main(["selfdual", str(code_path), "--json"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["selfdual"] is False
    assert cli.main(["dual", str(code_path), "-o", str(dual_path)]) in (0, 1)
    loaded = serialize.load_code(dual_path)
    assert loaded.code == qc_dual(qc).code and (loaded.qc.l, loaded.qc.m) == (2, m)


def test_walking_a_big_constituent_field_is_refused_by_name():
    local = biggest_constituent_field(F2, 47)
    assert local.degree == 23
    with pytest.raises(BoundExceeded, match="listing the elements"):
        local.element_list()
    with pytest.raises(BoundExceeded, match="generator search"):
        local.generator()


def test_defining_set_answers_at_n_47():
    """The root lives in GF(2)[x]/(f0), so no field of 2^23 elements is searched."""
    factor = max(_slots(F2, 47)[1], key=lambda f: f.degree)
    code = cyclic_make(F2, 47, factor)
    exps = defining_set(code)
    assert len(exps) == 23 and all(2 * i % 47 in exps for i in exps)
    for a in (2, 5, 46):  # multiplier_apply raises unless its two routes agree
        assert multiplier_apply(code, a).k == code.k


def smallest_irreducible_by_every_candidate(field, k):
    """The first monic irreducible of degree k, constant term most
    significant, walking every candidate including constant term 0."""
    for low in itertools.product(range(field.q), repeat=k):
        if poly_is_irreducible(field, [*low, field.one]):
            return [*low, field.one]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_smallest_irreducible_matches_the_walk_over_every_candidate(q):
    field = field_from_q(q)
    k = 2
    while q ** k <= 4096:
        assert _smallest_irreducible(field, k) == smallest_irreducible_by_every_candidate(field, k), k
        k += 1


# make_field moduli of the prime-power fields the test suite builds.
MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 0, 1, 1), (2, 4): (1, 0, 0, 1, 1), (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1), (2, 7): (1, 0, 0, 0, 0, 0, 1, 1), (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1), (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1), (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
    (2, 17): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 0, 2, 1), (3, 4): (1, 0, 1, 1, 1), (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1), (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1), (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (3, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1),
    (5, 2): (1, 1, 1), (5, 3): (1, 0, 1, 1), (5, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (7, 2): (1, 0, 1), (11, 2): (1, 0, 1), (13, 2): (1, 3, 1), (23, 3): (1, 0, 3, 1),
}


@pytest.mark.parametrize("p,e", sorted(MODULI))
def test_make_field_moduli_are_unchanged(p, e):
    assert make_field(p, e).modulus == MODULI[p, e]
