"""Quasi-cyclic codes: Phi, CRT decomposition, duality, isoduality,
multiplier enumeration and the slot-image property."""

import random

import pytest

from qckit.errors import (
    BadParameters,
    NoGamma,
    NotCoprime,
    NotCyclicConstituents,
    NotPrimeIndex,
    NotShiftInvariant,
    ShapeMismatch,
)
from qckit import linear_code as lc
from qckit.galois import field_from_q
from qckit.linear_code import MonomialMap, apply_monomial, euclidean_dual
from qckit.polynomial import Poly
from qckit.quasi_cyclic import (
    constituents_all_cyclic,
    construct_isodual_qc,
    construct_selfdual_qc,
    crt_decompose,
    crt_reconstruct,
    enumerate_multiplier_equivalents,
    is_isodual,
    is_selfdual,
    phi,
    phi_inv,
    qc_dual,
    qc_make,
    qc_multiplier_equivalent,
    selfdual_exists,
    slot_image_code,
)
from qckit.selftest import random_qc_code


def shift(row, d):
    return tuple(row[-d:] + row[:-d])


def random_qc(field, l, m, rng):
    n = l * m
    rows = []
    for _ in range(rng.randint(1, max(1, n // 2))):
        row = tuple(field.random_element(rng) for _ in range(n))
        for _ in range(m):
            rows.append(row)
            row = shift(row, l)
    return qc_make(field, l, m, rows)


def test_qc_make_validation():
    f2 = field_from_q(2)
    with pytest.raises(NotShiftInvariant):
        qc_make(f2, 2, 3, [(1, 0, 0, 1, 1, 0)])
    with pytest.raises(NotCoprime):
        qc_make(f2, 2, 2, [(1, 1, 1, 1)])
    qc = qc_make(f2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    assert qc.n == 6 and qc.code.k == 1


def test_phi_roundtrip_and_shift_correspondence():
    f2 = field_from_q(2)
    v = (1, 0, 0, 1, 1, 0)
    slots = phi(f2, 2, 3, v)
    assert slots[0] == Poly(f2, [1, 0, 1])  # 1 + Y^2
    assert slots[1] == Poly(f2, [0, 1])     # Y
    assert phi_inv(f2, 2, 3, slots) == v
    # T^l on the vector is multiplication by Y on every slot.
    y = Poly(f2, [0, 1])
    unity = Poly.unity_modulus(f2, 3)
    shifted_slots = phi(f2, 2, 3, shift(v, 2))
    assert shifted_slots == tuple((y * s) % unity for s in slots)


@pytest.mark.parametrize("q,l,m", [(2, 2, 3), (3, 2, 4), (4, 3, 5), (5, 4, 3)])
def test_crt_roundtrip_random(q, l, m):
    field = field_from_q(q)
    rng = random.Random(q * 100 + l * 10 + m)
    for _ in range(5):
        qc = random_qc(field, l, m, rng)
        decomp = crt_decompose(qc)
        assert decomp.dimension() == qc.code.k
        back = crt_reconstruct(decomp)
        assert back.code == qc.code


def test_decomposition_known_example():
    f2 = field_from_q(2)
    qc = qc_make(f2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    decomp = crt_decompose(qc)
    # Slot at Y - 1 carries the repetition constituent; the degree-2
    # slot carries the zero code.
    dims = [comp.k for comp in decomp.comps]
    assert sorted(dims) == [0, 1]


@pytest.mark.parametrize("q,l,m", [(2, 2, 3), (3, 2, 2), (5, 2, 3), (4, 2, 3)])
def test_qc_dual_involution_and_dimension(q, l, m):
    field = field_from_q(q)
    rng = random.Random(q + l + m)
    for _ in range(5):
        qc = random_qc(field, l, m, rng)
        dual = qc_dual(qc)
        assert qc.code.k + dual.code.k == qc.n
        assert qc_dual(dual).code == qc.code


def test_selfdual_exists_table():
    assert selfdual_exists(field_from_q(2), 2)
    assert selfdual_exists(field_from_q(5), 2)
    assert not selfdual_exists(field_from_q(3), 2)
    assert selfdual_exists(field_from_q(9), 2)
    assert not selfdual_exists(field_from_q(2), 3)


@pytest.mark.parametrize("q,l,m", [
    (2, 2, 1), (2, 2, 3), (5, 2, 1), (5, 2, 3), (4, 2, 5), (9, 2, 1), (13, 4, 3),
])
def test_construct_selfdual_qc(q, l, m):
    field = field_from_q(q)
    qc = construct_selfdual_qc(field, l, m)
    assert qc.code.k * 2 == qc.n
    cert = is_selfdual(qc)
    assert cert.result
    assert qc_dual(qc).code == qc.code


def test_construct_selfdual_qc_f5_smallest():
    qc = construct_selfdual_qc(field_from_q(5), 2, 1)
    assert qc.code.gen == ((1, 2),)


def test_construct_selfdual_rejects_f3():
    with pytest.raises(NoGamma):
        construct_selfdual_qc(field_from_q(3), 2, 1)
    with pytest.raises(BadParameters):
        construct_selfdual_qc(field_from_q(5), 3, 1)


def test_is_isodual_strategies_agree_on_selfdual():
    qc = construct_selfdual_qc(field_from_q(2), 2, 3)
    for strategy in ("components", "bruteforce"):
        verdict = is_isodual(qc, strategy=strategy)
        assert verdict.result == "isodual"


def test_is_isodual_odd_index_fast_path():
    f2 = field_from_q(2)
    qc = qc_make(f2, 3, 1, [(1, 1, 0)])
    # Dimension 1 != n/2 rules isoduality out immediately.
    assert is_isodual(qc).result == "not_isodual"


def _witness_maps_onto_dual(qc, verdict):
    return verdict.witness is not None and apply_monomial(qc.code, verdict.witness) == qc_dual(qc).code


def test_componentwise_criterion_is_not_the_whole_story():
    """The componentwise isoduality criterion can disagree with the
    exhaustive permutation oracle in both directions; on these two pinned
    instances the criterion is reported and the exhaustive search decides."""
    f5 = field_from_q(5)
    qc = qc_make(f5, 2, 2, [(1, 0, 1, 4), (0, 1, 0, 4)])
    comp = is_isodual(qc, strategy="components", cutoff=8)
    brute = is_isodual(qc_make(f5, 2, 2, qc.code.gen), strategy="bruteforce", cutoff=8)
    # Components find per-slot witnesses, yet no global coordinate
    # permutation maps the code onto its dual.
    assert (comp.result, comp.criterion, comp.witness) == ("not_isodual", "holds", None)
    assert (brute.result, brute.criterion) == ("not_isodual", None)

    f4 = field_from_q(4)
    a, b, c = f4.element_from_coeffs([1, 0]), f4.element_from_coeffs([0, 1]), \
        f4.element_from_coeffs([1, 1])
    z = f4.zero
    rows = [
        (a, z, z, b, c, b),
        (z, a, z, b, z, c),
        (z, z, a, b, b, b),
    ]
    qc2 = qc_make(f4, 2, 3, rows)
    comp2 = is_isodual(qc2, strategy="components", cutoff=8)
    brute2 = is_isodual(qc_make(f4, 2, 3, rows), strategy="bruteforce", cutoff=8)
    # Here a global permutation exists that no structured per-slot
    # witness family assembles to.
    assert (comp2.result, comp2.criterion) == ("isodual", "fails")
    assert brute2.result == "isodual"
    assert _witness_maps_onto_dual(qc2, comp2) and _witness_maps_onto_dual(qc2, brute2)


def test_odd_index_code_is_isodual():
    """Index 3 over GF(3): the criterion fails in every slot (no length-3
    constituent matches its dual's dimension), yet a coordinate
    permutation maps the code onto its dual."""
    f3 = field_from_q(3)
    rows = [(1, 0, 0, 0, 1, 1), (0, 1, 0, 2, 1, 2), (0, 0, 1, 2, 2, 1)]
    qc = qc_make(f3, 3, 2, rows)
    verdict = is_isodual(qc)
    oracle = is_isodual(qc_make(f3, 3, 2, rows), strategy="bruteforce")
    assert (verdict.result, verdict.criterion) == ("isodual", "fails")
    assert oracle.result == "isodual"
    assert _witness_maps_onto_dual(qc, verdict) and _witness_maps_onto_dual(qc, oracle)


def _sweep_codes(field, rng):
    """Per shape with lm <= 8: up to five codes of rate 1/2, drawn by
    rejection, and one code of any dimension."""
    shapes = [(l, m) for l in range(1, 9) for m in range(1, 9)
              if l * m <= 8 and m % field.char != 0]
    for l, m in shapes:
        half = 0
        for _ in range(100):
            qc = random_qc_code(field, l, m, rng)
            if 2 * qc.code.k == qc.n and half < 5:
                half += 1
                yield qc
        yield random_qc_code(field, l, m, rng)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_default_verdict_equals_bruteforce_at_small_lengths(q):
    """The default verdict never contradicts bruteforce, run on a separately
    built code object so that no search result is shared, and every
    "isodual" carries a witness onto the dual."""
    field = field_from_q(q)
    results = set()
    for qc in _sweep_codes(field, random.Random(1100 + q)):
        verdict = is_isodual(qc)
        oracle = is_isodual(qc_make(field, qc.l, qc.m, qc.code.gen), strategy="bruteforce")
        assert verdict.result == oracle.result != "inconclusive", qc.code.gen
        assert verdict.criterion in ("holds", "fails"), qc.code.gen
        for v in (verdict, oracle):
            assert v.result != "isodual" or _witness_maps_onto_dual(qc, v), qc.code.gen
        results.add((verdict.result, verdict.criterion, qc.l % 2))
    assert {("isodual", "holds", 0), ("not_isodual", "fails", 0), ("not_isodual", "fails", 1)} <= results


def test_verdict_above_the_cutoff_is_inconclusive_only_when_the_budget_is_spent(monkeypatch):
    """Above the cutoff every search runs under the node budget: the
    exhaustive search decides while the budget lasts, after the
    structured witness when the criterion holds.  "inconclusive" (and the
    criterion "cutoff") means a budget was spent, and the note says so."""
    f2, f4, f5 = field_from_q(2), field_from_q(4), field_from_q(5)
    vector = (1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1)
    isodual = [vector[-2 * s:] + vector[:-2 * s] for s in range(7)]
    # Not isodual (see above), though the criterion holds.
    not_isodual = [(1, 0, 1, 4), (0, 1, 0, 4)]
    # Isodual (see above), though the criterion fails.
    e = f4.element_from_coeffs
    fails = [[e(c) for c in row] for row in [
        ((1, 0), (0, 0), (0, 0), (0, 1), (1, 1), (0, 1)),
        ((0, 0), (1, 0), (0, 0), (0, 1), (0, 0), (1, 1)),
        ((0, 0), (0, 0), (1, 0), (0, 1), (0, 1), (0, 1)),
    ]]
    cases = [((f2, 2, 7, isodual), 8, "isodual", "holds"), ((f5, 2, 2, not_isodual), 3, "not_isodual", "holds"),
             ((f4, 2, 3, fails), 5, "isodual", "fails")]
    for shape, cutoff, result, criterion in cases:
        for strategy in ("components", "bruteforce"):
            qc = qc_make(*shape)
            verdict = is_isodual(qc, strategy=strategy, cutoff=cutoff)
            assert verdict.result == result
            assert verdict.criterion == (criterion if strategy == "components" else None)
            assert result == "not_isodual" or _witness_maps_onto_dual(qc, verdict)
    monkeypatch.setattr(lc, "SEARCH_BUDGET", 5)
    for shape, cutoff, _, criterion in cases[1:]:
        verdict = is_isodual(qc_make(*shape), cutoff=cutoff)
        assert (verdict.result, verdict.criterion, verdict.witness) == ("inconclusive", criterion, None)
        assert verdict.component_report[-1] == {"note": "search budget of 5 nodes spent: 6 nodes visited"}
    # The structured witness is found within 20 nodes; the exhaustive search is not.
    monkeypatch.setattr(lc, "SEARCH_BUDGET", 20)
    assert is_isodual(qc_make(*cases[0][0]), cutoff=8).result == "isodual"
    assert is_isodual(qc_make(*cases[0][0]), strategy="bruteforce", cutoff=8).result == "inconclusive"
    monkeypatch.setattr(lc, "SEARCH_BUDGET", 2)
    verdict = is_isodual(qc_make(f5, 2, 2, not_isodual), cutoff=3)
    assert (verdict.result, verdict.criterion) == ("inconclusive", "cutoff")
    assert verdict.component_report[0]["witness"] == "cutoff exceeded"


def test_spent_budget_is_not_kept_as_no_witness(monkeypatch):
    """A search that spent its budget keeps nothing on the code object, so
    the same object searched again without a budget gets the full verdict."""
    f5 = field_from_q(5)
    qc = qc_make(f5, 2, 2, [(1, 0, 1, 4), (0, 1, 0, 4)])
    monkeypatch.setattr(lc, "SEARCH_BUDGET", 5)
    assert is_isodual(qc, cutoff=3).result == "inconclusive"
    assert is_isodual(qc, cutoff=qc.n).result == "not_isodual"


def test_exhaustive_search_runs_once_per_code_object(monkeypatch):
    """Both strategies read the one search kept on the code object; a
    separately built object searches again."""
    f5 = field_from_q(5)
    rows = [(1, 0, 1, 4), (0, 1, 0, 4)]
    calls = []
    search = lc.equivalence_search
    monkeypatch.setattr(lc, "equivalence_search", lambda *a, **k: calls.append(1) or search(*a, **k))
    qc = qc_make(f5, 2, 2, rows)
    for strategy in ("components", "bruteforce", "components"):
        assert is_isodual(qc, strategy=strategy).result == "not_isodual"
    assert len(calls) == 1
    assert is_isodual(qc_make(f5, 2, 2, rows), strategy="bruteforce").result == "not_isodual"
    assert len(calls) == 2


@pytest.mark.parametrize("q,l,m", [(2, 2, 3), (2, 6, 1), (3, 2, 1), (5, 2, 3)])
def test_construct_isodual_qc(q, l, m):
    field = field_from_q(q)
    qc, verdict = construct_isodual_qc(field, l, m)
    assert qc.n == l * m
    assert 2 * qc.code.k == qc.n
    assert verdict.result in ("isodual", "not_isodual", "inconclusive")
    if verdict.result == "isodual" and verdict.witness is not None:
        assert apply_monomial(qc.code, verdict.witness) == qc_dual(qc).code


def test_construct_isodual_qc_rejects_bad_index():
    with pytest.raises(BadParameters):
        construct_isodual_qc(field_from_q(3), 4, 1)
    with pytest.raises(BadParameters):
        construct_isodual_qc(field_from_q(3), 3, 1)
    with pytest.raises(BadParameters, match="^index l=6: l/2 is not coprime to q=3$"):
        construct_isodual_qc(field_from_q(3), 6, 1)


def test_constituents_all_cyclic():
    f2 = field_from_q(2)
    rep = qc_make(f2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    assert constituents_all_cyclic(rep)
    v = (1, 0, 0, 1, 1, 0)
    rows = [v, shift(v, 2), shift(v, 4)]
    qc = qc_make(f2, 2, 3, rows)
    assert not constituents_all_cyclic(qc)


def test_multiplier_routes_refuse_non_cyclic_constituents():
    f2 = field_from_q(2)
    line = qc_make(f2, 3, 1, [(1, 0, 0)])  # its one constituent, span{(1, 0, 0)}, is not cyclic
    rep = qc_make(f2, 3, 1, [(1, 1, 1)])
    assert not constituents_all_cyclic(line) and constituents_all_cyclic(rep)
    for a, b in [(line, rep), (rep, line), (line, line)]:
        with pytest.raises(NotCyclicConstituents):
            qc_multiplier_equivalent(a, b)
    with pytest.raises(NotCyclicConstituents):
        enumerate_multiplier_equivalents(line)


def test_qc_multiplier_equivalent_identity_and_shapes():
    f2 = field_from_q(2)
    rep = qc_make(f2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    with pytest.raises(ShapeMismatch):
        qc_multiplier_equivalent(rep, qc_make(f2, 2, 1, [(1, 1)]))


def test_enumerate_requires_prime_index():
    f2 = field_from_q(2)
    qc = qc_make(f2, 4, 1, [(1, 1, 1, 1)])
    with pytest.raises(NotPrimeIndex):
        enumerate_multiplier_equivalents(qc)


def test_enumerate_counts_and_back_equivalence():
    from qckit import quasi_cyclic as qc_mod
    from qckit.cyclic import cyclic_make
    from qckit.polynomial import factor_cyclic_modulus
    from qckit.quasi_cyclic import ConstituentDecomposition

    f2 = field_from_q(2)
    comps = []
    for local in qc_mod._slots(f2, 3)[2]:
        g = factor_cyclic_modulus(local, 3).all_factors()[-1]
        comps.append(cyclic_make(local, 3, g).to_linear())
    qc = crt_reconstruct(ConstituentDecomposition(f2, 3, 3, comps))
    report = enumerate_multiplier_equivalents(qc)
    assert report.p == 3
    assert report.tuples_counted == 3 ** report.r == 9
    for variant in report.codes:
        assert qc_multiplier_equivalent(qc, variant) is not None


def test_slot_image_property():
    """Equivalence verdicts transfer across the slot-by-slot
    reindexing: two codes are permutation-equivalent exactly when
    their slot images are."""
    from qckit.linear_code import equivalence_search

    f3 = field_from_q(3)
    rng = random.Random(77)
    for _ in range(5):
        a = random_qc(f3, 2, 4, rng)
        b = random_qc(f3, 2, 4, rng)
        assert slot_image_code(a).k == a.code.k
        direct = equivalence_search(a.code, b.code, mode="permutation", cutoff=8)
        image = equivalence_search(
            slot_image_code(a), slot_image_code(b), mode="permutation", cutoff=8
        )
        assert (direct is None) == (image is None)


def test_minimal_index():
    f2 = field_from_q(2)
    rep = qc_make(f2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    # The repetition code is invariant under every shift, so the
    # minimal index divides l.
    assert rep.minimal_index() == 1
