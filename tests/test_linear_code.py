"""Linear codes: canonical bases, duals, monomial maps, equivalence."""

import math
import random

import pytest

from qckit import linear_code as lc
from qckit.errors import BadParameters, CutoffExceeded, LengthMismatch
from qckit.galois import field_from_q
from qckit.quasi_cyclic import _slots as slots
from qckit.linear_code import (
    LinearCode,
    MonomialMap,
    apply_monomial,
    code_from_rows,
    conjugate_code,
    direct_sum,
    equivalence_search,
    euclidean_dual,
    hermitian_dual,
    rref,
    weight_distribution,
)

from dual_reference import conjugate as reference_conjugate


def random_code(field, n, rng, rows=None):
    rows = rows if rows is not None else rng.randint(1, max(1, n // 2))
    return code_from_rows(
        field,
        [tuple(field.random_element(rng) for _ in range(n)) for _ in range(rows)],
        n=n,
    )


def test_rref_canonical():
    field = field_from_q(5)
    rows = [(2, 4, 0), (1, 2, 3)]
    reduced, pivots = rref(field, rows, 3)
    assert tuple(pivots) == (0, 2)
    for r, p in zip(reduced, pivots):
        assert r[p] == field.one
    # Any generating set of the same row space reduces identically.
    reduced2, _ = rref(field, [(1, 2, 1), (1, 2, 2)], 3)
    assert reduced == reduced2


def test_code_equality_ignores_generator_choice():
    field = field_from_q(3)
    a = code_from_rows(field, [(1, 1, 0), (0, 1, 1)])
    b = code_from_rows(field, [(1, 2, 1), (1, 0, 2), (2, 1, 2)])
    assert a == b
    assert a.k == 2


def test_contains_and_codewords():
    field = field_from_q(2)
    code = code_from_rows(field, [(1, 1, 0), (0, 1, 1)])
    assert code.contains((1, 0, 1))
    assert not code.contains((1, 0, 0))
    assert len(list(code.codewords())) == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_dual_dimension_orthogonality_involution(q):
    field = field_from_q(q)
    rng = random.Random(q)
    for n in (3, 5, 6):
        code = random_code(field, n, rng)
        dual = euclidean_dual(code)
        assert code.k + dual.k == n
        for u in code.gen:
            for v in dual.gen:
                acc = field.zero
                for x, y in zip(u, v):
                    acc = field.add(acc, field.mul(x, y))
                assert acc == field.zero
        assert euclidean_dual(dual) == code


def test_hermitian_dual_over_f4():
    field = field_from_q(4)
    rng = random.Random(44)
    for _ in range(10):
        code = random_code(field, 4, rng)
        hdual = hermitian_dual(code)
        assert code.k + hdual.k == 4
        assert hermitian_dual(hdual) == code
        assert hdual == conjugate_code(euclidean_dual(code))


@pytest.mark.parametrize("q, m, degree", [(2, 3, 2), (3, 4, 2), (4, 5, 2), (2, 7, 3), (5, 3, 1), (3, 1, 1)])
def test_hermitian_dual_matches_the_conjugated_route(q, m, degree):
    # Constituent fields of Y^m - 1: the self-reciprocal even-degree ones
    # conjugate, the others (and plain fields) have the identity.
    base = field_from_q(q)
    field = next(f for f in slots(base, m)[2] if f.degree == degree)
    assert all(field.conjugate(a) == reference_conjugate(field, a) for a in range(field.q))
    rng = random.Random(q * 100 + m)
    for fld in (field, base):
        for n in (1, 3, 5):
            for k in range(n + 1):
                code = random_code(fld, n, rng, rows=k)
                assert hermitian_dual(code) == euclidean_dual(conjugate_code(code))
                assert hermitian_dual(code) == conjugate_code(euclidean_dual(code))


def test_monomial_map_validation_and_algebra():
    field = field_from_q(5)
    with pytest.raises(LengthMismatch):
        MonomialMap(3, (0, 0, 1), field=field)
    m1 = MonomialMap(3, (1, 2, 0), field=field)
    m2 = MonomialMap.diagonal((2, 3, 4))
    comp = m1.then(m2, field)
    v = (1, 2, 3)
    assert comp.apply_to_vector(field, v) == m2.apply_to_vector(
        field, m1.apply_to_vector(field, v)
    )
    inv = comp.inverse(field)
    assert comp.then(inv, field) == MonomialMap.identity(field, 3)


def test_monomial_map_refuses_a_zero_scaling():
    # A zero scaling would take the [2, 2] GF(3) code onto a [2, 1] code
    # and leave the map without an inverse.
    for diag in [(1, 0), (0, 2)]:
        with pytest.raises(BadParameters):
            MonomialMap.diagonal(diag)
        with pytest.raises(BadParameters):
            MonomialMap(2, (1, 0), diag)
    assert MonomialMap.diagonal((1, 2)).inverse(field_from_q(3)) == MonomialMap.diagonal((1, 2))


def test_apply_monomial_preserves_weights():
    field = field_from_q(3)
    rng = random.Random(9)
    code = random_code(field, 5, rng)
    mmap = MonomialMap(5, (4, 2, 0, 1, 3), diag=(1, 2, 2, 1, 2))
    image = apply_monomial(code, mmap)
    assert weight_distribution(image) == weight_distribution(code)
    assert image.k == code.k


def test_weight_distribution():
    field = field_from_q(2)
    code = code_from_rows(field, [(1, 1, 0), (0, 0, 1)])
    assert weight_distribution(code) == (1, 1, 1, 1)


def _krawtchouk(q, n, j, i):
    """K_j(i) = sum over s of (-1)^s (q - 1)^(j - s) C(i, s) C(n - i, j - s)."""
    return sum((-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
               for s in range(j + 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_macwilliams_identity(q):
    """The dual's weight distribution is the Krawtchouk transform of the
    code's, B_j = sum_i A_i K_j(i) / |C| (MacWilliams and Sloane, ch. 5):
    two enumerations against one formula, on seeded random codes."""
    field = field_from_q(q)
    rng = random.Random(f"macwilliams:{q}")
    for n in range(1, 9 if q < 5 else 7):
        for _ in range(4):
            code = random_code(field, n, rng, rows=rng.randint(0, n))
            a = weight_distribution(code)
            transform = [sum(a_i * _krawtchouk(q, n, j, i) for i, a_i in enumerate(a)) for j in range(n + 1)]
            assert all(t % q ** code.k == 0 for t in transform)
            assert tuple(t // q ** code.k for t in transform) == tuple(weight_distribution(euclidean_dual(code)))


def test_equivalence_search_finds_known_witness():
    field = field_from_q(3)
    code = code_from_rows(field, [(1, 1, 0, 0), (0, 0, 1, 2)])
    mmap = MonomialMap(4, (2, 0, 3, 1), field=field)
    target = apply_monomial(code, mmap)
    found = equivalence_search(code, target, mode="permutation")
    assert found is not None
    assert apply_monomial(code, found) == target
    scaled = apply_monomial(code, MonomialMap.diagonal((1, 2, 1, 2)))
    assert equivalence_search(code, scaled, mode="monomial") is not None


def test_equivalence_search_negative():
    field = field_from_q(2)
    a = code_from_rows(field, [(1, 1, 0, 0)])
    b = code_from_rows(field, [(1, 1, 1, 0)])
    assert equivalence_search(a, b, mode="permutation") is None
    assert equivalence_search(a, b, mode="monomial") is None


def test_equivalence_search_cutoff(monkeypatch):
    """Above the cutoff a search answers while its node budget lasts and
    raises CutoffExceeded once it is spent; at n <= cutoff it runs to the
    end whatever the budget."""
    field = field_from_q(2)
    rng = random.Random(1)
    code = random_code(field, 9, rng)
    for mode in ("permutation", "monomial"):
        witness = equivalence_search(code, code, mode=mode, cutoff=8)
        assert witness is not None and apply_monomial(code, witness) == code
        monkeypatch.setattr(lc, "SEARCH_BUDGET", 9)  # a leaf is 10 nodes deep
        with pytest.raises(CutoffExceeded, match="search budget of 9 nodes spent: 10 nodes visited"):
            equivalence_search(code, code, mode=mode, cutoff=8)
        assert equivalence_search(code, code, mode=mode, cutoff=9) == witness
        monkeypatch.undo()


def test_direct_sum_reordering_is_permutation_equivalent():
    """Reordering the summands of a direct sum yields an equivalent code,
    in both directions, with an explicit block-permutation witness."""
    field = field_from_q(3)
    a = code_from_rows(field, [(1, 2)])
    b = code_from_rows(field, [(1, 0, 1), (0, 1, 1)])
    ab = direct_sum([a, b])
    ba = direct_sum([b, a])
    assert ab.k == ba.k == a.k + b.k
    perm = (3, 4, 0, 1, 2)  # a-block behind the b-block
    witness = MonomialMap.permutation(field, perm)
    assert apply_monomial(ab, witness) == ba
    assert apply_monomial(ba, witness.inverse(field)) == ab
    found = equivalence_search(ab, ba, mode="permutation")
    assert found is not None
    assert apply_monomial(ab, found) == ba


def test_zero_and_full_codes():
    field = field_from_q(2)
    zero = LinearCode.zero_code(field, 4)
    full = LinearCode.full_code(field, 4)
    assert zero.k == 0 and full.k == 4
    assert euclidean_dual(zero) == full
    assert euclidean_dual(full) == zero
