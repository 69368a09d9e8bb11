"""Row-at-a-time elimination and the packed GF(2) kernels: rref and the
polynomial kernels against sympy, and canonical forms that do not depend
on the order, repetition or number of the input rows."""

import random

import pytest

from qckit.errors import DivisionByZero
from qckit.galois import field_from_q, pack_bits, unpack_bits
from qckit.linear_code import code_from_rows, kernel_basis, rref
from qckit.polynomial import Poly

F2 = field_from_q(2)


def _random_rows(field, nrows, ncols, rng):
    return [tuple(field.random_element(rng) for _ in range(ncols)) for _ in range(nrows)]


def test_pack_bits_round_trip():
    rng = random.Random(7)
    for n in (0, 1, 2, 7, 8, 9, 63, 64, 65, 300):
        v = [rng.randrange(2) for _ in range(n)]
        packed = pack_bits(v)
        assert packed == sum(x << j for j, x in enumerate(v))
        assert unpack_bits(packed, n) == v
        assert pack_bits(tuple(v)) == packed


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_against_sympy(p):
    sympy = pytest.importorskip("sympy")
    DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    K = sympy.GF(p)
    field = field_from_q(p)
    rng = random.Random(100 + p)
    shapes = [(1, 1), (3, 1), (1, 5), (4, 4), (6, 3), (5, 9), (12, 12), (30, 20), (20, 40)]
    for nrows, ncols in shapes:
        for _ in range(4):
            rows = _random_rows(field, nrows, ncols, rng)
            if rng.random() < 0.5:  # force dependent rows
                rows += [rows[0], rows[-1]]
            reduced, pivots = rref(field, rows, ncols)
            M = DomainMatrix([[K(x) for x in row] for row in rows], (len(rows), ncols), K)
            R, expected_pivots = M.rref()
            expected = [tuple(int(x) % p for x in row) for row in R.to_list()[:len(expected_pivots)]]
            assert list(pivots) == list(expected_pivots)
            assert reduced == expected


def _gf_descending(coeffs):
    return list(reversed(coeffs))


def test_packed_poly_kernels_against_galoistools():
    gt = pytest.importorskip("sympy.polys.galoistools")
    ZZ = pytest.importorskip("sympy.polys.domains").ZZ
    rng = random.Random(2)

    def draw():
        degree = rng.choice([-1, 0, 0, 1, 2, 5, 31, 32, 33, 64, 100, 257])
        if degree < 0:
            return []
        return [rng.randrange(2) for _ in range(degree)] + [1]

    for _ in range(400):
        a, b = draw(), draw()
        product = (Poly(F2, a) * Poly(F2, b)).coeffs
        assert list(product) == _gf_descending(gt.gf_mul(_gf_descending(a), _gf_descending(b), 2, ZZ))
        if not b:
            continue
        quot, rem = divmod(Poly(F2, a), Poly(F2, b))
        gq, gr = gt.gf_div(_gf_descending(a), _gf_descending(b), 2, ZZ)
        assert (list(quot.coeffs), list(rem.coeffs)) == (_gf_descending(gq), _gf_descending(gr))


def test_packed_kernels_ignore_trailing_zeros_and_reject_zero_divisor():
    P = lambda c: Poly(F2, c)
    assert (P([1, 1, 0, 0]) * P([0, 1, 0])).coeffs == (0, 1, 1)
    assert (P([0, 0]) * P([1, 1])).coeffs == ()
    assert [f.coeffs for f in divmod(P([1, 0, 1, 0]), P([1, 1, 0]))] == [(1, 1), ()]
    assert [f.coeffs for f in divmod(P([1]), P([0, 1]))] == [(), (1,)]
    for zero in ([], [0], [0, 0, 0]):
        with pytest.raises(DivisionByZero):
            divmod(P([1, 0, 1]), P(zero))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_canonical_form_ignores_row_order_repetition_and_count(q):
    field = field_from_q(q)
    rng = random.Random(q)
    for n in (1, 2, 5, 8, 13):
        for _ in range(6):
            rows = _random_rows(field, rng.randint(1, n + 3), n, rng)
            code = code_from_rows(field, rows, n)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            repeated = rows + [rng.choice(rows) for _ in range(n)]
            rng.shuffle(repeated)
            for variant in (shuffled, repeated, rows * 3):
                other = code_from_rows(field, variant, n)
                assert other.gen == code.gen and other.pivots == code.pivots
            # More rows than columns, beyond full rank: rank n, identity form.
            full = code_from_rows(field, rows + [tuple(int(i == j) for j in range(n)) for i in range(n)], n)
            assert full.k == n and list(full.pivots) == list(range(n))
            assert full.gen == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_reduce_and_contains_agree_with_rank(q):
    field = field_from_q(q)
    rng = random.Random(10 + q)
    for n in (1, 3, 6, 11):
        for _ in range(5):
            rows = _random_rows(field, rng.randint(1, max(1, n - 1)), n, rng)
            code = code_from_rows(field, rows, n)
            probes = _random_rows(field, 6, n, rng)
            # Codewords too: sums of generator rows.
            probes += [tuple(field.add(a, b) for a, b in zip(rows[0], rows[-1]))]
            for v in probes:
                member = code_from_rows(field, rows + [v], n).k == code.k
                residue = code.reduce(v)
                assert code.contains(v) == member
                assert (not any(residue)) == member
                assert all(residue[c] == field.zero for c in code.pivots)
                difference = tuple(field.sub(a, b) for a, b in zip(v, residue))
                assert code.contains(difference)


def _kernel_basis_reference(field, rows, pivots, ncols):
    """One field.neg call per pivot-row entry, in every characteristic."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rows[r][fc])
        basis.append(v)
    return basis


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_kernel_basis_against_reference(q):
    field = field_from_q(q)
    rng = random.Random(300 + q)
    for nrows, ncols in [(1, 1), (1, 4), (3, 3), (4, 7), (6, 6), (8, 20), (15, 12)]:
        for _ in range(4):
            rows, pivots = rref(field, _random_rows(field, nrows, ncols, rng), ncols)
            basis = kernel_basis(field, rows, pivots, ncols)
            assert basis == _kernel_basis_reference(field, rows, pivots, ncols)
            assert len(basis) == ncols - len(pivots)
            for v in basis:
                for row in rows:
                    dot = field.zero
                    for a, b in zip(row, v):
                        dot = field.add(dot, field.mul(a, b))
                    assert dot == field.zero
