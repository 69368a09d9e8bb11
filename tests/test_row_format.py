"""One row format for every field: a row is one int with entry j in lane j
of 2^lane_shift bits, and elimination, membership, shifts, the kernel dual
and syndromes run on these ints over every field.  A code stores its
canonical rows in that format and unpacks ``gen`` only when it is read.

The references are test-only: the element-list elimination in
``elimination_reference``, each row operation written out entry by entry
through the field's own ``add`` and ``mul``, and inverses by Fermat.
GF(13) and GF(17) sit on each side of p(p - 1) < 256, the bound under
which a GF(p) lane holds v + c row unreduced."""

import functools
import pickle
import random

import pytest

import elimination_reference as ref
from qckit.galois import FieldSpec, _power, constituent_field, field_from_q
from qckit.linear_code import LinearCode, _Basis, _ParityCheck, direct_sum, euclidean_dual, rref
from qckit.polynomial import factor_cyclic_modulus
from qckit.quasi_cyclic import qc_dual
from qckit.selftest import random_qc_code


@functools.cache
def constituent(q, m, degree):
    """The constituent field of Y^m - 1 over GF(q) at a factor of the given degree."""
    base = field_from_q(q)
    factor = next(f for f in factor_cyclic_modulus(base, m).all_factors() if f.degree == degree)
    return constituent_field(base, factor.coeffs)


FIELDS = {
    **{f"GF({q})": (lambda q=q: field_from_q(q))
       for q in (2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 25, 27, 127, 131, 256, 257, 512)},
    "GF(2^23) at Y^47 - 1": lambda: constituent(2, 47, 23),
    "GF(3^16) at Y^17 - 1": lambda: constituent(3, 17, 16),
}


def random_matrices(field, rng, sizes):
    """Matrices of full rank, rank-deficient ones (rows combined from fewer
    rows) with zero rows among them, n = 1 and k = n."""
    out = []
    for n in sizes:
        for k in sorted({1, max(1, n // 2), n}):
            out.append([[field.random_element(rng) for _ in range(n)] for _ in range(k)])
            basis = [[field.random_element(rng) for _ in range(n)] for _ in range(max(1, k - 1))]
            rows = []
            for _ in range(k + 1):
                row = [0] * n
                for b in rng.sample(basis, rng.randint(0, len(basis))):
                    c = field.random_element(rng)
                    row = [field.add(x, field.mul(c, y)) for x, y in zip(row, b)]
                rows.append(row)
            rows.insert(rng.randrange(len(rows) + 1), [0] * n)
            out.append(rows)
        out.append([[0] * n])
        out.append([[int(i == j) for j in range(n)] for i in range(n)])
    return out


@pytest.mark.parametrize("name", list(FIELDS))
def test_packed_elimination_against_the_element_lists(name):
    field = FIELDS[name]()
    rng = random.Random(name)
    sizes = (1, 2, 3, 5) if field.q > 256 else (1, 2, 3, 6, 9, 70 if field.q == 2 else 17)
    for rows in random_matrices(field, rng, sizes):
        n = len(rows[0])
        gen, pivots = ref.rref(field, rows, n)
        assert rref(field, rows, n) == (gen, pivots)
        code = LinearCode(field, n, rows)
        assert (code.gen, list(code.pivots)) == (tuple(gen), pivots)
        probes = [[field.random_element(rng) for _ in range(n)] for _ in range(3)]
        probes += [[field.add(x, y) for x, y in zip(a, b)] for a in gen[:1] for b in gen[-1:]]
        probes.append([0] * n)
        for v in probes:
            assert code.reduce(v) == ref.reduce(field, gen, v)
            assert code.contains(v) == ref.contains(field, gen, v)
        for d in range(n + 1):
            assert code.shift_invariant(d) == ref.shift_invariant(field, gen, n, d), (n, d)
        dual = euclidean_dual(code)
        assert list(dual.gen) == ref.euclidean_dual(field, n, gen, pivots)
        check = _ParityCheck(code)
        for row in probes + list(gen):
            perm = rng.sample(range(n), n)
            assert check.image_in(row, perm) == ref.image_in(field, gen, pivots, n, row, perm)
            assert check.image_in(row, range(n)) == ref.image_in(field, gen, pivots, n, row, range(n))


@pytest.mark.parametrize("name", list(FIELDS))
def test_row_codec_against_entrywise_operations(name):
    field = FIELDS[name]()
    rng = random.Random(name)
    assert 1 << field.lane_shift >= (field.q - 1).bit_length()
    for n in (1, 2, 7, 33):
        for _ in range(4):
            a = [field.random_element(rng) for _ in range(n)]
            b = [field.random_element(rng) for _ in range(n)]
            c = field.random_element(rng)
            pa, pb = field.pack_row(a), field.pack_row(b)
            assert field.unpack_row(pa, n) == a
            assert field.unpack_row(field.row_add(pa, pb), n) == [field.add(x, y) for x, y in zip(a, b)]
            assert field.unpack_row(field.row_scale(pa, c), n) == [field.mul(c, x) for x in a]
            for d in (0, 1, n - 1, n):
                assert field.unpack_row(field.rotate_row(pa, d, n), n) == a[n - d:] + a[:n - d]
            j = rng.randrange(n)  # the step is taken where v is nonzero at the pivot lane
            x = a[j] = a[j] or 1
            pivot = field.pack_row([0] * j + [1] + [field.random_element(rng) for _ in range(n - j - 1)])
            basis = _Basis(field, n, [pivot])
            stepped = field.unpack_row(field.row_residue(field.pack_row(a), basis.rows, basis.mask), n)
            assert stepped == [field.sub(y, field.mul(x, z)) for y, z in zip(a, field.unpack_row(pivot, n))]
            assert stepped[j] == 0


@pytest.mark.parametrize("name", list(FIELDS))
def test_row_axpy_against_entrywise_operations(name):
    field = FIELDS[name]()
    rng = random.Random(name)
    top = field.q - 1  # the worst case for lane carries: every entry of v and row is q - 1
    scalars = field.element_list() if field.q <= 256 else [0, 1, top] + [field.random_element(rng) for _ in range(5)]
    for n in (1, 2, 7, 33):
        rows = [[field.random_element(rng) for _ in range(n)] for _ in range(2)] + [[top] * n]
        for v, row in [*zip(rows, rows[::-1]), (rows[-1], rows[-1])]:
            for c in scalars:
                got = field.unpack_row(field.row_axpy(field.pack_row(v), c, field.pack_row(row)), n)
                assert got == [field.add(x, field.mul(c, y)) for x, y in zip(v, row)], (n, c)


@pytest.mark.parametrize("name", list(FIELDS))
def test_row_residue_against_the_element_lists(name):
    field = FIELDS[name]()
    rng = random.Random(name)
    for n in (1, 3, 8, 17):
        for k in sorted({1, n // 2 or 1, n}):
            rows = [[field.random_element(rng) for _ in range(n)] for _ in range(k)]
            basis, listed = _Basis(field, n, rows), ref.ListBasis(field, n, rows)
            for v in [[field.random_element(rng) for _ in range(n)] for _ in range(4)] + rows + [[field.q - 1] * n]:
                got = field.row_residue(field.pack_row(v), basis.rows, basis.mask)
                assert field.unpack_row(got, n) == listed.residue(v)


def fresh(field):
    """A new instance of the field, so that no log/exp tables are built yet."""
    return FieldSpec(field.p, field.base, field.modulus, field.constituent)


@pytest.mark.parametrize("field", [
    *[lambda q=q: fresh(field_from_q(q)) for q in (4, 8, 9, 16, 27, 256)],
    lambda: constituent(2, 47, 23),
    lambda: constituent(3, 17, 16),
], ids=["GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(27)", "GF(256)", "GF(2^23)", "GF(3^16)"])
def test_inverse_by_extended_euclid_against_fermat(field):
    """The inverse a field takes before its tables, _digit_inv, is extended
    Euclid; it agrees with Fermat's a^(q - 2) and builds no tables."""
    field = field()
    rng = random.Random(str(field))
    for _ in range(6):
        a = rng.randrange(1, field.q)
        inv = field._digit_inv(a)
        assert inv == _power(field._digit_mul, a, field.q - 2)
        assert field._digit_mul(a, inv) == 1
    assert field._digit_inv(1) == 1
    assert field._log is None


def counted_unpacks(monkeypatch, field):
    """The (row, n) of every later call of the field's unpack_row."""
    calls, unpack = [], field.unpack_row

    def counting(v, n):
        calls.append((v, n))
        return unpack(v, n)

    monkeypatch.setattr(field, "unpack_row", counting)
    return calls


def regenerated(field, gen, rng):
    """Another generating set of the row space of gen: row i plus a nonzero
    multiple of row i + 1, in reverse order, with a zero row and a repeat."""
    rows = [list(gen[-1])]
    for a, b in zip(gen[-2::-1], gen[::-1]):
        c = rng.randrange(1, field.q)
        rows.append([field.add(x, field.mul(c, y)) for x, y in zip(a, b)])
    return rows + [[0] * len(gen[0]), rows[0]]


@pytest.mark.parametrize("q", [2, 4, 5, 17])  # codecs whose row operations never unpack
def test_codes_are_built_compared_and_shifted_without_unpacking(monkeypatch, q):
    field = field_from_q(q)
    rng = random.Random(q)
    rows = [[field.random_element(rng) for _ in range(9)] for _ in range(4)]
    calls = counted_unpacks(monkeypatch, field)
    code = LinearCode(field, 9, rows)
    same = LinearCode(field, 9, rows[::-1] + [[0] * 9])
    assert code == same and hash(code) == hash(same)
    assert [code.shift_invariant(d) for d in range(10)] == [d in (0, 9) for d in range(10)]
    assert direct_sum([code, same, LinearCode.full_code(field, 3)]).k == 2 * code.k + 3
    assert calls == []
    gen = code.gen
    assert calls == [(v, 9) for v in code.rows]
    assert code.gen is gen and len(calls) == code.k  # unpacked once, then kept


@pytest.mark.parametrize("q, l, m, seed", [(2, 2, 7, 4), (5, 2, 6, 1), (4, 3, 5, 1)])
def test_qc_dual_unpacks_only_the_code_it_reads(monkeypatch, q, l, m, seed):
    """The kernel route and the constituent route build n-column codes that
    are compared, never read: the only n-column rows unpacked are the code's."""
    field = field_from_q(q)
    qc = random_qc_code(field, l, m, random.Random(seed))
    assert 0 < qc.code.k < l * m
    factor_cyclic_modulus(field, m)
    calls = counted_unpacks(monkeypatch, field)
    dual = qc_dual(qc)
    assert sorted(v for v, n in calls if n == l * m) == sorted(qc.code.rows)
    assert dual.code.k == l * m - qc.code.k


@pytest.mark.parametrize("q", [2, 5, 9, 257])  # lanes of 1, 8, 8 (paired) and 16 bits
def test_code_rows_are_the_packed_canonical_matrix(q):
    field = field_from_q(q)
    rng = random.Random(f"rows {q}")
    for rows in random_matrices(field, rng, (1, 3, 6)):
        n = len(rows[0])
        code = LinearCode(field, n, rows)
        assert code.gen == tuple(map(tuple, rref(field, rows, n)[0]))
        assert code.rows == tuple(map(field.pack_row, code.gen))
        if code.k:
            other = LinearCode(field, n, regenerated(field, code.gen, rng))
            assert other.rows == code.rows and hash(other) == hash(code)


@pytest.mark.parametrize("q", [2, 5, 9, 257])
def test_a_code_pickles_as_its_generator_matrix(q):
    field = field_from_q(q)
    rows = [[field.random_element(random.Random(q)) for _ in range(7)] for _ in range(3)]
    code = LinearCode(field, 7, rows)
    assert code.__reduce__()[1][2] == code.gen
    back = pickle.loads(pickle.dumps(LinearCode(field, 7, rows)))
    assert back == code and back.rows == code.rows and hash(back) == hash(code)
