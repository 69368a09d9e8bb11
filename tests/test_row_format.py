"""One row format for every field: a row is one int with entry j in lane j
of 2^lane_shift bits, and elimination, membership, shifts, the kernel dual
and syndromes run on these ints over every field.

The references are test-only: the element-list elimination in
``elimination_reference``, each row operation written out entry by entry
through the field's own ``add`` and ``mul``, and inverses by Fermat."""

import functools
import random

import pytest

import elimination_reference as ref
from qckit.galois import FieldSpec, _power, constituent_field, field_from_q
from qckit.linear_code import LinearCode, _ParityCheck, euclidean_dual, rref
from qckit.polynomial import factor_cyclic_modulus


@functools.cache
def constituent(q, m, degree):
    """The constituent field of Y^m - 1 over GF(q) at a factor of the given degree."""
    base = field_from_q(q)
    factor = next(f for f in factor_cyclic_modulus(base, m).all_factors() if f.degree == degree)
    return constituent_field(base, factor.coeffs)


FIELDS = {
    **{f"GF({q})": (lambda q=q: field_from_q(q)) for q in (2, 3, 4, 5, 9, 16, 127, 131, 256, 257, 512)},
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
            stepped = field.unpack_row(field.row_step(field.pack_row(a), pivot), n)
            assert stepped == [field.sub(y, field.mul(x, z)) for y, z in zip(a, field.unpack_row(pivot, n))]
            assert stepped[j] == 0


def fresh(field):
    """A new instance of the field, so that no log/exp tables are built yet."""
    return FieldSpec(field.p, field.base, field.modulus, field.constituent)


@pytest.mark.parametrize("field", [
    lambda: fresh(field_from_q(9)),
    lambda: fresh(field_from_q(256)),
    lambda: constituent(2, 47, 23),
    lambda: constituent(3, 17, 16),
], ids=["GF(9)", "GF(256)", "GF(2^23)", "GF(3^16)"])
def test_inverse_by_extended_euclid_against_fermat(field):
    field = field()
    rng = random.Random(str(field))
    for _ in range(6):
        a = rng.randrange(1, field.q)
        inv = field._digit_inv(a)
        assert inv == _power(field._digit_mul, a, field.q - 2)
        assert field._digit_mul(a, inv) == 1
    assert field._digit_inv(1) == 1
    assert field._log is None
