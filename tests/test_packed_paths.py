"""Packed paths: elements of fields over GF(2) read as packed
polynomials, GF(2) remainders without a quotient, codes that keep their
packed basis for membership and shift tests, and rows that stay packed
through the CRT lift (over every field), the CRT projection and the
kernel dual.

The references here are test-only: base digits by repeated division,
remainders by list long division, membership by rank, T^d written out
coordinate by coordinate, the CRT lift by polynomial products on
coefficient lists, and the dual by ``kernel_basis`` lists."""

import random

import pytest

from qckit import galois, polynomial
from qckit import quasi_cyclic as qc_mod
from qckit.errors import DivisionByZero, NotShiftInvariant
from qckit.galois import (
    _digits,
    _number,
    constituent_field,
    field_from_q,
    make_field,
    pack_bits,
    poly_divmod_raw,
    poly_mod_raw,
    poly_mul_raw,
    rotate_bits,
    unpack_bits,
)
from qckit.linear_code import LinearCode, code_from_rows, euclidean_dual, kernel_basis
from qckit.polynomial import Poly, factor_cyclic_modulus
from qckit.quasi_cyclic import (
    ConstituentDecomposition,
    _slots,
    crt_decompose,
    crt_reconstruct,
    is_selfdual,
    phi_inv,
    qc_dual,
    qc_make,
)

F2 = field_from_q(2)


def list_mod(a, b):
    """a mod b over GF(2), by long division on coefficient lists."""
    a, b = list(a), list(b)
    while b and not b[-1]:
        b.pop()
    if not b:
        raise DivisionByZero("reference division by zero")
    while len(a) >= len(b):
        if a[-1]:
            shift = len(a) - len(b)
            for i, x in enumerate(b):
                a[shift + i] ^= x
        a.pop()
    return a


def gf2_fields():
    """Constituent fields over GF(2) of degree 1 to 12, and GF(2^e)."""
    fields = {}
    for m in (3, 5, 7, 9, 11, 13, 17, 21, 23, 31, 73, 127):
        for f in factor_cyclic_modulus(F2, m).all_factors():
            fields.setdefault(f.degree, constituent_field(F2, f.coeffs))
    assert sorted(fields) == list(range(1, 13))
    return list(fields.values()) + [make_field(2, e) for e in range(2, 13)]


def shifted(row, d):
    """T^d by its definition: coordinate i moves to i + d (mod n)."""
    n = len(row)
    return tuple(row[(i - d) % n] for i in range(n))


def member(code, v):
    """Membership by rank: adding v does not grow the code."""
    return code_from_rows(code.field, list(code.gen) + [tuple(v)], n=code.n).k == code.k


def test_base_coeffs_over_gf2_against_digits():
    rng = random.Random(1)
    for local in gf2_fields():
        d = local.degree
        samples = range(local.q) if local.q <= 256 else [rng.randrange(local.q) for _ in range(200)]
        for a in samples:
            assert local.base_coeffs(a) == _digits(a, 2, d)
            assert local.from_base_coeffs(local.base_coeffs(a)) == a


def test_from_base_coeffs_over_gf2_against_list_division():
    rng = random.Random(2)
    for local in gf2_fields():
        d, modulus = local.degree, list(local.modulus)
        inputs = [[], [0], [0] * (3 * d + 2), [1] + [0] * (2 * d), modulus, modulus + [0, 0]]
        inputs += [[rng.randrange(2) for _ in range(rng.randrange(1, 4 * d + 3))] for _ in range(60)]
        inputs += [c + [0] * rng.randrange(1, 5) for c in inputs[-20:]]  # trailing zeros
        for c in inputs:
            expected = _number(list_mod(c, modulus), 2)
            assert local.from_base_coeffs(c) == expected, (local, c)
            assert local.from_base_coeffs(tuple(c)) == expected
            assert 0 <= expected < local.q


def test_gf2_poly_mod_against_divmod_and_list_division():
    rng = random.Random(3)

    def draw():
        return [rng.randrange(2) for _ in range(rng.randrange(0, 40))] + [0] * rng.randrange(3)

    for _ in range(400):
        a, b = draw(), draw()
        if not any(b):
            with pytest.raises(DivisionByZero):
                poly_mod_raw(F2, a, b)
            with pytest.raises(DivisionByZero):
                poly_divmod_raw(F2, a, b)
            continue
        r = poly_mod_raw(F2, a, b)
        assert r == poly_divmod_raw(F2, a, b)[1]
        expected = list_mod(a, b)
        while expected and not expected[-1]:
            expected.pop()
        assert r == expected
    for b in ([], [0], [0, 0, 0]):
        with pytest.raises(DivisionByZero):
            poly_mod_raw(F2, [1, 1], b)


def test_rotate_bits_is_the_coordinate_shift():
    rng = random.Random(4)
    for n in (1, 2, 5, 8, 13, 64, 65):
        for _ in range(10):
            row = tuple(rng.randrange(2) for _ in range(n))
            for d in range(n + 1):
                assert unpack_bits(rotate_bits(pack_bits(row), d, n), n) == list(shifted(row, d))


def seeded_codes(field, rng):
    """Codes with k = 0, k = n and in between, including n = 1, and codes
    closed under T^d for a divisor d of n."""
    codes = []
    for n in (1, 2, 3, 4, 6, 8, 9, 12):
        codes.append(code_from_rows(field, [], n=n))
        codes.append(code_from_rows(field, [tuple(int(i == j) for j in range(n)) for i in range(n)]))
        for _ in range(3):
            rows = [tuple(field.random_element(rng) for _ in range(n)) for _ in range(rng.randint(1, n))]
            codes.append(code_from_rows(field, rows, n=n))
        for d in (x for x in range(1, n) if n % x == 0):
            row = tuple(field.random_element(rng) for _ in range(n))
            codes.append(code_from_rows(field, [shifted(row, d * t) for t in range(n // d)], n=n))
    return codes


@pytest.mark.parametrize("q", [2, 3, 4])
def test_contains_and_shift_invariant_against_the_tuple_route(q):
    field = field_from_q(q)
    rng = random.Random(10 + q)
    for code in seeded_codes(field, rng):
        n = code.n
        probes = [tuple(field.random_element(rng) for _ in range(n)) for _ in range(8)]
        probes += [shifted(row, 1) for row in code.gen] + list(code.gen) + [(0,) * n]
        for v in probes:
            assert code.contains(v) == member(code, v)
        for d in range(n + 1):  # d = 0 and d = n are the identity
            expected = all(member(code, shifted(row, d)) for row in code.gen)
            assert code.shift_invariant(d) == expected, (code, d)
        assert code.shift_invariant(0) and code.shift_invariant(n)


def test_qc_make_rejects_a_non_invariant_gf2_row_set():
    with pytest.raises(NotShiftInvariant):
        qc_make(F2, 2, 3, [(1, 1, 0, 1, 0, 0)])
    with pytest.raises(NotShiftInvariant):
        qc_make(F2, 3, 5, [(1,) * 4 + (0,) * 11, (0,) * 3 + (1,) * 4 + (0,) * 8])
    row = (1, 1, 0, 1, 0, 0)
    assert qc_make(F2, 2, 3, [row, shifted(row, 2), shifted(row, 4)]).code.k == 3


@pytest.mark.parametrize("q", [2, 3, 4])
def test_membership_tests_leave_the_code_unchanged(q):
    field = field_from_q(q)
    rng = random.Random(20 + q)
    for code in seeded_codes(field, rng):
        gen, pivots = code.gen, list(code.pivots)
        for _ in range(30):
            code.contains(tuple(field.random_element(rng) for _ in range(code.n)))
        for d in range(code.n + 1):
            code.shift_invariant(d)
        assert code.gen == gen and list(code.pivots) == pivots
        assert code == code_from_rows(field, code.gen, n=code.n)


def reference_reconstruct(decomp):
    """The CRT lift through polynomial products on coefficient lists: each
    element times e_f mod Y^m - 1 per slot, re-indexed by phi_inv, with
    its deg f - 1 shifts by T^l."""
    field, l, m = decomp.field, decomp.l, decomp.m
    unity = Poly.unity_modulus(field, m).coeffs
    rows = []
    for f, local, comp in zip(decomp.factors, decomp.fields, decomp.comps):
        e = qc_mod._idempotent(field, m, f).coeffs
        for row in comp.gen:
            slots = [poly_mod_raw(field, poly_mul_raw(field, local.base_coeffs(a), e), unity) for a in row]
            rows.append(phi_inv(field, l, m, slots))
            for _ in range(1, f.degree):
                rows.append(shifted(rows[-1], l))
    return code_from_rows(field, rows, n=l * m)


def random_decomposition(field, l, m, rng):
    """Random constituents, each of a random dimension 0..l."""
    comps = []
    for local in _slots(field, m)[2]:
        rows = [tuple(local.random_element(rng) for _ in range(l)) for _ in range(rng.randint(0, l))]
        comps.append(code_from_rows(local, rows, n=l))
    return ConstituentDecomposition(field, l, m, comps)


LIFT_COLENGTHS = {2: (1, 3, 7, 9, 15, 21, 63), 3: (1, 2, 4, 5, 8, 10, 13), 4: (1, 3, 5, 7, 9, 15),
                  5: (1, 2, 3, 4, 6, 8, 12), 9: (1, 2, 4, 5, 8, 10)}


@pytest.mark.parametrize("l", [1, 2, 3, 5])
def test_packed_lift_against_the_coefficient_list_route(l):
    rng = random.Random(30 + l)
    for q, colengths in LIFT_COLENGTHS.items():
        field = field_from_q(q)
        for m in colengths:
            for _ in range(3 if q == 2 else 1):
                decomp = random_decomposition(field, l, m, rng)
                assert crt_reconstruct(decomp).code == reference_reconstruct(decomp), (q, l, m)


def test_packed_euclidean_dual_against_kernel_basis():
    rng = random.Random(40)
    codes = seeded_codes(F2, rng)
    for n in (1, 17, 64, 65, 130):
        codes.append(code_from_rows(F2, [], n=n))
        codes.append(code_from_rows(F2, [tuple(int(i == j) for j in range(n)) for i in range(n)]))
        for k in (1, n // 3, n - 1):
            codes.append(code_from_rows(F2, [tuple(rng.randrange(2) for _ in range(n)) for _ in range(k)], n=n))
    assert {code.k for code in codes if code.n == 1} == {0, 1}
    for code in codes:
        dual = euclidean_dual(code)
        assert dual == LinearCode(F2, code.n, kernel_basis(F2, code.gen, code.pivots, code.n))
        assert dual.k == code.n - code.k
        assert all(dual.contains(v) for v in kernel_basis(F2, code.gen, code.pivots, code.n))


def counted(monkeypatch, names):
    """Count the calls to each named galois kernel, also through the
    modules that import it by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _fn=getattr(galois, name)):
            calls[_name] += 1
            return _fn(*args)
        for module in (galois, polynomial, qc_mod):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_gf2_lift_and_generators_make_no_list_calls(monkeypatch, q):
    """Once e_f is known, a fresh decomposition and the CRT lift run on
    packed rows over every field, with no polynomial product or remainder."""
    field = field_from_q(q)
    rng = random.Random(50 + q)
    m = 7 if q % 7 else 5
    v = tuple(field.random_element(rng) for _ in range(2 * m))
    qc = qc_make(field, 2, m, [shifted(v, 2 * s) for s in range(m)])
    decomp = crt_decompose(qc)
    assert crt_reconstruct(decomp) == qc  # computes and keeps each e_f
    calls = counted(monkeypatch, ["poly_mul_raw", "poly_mod_raw"])
    fresh = qc_make(field, 2, m, qc.code)  # no decomposition kept yet
    assert crt_decompose(fresh).comps == decomp.comps
    assert crt_reconstruct(decomp) == qc
    assert calls == {"poly_mul_raw": 0, "poly_mod_raw": 0}
    assert not hasattr(qc_mod, "_shift")


@pytest.mark.parametrize("l, m", [(2, 255), (4, 63)])
def test_gf2_pipeline_at_scale(l, m):
    rng = random.Random(60 + m)
    n = l * m
    vectors = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(l // 2)]
    qc = qc_make(F2, l, m, [shifted(v, l * s) for v in vectors for s in range(m)])
    assert 0 < qc.code.k < n
    decomp = crt_decompose(qc)
    assert decomp.dimension() == qc.code.k
    assert crt_reconstruct(decomp) == qc
    dual = qc_dual(qc)
    assert dual.code.k == n - qc.code.k
    assert all(sum(x & y for x, y in zip(row, v)) % 2 == 0 for row in dual.code.gen for v in vectors)
    assert bool(is_selfdual(qc)) == (dual.code == qc.code)
