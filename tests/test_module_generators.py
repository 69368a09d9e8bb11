"""CRT on the canonical rows: crt_decompose projects rows of the
canonical basis until the local ranks account for the code, and its
constituents must equal those of the every-row reference
``per_poly_components`` (see test_crt_projection) on random codes,
reconstructed random components, the zero and full codes and larger
binary shapes.  Reconstruction lifts each component row once and takes
its shifts by T^l; each code's dual is computed once.

The references here are test-only: T^d written out coordinate by
coordinate and the lift that makes deg f products by Y^t e_f per slot.
The library shifts rows by ``FieldSpec.rotate_row`` on packed rows."""

import random
import subprocess
import sys
import textwrap

import pytest

from qckit import linear_code as lc
from qckit import quasi_cyclic as qc_mod
from qckit.errors import ShapeMismatch
from qckit.galois import field_from_q
from qckit.linear_code import LinearCode, code_from_rows
from qckit.polynomial import Poly, factor_cyclic_modulus
from qckit.quasi_cyclic import (
    ConstituentDecomposition,
    crt_decompose,
    crt_reconstruct,
    is_isodual,
    is_selfdual,
    phi,
    phi_inv,
    qc_dual,
    qc_make,
)
from qckit.selftest import random_qc_code
from test_crt_projection import per_poly_components


def shifted(row, d):
    """T^d by its definition: coordinate i moves to i + d (mod n)."""
    n = len(row)
    return tuple(row[(i - d) % n] for i in range(n))


def small_fields_shapes(field, ls, ms, limit=2 ** 12):
    """(l, m) with m coprime to q and every constituent field of size <= limit."""
    return [
        (l, m) for l in ls for m in ms
        if m % field.char
        and field.q ** max(f.degree for f in factor_cyclic_modulus(field, m).all_factors()) <= limit
    ]


def random_components(field, l, m, rng):
    """A decomposition with independently random constituents at every factor."""
    comps = []
    for local in qc_mod._slots(field, m)[2]:
        rows = [tuple(local.random_element(rng) for _ in range(l)) for _ in range(rng.randrange(l + 1))]
        comps.append(code_from_rows(local, rows, n=l))
    return ConstituentDecomposition(field, l, m, comps)


def lift_by_products(decomp):
    """The earlier lift: slot by slot, deg f products with Y^t e_f mod Y^m - 1."""
    field, l, m = decomp.field, decomp.l, decomp.m
    unity = Poly.unity_modulus(field, m)
    rows = []
    for f, local, comp in zip(decomp.factors, decomp.fields, decomp.comps):
        lift = qc_mod._idempotent(field, m, f)
        for _ in range(f.degree):
            for row in comp.gen:
                slots = [(Poly(field, local.base_coeffs(a)) * lift) % unity for a in row]
                rows.append(phi_inv(field, l, m, slots))
            lift = (lift * Poly.x(field)) % unity
    return code_from_rows(field, rows, n=l * m)


def rotated(field, row, d):
    """T^d through the field's packed rows."""
    n = len(row)
    return tuple(field.unpack_row(field.rotate_row(field.pack_row(row), d, n), n))


@pytest.mark.parametrize("n, d", [(1, 1), (6, 1), (6, 2), (6, 6), (12, 5), (35, 7)])
def test_shift_is_t_to_the_d(n, d):
    for q in (2, 3, 4, 5, 9, 256, 257):
        field = field_from_q(q)
        row = tuple(i % q for i in range(n))
        assert rotated(field, row, d) == shifted(row, d), q


@pytest.mark.parametrize("q, l, m", [(2, 3, 7), (3, 2, 4), (4, 2, 5), (5, 3, 6)])
def test_shift_by_l_multiplies_every_slot_by_y(q, l, m):
    field = field_from_q(q)
    rng = random.Random(q * 100 + m)
    row = tuple(field.random_element(rng) for _ in range(l * m))
    unity, y = Poly.unity_modulus(field, m), Poly.x(field)
    expected = tuple((p * y) % unity for p in phi(field, l, m, row))
    assert phi(field, l, m, rotated(field, row, l)) == expected


def check_constituents(qc):
    """crt_decompose of a fresh copy (no decomposition kept) against the
    every-row reference; returns the constituents."""
    comps = crt_decompose(qc_make(qc.field, qc.l, qc.m, qc.code)).comps
    assert [c.gen for c in comps] == [c.gen for c in per_poly_components(qc)]
    return comps


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_module_generators_span_the_code(q):
    field = field_from_q(q)
    rng = random.Random(7000 + q)
    shapes = small_fields_shapes(field, range(1, 6), range(1, 16))
    for l, m in rng.sample(shapes, 10):
        check_constituents(random_qc_code(field, l, m, rng))
        check_constituents(crt_reconstruct(random_components(field, l, m, rng)))


@pytest.mark.parametrize("l, m", [(8, 31), (8, 21), (7, 15), (6, 9), (5, 31), (3, 25), (1, 31)])
def test_module_generators_of_larger_binary_codes(l, m):
    field = field_from_q(2)
    rng = random.Random(l * 1000 + m)
    check_constituents(random_qc_code(field, l, m, rng))
    check_constituents(crt_reconstruct(random_components(field, l, m, rng)))


@pytest.mark.parametrize("q, l, m", [(2, 3, 7), (3, 2, 4), (4, 4, 5), (5, 2, 6), (2, 8, 31)])
def test_module_generators_of_the_zero_and_the_full_code(q, l, m):
    field = field_from_q(q)
    assert all(c.k == 0 for c in check_constituents(qc_make(field, l, m, [])))
    full = qc_make(field, l, m, LinearCode.full_code(field, l * m))
    assert all(c.k == l for c in check_constituents(full))  # the local ranks are all l


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_reconstruct_matches_the_product_lift(q):
    field = field_from_q(q)
    rng = random.Random(7100 + q)
    shapes = small_fields_shapes(field, range(1, 6), range(1, 22))
    for l, m in rng.sample(shapes, 8):
        qc = random_qc_code(field, l, m, rng)
        decomp = crt_decompose(qc)
        assert crt_reconstruct(decomp).code == lift_by_products(decomp) == qc.code
        decomp = random_components(field, l, m, rng)
        assert crt_reconstruct(decomp).code == lift_by_products(decomp)


def test_reconstruct_of_larger_binary_codes_matches_the_product_lift():
    field = field_from_q(2)
    for l, m in [(8, 31), (4, 63)]:
        decomp = random_components(field, l, m, random.Random(m))
        assert crt_reconstruct(decomp).code == lift_by_products(decomp)


def test_each_dual_is_computed_once(monkeypatch):
    field = field_from_q(3)
    qc = random_qc_code(field, 4, 4, random.Random(11))
    dual = qc_dual(qc)
    assert qc_dual(qc) is dual
    assert dual.code == lc.euclidean_dual(qc.code)
    lengths = []
    kernel_dual = lc.euclidean_dual

    def counting(code):
        lengths.append(code.n)
        return kernel_dual(code)

    monkeypatch.setattr(lc, "euclidean_dual", counting)
    is_selfdual(qc)
    is_isodual(qc)
    assert not lengths  # neither the dual nor its constituents again


FAILED_DUAL_IS_NOT_KEPT = textwrap.dedent("""
    import qckit
    from qckit import linear_code as lc, quasi_cyclic as qc_mod
    from qckit.errors import DualMismatch

    assert not __debug__  # running under -O
    f2 = qckit.field_from_q(2)
    qc = qc_mod.qc_make(f2, 2, 3, [(1, 1, 1, 1, 1, 1)])
    kernel_dual = lc.euclidean_dual
    # The kernel route now answers the zero code at length lm; component duals are unchanged.
    lc.euclidean_dual = lambda code: (
        lc.LinearCode.zero_code(code.field, code.n) if code.n == qc.n else kernel_dual(code))
    for call in ("first", "second"):
        try:
            qc_mod.qc_dual(qc)
        except DualMismatch as exc:
            print(call, "raised:", exc)
        else:
            print(call, "returned")
        print("kept:", qc._dual, qc._dual_decomposition)
    lc.euclidean_dual = kernel_dual
    dual = qc_mod.qc_dual(qc)
    print("restored:", dual.code == kernel_dual(qc.code), qc_mod.qc_dual(qc) is dual)
    print("components kept:", qc._dual_decomposition.comps == qc_mod.crt_decompose(dual).comps)
""")


def test_a_failed_dual_check_is_never_kept():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAILED_DUAL_IS_NOT_KEPT],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "first raised: kernel dual and component dual disagree",
        "kept: None None",
        "second raised: kernel dual and component dual disagree",
        "kept: None None",
        "restored: True True",
        "components kept: True",
    ]


def test_the_slot_layout_comes_from_field_and_m():
    field = field_from_q(3)
    classification, factors, fields = qc_mod._slots(field, 8)
    assert qc_mod._slots(field, 8)[2] is fields
    assert [f.coeffs for f in factors] == [f.coeffs for f in factor_cyclic_modulus(field, 8).all_factors()]
    assert factors == tuple(classification.all_factors())
    assert [local.degree for local in fields] == [f.degree for f in factors]
    decomp = crt_decompose(random_qc_code(field, 2, 8, random.Random(5)))
    assert (decomp.classification, decomp.factors, decomp.fields) == (classification, factors, fields)


def test_the_component_list_is_checked_at_construction():
    """GF(2), l = 2, m = 7: three slots, over GF(2), GF(8) and GF(8)."""
    field = field_from_q(2)
    comps = crt_decompose(random_qc_code(field, 2, 7, random.Random(1))).comps
    assert [comp.k for comp in comps] == [2, 2, 2]
    with pytest.raises(ShapeMismatch, match="^2 components, expected 3$"):
        ConstituentDecomposition(field, 2, 7, comps[:2])
    with pytest.raises(ShapeMismatch, match="^4 components, expected 3$"):
        ConstituentDecomposition(field, 2, 7, comps + comps[:1])
    with pytest.raises(ShapeMismatch, match="expected length 2 over"):
        ConstituentDecomposition(field, 2, 7, [comps[1], comps[0], comps[2]])
    with pytest.raises(ShapeMismatch, match="expected length 3 over"):
        ConstituentDecomposition(field, 3, 7, comps)


def test_reconstruct_decomposes_nothing(monkeypatch):
    """The reconstructed code's rank is checked against the components'
    dimension count; no code is decomposed on the way."""
    field = field_from_q(3)
    decomps = [crt_decompose(random_qc_code(field, 3, 4, random.Random(seed))) for seed in range(4)]
    decomps.append(random_components(field, 3, 4, random.Random(9)))
    calls = []
    monkeypatch.setattr(qc_mod, "crt_decompose", lambda qc: calls.append(qc))
    for decomp in decomps:
        assert crt_reconstruct(decomp).code.k == decomp.dimension()
    assert calls == []


WRONG_IDEMPOTENT = textwrap.dedent("""
    import random
    import qckit
    from qckit import quasi_cyclic as qc_mod
    from qckit.errors import CrossCheckFailed
    from qckit.selftest import random_qc_code

    assert not __debug__  # running under -O
    f2 = qckit.field_from_q(2)
    decomp = qc_mod.crt_decompose(random_qc_code(f2, 2, 7, random.Random(1)))
    first = qc_mod._idempotent(f2, 7, decomp.factors[0])
    # Every component is now lifted into the first slot only.
    qc_mod._idempotent = lambda field, m, factor: first
    try:
        qc_mod.crt_reconstruct(decomp)
    except CrossCheckFailed as exc:
        print("raised:", exc)
    else:
        print("returned")
""")


def test_a_wrong_lift_fails_the_dimension_check_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_IDEMPOTENT],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["raised: the reconstructed code has the wrong dimension"]
