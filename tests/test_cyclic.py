"""Cyclic codes: duals, defining sets, multipliers, isodual constructions."""

import pytest

from qckit.errors import (
    BadParameters,
    MultiplierNotCoprime,
    NotCofactors,
    NotDivisor,
    NotRootOfUnity,
)
from qckit.cyclic import (
    cofactor_dual_equivalence,
    construct_isodual_cyclic,
    cyclic_dual,
    cyclic_make,
    defining_set,
    from_linear_code,
    multiplier_apply,
    multiplier_equivalent,
    reciprocal_code,
    scale_code,
)
from qckit.galois import field_from_q
from qckit.linear_code import apply_monomial, euclidean_dual
from qckit.polynomial import Poly


F2 = field_from_q(2)
HAMMING_G = Poly(F2, [1, 1, 0, 1])        # x^3 + x + 1
HAMMING_G2 = Poly(F2, [1, 0, 1, 1])       # x^3 + x^2 + 1


def test_cyclic_make_rejects_non_divisor():
    with pytest.raises(NotDivisor):
        cyclic_make(F2, 7, Poly(F2, [1, 1, 1]))  # x^2+x+1 does not divide x^7-1


def test_dimension_and_expansion():
    code = cyclic_make(F2, 7, HAMMING_G)
    assert code.k == 4
    linear = code.to_linear()
    assert linear.k == 4
    shifted = tuple(linear.gen[0][-1:] + linear.gen[0][:-1])
    assert linear.contains(shifted)


def test_cyclic_dual_matches_kernel():
    code = cyclic_make(F2, 7, HAMMING_G)
    dual = cyclic_dual(code)
    assert dual.k == 3
    assert dual.to_linear() == euclidean_dual(code.to_linear())
    # Involution.
    assert cyclic_dual(dual).g == code.g


def test_hamming_defining_set():
    code = cyclic_make(F2, 7, HAMMING_G)
    assert set(defining_set(code)) in ({1, 2, 4}, {3, 5, 6})


def test_defining_set_root_choice_consistency():
    """Multiplier results do not depend on which primitive root defines
    the exponent labels: relabeling by alpha -> alpha^c permutes the
    defining set by mu_c."""
    code = cyclic_make(F2, 7, HAMMING_G)
    base = set(defining_set(code))
    for c in (2, 3, 5):
        # g(alpha^(c i)) = 0 iff c i lies in the base defining set.
        relabeled = set(defining_set(code, alpha_power=c))
        assert relabeled == {(pow(c, -1, 7) * i) % 7 for i in base}


def test_multiplier_apply_and_equivalence():
    a = cyclic_make(F2, 7, HAMMING_G)
    b = cyclic_make(F2, 7, HAMMING_G2)
    image = multiplier_apply(a, 3)
    assert image.g == b.g
    assert multiplier_equivalent(a, b) == 3
    with pytest.raises(MultiplierNotCoprime):
        multiplier_apply(a, 7)


def test_multiplier_equivalence_negative():
    a = cyclic_make(F2, 7, HAMMING_G)
    c = cyclic_make(F2, 7, Poly(F2, [1, 1]))  # x + 1, different dimension
    assert multiplier_equivalent(a, c) is None


def test_reciprocal_code_witness():
    code = cyclic_make(F2, 7, HAMMING_G)
    target, witness = reciprocal_code(code)
    assert target.g == HAMMING_G2
    assert apply_monomial(code.to_linear(), witness) == target.to_linear()


def test_scale_code_witness():
    field = field_from_q(5)
    code = cyclic_make(field, 4, Poly(field, [4, 1]))  # x - 1
    lam = 2  # 2^4 = 16 = 1 in F5
    target, witness = scale_code(code, lam)
    assert apply_monomial(code.to_linear(), witness) == target.to_linear()


def test_scale_code_rejects_zero():
    field = field_from_q(5)
    code = cyclic_make(field, 4, Poly(field, [4, 1]))
    with pytest.raises(NotRootOfUnity):
        scale_code(code, field.zero)


def test_cofactor_dual_equivalence():
    g = HAMMING_G
    f = Poly.unity_modulus(F2, 7) // g
    witness = cofactor_dual_equivalence(g, f, 7)
    code = cyclic_make(F2, 7, g).to_linear()
    target = cyclic_dual(cyclic_make(F2, 7, f)).to_linear()
    assert apply_monomial(code, witness) == target
    with pytest.raises(NotCofactors):
        cofactor_dual_equivalence(g, g, 7)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9])
@pytest.mark.parametrize("s", [1, 3, 5])
@pytest.mark.parametrize("variant", ["A", "B"])
def test_construct_isodual_cyclic(q, s, variant):
    field = field_from_q(q)
    if s % field.char == 0:
        with pytest.raises(BadParameters, match="not coprime"):
            construct_isodual_cyclic(field, s, variant)
        return
    code, witness = construct_isodual_cyclic(field, s, variant)
    assert code.n == 2 * s and code.k == s
    expanded = code.to_linear()
    assert apply_monomial(expanded, witness) == euclidean_dual(expanded)


def test_construct_isodual_cyclic_rejects_even_s():
    with pytest.raises(BadParameters):
        construct_isodual_cyclic(field_from_q(3), 2, "A")
    with pytest.raises(BadParameters):
        construct_isodual_cyclic(field_from_q(3), 3, "C")


def test_from_linear_code_roundtrip():
    code = cyclic_make(F2, 7, HAMMING_G)
    back = from_linear_code(code.to_linear())
    assert back is not None
    assert back.g == code.g


def test_from_linear_code_rejects_non_cyclic():
    from qckit.linear_code import code_from_rows

    non_cyclic = code_from_rows(F2, [(1, 1, 0, 0)])
    assert from_linear_code(non_cyclic) is None
