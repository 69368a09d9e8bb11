"""Poly keeps its packed row: at every lane width the row is the packed
coefficients with trailing zeros stripped, the operators on rows agree
with schoolbook references on coefficient lists, equal polynomials hash
equal, a Poly and a CyclicCode survive pickle, and coefficients outside
the field are refused before they reach a row."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qckit.cyclic import cyclic_make
from qckit.errors import DivisionByZero, FieldMismatch
from qckit.galois import field_from_q
from qckit.polynomial import Poly, factor_cyclic_modulus, poly_egcd, poly_gcd

from poly_reference import schoolbook_add, schoolbook_divmod, schoolbook_gcd, schoolbook_mul, strip

# One field per row layout: 1-bit lanes (GF(2)); byte lanes summed and
# translated mod p with the multiply-add inlined (GF(3), GF(13)) or not
# (GF(17)), XORed through product tables (GF(4)) or paired (GF(9)); 16-bit
# lanes XORed (GF(2^9)) or added lane by lane (GF(257)).
FIELDS = [field_from_q(q) for q in (2, 3, 4, 9, 13, 17, 2 ** 9, 257)]


def coefficients(field):
    """Up to 12 coefficients, at times with trailing zeros."""
    return st.tuples(st.lists(st.integers(0, field.q - 1), max_size=12), st.integers(0, 3)).map(
        lambda t: t[0] + [0] * t[1])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_poly_rows_agree_with_the_schoolbook_at_every_lane_width(data):
    field = data.draw(st.sampled_from(FIELDS), label="field")
    a_list, b_list = data.draw(coefficients(field), label="a"), data.draw(coefficients(field), label="b")
    a, b = Poly(field, a_list), Poly(field, b_list)
    minus_b = [field.neg(x) for x in b_list]
    expected = {
        "a + b": schoolbook_add(field, a_list, b_list),
        "a - b": schoolbook_add(field, a_list, minus_b),
        "-b": strip(minus_b),
        "a * b": schoolbook_mul(field, a_list, b_list),
        "gcd": schoolbook_gcd(field, a_list, b_list),
    }
    d, u, v = poly_egcd(a, b)
    results = {"a + b": a + b, "a - b": a - b, "-b": -b, "a * b": a * b, "gcd": poly_gcd(a, b), "egcd": d}
    expected["egcd"] = expected["gcd"]
    if b.is_zero:
        with pytest.raises(DivisionByZero):
            divmod(a, b)
    else:
        results["a // b"], results["a % b"] = divmod(a, b)
        expected["a // b"], expected["a % b"] = schoolbook_divmod(field, a_list, b_list)
    assert {name: f.coeffs for name, f in results.items()} == expected
    bezout = schoolbook_add(field, schoolbook_mul(field, u.coeffs, a_list), schoolbook_mul(field, v.coeffs, b_list))
    assert bezout == d.coeffs
    for f in [a, b, u, v, *results.values()]:
        assert f.coeffs == strip(f.coeffs) and f.row == field.pack_row(f.coeffs)
    for f, c in ((a, a_list), (b, b_list)):
        assert f.coeffs == strip(c) and f.row == field.pack_row(c)
        twin = Poly(field, c + [0])
        assert twin == f and hash(twin) == hash(f)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a * b == b * a and hash(a * b) == hash(b * a)


def round_trip(x):
    return pickle.loads(pickle.dumps(x))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_poly_and_cyclic_code_round_trip_with_their_rows(field):
    n = 7 if field.char != 7 else 5
    g = factor_cyclic_modulus(field, n).all_factors()[-1]
    for f in (Poly.zero(field), Poly.x(field), g, g * g):
        back = round_trip(f)
        assert back == f and hash(back) == hash(f)
        assert (back.field, back.coeffs, back.row) == (f.field, f.coeffs, f.row)
    code = cyclic_make(field, n, g)
    code.to_linear()
    back = round_trip(code)
    assert back == code and back.g.row == g.row
    assert back.to_linear() == code.to_linear()


@pytest.mark.parametrize("q, bad", [(2, 2), (2, -1), (4, 4), (4, 7), (257, 257), (257, 70000), (3, True), (3, 1.0)])
def test_poly_refuses_coefficients_outside_the_field(q, bad):
    """Over GF(257) 70000 would carry into the next lane of a product, and
    over GF(2) and GF(4) the row kernels would fail on it."""
    field = field_from_q(q)
    for coeffs in ([bad], [1, bad], [bad, 0], [0, bad, 1]):
        with pytest.raises(FieldMismatch):
            Poly(field, coeffs)
    with pytest.raises(FieldMismatch):
        Poly.constant(field, bad)
    top, x = Poly.constant(field, q - 1), Poly.x(field)
    assert (top * x).coeffs == (0, q - 1)
    assert (top + Poly.zero(field)).coeffs == (q - 1,)
