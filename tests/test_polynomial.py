"""Polynomial arithmetic and the classified factorization of Y^m - 1."""

import itertools
import json
import math
import random
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from qckit import galois, polynomial
from qckit.galois import (
    field_from_q,
    poly_divmod_raw,
    poly_gcd_raw,
    poly_is_irreducible,
    poly_mod_raw,
    poly_powmod_raw,
    poly_sub_raw,
)
from qckit.polynomial import (
    Poly,
    _cyclotomic,
    _equal_degree_split,
    _fixed_basis,
    _is_irreducible_unity_factor,
    cyclotomic_cosets,
    factor_cyclic_modulus,
    factor_unity,
    poly_egcd,
    poly_gcd,
    reciprocal,
    substitute_negate,
    substitute_power,
    substitute_scale,
)
from qckit.linear_code import code_from_rows, kernel_basis, rref


def rand_poly(field, rng, maxdeg=6):
    return Poly(field, [field.random_element(rng) for _ in range(rng.randint(0, maxdeg))])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_ring_axioms_sampled(q):
    field = field_from_q(q)
    rng = random.Random(q)
    for _ in range(25):
        a, b, c = (rand_poly(field, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero
        if not b.is_zero:
            quo, rem = divmod(a, b)
            assert quo * b + rem == a
            assert rem.is_zero or rem.degree < b.degree


def test_degree_and_monic():
    field = field_from_q(3)
    f = Poly(field, [1, 2, 0, 2])
    assert f.degree == 3
    assert not f.is_monic
    assert f.monic().is_monic
    assert Poly.zero(field).degree is None


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_gcd_and_egcd(q):
    field = field_from_q(q)
    rng = random.Random(q + 100)
    for _ in range(20):
        a, b = rand_poly(field, rng), rand_poly(field, rng)
        g = poly_gcd(a, b)
        if not (a.is_zero and b.is_zero):
            assert g.divides(a) and g.divides(b)
            d, u, v = poly_egcd(a, b)
            assert d == g
            assert u * a + v * b == d


def test_reciprocal():
    field = field_from_q(2)
    f = Poly(field, [1, 1, 0, 1])  # 1 + x + x^3
    assert reciprocal(f) == Poly(field, [1, 0, 1, 1])
    assert reciprocal(Poly(field, [1, 1, 1])) == Poly(field, [1, 1, 1])
    assert reciprocal(f) != f


def test_substitutions():
    field = field_from_q(5)
    f = Poly(field, [1, 2, 3])
    # f(-x)
    assert substitute_negate(f) == Poly(field, [1, 3, 3])
    # f(lam * x) with lam = 2
    assert substitute_scale(f, 2) == Poly(field, [1, 4, 2])
    # f(x^a) reduced mod x^n - 1
    g = Poly(field, [0, 1])  # x
    assert substitute_power(g, 3, 4) == Poly(field, [0, 0, 0, 1])
    assert substitute_power(g, 5, 4) == g


def test_evaluation():
    field = field_from_q(7)
    f = Poly(field, [3, 0, 1])  # 3 + x^2
    assert f(2) == field.add(3, field.mul(2, 2))


@pytest.mark.parametrize("q,m", [
    (2, 7), (2, 15), (3, 8), (3, 13), (4, 15), (5, 12), (7, 6), (9, 10),
])
def test_factorization_product_and_count(q, m):
    field = field_from_q(q)
    cls = factor_cyclic_modulus(field, m)
    assert cls.verify_product()
    cosets = cyclotomic_cosets(q, m)
    assert cls.r == len(cosets)
    assert cls.r == cls.s + 2 * cls.t
    for f in cls.self_reciprocal:
        assert reciprocal(f) == f
    for h, hstar in cls.pairs:
        assert reciprocal(h).monic() == hstar
        assert reciprocal(h) != h


def test_factorization_deterministic():
    field = field_from_q(2)
    a = factor_cyclic_modulus(field, 21)
    b = factor_cyclic_modulus(field, 21)
    assert [f.coeffs for f in a.all_factors()] == [f.coeffs for f in b.all_factors()]


def test_factor_degrees_match_coset_sizes():
    q, m = 2, 23
    field = field_from_q(q)
    cls = factor_cyclic_modulus(field, m)
    coset_sizes = sorted(len(c) for c in cyclotomic_cosets(q, m))
    factor_degrees = sorted(f.degree for f in cls.all_factors())
    assert coset_sizes == factor_degrees


def test_unity_modulus():
    field = field_from_q(3)
    u = Poly.unity_modulus(field, 4)
    assert u == Poly(field, [2, 0, 0, 0, 1])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_unity_against_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    field = field_from_q(p)
    for m in list(range(1, 61)) + random.Random(p).sample(range(61, 129), 8):
        if m % p == 0:
            continue
        _, expected = sympy.Poly(x ** m - 1, x, modulus=p).factor_list()
        assert all(mult == 1 for _, mult in expected)
        expected = Counter(tuple(int(c) % p for c in reversed(f.all_coeffs())) for f, _ in expected)
        assert Counter(f.coeffs for f in factor_unity(field, m)) == expected, m


def _distinct_degree_split(field, f):
    """Split a squarefree monic f into (degree, product-of-that-degree) parts."""
    parts = []
    remaining = list(f.coeffs)
    x = [field.zero, field.one]
    h = list(x)
    d = 0
    while len(remaining) - 1 > 0:
        d += 1
        if d > len(remaining) - 1:
            break
        h = poly_powmod_raw(field, h, field.q, remaining)
        comp = poly_gcd_raw(field, poly_sub_raw(field, h, x), remaining)
        if len(comp) > 1:
            parts.append((d, comp))
            remaining = poly_divmod_raw(field, remaining, comp)[0]
            h = poly_mod_raw(field, h, remaining)
        if 2 * (d + 1) > len(remaining) - 1 and len(remaining) - 1 > 0:
            parts.append((len(remaining) - 1, remaining))
            remaining = [field.one]
    return parts


def _distinct_degree_route(field, m):
    """The earlier factor_unity, kept as a test-only reference: the degrees
    come from distinct-degree splitting of x^m - 1 (gcd with x^(q^d) - x),
    and the library's Berlekamp step splits each component."""
    return [Poly(field, c)
            for d, comp in _distinct_degree_split(field, Poly.unity_modulus(field, m))
            for c in _equal_degree_split(field, comp, d, m)]


def _route_cases():
    rng = random.Random(8128)
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        p = field_from_q(q).char
        sample = rng.sample([m for m in range(65, 129) if m % p], 6)
        for m in [m for m in range(1, 65) if m % p] + sample:
            yield q, m


def test_cyclotomic_route_matches_the_distinct_degree_route(monkeypatch):
    """Same factor multiset from both routes, and the same classification
    (factors, order, s and t) when factor_cyclic_modulus classifies the
    reference route's factors."""
    for q, m in _route_cases():
        field = field_from_q(q)
        expected = _distinct_degree_route(field, m)
        assert Counter(f.coeffs for f in factor_unity(field, m)) == Counter(
            f.coeffs for f in expected), (q, m)
        cls = factor_cyclic_modulus(field, m)
        with monkeypatch.context() as patch:
            patch.setattr(polynomial, "factor_unity", lambda field, m: expected)
            ref = factor_cyclic_modulus.__wrapped__(field, m)
        assert [f.coeffs for f in cls.all_factors()] == [f.coeffs for f in ref.all_factors()]
        assert (cls.s, cls.t) == (ref.s, ref.t), (q, m)


def test_cyclotomic_polynomials_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for d in range(1, 201):
        expected = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()
        assert _cyclotomic(d) == [int(c) for c in reversed(expected)], d


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    for m in range(1, 121):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                c = _cyclotomic(d)
                out = [0] * (len(prod) + len(c) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(c):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (m - 1) + [1], m


FACTOR_CROSS_CHECK_SCRIPT = textwrap.dedent("""
    import json
    from qckit import cli, galois, polynomial
    from qckit.errors import CrossCheckFailed
    from qckit.galois import field_from_q
    from qckit.polynomial import factor_cyclic_modulus

    assert not __debug__  # running under -O
    PATCH
    try:
        factor_cyclic_modulus(field_from_q(5), 12)
    except CrossCheckFailed as exc:
        print(json.dumps({"raised": str(exc)}))
    else:
        print(json.dumps({"raised": None}))
    print(json.dumps({"exit": cli.main(["factor", "--q", "5", "--m", "12"])}))
""")


def _factor_under_optimize(patch):
    """Run FACTOR_CROSS_CHECK_SCRIPT with one patch under -O: (raised, cli_error, cli_exit)."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FACTOR_CROSS_CHECK_SCRIPT.replace("PATCH", patch)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_factor_cross_checks_raise_under_optimize():
    raised, cli_error, cli_exit = _factor_under_optimize(
        "polynomial._is_irreducible_unity_factor = lambda field, f, m: False")
    assert "not monic irreducible" in raised["raised"]
    assert cli_error["error"]["type"] == "CrossCheckFailed"
    assert cli_exit == {"exit": 2}


def test_wrong_order_fails_the_berlekamp_check_under_optimize():
    # ord_3(5) = 2, so Phi_3 is one quadratic, not two linear factors.
    raised, cli_error, cli_exit = _factor_under_optimize(
        "galois.multiplicative_order = lambda q, n: 1")
    message = "Berlekamp subalgebra has dimension 1, expected 2 factors"
    assert raised["raised"] == message
    assert cli_error["error"] == {"type": "CrossCheckFailed", "message": message}
    assert cli_exit == {"exit": 2}


def test_a_wrong_cyclotomic_polynomial_fails_the_unity_check_under_optimize():
    # Phi_12 = x^4 - x^2 + 1 with its constant term changed; over GF(5) it
    # would split into two quadratics, so Berlekamp's rows are built.
    raised, cli_error, cli_exit = _factor_under_optimize(
        "real = polynomial._cyclotomic; "
        "polynomial._cyclotomic = lambda d: [2, 0, -1, 0, 1] if d == 12 else real(d)")
    message = "x^12 is not 1 modulo [2, 0, 4, 0, 1]"
    assert raised["raised"] == message
    assert cli_error["error"] == {"type": "CrossCheckFailed", "message": message}
    assert cli_exit == {"exit": 2}


@pytest.mark.parametrize("patch, message", [
    # Only the scalar 0 is tried, so Phi_4 = x^2 + 1 over GF(5) stays one piece.
    ("galois.FieldSpec.element_list = lambda self: range(1)",
     "Berlekamp split gave degrees [2], expected 2 factors of degree 1"),
    # The packed product returns its first operand.
    ("galois._row_mul = lambda field, a, b: a", "the factors do not multiply to Y^12 - 1"),
    # One coset more than Y^12 - 1 has over GF(5).
    ("real = polynomial.cyclotomic_cosets; "
     "polynomial.cyclotomic_cosets = lambda q, m: real(q, m) + [(0,)] * (m == 12)",
     "8 factors of Y^12 - 1, but 9 cyclotomic cosets"),
], ids=["split degrees", "product", "coset count"])
def test_split_product_and_coset_checks_raise_under_optimize(patch, message):
    raised, cli_error, cli_exit = _factor_under_optimize(patch)
    assert raised["raised"] == message
    assert cli_error["error"] == {"type": "CrossCheckFailed", "message": message}
    assert cli_exit == {"exit": 2}


def _route_factors():
    for q, m in _route_cases():
        field = field_from_q(q)
        yield field, m, [list(f.coeffs) for f in factor_cyclic_modulus(field, m).all_factors()]


def test_unity_factor_certificate_agrees_with_ben_or():
    for field, m, factors in _route_factors():
        for f in factors:
            assert poly_is_irreducible(field, f), (field, m, f)
            assert _is_irreducible_unity_factor(field, f, m), (field, m, f)


def test_unity_factor_certificate_rejects_products_of_two_factors():
    for field, m, factors in _route_factors():
        for g, h in itertools.combinations_with_replacement(factors, 2):
            f = galois.poly_mul_raw(field, g, h)
            assert not _is_irreducible_unity_factor(field, f, m), (field, m, g, h)


def test_unity_factor_certificate_rejects_a_factor_of_another_unity():
    """An irreducible f with x^m != 1 mod f passes every other condition."""
    for field, m, factors in _route_factors():
        for other in (m + 1, 2 * m + 1):
            unity = Poly.unity_modulus(field, other)
            for f in factors:
                divides = Poly(field, f).divides(unity)
                assert _is_irreducible_unity_factor(field, f, other) == divides, (field, other, f)


def _powmod_rows(field, comp):
    """Berlekamp's Frobenius rows as built before the exponent route, kept
    as a test-only reference: x^q by square and multiply, then the powers
    of x^q by repeated multiplication mod comp."""
    deg = len(comp) - 1
    xq = poly_powmod_raw(field, [field.zero, field.one], field.q, comp)
    rows, cur = [], [field.one]
    for _ in range(deg):
        rows.append(cur + [field.zero] * (deg - len(cur)))
        cur = poly_mod_raw(field, galois.poly_mul_raw(field, cur, xq), comp)
    return rows


def _frobenius_kernel(field, comp):
    """Berlekamp's fixed subalgebra mod comp by the matrix route, kept as a
    test-only reference: v is fixed iff v (R - I) = 0 for the Frobenius
    rows R, so it is the kernel of (R - I) transposed."""
    deg = len(comp) - 1
    rows = _powmod_rows(field, comp)
    mt = [[field.sub(rows[i][j], field.one) if i == j else rows[i][j] for i in range(deg)]
          for j in range(deg)]
    return kernel_basis(field, *rref(field, mt, deg), deg)


def _span(field, rows, n):
    return code_from_rows(field, [list(r) + [field.zero] * (n - len(r)) for r in rows], n)


def test_coset_sums_span_the_kernel_of_the_frobenius_matrix():
    """Phi_d with order d, and the distinct-degree components with order m."""
    for q, m in _route_cases():
        if m > 64:
            continue
        field = field_from_q(q)
        comps = [([c % field.char for c in _cyclotomic(d)], d) for d in range(1, m + 1) if m % d == 0]
        comps += [(comp, m) for _, comp in _distinct_degree_split(field, Poly.unity_modulus(field, m))]
        for comp, order in comps:
            deg = len(comp) - 1
            kernel = _frobenius_kernel(field, comp)
            basis = [field.unpack_row(v, deg) for v in _fixed_basis(field, comp, len(kernel), order)]
            assert _span(field, basis, deg) == _span(field, kernel, deg), (q, m, comp)


@pytest.mark.parametrize("q, d", [(5, 8), (3, 8), (7, 9), (4, 45)])
def test_other_cosets_fill_in_where_the_unit_coset_sums_fall_short(q, d):
    """Over GF(5) the unit coset sums mod Phi_8 are x + x^5 = 0 and
    x^3 + x^7 = 0; the other cosets must complete the basis."""
    field = field_from_q(q)
    comp = [c % field.char for c in _cyclotomic(d)]
    deg, k = len(comp) - 1, galois.multiplicative_order(q, d)
    unit_sums = [poly_mod_raw(field, [field.one if j in coset else field.zero for j in range(d)], comp)
                 for coset in cyclotomic_cosets(q, d) if math.gcd(coset[0], d) == 1]
    assert len(unit_sums) == deg // k
    assert len(_span(field, unit_sums, deg).gen) < deg // k
    basis = [field.unpack_row(v, deg) for v in _fixed_basis(field, comp, deg // k, d)]
    assert _span(field, basis, deg) == _span(field, _frobenius_kernel(field, comp), deg)
    factors = _equal_degree_split(field, comp, k, d)
    assert len(factors) == deg // k
    assert all(len(f) == k + 1 and poly_is_irreducible(field, f) for f in factors)
    product = [field.one]
    for f in factors:
        product = galois.poly_mul_raw(field, product, f)
    assert product == comp
