"""The packed factorization of x^m - 1 against the route it replaced
(``unity_reference``): the same factors in the same order, and the same
verdict of Rabin's certificate, for every m <= 128 coprime to q."""

import itertools

import pytest

import unity_reference as ref
from qckit.galois import field_from_q
from qckit.polynomial import Poly, _is_irreducible_unity_factor, factor_unity

FIELDS = (2, 3, 4, 5, 7, 8, 9, 16)


def _lengths(field):
    return [m for m in range(1, 129) if m % field.char]


@pytest.mark.parametrize("q", FIELDS)
def test_factor_lists_match_the_list_route(q):
    field = field_from_q(q)
    for m in _lengths(field):
        assert [list(f.coeffs) for f in factor_unity(field, m)] == ref.factor_unity(field, m), m


@pytest.mark.parametrize("q", FIELDS)
def test_certificate_verdicts_match_the_list_route(q):
    """On every factor, every product of two factors (squares included) and
    every factor of x^(m+1) - 1 and x^(2m+1) - 1 coprime to q."""
    field = field_from_q(q)
    rejected = 0
    for m in _lengths(field):
        factors = ref.factor_unity(field, m)
        for f in factors:
            assert _is_irreducible_unity_factor(Poly(field, f), m) and ref.unity_factor_certificate(field, f, m), (m, f)
        others = [f for k in (m + 1, 2 * m + 1) if k % field.char for f in ref.factor_unity(field, k)]
        products = [(Poly(field, g) * Poly(field, h)).coeffs
                    for g, h in itertools.combinations_with_replacement(factors, 2)]
        for f in products + others:
            verdict = _is_irreducible_unity_factor(Poly(field, f), m)
            assert verdict == ref.unity_factor_certificate(field, f, m), (m, f)
            rejected += not verdict
    assert rejected
