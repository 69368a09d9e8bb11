"""The polynomial kernels away from GF(2), through ``Poly``'s operators,
and Ben-Or's irreducibility test: products and quotients against sympy and
a schoolbook reference on the field's own methods, Ben-Or against trial
division and Rabin's test, and the moduli make_field picks."""

import itertools
import random

import pytest

from qckit.errors import DivisionByZero
from qckit.galois import (
    constituent_field,
    factorint,
    field_from_q,
    make_field,
    poly_is_irreducible,
)
from qckit.polynomial import Poly, poly_gcd

from poly_reference import schoolbook_divmod, schoolbook_mul, strip
from unity_reference import poly_powmod

F2 = field_from_q(2)
F3 = field_from_q(3)
F4 = field_from_q(4)

# One product and one division kernel serve every field, on its row codec;
# the fields below cover each way the codec adds two rows.  Byte lanes are
# XORed in characteristic 2, summed as ints and reduced by one translate
# over GF(p), p <= 127 (a lane reaches 2p - 2 = 252 at p = 127), paired in
# one byte and translated over GF(9), and added lane by lane from p = 131
# and over the other odd-characteristic extensions (GF(243) is the largest
# to fit a byte); wider lanes, above 256 elements, are added lane by lane too.
PRIME_Q = [3, 5, 7, 127, 131, 65537]
CHAR2_TABLE_FIELDS = {
    "GF(4)": lambda: field_from_q(4),
    "GF(8)": lambda: field_from_q(8),
    "GF(16)": lambda: field_from_q(16),
    "GF(256)": lambda: field_from_q(256),
    "GF(4)[Y]/(Y^2+Y+w)": lambda: constituent_field(F4, [F4.element_from_coeffs([0, 1]), 1, 1]),
}
GENERIC_FIELDS = {
    "GF(9)": lambda: field_from_q(9),
    "GF(25)": lambda: field_from_q(25),
    "GF(243)": lambda: field_from_q(243),
    "GF(3)[Y]/(Y^3-Y+1)": lambda: constituent_field(F3, [1, 2, 0, 1]),
    "GF(2^17)": lambda: make_field(2, 17),
}


def _descending(coeffs):
    return list(reversed(coeffs))


def _draw_pair(field, rng, max_len=300):
    """Two coefficient lists: zero operands, constants, trailing zeros and
    lengths up to max_len all come up."""

    lengths = [n for n in (0, 1, 1, 2, 3, 8, 17, 40, 64, 129) if n < max_len] + [max_len]

    def draw():
        length = rng.choice(lengths)
        coeffs = [field.random_element(rng) for _ in range(length)]
        if coeffs and rng.random() < 0.2:
            coeffs[-1] = field.zero
        if rng.random() < 0.15:
            coeffs += [field.zero] * rng.randint(1, 3)
        return coeffs

    return draw(), draw()


def _check_division(a, b, quot, rem):
    """quot * b + rem == a, with deg rem < deg b, each result stripped and
    packed as its coefficients."""
    field = a.field
    assert len(rem.coeffs) < len(b.coeffs)
    for f in (quot, rem):
        assert strip(f.coeffs) == f.coeffs and f.row == field.pack_row(f.coeffs)
    product = (quot * b).coeffs
    total = [field.add(x, y) for x, y in itertools.zip_longest(product, rem.coeffs, fillvalue=field.zero)]
    assert strip(total) == a.coeffs


@pytest.mark.parametrize("p", PRIME_Q)
def test_prime_field_kernels_against_galoistools(p):
    gt = pytest.importorskip("sympy.polys.galoistools")
    ZZ = pytest.importorskip("sympy.polys.domains").ZZ
    field = field_from_q(p)
    rng = random.Random(300 + p)
    for _ in range(400):
        a, b = (Poly(field, c) for c in _draw_pair(field, rng))
        ga, gb = _descending(a.coeffs), _descending(b.coeffs)
        assert list((a * b).coeffs) == _descending(gt.gf_mul(ga, gb, p, ZZ))
        if not gb:
            with pytest.raises(DivisionByZero):
                divmod(a, b)
            continue
        quot, rem = divmod(a, b)
        gq, gr = gt.gf_div(ga, gb, p, ZZ)
        assert (list(quot.coeffs), list(rem.coeffs)) == (_descending(gq), _descending(gr))
        _check_division(a, b, quot, rem)


@pytest.mark.parametrize("name", sorted(CHAR2_TABLE_FIELDS) + sorted(GENERIC_FIELDS))
def test_extension_kernels_against_schoolbook(name):
    field = {**CHAR2_TABLE_FIELDS, **GENERIC_FIELDS}[name]()
    rng = random.Random(name)
    # Above the table bound every element product is a digit polynomial.
    pairs, max_len = (400, 129) if field.q <= 256 else (30, 12)
    for _ in range(pairs):
        a, b = _draw_pair(field, rng, max_len)
        pa, pb = Poly(field, a), Poly(field, b)
        assert (pa * pb).coeffs == schoolbook_mul(field, a, b)
        if pb.is_zero:
            with pytest.raises(DivisionByZero):
                divmod(pa, pb)
            continue
        quot, rem = divmod(pa, pb)
        assert (quot.coeffs, rem.coeffs) == schoolbook_divmod(field, a, b)
        _check_division(pa, pb, quot, rem)


def test_all_top_coefficients_at_every_lane_width():
    """All-(p - 1) operands, so every lane of every row sum holds the
    largest value it can: lanes of 1 bit (p = 2), 8 bits (p <= 131),
    16 bits (p = 257), 32 bits (p = 65537) and 64 bits (p = 4294967311)."""
    for p in [2, *PRIME_Q, 257, 4294967311]:
        field = make_field(p, bound=p)
        for la, lb in ((1, 1), (1, 300), (255, 2), (256, 256), (300, 300)):
            a, b = [p - 1] * la, [p - 1] * lb
            assert (Poly(field, a) * Poly(field, b)).coeffs == schoolbook_mul(field, a, b)


# ---------------------------------------------------------------------------
# Irreducibility: Ben-Or against the earlier routine, exhaustive trial
# division while the divisors number at most 4096 and Rabin's test above.
# ---------------------------------------------------------------------------

def _irreducible_by_trial_division_or_rabin(field, coeffs):
    c = Poly(field, coeffs)
    deg = c.degree
    if deg is None or deg <= 0:
        return False
    if deg == 1:
        return True
    half = deg // 2
    if field.q ** half <= 4096:
        for d in range(1, half + 1):
            for tail in itertools.product(field.element_list(), repeat=d):
                if (c % Poly(field, list(tail) + [field.one])).is_zero:
                    return False
        return True
    # Rabin: x^(q^deg) = x mod f, and gcd(x^(q^(deg/r)) - x, f) = 1 for
    # every prime r dividing deg.
    x = Poly.x(field)
    t = x
    for _ in range(deg):
        t = poly_powmod(t, field.q, c)
    if not (t - x).is_zero:
        return False
    for r in factorint(deg):
        t = x
        for _ in range(deg // r):
            t = poly_powmod(t, field.q, c)
        if poly_gcd(t - x, c).degree > 0:
            return False
    return True


IRREDUCIBILITY_CASES = [
    ("GF(2)", lambda: F2, 6),
    ("GF(3)", lambda: F3, 6),
    ("GF(4)", lambda: F4, 4),
    ("GF(5)", lambda: field_from_q(5), 4),
    ("GF(7)", lambda: field_from_q(7), 4),
    ("GF(9)", lambda: field_from_q(9), 3),
    ("GF(4)[Y]/(Y^2+Y+w)", CHAR2_TABLE_FIELDS["GF(4)[Y]/(Y^2+Y+w)"], 3),
]


@pytest.mark.parametrize("name, make, max_degree", IRREDUCIBILITY_CASES,
                         ids=[case[0] for case in IRREDUCIBILITY_CASES])
def test_ben_or_agrees_with_trial_division_on_every_monic(name, make, max_degree):
    field = make()
    counts = {}
    for degree in range(max_degree + 1):
        for tail in itertools.product(field.element_list(), repeat=degree):
            f = list(tail) + [field.one]
            verdict = poly_is_irreducible(field, f)
            assert verdict == _irreducible_by_trial_division_or_rabin(field, f), f
            counts[degree] = counts.get(degree, 0) + verdict
    # Gauss's count of monic irreducibles of degree 1, 2 and 3.
    q = field.q
    assert counts[0] == 0
    assert counts[1] == q and counts[2] == (q * q - q) // 2 and counts[3] == (q ** 3 - q) // 3


def test_ben_or_agrees_with_rabin_at_large_degree():
    """Degrees where the earlier routine took Rabin's branch: random
    monics, products of two irreducibles and irreducibles themselves."""
    rng = random.Random(17)
    for field, degrees in ((F2, range(26, 41)), (F3, range(16, 21))):
        irreducibles = [list(make_field(field.p, e).modulus) for e in (7, 8, 9, 10)]
        samples = [[field.random_element(rng) for _ in range(d)] + [field.one]
                   for d in degrees for _ in range(6)]
        samples += [list((Poly(field, f) * Poly(field, g)).coeffs) for f in irreducibles for g in irreducibles]
        samples += irreducibles
        for f in samples:
            assert poly_is_irreducible(field, f) == _irreducible_by_trial_division_or_rabin(field, f), f


@pytest.mark.parametrize("p, max_degree", [(2, 9), (3, 6), (5, 4), (7, 4)])
def test_ben_or_against_sympy(p, max_degree):
    gt = pytest.importorskip("sympy.polys.galoistools")
    ZZ = pytest.importorskip("sympy.polys.domains").ZZ
    field = field_from_q(p)
    rng = random.Random(p)
    for degree in range(1, max_degree + 1):
        for tail in itertools.product(range(p), repeat=degree):
            f = list(tail) + [1]
            assert poly_is_irreducible(field, f) == gt.gf_irreducible_p(_descending(f), p, ZZ), f
    for _ in range(100):  # not monic
        f = [rng.randrange(p) for _ in range(rng.randint(2, 12))] + [rng.randrange(1, p)]
        assert poly_is_irreducible(field, f) == gt.gf_irreducible_p(_descending(f), p, ZZ), f


def test_irreducibility_edge_cases():
    for field in (F2, F3, F4, field_from_q(9)):
        assert not poly_is_irreducible(field, [])
        assert not poly_is_irreducible(field, [field.one])
        assert not poly_is_irreducible(field, [field.zero, field.zero, field.one])
        assert not poly_is_irreducible(field, [field.zero, field.one, field.one, field.zero])
        assert poly_is_irreducible(field, [field.zero, field.one])


@pytest.mark.parametrize("p, e, modulus", [
    (2, 16, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)),
    (2, 17, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    (3, 10, (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)),
    (5, 7, (1, 0, 0, 0, 0, 0, 1, 1)),
])
def test_make_field_moduli_are_pinned(p, e, modulus):
    """The lexicographically smallest monic irreducibles, constant term
    first, as the trial-division routine found them."""
    assert make_field(p, e).modulus == modulus
