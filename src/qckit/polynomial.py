"""Univariate polynomials over a field handle, reciprocals, substitution
maps, and the classified factorization of Y^m - 1 behind the CRT
decomposition."""

from __future__ import annotations

import functools
import math

from . import galois
from .errors import (
    BadParameters,
    DivisionByZero,
    MultiplierNotCoprime,
    NotCoprime,
    ZeroConstantTerm,
    ZeroScalar,
    crosscheck,
)
from .galois import (
    ensure_same_field,
    poly_divmod_raw,
    poly_gcd_raw,
    strip_raw,
)
from .linear_code import _Basis


class Poly:
    """Dense univariate polynomial over a field handle.

    Coefficients are stored ascending-degree with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple and
    degree None (a sentinel, never -1 arithmetic).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(strip_raw(field, coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def unity_modulus(cls, field, n):
        """The polynomial x^n - 1."""
        coeffs = [field.neg(field.one)] + [field.zero] * (n - 1) + [field.one]
        return cls(field, coeffs)

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        inv = self.field.inv(self.coeffs[-1])
        return Poly(self.field, [self.field.mul(inv, c) for c in self.coeffs])

    def padded(self, length):
        """Coefficient list padded with zeros up to ``length`` entries."""
        return list(self.coeffs) + [self.field.zero] * (length - len(self.coeffs))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        ensure_same_field(self.field, other.field)

    def __add__(self, other):
        self._check(other)
        return Poly(self.field, galois.poly_add_raw(self.field, list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return Poly(self.field, galois.poly_sub_raw(self.field, list(self.coeffs), list(other.coeffs)))

    def __neg__(self):
        return Poly(self.field, galois.poly_neg_raw(self.field, list(self.coeffs)))

    def __mul__(self, other):
        self._check(other)
        return Poly(self.field, galois.poly_mul_raw(self.field, list(self.coeffs), list(other.coeffs)))

    def scale(self, c):
        return Poly(self.field, [self.field.mul(c, x) for x in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        q, r = poly_divmod_raw(self.field, list(self.coeffs), list(other.coeffs))
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __call__(self, point):
        """Evaluate by Horner's rule at an element of the owner field."""
        return self.field.eval_base_poly(self.coeffs, point)

    def divides(self, other):
        return (other % self).is_zero

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        return f"Poly({list(self.coeffs)!r} over {self.field})"


def poly_gcd(f, g):
    """Monic gcd of two polynomials."""
    f._check(g)
    return Poly(f.field, poly_gcd_raw(f.field, list(f.coeffs), list(g.coeffs)))


def poly_egcd(f, g):
    """Extended gcd: (d, u, v) with u*f + v*g = d and d monic."""
    f._check(g)
    d, u, v = galois.poly_egcd_raw(f.field, list(f.coeffs), list(g.coeffs))
    return Poly(f.field, d), Poly(f.field, u), Poly(f.field, v)


def reciprocal(f):
    """The monic reciprocal f(0)^(-1) x^deg(f) f(1/x)."""
    coeffs = galois._monic_reciprocal_raw(f.field, f.coeffs)
    if coeffs is None:
        raise ZeroConstantTerm("reciprocal requires a nonzero constant term")
    return Poly(f.field, coeffs)


def substitute_negate(f):
    """f(-x)."""
    return substitute_scale(f, f.field.neg(f.field.one))


def substitute_scale(f, lam):
    """f(lam * x) for a nonzero scalar lam."""
    field = f.field
    if lam == field.zero:
        raise ZeroScalar("substitution scalar must be nonzero")
    power = field.one
    out = []
    for c in f.coeffs:
        out.append(field.mul(power, c))
        power = field.mul(power, lam)
    return Poly(field, out)


def substitute_power(f, a, n):
    """f(x^a) reduced mod x^n - 1; requires gcd(a, n) = 1."""
    if math.gcd(a, n) != 1:
        raise MultiplierNotCoprime(f"multiplier {a} is not coprime to {n}")
    field = f.field
    out = [field.zero] * n
    for i, c in enumerate(f.coeffs):
        j = (i * a) % n
        out[j] = field.add(out[j], c)
    return Poly(field, out)


def cyclotomic_cosets(q, m):
    """The q-cyclotomic cosets mod m, each sorted, in order of minimum."""
    seen = set()
    cosets = []
    for i in range(m):
        if i in seen:
            continue
        coset = []
        j = i
        while j not in seen:
            seen.add(j)
            coset.append(j)
            j = (j * q) % m
        cosets.append(tuple(sorted(coset)))
    return cosets


class FactorClassification:
    """The factorization Y^m - 1 = delta * prod g_i * prod (h_j h_j*)
    over F_q, with the self-reciprocal factors and reciprocal pairs
    separated and deterministically ordered."""

    def __init__(self, field, m, delta, self_reciprocal, pairs):
        self.field = field
        self.q = field.q
        self.m = m
        self.delta = delta
        self.self_reciprocal = list(self_reciprocal)
        self.pairs = list(pairs)
        self.s = len(self.self_reciprocal)
        self.t = len(self.pairs)

    @property
    def r(self):
        """Total number of irreducible factors: s + 2t."""
        return self.s + 2 * self.t

    def all_factors(self):
        """Factors in canonical slot order: g_1..g_s, h_1, h_1*, ..."""
        out = list(self.self_reciprocal)
        for h, hstar in self.pairs:
            out.append(h)
            out.append(hstar)
        return out

    def verify_product(self):
        field = self.field  # the product on packed rows
        product = functools.reduce(functools.partial(galois._row_mul, field),
                                   [field.pack_row(f.coeffs) for f in self.all_factors()], self.delta)
        return product == field.pack_row(Poly.unity_modulus(field, self.m).coeffs)

    def __repr__(self):
        return (
            f"FactorClassification(q={self.q}, m={self.m}, s={self.s}, t={self.t})"
        )


def _coeff_sort_key(f):
    return (len(f.coeffs), f.coeffs)


def _cyclotomic(d):
    """The d-th cyclotomic polynomial over the integers, ascending: the
    product of (x^k - 1)^mu(d/k) over k | d.  For d > 1 the signs cancel,
    so it is the power series prod (1 - x^k)^mu(d/k) taken mod x^(d+1)."""
    if d == 1:
        return [-1, 1]
    terms = [(d, 1)]
    for p in galois.factorint(d):
        terms += [(k // p, -mu) for k, mu in terms]
    c = [1] + [0] * d
    for k, mu in terms:
        if mu == 1:  # times 1 - x^k
            for i in range(d, k - 1, -1):
                c[i] -= c[i - k]
        else:  # over 1 - x^k: times 1 + x^k + x^2k + ...
            for i in range(k, d + 1):
                c[i] += c[i - k]
    return c[:sum(mu * k for k, mu in terms) + 1]


def _fixed_basis(field, comp, count, order):
    """A basis of Berlekamp's fixed subalgebra {v : v^q = v} mod comp, a
    squarefree divisor of x^order - 1 with ``count`` irreducible factors, as
    packed rows: sums e_C of x^j over q-cyclotomic cosets C mod ``order``
    (e_C^q = e_C), added up from one packed ladder x^0 .. x^e mod comp, e | order
    the order of x, unit cosets first and the others only while the rank is short.
    The sums span the fixed subalgebra mod x^order - 1, which maps onto the one mod comp."""
    neg_comp = galois._negated_monic(field, field.pack_row(comp))[0]
    ladder = galois._row_ladder(field, neg_comp, order)
    crosscheck(ladder.pop() == 1 and order % len(ladder) == 0, "x^%d is not 1 modulo %s", order, comp)
    span, basis = _Basis(field, len(comp) - 1), []
    for coset in sorted(cyclotomic_cosets(field.q, order), key=lambda c: math.gcd(c[0], order) > 1):
        if len(basis) == count:
            break
        v = functools.reduce(field.row_add, [ladder[j % len(ladder)] for j in coset])
        if span.insert(v):
            basis.append(v)
    crosscheck(len(basis) == count,
               "Berlekamp subalgebra has dimension %d, expected %d factors", len(basis), count)
    return basis


def _equal_degree_split(field, comp, d, order):
    """Split a squarefree product of degree-d irreducibles dividing
    x^order - 1 (Phi_order, or x^m - 1 in the distinct-degree reference).

    Deterministic Berlekamp splitting: each fixed basis vector v splits every
    unsplit u into the gcd(v mod u - c, u) over the scalars c, each divided out.
    The pieces stay packed rows; only the factors are unpacked.
    """
    count = (len(comp) - 1) // d
    if count == 1:
        return [list(comp)]
    degree = lambda v: v.bit_length() - 1 >> field.lane_shift  # -1 for 0
    factors, scalars = [field.pack_row(comp)], field.element_list()
    for v in _fixed_basis(field, comp, count, order):
        if len(factors) == count:  # each piece is a product of degree-d factors
            break
        refined = []
        for u in factors:
            rest, w = u, (galois._row_divmod(field, v, galois._negated_monic(field, u)[0])[1] if degree(u) > d else 0)
            for c in scalars:
                if degree(rest) <= d or degree(w) <= 0:
                    break
                g = galois._row_gcd(field, rest, field.row_add(w, field.neg(c)))
                if g != 1:
                    refined.append(g)
                    rest = galois._row_divmod(field, rest, galois._negated_monic(field, g)[0])[0]
            if rest != 1:
                refined.append(rest)
        factors = refined
    degrees = [degree(u) for u in factors]
    crosscheck(degrees == [d] * count,
               "Berlekamp split gave degrees %s, expected %d factors of degree %d",
               degrees, count, d)
    return [galois._poly_of_row(field, u) for u in factors]


def factor_unity(field, m):
    """All monic irreducible factors of x^m - 1 over ``field``.

    x^m - 1 is the product of the cyclotomic polynomials Phi_d over d | m,
    and for gcd(d, q) = 1 Phi_d is a product of distinct irreducibles, all
    of degree ord_d(q) (Lidl and Niederreiter, Finite Fields, Thm 2.47);
    Berlekamp splitting separates them.
    """
    if not isinstance(m, int) or m < 1:
        raise BadParameters(f"m must be a positive integer, got {m!r}")
    if m % field.char == 0:
        raise NotCoprime(f"m={m} is not coprime to q={field.q}")
    factors = []
    for d in range(1, m + 1):
        if m % d == 0:
            phi = [c % field.char for c in _cyclotomic(d)]
            for c in _equal_degree_split(field, phi, galois.multiplicative_order(field.q, d), d):
                factors.append(Poly(field, c))
    return factors


def _is_irreducible_unity_factor(field, f, m):
    """Rabin's test (SIAM J. Comput. 9, 1980) for f of degree n: x^(q^n) = x mod f,
    and gcd(x^(q^(n/r)) - x, f) = 1 for each prime r | n.  Once x^m = 1 mod f,
    checked first as x having an order e | m mod f, x^(q^k) = x^(q^k mod e) mod f,
    so every power is read off one packed ladder x^0 .. x^e mod f."""
    n, row = len(f) - 1, field.pack_row(f)
    ladder = galois._row_ladder(field, galois._negated_monic(field, row)[0], m)
    e, minus_x = len(ladder) - 1, field.row_scale(ladder[1], field.neg(1))
    frobenius = lambda k: field.row_add(ladder[pow(field.q, k, e)], minus_x)
    return (ladder[e] == 1 and m % e == 0 and not frobenius(n)
            and all(galois._row_gcd(field, row, frobenius(n // r)) == 1 for r in galois.factorint(n)))


@functools.cache
def factor_cyclic_modulus(field, m):
    """The classified factorization of Y^m - 1 over F_q.

    Each factor is certified irreducible by Rabin's test, independently of
    Berlekamp's split; the product and the q-cyclotomic coset count are checked.
    Factor lists are sorted by (degree, coefficients) and within each
    reciprocal pair the lexicographically smaller partner comes first,
    so the classification is deterministic across runs.
    """
    factors = factor_unity(field, m)
    selfrec = []
    pairs = []
    paired = set()
    by_key = {f.coeffs: f for f in factors}
    for f in factors:
        if f.coeffs in paired:
            continue
        fstar = reciprocal(f)
        if fstar == f:
            selfrec.append(f)
            paired.add(f.coeffs)
        else:
            partner = by_key.get(fstar.coeffs)
            crosscheck(partner is not None, "reciprocal partner of %s missing", f)
            lo, hi = sorted((f, partner), key=_coeff_sort_key)
            pairs.append((lo, hi))
            paired.add(f.coeffs)
            paired.add(partner.coeffs)
    selfrec.sort(key=_coeff_sort_key)
    pairs.sort(key=lambda p: _coeff_sort_key(p[0]))
    classification = FactorClassification(field, m, field.one, selfrec, pairs)
    for f in classification.all_factors():
        crosscheck(f.is_monic and _is_irreducible_unity_factor(field, f.coeffs, m),
                   "factor %s is not monic irreducible", f)
    crosscheck(classification.verify_product(), "the factors do not multiply to Y^%d - 1", m)
    cosets = len(cyclotomic_cosets(field.q, m))
    crosscheck(classification.r == cosets,
               "%d factors of Y^%d - 1, but %d cyclotomic cosets", classification.r, m, cosets)
    return classification
