"""Univariate polynomials over a field handle, reciprocals, substitution
maps, and the classified factorization of Y^m - 1 behind the CRT
decomposition."""

from __future__ import annotations

import math

from . import galois
from .errors import (
    DivisionByZero,
    FieldMismatch,
    MultiplierNotCoprime,
    NotCoprime,
    ZeroConstantTerm,
    ZeroScalar,
)
from .galois import (
    ensure_same_field,
    extension_of,
    multiplicative_order,
    poly_divmod_raw,
    poly_gcd_raw,
    poly_is_irreducible,
    poly_mod_raw,
    poly_powmod_raw,
    strip_raw,
)
from .linear_code import kernel_basis, rref


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
    if f.is_zero:
        raise ZeroConstantTerm("reciprocal of the zero polynomial")
    if f.coeffs[0] == f.field.zero:
        raise ZeroConstantTerm("reciprocal requires a nonzero constant term")
    inv0 = f.field.inv(f.coeffs[0])
    return Poly(f.field, [f.field.mul(inv0, c) for c in reversed(f.coeffs)])


def is_self_reciprocal(f):
    return not f.is_zero and f.coeffs[0] != f.field.zero and reciprocal(f) == f


def substitute_negate(f):
    """f(-x)."""
    field = f.field
    minus_one = field.neg(field.one)
    sign = field.one
    out = []
    for c in f.coeffs:
        out.append(field.mul(sign, c))
        sign = field.mul(sign, minus_one)
    return Poly(field, out)


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
        prod = Poly.constant(self.field, self.delta)
        for f in self.all_factors():
            prod = prod * f
        return prod == Poly.unity_modulus(self.field, self.m)

    def __repr__(self):
        return (
            f"FactorClassification(q={self.q}, m={self.m}, s={self.s}, t={self.t})"
        )


def _coeff_sort_key(f):
    return (len(f.coeffs), f.coeffs)


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
        comp = poly_gcd_raw(field, galois.poly_sub_raw(field, h, x), remaining)
        if len(comp) > 1:
            parts.append((d, comp))
            remaining = poly_divmod_raw(field, remaining, comp)[0]
            h = poly_mod_raw(field, h, remaining)
        if 2 * (d + 1) > len(remaining) - 1 and len(remaining) - 1 > 0:
            parts.append((len(remaining) - 1, remaining))
            remaining = [field.one]
    return parts


def _equal_degree_split(field, comp, d):
    """Split a squarefree product of degree-d irreducibles.

    Deterministic Berlekamp splitting: compute a basis of the
    Frobenius-fixed subalgebra mod the component, then refine with
    gcd(u, v - c) over all scalars c.
    """
    deg = len(comp) - 1
    count = deg // d
    if count == 1:
        return [list(comp)]
    zero, one = field.zero, field.one
    xq = poly_powmod_raw(field, [zero, one], field.q, comp)
    frob_rows = []
    cur = [one]
    for _ in range(deg):
        frob_rows.append(list(cur) + [zero] * (deg - len(cur)))
        cur = poly_mod_raw(field, galois.poly_mul_raw(field, cur, xq), comp)
    # v is fixed iff sum_i v_i * frob_rows[i] = v, i.e. v (R - I) = 0;
    # solve as the right kernel of (R - I) transposed.
    mt = [
        [field.sub(frob_rows[i][j], one) if i == j else frob_rows[i][j] for i in range(deg)]
        for j in range(deg)
    ]
    basis = kernel_basis(field, *rref(field, mt, deg), deg)
    assert len(basis) == count, "Berlekamp subalgebra dimension mismatch"
    factors = [list(comp)]
    scalars = field.element_list()
    for v in basis:
        vp = strip_raw(field, v)
        if len(vp) <= 1:
            continue
        if all(len(u) - 1 == d for u in factors):
            break
        refined = []
        for u in factors:
            if len(u) - 1 == d:
                refined.append(u)
                continue
            pieces = []
            for c in scalars:
                g = poly_gcd_raw(field, galois.poly_sub_raw(field, vp, [c]), u)
                if len(g) > 1:
                    pieces.append(g)
            refined.extend(pieces if len(pieces) > 1 else [u])
        factors = refined
    assert len(factors) == count
    assert all(len(u) - 1 == d for u in factors)
    return factors


def factor_unity(field, m):
    """All monic irreducible factors of x^m - 1 over ``field``.

    Distinct-degree splitting via gcd with x^(q^d) - x, then root-orbit
    splitting within each distinct-degree component.
    """
    if m % field.char == 0:
        raise NotCoprime(f"m={m} is not coprime to q={field.q}")
    f = Poly.unity_modulus(field, m)
    factors = []
    for d, comp in _distinct_degree_split(field, f):
        for c in _equal_degree_split(field, comp, d):
            factors.append(Poly(field, c))
    return factors


_FACTOR_CACHE = {}


def factor_cyclic_modulus(field, m):
    """The classified factorization of Y^m - 1 over F_q.

    Factor lists are sorted by (degree, coefficients) and within each
    reciprocal pair the lexicographically smaller partner comes first,
    so the classification is deterministic across runs.
    """
    key = (field, m)
    cached = _FACTOR_CACHE.get(key)
    if cached is not None:
        return cached
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
            assert partner is not None, "reciprocal partner missing"
            lo, hi = sorted((f, partner), key=_coeff_sort_key)
            pairs.append((lo, hi))
            paired.add(f.coeffs)
            paired.add(partner.coeffs)
    selfrec.sort(key=_coeff_sort_key)
    pairs.sort(key=lambda p: _coeff_sort_key(p[0]))
    classification = FactorClassification(field, m, field.one, selfrec, pairs)
    for f in classification.all_factors():
        assert f.is_monic and poly_is_irreducible(field, list(f.coeffs))
    assert classification.verify_product(), "factor product check failed"
    assert classification.r == len(cyclotomic_cosets(field.q, m))
    _FACTOR_CACHE[key] = classification
    return classification
