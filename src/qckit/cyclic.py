"""Cyclic codes as generator-polynomial objects: duals, defining sets,
multiplier action and equivalence, reciprocal/scaling equivalences and
the length-2s isodual constructions."""

from __future__ import annotations

import math

from . import linear_code as lc
from .errors import (
    BadParameters,
    DualMismatch,
    MultiplierNotCoprime,
    NotCoprime,
    NotCofactors,
    NotDivisor,
    NotRootOfUnity,
)
from .galois import ensure_same_field, extension_of, multiplicative_order
from .polynomial import (
    Poly,
    factor_cyclic_modulus,
    poly_gcd,
    reciprocal,
    substitute_negate,
    substitute_power,
)


class CyclicCode:
    """A cyclic code of length n generated by a monic divisor of x^n - 1.

    ``squarefree`` records whether gcd(n, q) = 1; defining sets and
    multiplier actions are only available in that case.  Repeated-root
    lengths are accepted so the characteristic-2 reading of the
    length-2s constructions stays representable.
    """

    __slots__ = ("field", "n", "g", "k", "squarefree", "_linear", "_defining_set")

    def __init__(self, field, n, g):
        self.field = field
        self.n = n
        self.g = g
        self.k = n - (g.degree if g.degree is not None else 0)
        self.squarefree = n % field.char != 0
        self._linear = None
        self._defining_set = None

    def to_linear(self):
        """The expanded generator matrix (rows x^i * g) in canonical form."""
        if self._linear is None:
            field = self.field
            rows = []
            gc = self.g.padded(self.n)
            for i in range(self.k):
                rows.append(tuple(gc[-i:] + gc[:-i] if i else gc))
            code = lc.LinearCode(field, self.n, rows)
            shifted = [tuple(r[-1:]) + tuple(r[:-1]) for r in code.gen]
            assert all(code.contains(r) for r in shifted), "not shift invariant"
            self._linear = code
        return self._linear

    def __eq__(self, other):
        return (
            isinstance(other, CyclicCode)
            and self.field == other.field
            and self.n == other.n
            and self.g == other.g
        )

    def __hash__(self):
        return hash((self.field, self.n, self.g))

    def __repr__(self):
        return f"CyclicCode[n={self.n}, k={self.k}] over {self.field}"


def cyclic_make(field, n, g):
    """Validate g | x^n - 1 and build the cyclic code it generates."""
    if not isinstance(g, Poly) or g.field != field:
        raise NotDivisor("generator must be a polynomial over the code field")
    if g.is_zero or not g.is_monic:
        raise NotDivisor("generator must be monic and nonzero")
    unity = Poly.unity_modulus(field, n)
    if not (unity % g).is_zero:
        raise NotDivisor(f"{g!r} does not divide x^{n} - 1")
    return CyclicCode(field, n, g)


def cyclic_dual(code):
    """The dual code <h*> with h = (x^n - 1)/g, kernel cross-checked."""
    field = code.field
    unity = Poly.unity_modulus(field, code.n)
    h = unity // code.g
    dual = cyclic_make(field, code.n, reciprocal(h).monic())
    if dual.to_linear() != lc.euclidean_dual(code.to_linear()):
        raise DualMismatch("generator-polynomial dual disagrees with the kernel dual")
    return dual


_SPLITTING_CACHE = {}


def _splitting_data(field, n):
    """Splitting field and canonical primitive n-th root alpha."""
    key = (field, n)
    data = _SPLITTING_CACHE.get(key)
    if data is None:
        order = multiplicative_order(field.q, n)
        ext = extension_of(field, order)
        beta = ext.generator()
        alpha = ext.pow(beta, (ext.q - 1) // n)
        data = (ext, alpha)
        _SPLITTING_CACHE[key] = data
    return data


_FACTOR_EXPONENTS_CACHE = {}


def factor_exponents(field, n):
    """Map irreducible-factor coefficients -> root exponents {i : f(alpha^i)=0}."""
    key = (field, n)
    table = _FACTOR_EXPONENTS_CACHE.get(key)
    if table is None:
        ext, alpha = _splitting_data(field, n)
        powers = []
        point = ext.one
        for _ in range(n):
            powers.append(point)
            point = ext.mul(point, alpha)
        table = {}
        for f in factor_cyclic_modulus(field, n).all_factors():
            exps = frozenset(
                i for i, pt in enumerate(powers)
                if ext.eval_base_poly(f.coeffs, pt) == ext.zero
            )
            assert len(exps) == f.degree
            table[f.coeffs] = exps
        _FACTOR_EXPONENTS_CACHE[key] = table
    return table


def defining_set(code, alpha_power=1):
    """{i : g(alpha^i) = 0} for the canonical primitive n-th root alpha.

    ``alpha_power`` replaces alpha by alpha^c (c coprime to n), used to
    confirm that multiplier results do not depend on the root choice.
    """
    if not code.squarefree:
        raise NotCoprime(f"n={code.n} is not coprime to q={code.field.q}")
    if alpha_power == 1 and code._defining_set is not None:
        return code._defining_set
    if math.gcd(alpha_power, code.n) != 1:
        raise MultiplierNotCoprime(f"alpha power {alpha_power} not coprime to {code.n}")
    ext, alpha = _splitting_data(code.field, code.n)
    root = ext.pow(alpha, alpha_power)
    out = []
    point = ext.one
    for i in range(code.n):
        if ext.eval_base_poly(code.g.coeffs, point) == ext.zero:
            out.append(i)
        point = ext.mul(point, root)
    result = tuple(out)
    assert len(result) == (code.g.degree or 0)
    if alpha_power == 1:
        code._defining_set = result
    return result


def _generator_from_defining_set(field, n, exps):
    """Monic divisor of x^n - 1 whose root-exponent set is ``exps``."""
    table = factor_exponents(field, n)
    g = Poly.one(field)
    covered = set()
    classification = factor_cyclic_modulus(field, n)
    for f in classification.all_factors():
        fe = table[f.coeffs]
        if fe <= exps:
            g = g * f
            covered |= fe
    assert covered == set(exps), "defining set is not a union of cosets"
    return g


def multiplier_apply(code, a):
    """The image of the code under the multiplier x -> x^a.

    Computes both the generator-polynomial route (gcd with x^n - 1 of
    g(x^a)) and the defining-set route (T -> a^-1 T) and asserts they
    agree.
    """
    n = code.n
    if math.gcd(a, n) != 1:
        raise MultiplierNotCoprime(f"multiplier {a} is not coprime to {n}")
    if not code.squarefree:
        raise NotCoprime(f"n={n} is not coprime to q={code.field.q}")
    field = code.field
    unity = Poly.unity_modulus(field, n)
    route1 = poly_gcd(unity, substitute_power(code.g, a % n, n))
    a_inv = pow(a, -1, n)
    shifted = frozenset((a_inv * i) % n for i in defining_set(code))
    route2 = _generator_from_defining_set(field, n, shifted)
    assert route1 == route2, "multiplier routes disagree"
    return CyclicCode(field, n, route1)


def multiplier_equivalent(code_a, code_b):
    """Smallest a in (Z/n)* with mu_a(code_a) = code_b, or None."""
    ensure_same_field(code_a.field, code_b.field)
    if code_a.n != code_b.n:
        return None
    if code_a.k != code_b.k:
        return None
    n = code_a.n
    for a in range(1, n + 1):
        if math.gcd(a, n) != 1:
            continue
        if multiplier_apply(code_a, a).g == code_b.g:
            return a
    return None


def reciprocal_code(code):
    """(<g*>, witness i -> -i mod n), witness verified on row spaces."""
    field = code.field
    n = code.n
    target = cyclic_make(field, n, reciprocal(code.g).monic())
    perm = tuple((n - i) % n for i in range(n))
    witness = lc.MonomialMap.permutation(field, perm)
    if lc.apply_monomial(code.to_linear(), witness) != target.to_linear():
        raise DualMismatch("reciprocal witness failed verification")
    return target, witness


def scale_code(code, lam):
    """(<monic g(lam x)>, diagonal witness lam^i), for lam with lam^n = 1."""
    field = code.field
    if lam == field.zero:
        raise NotRootOfUnity("scaling by zero")
    if field.pow(lam, code.n) != field.one:
        raise NotRootOfUnity(f"{lam} is not an n-th root of unity")
    from .polynomial import substitute_scale

    target = cyclic_make(field, code.n, substitute_scale(code.g, lam).monic())
    diag = []
    power = field.one
    for _ in range(code.n):
        diag.append(power)
        power = field.mul(power, lam)
    witness = lc.MonomialMap.diagonal(diag)
    if lc.apply_monomial(code.to_linear(), witness) != target.to_linear():
        raise DualMismatch("scaling witness failed verification")
    return target, witness


def cofactor_dual_equivalence(g, f, n):
    """Witness mapping <g> onto the dual of <f> when g*f = x^n - 1."""
    field = g.field
    ensure_same_field(field, f.field)
    if g * f != Poly.unity_modulus(field, n):
        raise NotCofactors("g*f must equal x^n - 1")
    code = cyclic_make(field, n, g.monic())
    cofactor_code = cyclic_make(field, n, f.monic())
    target = cyclic_dual(cofactor_code)
    _, witness = reciprocal_code(code)
    if lc.apply_monomial(code.to_linear(), witness) != target.to_linear():
        raise DualMismatch("cofactor-dual witness failed verification")
    return witness


def construct_isodual_cyclic(field, s, variant):
    """A length-2s cyclic code of dimension s plus a verified monomial
    witness onto its Euclidean dual.

    Variant A generates by (x-1)f(-x) and variant B by (x+1)f(x) where
    x^s - 1 = (x-1)f(x).  In characteristic 2 the variants coincide.
    """
    if variant not in ("A", "B"):
        raise BadParameters(f"variant must be 'A' or 'B', got {variant!r}")
    if s < 1 or s % 2 == 0:
        raise BadParameters(f"s must be odd and positive, got {s}")
    if s % field.char == 0:
        raise BadParameters(f"s={s} is not coprime to the characteristic")
    one = Poly.one(field)
    x = Poly.x(field)
    x_minus_1 = x - one
    x_plus_1 = x + one
    f = Poly.unity_modulus(field, s) // x_minus_1
    if variant == "A":
        g = (x_minus_1 * substitute_negate(f)).monic()
    else:
        g = (x_plus_1 * f).monic()
    n = 2 * s
    code = cyclic_make(field, n, g)
    assert code.k == s
    perm = tuple((n - i) % n for i in range(n))
    minus_one = field.neg(field.one)
    diag = []
    sign = field.one
    for _ in range(n):
        diag.append(sign)
        sign = field.mul(sign, minus_one)
    witness = lc.MonomialMap(n, perm, diag)
    expanded = code.to_linear()
    if lc.apply_monomial(expanded, witness) != lc.euclidean_dual(expanded):
        raise DualMismatch("isodual witness failed verification")
    return code, witness


def from_linear_code(code):
    """Recover the generator polynomial of a shift-invariant code.

    Returns the cyclic code, or None if the row space is not an ideal
    of field[x]/(x^n - 1).
    """
    field = code.field
    n = code.n
    unity = Poly.unity_modulus(field, n)
    g = unity
    for row in code.gen:
        g = poly_gcd(g, Poly(field, row))
    if g.is_zero:
        return CyclicCode(field, n, unity) if code.k == 0 else None
    candidate = CyclicCode(field, n, g.monic())
    if candidate.k != code.k or candidate.to_linear() != code:
        return None
    return candidate
