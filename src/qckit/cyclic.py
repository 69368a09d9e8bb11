"""Cyclic codes as generator-polynomial objects: duals, defining sets,
multiplier action and equivalence, reciprocal/scaling equivalences and
the length-2s isodual constructions."""

from __future__ import annotations

import functools
import math
import operator

from . import galois
from . import linear_code as lc
from .errors import (
    BadParameters,
    DualMismatch,
    MultiplierNotCoprime,
    NotCoprime,
    NotCofactors,
    NotDivisor,
    NotRootOfUnity,
    crosscheck,
)
from .polynomial import (
    Poly,
    cyclotomic_cosets,
    factor_cyclic_modulus,
    poly_gcd,
    reciprocal,
    substitute_negate,
    substitute_power,
    substitute_scale,
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
            field, n, g = self.field, self.n, self.g.row
            rows = (field.rotate_row(g, i, n) for i in range(self.k))
            code = lc.LinearCode._from_basis(lc._Basis(field, n, rows))
            crosscheck(code.shift_invariant(1), "not shift invariant")
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


@functools.cache
def _root_powers(field, n):
    """alpha^0 .. alpha^(n-1) as packed rows of F_q[x]/(f0), for the canonical
    primitive n-th root alpha: the class of x modulo f0, the first factor of
    Y^n - 1 in slot order modulo which x has order exactly n.  Each factor's
    ladder stops at its order, so the factors before f0 cost their orders."""
    ladders = (galois._row_ladder(field, galois._negated_monic(field, f.row)[0], n)
               for f in factor_cyclic_modulus(field, n).all_factors())
    powers = next((ladder for ladder in ladders if len(ladder) > n), [0])
    crosscheck(powers.pop() == 1, "x has order %d modulo no factor of Y^%d - 1", n, n)
    return tuple(powers)


def _zeros(field, n, coeffs, c):
    """{i : g(alpha^(c i)) = 0} for g over F_q, sorted, g(alpha^k) summed as
    g_j alpha^(jk mod n) on the root powers.  The set is closed under
    i -> q i (g(b^q) = g(b)^q), so g is evaluated once per q-cyclotomic coset."""
    powers, add, axpy = _root_powers(field, n), field.row_add, field.row_axpy

    def value(k):
        v = 0
        for j, gj in enumerate(coeffs):
            if gj:
                v = add(v, powers[j * k % n]) if gj == 1 else axpy(v, gj, powers[j * k % n])
        return v

    return sorted(i for coset in cyclotomic_cosets(field.q, n) if not value(c * coset[0]) for i in coset)


@functools.cache
def factor_exponents(field, n):
    """Map irreducible-factor coefficients -> root exponents {i : f(alpha^i)=0}."""
    table = {}
    for f in factor_cyclic_modulus(field, n).all_factors():
        exps = frozenset(_zeros(field, n, f.coeffs, 1))
        crosscheck(len(exps) == f.degree, "%s has %d roots, expected %d", f, len(exps), f.degree)
        table[f.coeffs] = exps
    return table


def defining_set(code, alpha_power=1):
    """{i : g(alpha^i) = 0} for the canonical primitive n-th root alpha, the
    class of x modulo the first factor of x^n - 1 (slot order of
    factor_cyclic_modulus) modulo which x has order n.

    ``alpha_power`` replaces alpha by alpha^c (c coprime to n), used to
    confirm that multiplier results do not depend on the root choice.
    """
    if not code.squarefree:
        raise NotCoprime(f"n={code.n} is not coprime to q={code.field.q}")
    if alpha_power == 1 and code._defining_set is not None:
        return code._defining_set
    if math.gcd(alpha_power, code.n) != 1:
        raise MultiplierNotCoprime(f"alpha power {alpha_power} not coprime to {code.n}")
    result = tuple(_zeros(code.field, code.n, code.g.coeffs, alpha_power))
    crosscheck(len(result) == (code.g.degree or 0), "defining set of %s has the wrong size", code.g)
    if alpha_power == 1:
        code._defining_set = result
    return result


def _generator_from_defining_set(field, n, exps):
    """Monic divisor of x^n - 1 whose root-exponent set is ``exps``."""
    table = factor_exponents(field, n)
    parts = [f for f in factor_cyclic_modulus(field, n).all_factors() if table[f.coeffs] <= exps]
    crosscheck(set().union(*(table[f.coeffs] for f in parts)) == exps, "defining set is not a union of cosets")
    return functools.reduce(operator.mul, parts, Poly.one(field))


def multiplier_apply(code, a):
    """The image of the code under the multiplier x -> x^a.

    Computes both the generator-polynomial route (gcd with x^n - 1 of
    g(x^a)) and the defining-set route (T -> a^-1 T) and checks that
    they agree.
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
    crosscheck(route1 == route2, "multiplier routes disagree")
    return CyclicCode(field, n, route1)


def multiplier_equivalent(code_a, code_b):
    """Smallest a in (Z/n)* with mu_a(code_a) = code_b, or None."""
    galois.ensure_same_field(code_a.field, code_b.field)
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
    crosscheck(lc.apply_monomial(code.to_linear(), witness) == target.to_linear(),
               "reciprocal witness failed verification")
    return target, witness


def scale_code(code, lam):
    """(<monic g(lam x)>, diagonal witness lam^i), for lam with lam^n = 1."""
    field = code.field
    if lam == field.zero:
        raise NotRootOfUnity("scaling by zero")
    if field.pow(lam, code.n) != field.one:
        raise NotRootOfUnity(f"{lam} is not an n-th root of unity")
    target = cyclic_make(field, code.n, substitute_scale(code.g, lam).monic())
    diag = []
    power = field.one
    for _ in range(code.n):
        diag.append(power)
        power = field.mul(power, lam)
    witness = lc.MonomialMap.diagonal(diag)
    crosscheck(lc.apply_monomial(code.to_linear(), witness) == target.to_linear(),
               "scaling witness failed verification")
    return target, witness


def cofactor_dual_equivalence(g, f, n):
    """Witness mapping <g> onto the dual of <f> when g*f = x^n - 1."""
    field = g.field
    galois.ensure_same_field(field, f.field)
    if g * f != Poly.unity_modulus(field, n):
        raise NotCofactors("g*f must equal x^n - 1")
    code = cyclic_make(field, n, g.monic())
    cofactor_code = cyclic_make(field, n, f.monic())
    target = cyclic_dual(cofactor_code)
    _, witness = reciprocal_code(code)
    crosscheck(lc.apply_monomial(code.to_linear(), witness) == target.to_linear(),
               "cofactor-dual witness failed verification")
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
    crosscheck(code.k == s, "dimension %d, expected %d", code.k, s)
    perm = tuple((n - i) % n for i in range(n))
    minus_one = field.neg(field.one)
    diag = []
    sign = field.one
    for _ in range(n):
        diag.append(sign)
        sign = field.mul(sign, minus_one)
    witness = lc.MonomialMap(n, perm, diag)
    expanded = code.to_linear()
    crosscheck(lc.apply_monomial(expanded, witness) == lc.euclidean_dual(expanded),
               "isodual witness failed verification")
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
    for v in code.rows:
        g = poly_gcd(g, Poly._of_row(field, v))
    if g.is_zero:
        return CyclicCode(field, n, unity) if code.k == 0 else None
    candidate = CyclicCode(field, n, g.monic())
    if candidate.k != code.k or candidate.to_linear() != code:
        return None
    return candidate
