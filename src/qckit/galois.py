"""Exact arithmetic in prime fields, extension fields and quotient-ring
constituent fields.

Every field is a FieldSpec handle exposing ``zero``/``one`` and the
methods ``add``, ``sub``, ``neg``, ``mul``, ``inv``, ``pow``,
``conjugate``.  Every element is an int 0 .. q - 1, its index in the
field's counting order (see FieldSpec), so vectors and matrices are
tuples of ints and every element is usable as a dict key.  Outside this
module elements are only read through ``coeffs_of`` and ``base_coeffs``
and built through field methods, ``element_from_coeffs`` and
``from_base_coeffs``.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array

from .errors import (
    BadParameters,
    BoundExceeded,
    DivisionByZero,
    FieldMismatch,
    NotPrime,
)

DEFAULT_CARDINALITY_BOUND = 2 ** 20

# Hard ceiling for internally constructed extensions (splitting fields).
_EXTENSION_BOUND = 2 ** 22

# Extension fields up to TABLE_BOUND elements compute with log/exp tables,
# built with digitwise-sum tables of up to _DIGIT_SUM_BOUND entries.
TABLE_BOUND = 2 ** 16
_DIGIT_SUM_BOUND = 2 ** 17


def is_prime(n):
    """Primality by trial division; adequate at desk scale."""
    return n >= 2 and factorint(n) == {n: 1}


def factorint(n):
    """Prime factorization by trial division, as a {prime: exponent} dict."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def ensure_same_field(fa, fb):
    if fa != fb:
        raise FieldMismatch(f"operands belong to different fields: {fa} vs {fb}")


# ---------------------------------------------------------------------------
# Raw coefficient-vector arithmetic over an arbitrary field handle.
# Vectors are lists/tuples of subfield elements, ascending degree,
# not necessarily normalized.
# ---------------------------------------------------------------------------

def strip_raw(field, coeffs):
    c = list(coeffs)
    zero = field.zero
    while c and c[-1] == zero:
        c.pop()
    return c


def poly_add_raw(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = field.add
    for i, x in enumerate(b):
        out[i] = add(out[i], x)
    return strip_raw(field, out)


def poly_neg_raw(field, a):
    neg = field.neg
    return [neg(x) for x in a]


def poly_sub_raw(field, a, b):
    return poly_add_raw(field, a, poly_neg_raw(field, b))


def poly_mul_raw(field, a, b):
    a = strip_raw(field, a)
    b = strip_raw(field, b)
    if not a or not b:
        return []
    zero = field.zero
    add = field.add
    mul = field.mul
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return strip_raw(field, out)


def poly_divmod_raw(field, a, b):
    a = strip_raw(field, a)
    b = strip_raw(field, b)
    if not b:
        raise DivisionByZero("polynomial division by zero")
    zero = field.zero
    sub = field.sub
    mul = field.mul
    lead_inv = field.inv(b[-1])
    rem = list(a)
    if len(rem) < len(b):
        return [], rem
    quot = [zero] * (len(rem) - len(b) + 1)
    for shift in range(len(rem) - len(b), -1, -1):
        coef = rem[shift + len(b) - 1]
        if coef == zero:
            continue
        factor = mul(coef, lead_inv)
        quot[shift] = factor
        for i, bx in enumerate(b):
            rem[shift + i] = sub(rem[shift + i], mul(factor, bx))
    return strip_raw(field, quot), strip_raw(field, rem)


def poly_mod_raw(field, a, b):
    return poly_divmod_raw(field, a, b)[1]


def poly_monic_raw(field, a):
    a = strip_raw(field, a)
    if not a:
        return a
    if a[-1] == field.one:
        return list(a)
    inv = field.inv(a[-1])
    return [field.mul(inv, x) for x in a]


def poly_gcd_raw(field, a, b):
    a = strip_raw(field, a)
    b = strip_raw(field, b)
    while b:
        a, b = b, poly_mod_raw(field, a, b)
    return poly_monic_raw(field, a)


def poly_egcd_raw(field, a, b):
    """Extended gcd: returns (d, u, v) with u*a + v*b = d, d monic."""
    r0, r1 = strip_raw(field, a), strip_raw(field, b)
    s0, s1 = [field.one], []
    t0, t1 = [], [field.one]
    while r1:
        q, r = poly_divmod_raw(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub_raw(field, s0, poly_mul_raw(field, q, s1))
        t0, t1 = t1, poly_sub_raw(field, t0, poly_mul_raw(field, q, t1))
    if not r0:
        return [], s0, t0
    lead_inv = field.inv(r0[-1])
    scale = lambda c: [field.mul(lead_inv, x) for x in c]
    return scale(r0), scale(s0), scale(t0)


def poly_powmod_raw(field, base, exp, mod):
    """base^exp reduced mod the polynomial ``mod``, by square and multiply."""
    result = [field.one]
    b = poly_mod_raw(field, base, mod)
    while exp:
        if exp & 1:
            result = poly_mod_raw(field, poly_mul_raw(field, result, b), mod)
        exp >>= 1
        if exp:
            b = poly_mod_raw(field, poly_mul_raw(field, b, b), mod)
    return result


def poly_is_irreducible(field, coeffs):
    """Exact irreducibility test for a polynomial over a field handle.

    Uses exhaustive trial division when the candidate-divisor space is
    small, and the Frobenius fixed-point criterion (x^(q^d) = x mod f,
    with proper divisors excluded) otherwise.
    """
    c = strip_raw(field, coeffs)
    deg = len(c) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    half = deg // 2
    if field.q ** half <= 4096:
        one = field.one
        for d in range(1, half + 1):
            for tail in itertools.product(field.element_list(), repeat=d):
                cand = list(tail) + [one]
                if strip_raw(field, cand) != cand:
                    continue
                if not poly_mod_raw(field, c, cand):
                    return False
        return True
    x = [field.zero, field.one]
    t = list(x)
    for _ in range(deg):
        t = poly_powmod_raw(field, t, field.q, c)
    if strip_raw(field, poly_sub_raw(field, t, x)):
        return False
    for r in factorint(deg):
        t = list(x)
        for _ in range(deg // r):
            t = poly_powmod_raw(field, t, field.q, c)
        g = poly_gcd_raw(field, poly_sub_raw(field, t, x), c)
        if len(g) > 1:
            return False
    return True


def _poly_self_reciprocal_raw(field, coeffs):
    """True when the monic polynomial equals its monic reciprocal."""
    c = strip_raw(field, coeffs)
    if not c or c[0] == field.zero:
        return False
    inv0 = field.inv(c[0])
    recip = [field.mul(inv0, x) for x in reversed(c)]
    return recip == c


# ---------------------------------------------------------------------------
# Field handles
# ---------------------------------------------------------------------------

def _power(mul, a, n):
    """a^n for n >= 0 by square and multiply."""
    result = 1
    while n:
        if n & 1:
            result = mul(result, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return result


def _first_generator(q, mul, candidates):
    """The first of ``candidates`` of multiplicative order q - 1."""
    order = q - 1
    exponents = [order // r for r in factorint(order)]
    for a in candidates:
        if all(_power(mul, a, n) != 1 for n in exponents):
            return a
    raise RuntimeError(f"no multiplicative generator found in GF({q})")


def _digits(a, radix, count):
    """The ``count`` lowest digits of a in base ``radix``, lowest first."""
    out = []
    for _ in range(count):
        a, r = divmod(a, radix)
        out.append(r)
    return out


def _number(digits, radix):
    """Inverse of _digits."""
    a = 0
    for c in reversed(list(digits)):
        a = a * radix + c
    return a


def _digit_sums(p, k):
    """t[x * p^k + y] = the digitwise sum mod p of x and y, both below p^k."""
    table, n = [0], 1
    for _ in range(k):
        # x = xl + n * xh and y = yl + n * yh, with a new top digit xh, yh.
        table = [
            table[xl * n + yl] + n * ((xh + yh) % p)
            for xh in range(p) for xl in range(n)
            for yh in range(p) for yl in range(n)
        ]
        n *= p
    return table


class FieldSpec:
    """The finite field F_q, for prime and prime-power q.

    A prime field has ``base`` None.  Every other field is base[Y]/(f)
    for a monic irreducible ``modulus`` f of ``degree`` d over its base
    field: GF(p^e) from make_field is an extension of degree e of the
    prime field, and constituent and splitting fields from
    constituent_field are extensions of any field.

    Elements are the ints 0 .. q - 1 in counting order: the element
    b_0 + b_1 Y + ... + b_{d-1} Y^(d-1) is the int whose base-|base|
    digits are b_0, b_1, ...  Unfolding the digits down the tower, the
    base-p digits of an element are its coefficients over F_p.  A base
    element is the same int in the extension, and int order is the
    counting order.

    Fields built with ``constituent`` set carry the conjugation
    a -> a^(|base|^(d/2)) when f is self-reciprocal of even degree d,
    and the identity otherwise; other fields have the identity.
    """

    def __init__(self, p, base=None, modulus=None, constituent=False):
        self.p = self.char = p
        self.base = base
        self.zero, self.one = 0, 1
        self.constituent = constituent
        self.self_reciprocal = False
        self.conjugation_exponent = 1
        self._log = self._generator = None
        if base is None:
            self.modulus, self.degree, self.e, self.q = None, 1, 1, p
        else:
            self.modulus = tuple(modulus)
            self.degree = len(self.modulus) - 1
            self.e = base.e * self.degree
            self.q = base.q ** self.degree
            if constituent:
                self.self_reciprocal = _poly_self_reciprocal_raw(base, self.modulus)
                if self.self_reciprocal and self.degree % 2 == 0:
                    self.conjugation_exponent = base.q ** (self.degree // 2)
        self._key = (self.q, self.modulus, base, constituent)
        self._hash = hash(self._key)
        if self.e > 1:
            self._setup_arithmetic()

    # -- arithmetic ---------------------------------------------------------
    #
    # Prime fields, the hottest path, compute mod p inline.  Extension
    # fields call the functions _setup_arithmetic chose: log/exp tables
    # up to TABLE_BOUND elements, digit polynomials above it.

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return self._add(a, b)

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return self._sub(a, b)

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        return self._neg(a)

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        return self._mul(a, b)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self}")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._inv(a)

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        if a and self._log is not None:
            return self._exp[self._log[a] * n % (self.q - 1)]
        return _power(self.mul, a, n)

    def conjugate(self, a):
        if self.conjugation_exponent == 1:
            return a
        return self.pow(a, self.conjugation_exponent)

    def _setup_arithmetic(self):
        if self.p == 2:
            self._add = self._sub = operator.xor
        else:
            self._add, self._sub = self._digitwise(self.base.add), self._digitwise(self.base.sub)
        self._neg = lambda a: self._sub(0, a)
        self._mul, self._inv = self._digit_mul, self._digit_inv
        if self.q <= TABLE_BOUND:
            self._build_tables()

    # Digit-polynomial arithmetic: the only path above TABLE_BOUND, and
    # the reference the tables are built from and tested against.

    def _digitwise(self, op):
        """The binary operation applying ``op`` to each base coefficient."""
        base_q, coeffs = self.base.q, self.base_coeffs
        return lambda a, b: _number(map(op, coeffs(a), coeffs(b)), base_q)

    def _digit_mul(self, a, b):
        base, d, modulus = self.base, self.degree, self.modulus
        add, sub, mul = base.add, base.sub, base.mul
        prod = [0] * (2 * d - 1)
        y = self.base_coeffs(b)
        for i, xi in enumerate(self.base_coeffs(a)):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        prod[i + j] = add(prod[i + j], mul(xi, yj))
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:  # c Y^k = c Y^(k-d) (Y^d - f) + c Y^(k-d) f
                for j, fj in enumerate(modulus[:d]):
                    if fj:
                        prod[k - d + j] = sub(prod[k - d + j], mul(c, fj))
        return _number(prod[:d], base.q)

    def _digit_inv(self, a):
        return _power(self._digit_mul, a, self.q - 2)

    def _build_tables(self):
        """Log/exp tables from the powers of a generator g.

        exp holds g^i twice over (i < 2(q-1)), then zeros; log[0] points
        into the zeros, so products and negatives of 0 need no branch.
        In odd characteristic, Zech logarithms zech[n] = log(1 + g^n)
        give addition.
        """
        q, order = self.q, self.q - 1
        # Any generator will do.  Candidates run in a scrambled order, as
        # small ones often have small order (Y in a constituent of Y^m - 1).
        step = next(s for s in range(order * 5 // 8, order) if math.gcd(s, order) == 1)
        candidates = (1 + i * step % order for i in range(order))
        powers = self._powers_of(_first_generator(q, self._digit_mul, candidates))
        log = array("I", [0]) * q
        for i, a in enumerate(powers):
            log[a] = i
        log[0] = 2 * order
        exp = array("H", powers) * 2 + array("H", [0]) * (2 * order + 1)
        self._log, self._exp = log, exp
        self._mul = lambda a, b: exp[log[a] + log[b]]
        self._inv = lambda a: exp[order - log[a]]
        if self.p == 2:
            return
        p, half = self.p, order // 2
        zech = array("I", (log[a - a % p + (a + 1) % p] for a in powers))

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            return exp[la + zech[(log[b] - la) % order]]

        self._add = add
        self._neg = neg = lambda a: exp[log[a] + half]
        self._sub = lambda a, b: add(a, neg(b))

    def _powers_of(self, g):
        """[g^0, g^1, ..., g^(q-2)] for a generator g.

        Multiplication by g is F_p-linear on the base-p digits.  With an
        element split into a low half of k digits and a high half,
        a * g = (low * g) + (high * g): the images of all halves and the
        digitwise sum of two halves are tables.
        """
        p, q, order = self.p, self.q, self.q - 1
        k = (self.e + 1) // 2
        half = p ** k
        if half * half > _DIGIT_SUM_BOUND:
            powers = [1]
            while len(powers) < order:
                powers.append(self._digit_mul(powers[-1], g))
            return powers
        sums = _digit_sums(p, k)

        def plus(x, y):
            return sums[x % half * half + y % half] + half * sums[x // half * half + y // half]

        def images(unit, ndigits):
            """[(v * unit) * g for v < p^ndigits], by linearity."""
            out = [0]
            for j in range(ndigits):
                image = self._digit_mul(unit * p ** j, g)
                multiples = [0]
                for _ in range(p - 1):
                    multiples.append(plus(multiples[-1], image))
                out = [plus(m, x) for m in multiples for x in out]
            return out

        low, high = images(1, k), images(half, self.e - k)
        low_lo = [a % half * half for a in low]
        low_hi = [a // half * half for a in low]
        high_lo = [a % half for a in high]
        high_hi = [a // half for a in high]
        powers = array("H", [0]) * order
        lo, hi = 1, 0
        for i in range(order):
            powers[i] = lo + half * hi
            lo, hi = sums[low_lo[lo] + high_lo[hi]], sums[low_hi[lo] + high_hi[hi]]
        assert (lo, hi) == (1, 0), "generator powers do not close up"
        return powers

    # -- elements -----------------------------------------------------------

    def element_list(self):
        """All field elements in counting order."""
        if self.q > _EXTENSION_BOUND:
            raise BoundExceeded(f"cannot enumerate {self}: too large")
        return range(self.q)

    def random_element(self, rng):
        return rng.choice(self.element_list())

    def generator(self):
        """Smallest multiplicative generator in counting order."""
        if self._generator is None:
            self._generator = _first_generator(self.q, self.mul, range(1, self.q))
        return self._generator

    def coeffs_of(self, a):
        """Element as a list of e residues mod p: its base-p digits."""
        return _digits(a, self.p, self.e)

    def element_from_coeffs(self, coeffs):
        """Inverse of coeffs_of."""
        coeffs = list(coeffs)
        if len(coeffs) != self.e:
            raise FieldMismatch(f"{self} expects {self.e} coefficients, got {len(coeffs)}")
        if any(not isinstance(c, int) or not 0 <= c < self.p for c in coeffs):
            raise FieldMismatch(f"coefficients out of range for {self}: {coeffs}")
        return _number(coeffs, self.p)

    def base_coeffs(self, a):
        """Element as its d coefficients over the base field, ascending;
        the inverse of from_base_coeffs."""
        return _digits(a, self.base.q, self.degree)

    def from_base_coeffs(self, coeffs):
        """Element from a base-coefficient vector, reduced mod the modulus."""
        c = strip_raw(self.base, coeffs)
        if len(c) > self.degree:
            c = poly_mod_raw(self.base, c, list(self.modulus))
        return _number(c, self.base.q)

    def embed(self, b):
        """A base-field element: the same int in this field."""
        return b

    @property
    def y_class(self):
        """The class of Y in base[Y]/(f)."""
        if self.degree > 1:
            return self.base.q
        return self.base.neg(self.modulus[0])

    def y_inverse(self):
        return self.inv(self.y_class)

    def eval_base_poly(self, coeffs, point):
        """Evaluate at a field element (Horner) a polynomial whose
        coefficients lie in this field or in a field below it."""
        acc = 0
        for c in reversed(list(coeffs)):
            acc = self.add(self.mul(acc, point), c)
        return acc

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec) and self._key == other._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.constituent:
            return f"GF({self.q})[{self.base}/deg{self.degree}]"
        return f"GF({self.q})"


# Constituent and splitting fields are FieldSpec instances too.
ConstituentField = FieldSpec


_FIELD_CACHE = {}


def make_field(p, e=1, bound=DEFAULT_CARDINALITY_BOUND):
    """Construct (and cache) the field F_{p^e}.

    For e > 1 the modulus is the lexicographically smallest monic
    irreducible of degree e over F_p (constant term compared first).
    """
    key = (p, e)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        if cached.q > bound:
            raise BoundExceeded(f"{p}^{e} exceeds the cardinality bound {bound}")
        return cached
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not isinstance(e, int) or e < 1:
        raise BadParameters(f"extension degree must be >= 1, got {e}")
    if p ** e > bound:
        raise BoundExceeded(f"{p}^{e} exceeds the cardinality bound {bound}")
    if e == 1:
        field = FieldSpec(p)
    else:
        prime = make_field(p, 1)
        field = FieldSpec(p, prime, _smallest_irreducible(prime, e))
    _FIELD_CACHE[key] = field
    return field


def _smallest_irreducible(field, k):
    """The lexicographically smallest monic irreducible of degree k over
    ``field``, constant term compared first."""
    for low in itertools.product(field.element_list(), repeat=k):
        if poly_is_irreducible(field, list(low) + [field.one]):
            return list(low) + [field.one]
    raise RuntimeError(f"no irreducible of degree {k} over {field}")


def field_from_q(q, bound=DEFAULT_CARDINALITY_BOUND):
    """Resolve a prime power q to the field F_q (unique (p, e))."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    fac = factorint(q)
    if len(fac) != 1:
        raise NotPrime(f"{q} is not a prime power")
    ((p, e),) = fac.items()
    return make_field(p, e, bound=bound)


_CONSTITUENT_CACHE = {}


def constituent_field(base, modulus_coeffs):
    """Construct (and cache) base[Y]/(f) for a monic irreducible f."""
    modulus = tuple(modulus_coeffs)
    key = (base, modulus)
    field = _CONSTITUENT_CACHE.get(key)
    if field is None:
        d = len(modulus) - 1
        if d < 1 or modulus[-1] != base.one:
            raise FieldMismatch("constituent modulus must be monic of degree >= 1")
        if base.q ** d > _EXTENSION_BOUND:
            raise BoundExceeded(f"extension of degree {d} over {base} exceeds the bound")
        if not poly_is_irreducible(base, list(modulus)):
            raise FieldMismatch(f"modulus {modulus} is reducible over {base}")
        field = FieldSpec(base.p, base, modulus, constituent=True)
        _CONSTITUENT_CACHE[key] = field
    return field


def multiplicative_order(q, n):
    """The order of q in (Z/n)*; requires gcd(q, n) = 1."""
    k = 1
    t = q % n
    while t != 1:
        t = (t * q) % n
        k += 1
        if k > n:
            raise ValueError(f"{q} has no order mod {n}")
    return k


_EXTENSION_OF_CACHE = {}


def extension_of(field, k):
    """A degree-k extension of ``field`` with a deterministic modulus.

    Returns ``field`` itself for k = 1; otherwise the constituent field
    with the lexicographically smallest monic irreducible of degree k.
    """
    if k == 1:
        return field
    key = (field, k)
    ext = _EXTENSION_OF_CACHE.get(key)
    if ext is not None:
        return ext
    if field.q ** k > _EXTENSION_BOUND:
        raise BoundExceeded(f"degree-{k} extension of {field} exceeds the bound")
    ext = constituent_field(field, _smallest_irreducible(field, k))
    _EXTENSION_OF_CACHE[key] = ext
    return ext


def embedder(base, ext):
    """A function embedding ``base`` elements into ``ext``.

    ``ext`` is ``base`` itself or a field built over it, possibly through
    intermediate fields; a base element is the same int in ``ext``.
    """
    field = ext
    while field is not None:
        if field == base:
            return ext.embed
        field = field.base
    raise FieldMismatch(f"{ext} is not an extension of {base}")


def find_sqrt_minus_one(field):
    """Some gamma with gamma^2 + 1 = 0, by exhaustive enumeration.

    Returns 1 in characteristic 2; None when no such element exists.
    """
    if field.char == 2:
        return field.one
    minus_one = field.neg(field.one)
    for a in field.element_list():
        if field.mul(a, a) == minus_one:
            return a
    return None
