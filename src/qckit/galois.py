"""Exact arithmetic in prime fields, extension fields and quotient-ring
constituent fields.

Every field is a FieldSpec handle exposing ``zero``/``one``, one
callable per operation ``add``, ``sub``, ``neg``, ``mul``, bound on the
field when it is built (and rebound once if it builds log/exp tables),
the methods ``inv``, ``pow``, ``conjugate`` (Y -> Y^-1, built by
``reciprocal_map``), and a codec of rows packed into ints (see rows).
Every element is an int 0 .. q - 1, its index in the field's counting
order (see FieldSpec), so vectors and matrices are tuples of ints and
every element is usable as a dict key.  Outside this
module elements are only read through ``coeffs_of``, ``coeffs_of_row``
and ``base_coeffs`` and built through field operations,
``element_from_coeffs``, ``row_from_coeffs`` and ``from_base_coeffs``;
the row pair converts a whole row at once.

A polynomial is a row of the same codec, coefficient j in lane j: one
product and one division kernel serve every field, behind the list-in,
list-out ``poly_*_raw`` functions and an extension field's digit product.
"""

from __future__ import annotations

import functools
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
    crosscheck,
)

DEFAULT_CARDINALITY_BOUND = 2 ** 20

# Only a walk over a field (listing it, a generator search) is refused above this size.
_ENUMERATION_BOUND = 2 ** 22

# Extension fields up to TABLE_BOUND elements build log/exp tables once their
# products pay for them, with digitwise-sum tables of up to _DIGIT_SUM_BOUND entries.
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
# Packed vectors: every field packs a row into one int, entry j in lane j
# (FieldSpec._setup_rows).  Over GF(2) a lane is one bit, pack_bits below,
# and an element over a GF(2) base is its row of base coefficients in this
# form.  Outside this module rows go through the field's row codec only.
# ---------------------------------------------------------------------------

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def pack_bits(coeffs):
    """A vector over GF(2) as an int whose bit j is entry j."""
    return int(bytes(coeffs).translate(_TO_DIGITS)[::-1] or b"0", 2)


def unpack_bits(v, n):
    """The n entries of a packed GF(2) vector v < 2^n, as a list of 0/1;
    the inverse of pack_bits."""
    # The bit set at n makes bin() print exactly n digits after "0b1".
    return list(bin(v | 1 << n)[3:].encode().translate(_FROM_DIGITS)[::-1])


def rotate_bits(v, d, n):
    """The packed vector v < 2^n with entry i moved to i + d (mod n), 0 <= d <= n."""
    return (v << d | v >> (n - d)) & ((1 << n) - 1)


def _residue_gf2(v, rows, mask):
    """The GF(2) row_residue: XOR rows[b] for the lowest bit b of v in mask until none is left."""
    hit = v & mask
    while hit:
        v ^= rows[(hit & -hit).bit_length() - 1]
        hit = v & mask
    return v


# ---------------------------------------------------------------------------
# Raw coefficient-vector arithmetic over an arbitrary field handle.
# Vectors are lists/tuples of subfield elements, ascending degree,
# not necessarily normalized.  Each function packs them with the field's
# row codec and works through _row_mul and _row_divmod, which see the field
# only through the codec: over GF(2) a step is a shift and an XOR, over
# byte lanes one translate and one row add.
# ---------------------------------------------------------------------------

def strip_raw(field, coeffs):
    """The coefficients as a new list, without trailing zeros.

    Most inputs end in a nonzero coefficient and cost one test; the rest
    take one backward scan for the last nonzero coefficient and one cut.
    """
    c = list(coeffs)
    zero = field.zero
    if c and c[-1] == zero:
        end = len(c) - 1
        while end and c[end - 1] == zero:
            end -= 1
        del c[end:]
    return c


def poly_add_raw(field, a, b):
    return _poly_of_row(field, field.row_add(field.pack_row(a), field.pack_row(b)))


def poly_neg_raw(field, a):
    neg = field.neg
    return [neg(x) for x in a]


def poly_sub_raw(field, a, b):
    return poly_add_raw(field, a, poly_neg_raw(field, b))


def _row_mul(field, a, b):
    """The product of two polynomials packed as rows of the field's codec:
    for each nonzero lane of the shorter one, the other shifted to that
    lane and added times it (row_axpy)."""
    if a.bit_length() > b.bit_length():
        a, b = b, a
    width, mask, add, axpy = 1 << field.lane_shift, field.lane_mask, field.row_add, field.row_axpy
    out = offset = 0
    while a:
        c = a & mask
        if c:
            out = add(out, b << offset) if c == 1 else axpy(out, c, b << offset)
        a >>= width
        offset += width
    return out


def _negated_monic(field, b):
    """(-b / lead(b), 1 / lead(b)) for a polynomial b packed as a row."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    lead = b >> (b.bit_length() - 1 >> field.lane_shift << field.lane_shift)
    lead_inv = 1 if lead == 1 else field.inv(lead)
    c = field.neg(lead_inv)
    return (b if c == 1 else field.row_scale(b, c)), lead_inv


def _row_divmod(field, a, neg_monic):
    """(quotient, remainder) of two polynomials packed as rows, the divisor
    monic and given negated: while the remainder's degree is at least the
    divisor's, add the multiple of neg_monic that clears its top lane,
    found by bit_length."""
    shift, add, axpy = field.lane_shift, field.row_add, field.row_axpy
    top_b = neg_monic.bit_length() - 1 >> shift << shift
    top, quot = a.bit_length() - 1 >> shift << shift, 0
    while top >= top_b:
        c = a >> top
        quot |= c << top - top_b
        a = add(a, neg_monic << top - top_b) if c == 1 else axpy(a, c, neg_monic << top - top_b)
        top = a.bit_length() - 1 >> shift << shift
    return quot, a


def _poly_of_row(field, v):
    """A packed polynomial as its stripped coefficient list."""
    return field.unpack_row(v, -(-v.bit_length() >> field.lane_shift))


def poly_mul_raw(field, a, b):
    return _poly_of_row(field, _row_mul(field, field.pack_row(a), field.pack_row(b)))


def poly_divmod_raw(field, a, b):
    neg_monic, lead_inv = _negated_monic(field, field.pack_row(b))
    quot, rem = _row_divmod(field, field.pack_row(a), neg_monic)
    return _poly_of_row(field, field.row_scale(quot, lead_inv)), _poly_of_row(field, rem)


def poly_mod_raw(field, a, b):
    neg_monic = _negated_monic(field, field.pack_row(b))[0]
    return _poly_of_row(field, _row_divmod(field, field.pack_row(a), neg_monic)[1])


def _row_gcd(field, a, b):
    """The monic gcd of two polynomials packed as rows, by Euclid's remainders."""
    while b:
        a, b = b, _row_divmod(field, a, _negated_monic(field, b)[0])[1]
    return a and field.row_scale(a, _negated_monic(field, a)[1])


def _row_ladder(field, neg_monic, count):
    """[x^0, x^1, ..., x^count] mod f, packed, f given as _negated_monic's row,
    cut at the first x^e = 1, e the order of x mod f: each step is one lane
    shift and at most one scaled add that clears lane deg f."""
    width, add, scale = 1 << field.lane_shift, field.row_add, field.row_scale
    top = neg_monic.bit_length() - 1 >> field.lane_shift << field.lane_shift
    v, ladder, multiples = 1, [1], {}  # multiples[c] = c neg_monic, scaled once per c
    for _ in range(count):
        v <<= width
        c = v >> top
        if c:
            v = add(v, multiples.get(c) or multiples.setdefault(c, scale(neg_monic, c)))
        ladder.append(v)
        if v == 1:
            break
    return ladder


def poly_gcd_raw(field, a, b):
    return _poly_of_row(field, _row_gcd(field, field.pack_row(a), field.pack_row(b)))


def poly_egcd_raw(field, a, b):
    """Extended gcd: returns (d, u, v) with u*a + v*b = d, d monic."""
    r0, r1 = field.pack_row(a), field.pack_row(b)
    s0, s1, t0, t1 = 1, 0, 0, 1
    while r1:
        neg_monic, lead_inv = _negated_monic(field, r1)
        quot, rem = _row_divmod(field, r0, neg_monic)  # r0 = (quot / lead r1) r1 + rem
        c = field.neg(lead_inv)
        r0, r1 = r1, rem
        s0, s1 = s1, field.row_axpy(s0, c, _row_mul(field, quot, s1))
        t0, t1 = t1, field.row_axpy(t0, c, _row_mul(field, quot, t1))
    lead_inv = _negated_monic(field, r0)[1] if r0 else 1
    return tuple(_poly_of_row(field, field.row_scale(v, lead_inv)) for v in (r0, s0, t0))


def _row_powmod(field, b, exp, neg_mod):
    """b^exp mod a polynomial given as _negated_monic's row, packed, by square and multiply."""
    result, b = 1, _row_divmod(field, b, neg_mod)[1]
    while exp:
        if exp & 1:
            result = _row_divmod(field, _row_mul(field, result, b), neg_mod)[1]
        exp >>= 1
        if exp:
            b = _row_divmod(field, _row_mul(field, b, b), neg_mod)[1]
    return result


def poly_powmod_raw(field, base, exp, mod):
    neg_mod = _negated_monic(field, field.pack_row(mod))[0]
    return _poly_of_row(field, _row_powmod(field, field.pack_row(base), exp, neg_mod))


def poly_is_irreducible(field, coeffs):
    """Exact irreducibility test for a polynomial over a field handle.

    Ben-Or's test: f of degree n is irreducible iff gcd(x^(q^i) - x, f)
    = 1 for i = 1 .. n/2, since x^(q^i) - x is the product of the monic
    irreducibles of degree dividing i.  It stops at the degree of the
    smallest factor.
    """
    c = strip_raw(field, coeffs)
    deg = len(c) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if c[0] == field.zero:
        return False
    f, t = field.pack_row(c), 1 << (1 << field.lane_shift)  # t = x
    neg_f, minus_x = _negated_monic(field, f)[0], field.row_scale(t, field.neg(1))
    for _ in range(deg // 2):
        t = _row_powmod(field, t, field.q, neg_f)
        if _row_gcd(field, f, field.row_add(t, minus_x)) != 1:
            return False
    return True


def _monic_reciprocal_raw(field, coeffs):
    """The monic reciprocal c_0^-1 x^deg c(1/x) as a tuple, or None when c_0 = 0."""
    c = strip_raw(field, coeffs)
    if not c or c[0] == field.zero:
        return None
    inv0 = field.inv(c[0])
    return tuple(field.mul(inv0, x) for x in reversed(c))


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
    prime field, and constituent fields and extension_of's extensions, from
    constituent_field, are extensions of any field.

    Elements are the ints 0 .. q - 1 in counting order: the element
    b_0 + b_1 Y + ... + b_{d-1} Y^(d-1) is the int whose base-|base|
    digits are b_0, b_1, ...  Unfolding the digits down the tower, the
    base-p digits of an element are its coefficients over F_p.  A base
    element is the same int in the extension, and int order is the
    counting order.  Over a GF(2) base an element is its base polynomial
    packed by pack_bits, reduced by the packed modulus.

    Fields built with ``constituent`` set record whether f is
    self-reciprocal.  ``conjugate`` is Y -> Y^-1 on such a field, which
    is a -> a^(|base|^(d/2)) as y^(|base|^(d/2)) = y^-1, and the
    identity on every other field.
    """

    def __init__(self, p, base=None, modulus=None, constituent=False):
        self.p = self.char = p
        self.base = base
        self.zero, self.one = 0, 1
        self.constituent = constituent
        self.self_reciprocal = False
        self._log = None
        if base is None:
            self.modulus, self.degree, self.e, self.q = None, 1, 1, p
        else:
            self.modulus = tuple(modulus)
            self._neg_modulus = base.row_scale(base.pack_row(self.modulus), base.neg(1))
            self._binary_base = base.q == 2
            self.degree = len(self.modulus) - 1
            self.e = base.e * self.degree
            self.q = base.q ** self.degree
            if constituent:
                self.self_reciprocal = _monic_reciprocal_raw(base, self.modulus) == self.modulus
        self._key = (self.q, self.modulus, base, constituent)
        self._hash = hash(self._key)
        if self.e > 1:
            self._setup_arithmetic()
        else:  # GF(p), also as a degree-1 constituent field
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = operator.pos if p == 2 else lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self._inv = lambda a: pow(a, p - 2, p)
        self._setup_rows()

    # -- arithmetic ---------------------------------------------------------
    #
    # add, sub, neg and mul are instance attributes, one callable each with
    # no per-call branch: closures mod p on a prime field (bound in
    # __init__); on an extension field the functions _setup_arithmetic
    # chose, digit polynomials, rebound to log/exp tables by _build_tables
    # once a field of at most TABLE_BOUND elements paid.

    def inv(self, a):
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self}")
        return self._inv(a)

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        if a and self._log is not None:
            return self._exp[self._log[a] * n % (self.q - 1)]
        return _power(self.mul, a, n)

    def conjugate(self, a):
        """The image of a under Y -> Y^-1 (reciprocal_map) in this field."""
        image = reciprocal_map(self, self)
        return a if image is None else image(a)

    def _setup_arithmetic(self):
        if self.p == 2:
            self.add, self.sub, self.neg = operator.xor, operator.xor, operator.pos
        else:
            self.add, self.sub = self._digitwise("add"), self._digitwise("sub")
            self.neg = lambda a: self.sub(0, a)
        self.mul, self._inv = self._digit_mul, self._digit_inv
        if self.q <= TABLE_BOUND:
            # Rent or buy: q table entries cost about as much as q / d^2
            # schoolbook products of d^2 base operations each.
            self._rent = self.q // self.degree ** 2
            self.mul, self._inv = self._rented_mul, self._rented_inv

    def _renting(self, products):
        """Charge digit products; the charge that spends the budget builds the tables."""
        self._rent -= products
        if self._rent <= 0:
            self._build_tables()
        return self._log is None

    def _rented_mul(self, a, b):
        """The digit product until the tables pay, then the tables' product,
        also for a kernel that bound it before the switch; _rented_inv alike."""
        if self._log is None and self._renting(1):
            return self._digit_mul(a, b)
        return self.mul(a, b)

    def _rented_inv(self, a):
        if self._log is None and self._renting(2 * self.q.bit_length()):
            return self._digit_inv(a)
        return self._inv(a)

    # Digit-polynomial arithmetic: the path above TABLE_BOUND and until the tables
    # pay, and the reference the tables are built from and tested against.

    def _digitwise(self, name):
        """The binary operation applying the base field's operation ``name``,
        as bound at the call, to each base coefficient."""
        base, coeffs = self.base, self.base_coeffs
        return lambda a, b: _number(map(getattr(base, name), coeffs(a), coeffs(b)), base.q)

    def _digit_mul(self, a, b):
        """The product of the base rows reduced by the modulus, both by the row kernels."""
        base, row = self.base, self._base_row
        return self._element_of_row(_row_divmod(base, _row_mul(base, row(a), row(b)), self._neg_modulus)[1])

    def _digit_inv(self, a):
        """The inverse by extended Euclid against the modulus: u a + v f = 1."""
        return self.from_base_coeffs(poly_egcd_raw(self.base, self.base_coeffs(a), list(self.modulus))[1])

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
        self.mul = lambda a, b: exp[log[a] + log[b]]
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

        self.add = add
        self.neg = neg = lambda a: exp[log[a] + half]
        self.sub = lambda a, b: add(a, neg(b))

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
        crosscheck((lo, hi) == (1, 0), "generator powers do not close up")
        return powers

    # -- rows ---------------------------------------------------------------
    #
    # A row of n entries is one int, entry j in lane j of w = 2^lane_shift
    # bits.  _setup_rows binds the codec: pack_row/unpack_row, row_add,
    # row_scale(v, c) = c v, row_axpy(v, c, row) = v + c row, rotate_row(v,
    # d, n) = T^d v and row_residue(v, rows, mask), the elimination loop: v -=
    # x rows[b] while v has a bit b in mask, x its entry in the lane of b.
    # GF(2): w = 1, XOR inline.  Up to 256 elements w = 8, c v is one
    # bytes.translate through a table per c, and sums are XOR in
    # characteristic 2; over GF(p) the int sum and one mod-p translate, and
    # for p(p - 1) < 256 (p <= 13) v + c row too, as a lane holds (p - 1) +
    # (p - 1)^2 with no carry: the loop inlines it.  GF(9) pairs lanes x of v
    # and y of row in a byte x 16 + y, translated through a table of x + c y
    # per c.  Else lane by lane, as in the lanes of 2^k bytes of larger fields.

    def _setup_rows(self):
        q, shift = self.q, 0 if self.q == 2 else 3
        while q > 1 << (1 << shift):
            shift += 1
        self.lane_shift, self.lane_mask = shift, (1 << (1 << shift)) - 1
        self.row_axpy, self.row_residue = lambda v, c, w: self.row_add(v, self.row_scale(w, c)), self._residue_by_axpy
        if q == 2:
            self.pack_row, self.unpack_row, self.rotate_row = pack_bits, unpack_bits, rotate_bits
            self.row_add, self.row_scale = operator.xor, operator.mul
            self.row_axpy, self.row_residue = lambda v, c, row: v ^ c * row, _residue_gf2
            return
        self.rotate_row = lambda v, d, n: rotate_bits(v, d << shift, n << shift)
        if shift == 3:
            self.pack_row = lambda entries: int.from_bytes(bytes(entries), "little")
            self.unpack_row = lambda v, n: list(v.to_bytes(n, "little"))
            self._scale_tables, self.row_scale = [None] * q, self._translated
        else:
            self.pack_row = lambda entries: sum(x << (j << shift) for j, x in enumerate(entries))
            self.unpack_row = lambda v, n: [v >> (j << shift) & self.lane_mask for j in range(n)]
            self.row_scale = lambda v, c: self.pack_row(
                [self.mul(c, x) for x in self.unpack_row(v, (v.bit_length() >> shift) + 1)])
        if self.p == 2:
            self.row_add, self.row_axpy = operator.xor, self._translated if shift == 3 else self.row_axpy
        elif self.e == 1 and self.p <= 127:
            self._mod_p = bytes(i % self.p for i in range(256))
            self.row_add = self._add_mod_p
            if self.p * (self.p - 1) < 256:
                self.row_axpy, self.row_residue = self._axpy_mod_p, self._residue_mod_p
        elif q <= 16:  # GF(9): lanes x of v and y of row paired in one byte, x 16 + y
            self._pair_tables, self.row_axpy = [None] * q, self._paired_axpy
            self.row_add = lambda a, b: self._paired_axpy(a, 1, b)
        else:
            self.row_add = self._lanewise_add

    def _lanewise_add(self, a, b):
        """a + b lane by lane over the lanes b spans, the rest of a kept."""
        if not b:
            return a
        shift = self.lane_shift
        low = (b & -b).bit_length() - 1 >> shift
        n = (b.bit_length() - 1 >> shift) + 1 - low
        low <<= shift
        span = a >> low & (1 << (n << shift)) - 1
        total = self.pack_row(map(self.add, self.unpack_row(span, n), self.unpack_row(b >> low, n)))
        return a ^ (span ^ total) << low

    def _residue_by_axpy(self, v, rows, mask):
        axpy, neg, shift, full = self.row_axpy, self.neg, self.lane_shift, self.lane_mask
        hit = v & mask
        while hit:
            b = (hit & -hit).bit_length() - 1
            v = axpy(v, neg(v >> (b >> shift << shift) & full), rows[b])
            hit = v & mask
        return v

    def _residue_mod_p(self, v, rows, mask):
        p, table = self.p, self._mod_p
        hit = v & mask
        while hit:
            b = (hit & -hit).bit_length() - 1
            s = v + (p - (v >> (b & -8) & 255)) * rows[b]
            v = int.from_bytes(s.to_bytes(s.bit_length() + 7 >> 3, "little").translate(table), "little")
            hit = v & mask
        return v

    def _add_mod_p(self, a, b):
        s = a + b
        return int.from_bytes(s.to_bytes(s.bit_length() + 7 >> 3, "little").translate(self._mod_p), "little")

    def _axpy_mod_p(self, v, c, row):
        s = v + c * row
        return int.from_bytes(s.to_bytes(s.bit_length() + 7 >> 3, "little").translate(self._mod_p), "little")

    def _paired_axpy(self, v, c, row):
        table = self._pair_tables[c]
        if table is None:  # x + c y at byte x 16 + y
            q, sums = self.q, _digit_sums(self.p, self.e)
            scaled = range(q) if c == 1 else self.unpack_row(self.row_scale(self.pack_row(range(q)), c), q)
            table = self._pair_tables[c] = bytes(sums[x * q + scaled[y]] if x < q and y < q else 0
                                                 for x in range(16) for y in range(16))
        s = v << 4 | row
        return int.from_bytes(s.to_bytes(s.bit_length() + 7 >> 3, "little").translate(table), "little")

    def _translated(self, v, c, row=None):
        """c v, one translate; given a row, v XOR c row, which is v + c row in characteristic 2."""
        if row is None:
            v, row = 0, v
        table = self._scale_tables[c]
        if table is None:  # with tables, exp[log c + log x]: 0 for c = 0 or x = 0
            products = (map(self.mul, [c] * self.q, range(self.q)) if self._log is None
                        else map(self._exp.__getitem__, map(self._log[c].__add__, self._log)))
            table = self._scale_tables[c] = bytes(products) + bytes(256 - self.q)
        return v ^ int.from_bytes(row.to_bytes(row.bit_length() + 7 >> 3, "little").translate(table), "little")

    # -- elements -----------------------------------------------------------

    def element_list(self):
        """All field elements in counting order."""
        if self.q > _ENUMERATION_BOUND:
            raise BoundExceeded(f"listing the elements of {self} exceeds the enumeration bound")
        return range(self.q)

    def random_element(self, rng):
        return rng.randrange(self.q)

    def generator(self):
        """Smallest multiplicative generator in counting order."""
        if self.q > _ENUMERATION_BOUND:
            raise BoundExceeded(f"the generator search in {self} exceeds the enumeration bound")
        return _first_generator(self.q, self.mul, range(1, self.q))

    def coeffs_of(self, a):
        """Element as a list of e residues mod p: its base-p digits."""
        return _digits(a, self.p, self.e)

    def element_from_coeffs(self, coeffs):
        """Inverse of coeffs_of."""
        coeffs = list(coeffs)
        if len(coeffs) != self.e:
            raise FieldMismatch(f"{self} expects {self.e} coefficients, got {len(coeffs)}")
        if any(type(c) is not int or not 0 <= c < self.p for c in coeffs):  # not isinstance: True is no coefficient
            raise FieldMismatch(f"coefficients out of range for {self}: {coeffs}")
        return _number(coeffs, self.p)

    def coeffs_of_row(self, row):
        """[coeffs_of(a) for a in row], one digit of every entry at a time."""
        p, digits = self.p, []
        for _ in range(self.e - 1):
            digits.append([a % p for a in row])
            row = [a // p for a in row]
        digits.append(row)  # the top digit: a < p^e
        return list(map(list, zip(*digits)))

    def row_from_coeffs(self, row):
        """[element_from_coeffs(c) for c in row] for a row of coefficient
        sequences, checked and folded in whole-row passes; a row the passes
        refuse goes entry by entry, so its first bad entry raises as it would
        alone."""
        e, p = self.e, self.p
        if set(map(len, row)) <= {e}:
            flat = list(itertools.chain.from_iterable(row))
            if not flat or set(map(type, flat)) == {int} and min(flat) >= 0 and max(flat) < p:
                elements = flat[e - 1::e]
                for i in range(e - 2, -1, -1):
                    elements = [a * p + c for a, c in zip(elements, flat[i::e])]
                return elements
        return [self.element_from_coeffs(c) for c in row]

    def base_coeffs(self, a):
        """Element as its d coefficients over the base field, ascending;
        the inverse of from_base_coeffs."""
        if self._binary_base:
            return unpack_bits(a, self.degree)
        return _digits(a, self.base.q, self.degree)

    def from_base_coeffs(self, coeffs):
        """Element from a base-coefficient vector, reduced mod the modulus."""
        return self._element_of_row(_row_divmod(self.base, self.base.pack_row(coeffs), self._neg_modulus)[1])

    def _base_row(self, a):
        """The element's base coefficients as one row of the base field's
        codec: over a GF(2) base, the element itself."""
        return a if self._binary_base else self.base.pack_row(_digits(a, self.base.q, self.degree))

    def _element_of_row(self, v):
        """The element of a base row of degree below d; the inverse of _base_row."""
        return v if self._binary_base else _number(self.base.unpack_row(v, self.degree), self.base.q)

    @property
    def y_class(self):
        """The class of Y in base[Y]/(f)."""
        if self.degree > 1:
            return self.base.q
        return self.base.neg(self.modulus[0])

    def y_inverse(self):
        """The class of Y^-1 without an inversion: f(Y) = 0 gives
        Y^-1 = -(f_1 + f_2 Y + ... + Y^(d-1)) / f_0."""
        base = self.base
        c = base.neg(base.inv(self.modulus[0]))
        return self.from_base_coeffs([base.mul(c, x) for x in self.modulus[1:]])

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

    def __reduce__(self):  # the constructor's arguments: the operations are closures
        return FieldSpec, (self.p, self.base, self.modulus, self.constituent)

    def __repr__(self):
        if self.constituent:
            return f"GF({self.q})[{self.base}/deg{self.degree}]"
        return f"GF({self.q})"


# Constituent and extension fields are FieldSpec instances too.
ConstituentField = FieldSpec


def make_field(p, e=1, bound=DEFAULT_CARDINALITY_BOUND):
    """Construct (and cache) the field F_{p^e}.

    For e > 1 the modulus is the lexicographically smallest monic
    irreducible of degree e over F_p (constant term compared first).
    """
    if not isinstance(p, int) or p < 2:
        raise NotPrime(f"{p} is not prime")
    if not isinstance(e, int) or e < 1:
        raise BadParameters(f"extension degree must be >= 1, got {e}")
    # Bounded before p^e is formed and before p is trial-divided.
    if p ** min(e, bound.bit_length()) > bound:
        raise BoundExceeded(f"{p}^{e} exceeds the cardinality bound {bound}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return _field(p, e)


@functools.cache
def _field(p, e):
    if e == 1:
        return FieldSpec(p)
    prime = _field(p, 1)
    return FieldSpec(p, prime, _smallest_irreducible(prime, e))


def _smallest_irreducible(field, k):
    """The lexicographically smallest monic irreducible of degree k >= 2
    over ``field``, constant term compared first; Y divides those with f(0) = 0."""
    for low in itertools.product(range(1, field.q), *[range(field.q)] * (k - 1)):
        if poly_is_irreducible(field, [*low, field.one]):
            return [*low, field.one]
    raise RuntimeError(f"no irreducible of degree {k} over {field}")


def field_from_q(q, bound=DEFAULT_CARDINALITY_BOUND):
    """Resolve a prime power q to the field F_q (unique (p, e))."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    if q > bound:
        raise BoundExceeded(f"{q} exceeds the cardinality bound {bound}")
    fac = factorint(q)
    if len(fac) != 1:
        raise NotPrime(f"{q} is not a prime power")
    ((p, e),) = fac.items()
    return make_field(p, e, bound=bound)


def constituent_field(base, modulus_coeffs):
    """Construct (and cache) base[Y]/(f) for a monic irreducible f."""
    return _constituent_field(base, tuple(modulus_coeffs))


@functools.cache
def _constituent_field(base, modulus):
    if len(modulus) < 2 or modulus[-1] != base.one:
        raise FieldMismatch("constituent modulus must be monic of degree >= 1")
    if not poly_is_irreducible(base, list(modulus)):
        raise FieldMismatch(f"modulus {modulus} is reducible over {base}")
    return FieldSpec(base.p, base, modulus, constituent=True)


@functools.cache
def reciprocal_map(src, dst):
    """Y -> Y^-1 from src = base[Y]/(f) onto dst = base[Y]/(f*), f* the
    monic reciprocal of f, as a function on elements.  From a field into
    itself it is None, the identity, unless the modulus is self-reciprocal
    of degree > 1.  The map is base-linear: sum b_i Y^i goes to a sum of
    table entries b_i y^-i (y the class of Y in dst), over a GF(2) base an
    XOR; a canonical matrix stays canonical."""
    if src == dst and (src.degree == 1 or not src.self_reciprocal):
        return None
    if src.base is None or src.base != dst.base or _monic_reciprocal_raw(src.base, src.modulus) != dst.modulus:
        raise FieldMismatch(f"Y -> Y^-1 does not map {src} onto {dst}")
    bq, y_inv, powers = src.base.q, dst.y_inverse(), [1]
    while len(powers) < src.degree:
        powers.append(dst.mul(powers[-1], y_inv))
    table = [[dst.mul(b, y) for b in range(bq)] for y in powers]
    return lambda a: a if a < bq else functools.reduce(dst.add, map(operator.getitem, table, src.base_coeffs(a)))


def multiplicative_order(q, n):
    """The order of q in (Z/n)*; requires gcd(q, n) = 1.  It is 1 for n = 1."""
    k = 1
    t = q % n
    while t != 1 % n:
        t = (t * q) % n
        k += 1
        if k > n:
            raise ValueError(f"{q} has no order mod {n}")
    return k


@functools.cache
def extension_of(field, k):
    """A degree-k extension of ``field`` with a deterministic modulus.

    Returns ``field`` itself for k = 1; otherwise the constituent field
    with the lexicographically smallest monic irreducible of degree k.
    """
    if k == 1:
        return field
    return constituent_field(field, _smallest_irreducible(field, k))


def find_sqrt_minus_one(field):
    """Some gamma with gamma^2 + 1 = 0, by exhaustive enumeration.

    Returns 1 in characteristic 2; None when no such element exists.
    """
    if field.char == 2:
        return field.one
    minus_one = field.neg(field.one)
    return next((a for a in field.element_list() if field.mul(a, a) == minus_one), None)
