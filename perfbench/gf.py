"""Independent GF(p^e) arithmetic for checking qckit's outputs.

Nothing here calls qckit.  A field is rebuilt from the three public
numbers every qckit field carries (``p``, ``e`` and ``modulus``), and an
element is encoded as the int whose base-p digits are its coefficients,
lowest power first.  ``element_from_coeffs``/``coeffs_of`` are the only
bridge to the library's own element representation, so these checks
keep their meaning when that representation changes.
"""

from __future__ import annotations

import hashlib
import json


def digest(obj):
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _poly_mulmod(a, b, p, modulus):
    """Product of two coefficient vectors over F_p, reduced by ``modulus``."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    if modulus is not None:
        e = len(modulus) - 1
        for k in range(len(prod) - 1, e - 1, -1):
            c = prod[k]
            if c:
                for j in range(e + 1):
                    prod[k - e + j] = (prod[k - e + j] - c * modulus[j]) % p
        prod = prod[:e]
    return prod


class GF:
    """Table-driven GF(p^e); elements are ints in [0, q)."""

    def __init__(self, p, e, modulus):
        self.p, self.e, self.q = p, e, p ** e
        q = self.q
        self.modulus = None if e == 1 else list(modulus)
        vecs = [self.coeffs(a) for a in range(q)]
        self.add = [self.index([(x + y) % p for x, y in zip(vecs[a], vecs[b])])
                    for a in range(q) for b in range(q)]
        self.mul = [self.index(_poly_mulmod(vecs[a], vecs[b], p, self.modulus))
                    for a in range(q) for b in range(q)]
        self.neg = [self.index([(-x) % p for x in vecs[a]]) for a in range(q)]
        non_units = [a for a in range(1, q) if 1 not in (self.mul[a * q + b] for b in range(q))]
        if non_units:
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")

    @classmethod
    def of(cls, field):
        """The same field as a qckit field handle, from its public numbers."""
        return cls(field.p, field.e, field.modulus)

    def index(self, coeffs):
        out = 0
        for c in reversed(list(coeffs)):
            out = out * self.p + c
        return out

    def coeffs(self, a):
        out = []
        for _ in range(self.e):
            a, c = divmod(a, self.p)
            out.append(c)
        return out

    def dot(self, u, v):
        add, mul, q = self.add, self.mul, self.q
        acc = 0
        for x, y in zip(u, v):
            if x and y:
                acc = add[acc * q + mul[x * q + y]]
        return acc

    def poly_mul(self, a, b):
        """Product of two polynomials with int coefficients, ascending."""
        if not a or not b:
            return []
        add, mul, q = self.add, self.mul, self.q
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = add[out[i + j] * q + mul[x * q + y]]
        while out and out[-1] == 0:
            out.pop()
        return out

    def rank(self, rows):
        """Rank of a matrix of int elements, by plain elimination."""
        q, add, mul, neg = self.q, self.add, self.mul, self.neg
        inv = {a: b for a in range(1, q) for b in range(1, q) if mul[a * q + b] == 1}
        work = [list(r) for r in rows]
        rank = 0
        ncols = len(work[0]) if work else 0
        for col in range(ncols):
            piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            s = inv[work[rank][col]]
            work[rank] = [mul[s * q + x] for x in work[rank]]
            for r in range(len(work)):
                c = work[r][col]
                if r != rank and c:
                    nc = neg[c]
                    work[r] = [add[x * q + mul[nc * q + y]]
                               for x, y in zip(work[r], work[rank])]
            rank += 1
        return rank


def cyclotomic_cosets(q, m):
    """The q-cyclotomic cosets mod m as frozensets."""
    seen, out = set(), []
    for i in range(m):
        if i not in seen:
            coset, j = set(), i
            while j not in coset:
                coset.add(j)
                j = (j * q) % m
            seen |= coset
            out.append(frozenset(coset))
    return out


def unity_minus_one(gf, m):
    """Y^m - 1 as int coefficients, ascending."""
    return [gf.neg[1]] + [0] * (m - 1) + [1]


def orthogonal(gf, rows_a, rows_b):
    """True when every row of ``rows_a`` is orthogonal to every row of ``rows_b``."""
    if gf.q == 2:
        packed_a = [int("".join(map(str, reversed(r))) or "0", 2) for r in rows_a]
        packed_b = [int("".join(map(str, reversed(r))) or "0", 2) for r in rows_b]
        return all((a & b).bit_count() % 2 == 0 for a in packed_a for b in packed_b)
    return all(gf.dot(u, v) == 0 for u in rows_a for v in rows_b)


def apply_witness(gf, perm, diag, row):
    """Image of a row under qckit's monomial convention: w[perm[j]] = diag[perm[j]] * v[j]."""
    q, mul = gf.q, gf.mul
    out = [0] * len(row)
    for j, x in enumerate(row):
        i = perm[j]
        out[i] = mul[diag[i] * q + x]
    return out
