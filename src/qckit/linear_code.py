"""Generator-matrix codes over a field handle: canonical RREF forms,
Euclidean/Hermitian duals, direct sums, monomial maps and the
bounded-exhaustive equivalence search used as the oracle layer."""

from __future__ import annotations

import itertools

from .errors import (
    CutoffExceeded,
    FieldMismatch,
    LengthMismatch,
    TooLarge,
)
from .galois import ensure_same_field

DEFAULT_SEARCH_CUTOFF = 8
WEIGHT_ENUM_LIMIT = 2 ** 16


def rref(field, rows, ncols):
    """Row-reduced echelon form; returns (rows, pivot_columns).

    Zero rows are dropped, pivot entries are 1 and pivot columns are
    cleared, so the result is the canonical basis of the row space.
    """
    zero = field.zero
    work = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if work[r][col] != zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        if work[rank][col] != field.one:
            inv = field.inv(work[rank][col])
            work[rank] = [field.mul(inv, x) for x in work[rank]]
        pivot = work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != zero:
                factor = work[r][col]
                work[r] = [
                    field.sub(x, field.mul(factor, y))
                    for x, y in zip(work[r], pivot)
                ]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return [tuple(r) for r in work[:rank]], pivots


class LinearCode:
    """A linear code held as its canonical RREF generator matrix.

    Two codes are equal iff their canonical matrices are identical, so
    set-level statements about codes become decidable identities.
    """

    __slots__ = ("field", "n", "gen", "pivots", "k")

    def __init__(self, field, n, rows):
        for row in rows:
            if len(row) != n:
                raise LengthMismatch(f"row of length {len(row)}, expected {n}")
        self.field = field
        self.n = n
        self.gen, self.pivots = rref(field, rows, n)
        self.gen = tuple(self.gen)
        self.k = len(self.gen)

    @classmethod
    def from_rows(cls, field, n, rows):
        return cls(field, n, rows)

    @classmethod
    def zero_code(cls, field, n):
        return cls(field, n, [])

    @classmethod
    def full_code(cls, field, n):
        rows = []
        for i in range(n):
            row = [field.zero] * n
            row[i] = field.one
            rows.append(row)
        return cls(field, n, rows)

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and self.gen == other.gen
        )

    def __hash__(self):
        return hash((self.field, self.n, self.gen))

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}] over {self.field}"

    # -- membership and enumeration ----------------------------------------

    def reduce(self, vector):
        """Residue of a vector after elimination against the basis."""
        field = self.field
        v = list(vector)
        for row, pc in zip(self.gen, self.pivots):
            c = v[pc]
            if c != field.zero:
                v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
        return v

    def contains(self, vector):
        if len(vector) != self.n:
            raise LengthMismatch(f"vector length {len(vector)}, expected {self.n}")
        zero = self.field.zero
        return all(x == zero for x in self.reduce(vector))

    def codewords(self):
        """All q^k codewords; guarded by the enumeration limit."""
        field = self.field
        if field.q ** self.k > WEIGHT_ENUM_LIMIT:
            raise TooLarge(f"cannot enumerate {field.q}^{self.k} codewords")
        scalars = field.element_list()
        words = [tuple([field.zero] * self.n)]
        for row in self.gen:
            new_words = []
            for c in scalars:
                if c == field.zero:
                    new_words.extend(words)
                    continue
                scaled = [field.mul(c, x) for x in row]
                for w in words:
                    new_words.append(
                        tuple(field.add(a, b) for a, b in zip(w, scaled))
                    )
            words = new_words
        return words


def code_from_rows(field, rows, n=None):
    """Row space of the given vectors as a canonical code."""
    rows = [tuple(r) for r in rows]
    if n is None:
        if not rows:
            raise LengthMismatch("cannot infer length from an empty row list")
        n = len(rows[0])
    return LinearCode(field, n, rows)


def kernel_basis(field, rows, pivots, ncols):
    """Basis of {x : M x = 0} for M in RREF with the given pivot columns,
    one vector per free column in ascending order."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rows[r][fc])
        basis.append(v)
    return basis


def euclidean_dual(code):
    """The kernel of the generator matrix, as a canonical code."""
    return LinearCode(code.field, code.n, kernel_basis(code.field, code.gen, code.pivots, code.n))


def conjugate_code(code):
    """Entrywise conjugation of every generator row."""
    field = code.field
    conj = field.conjugate
    rows = [tuple(conj(x) for x in row) for row in code.gen]
    return LinearCode(field, code.n, rows)


def hermitian_dual(code):
    """{v : sum_k v_k * conj(c_k) = 0 for all c in C}.

    Computed as the Euclidean dual of the entrywise-conjugated code;
    identity conjugation makes this coincide with the Euclidean dual.
    """
    return euclidean_dual(conjugate_code(code))


class MonomialMap:
    """A permutation of n coordinates composed with nonzero column
    scalings; pure permutations carry an all-ones diagonal."""

    __slots__ = ("n", "perm", "diag", "_inv")

    def __init__(self, n, perm, diag=None, field=None):
        perm = tuple(perm)
        if sorted(perm) != list(range(n)):
            raise LengthMismatch(f"not a permutation of {n} coordinates: {perm}")
        if diag is None:
            if field is None:
                raise ValueError("diag or field required")
            diag = (field.one,) * n
        else:
            diag = tuple(diag)
            if len(diag) != n:
                raise LengthMismatch("diagonal length mismatch")
        self.n = n
        self.perm = perm
        self.diag = diag
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        self._inv = tuple(inv)

    @classmethod
    def identity(cls, field, n):
        return cls(n, range(n), field=field)

    @classmethod
    def permutation(cls, field, perm):
        return cls(len(tuple(perm)), perm, field=field)

    @classmethod
    def diagonal(cls, diag):
        diag = tuple(diag)
        return cls(len(diag), range(len(diag)), diag)

    def is_permutation(self, field):
        return all(d == field.one for d in self.diag)

    def apply_to_vector(self, field, vector):
        return tuple(
            field.mul(self.diag[i], vector[self._inv[i]]) for i in range(self.n)
        )

    def then(self, other, field):
        """The composite map: apply self first, then ``other``."""
        if self.n != other.n:
            raise LengthMismatch("cannot compose maps of different lengths")
        perm = tuple(other.perm[self.perm[j]] for j in range(self.n))
        diag = tuple(
            field.mul(other.diag[i], self.diag[other._inv[i]])
            for i in range(self.n)
        )
        return MonomialMap(self.n, perm, diag)

    def inverse(self, field):
        perm = self._inv
        diag = tuple(field.inv(self.diag[self.perm[i]]) for i in range(self.n))
        return MonomialMap(self.n, perm, diag)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialMap)
            and self.n == other.n
            and self.perm == other.perm
            and self.diag == other.diag
        )

    def __repr__(self):
        return f"MonomialMap(perm={self.perm}, diag={self.diag})"


def apply_monomial(code, mmap):
    """Image code: coordinate i holds diag[i] * x_{perm^-1(i)}."""
    if mmap.n != code.n:
        raise LengthMismatch(f"map length {mmap.n} != code length {code.n}")
    field = code.field
    rows = [mmap.apply_to_vector(field, row) for row in code.gen]
    return LinearCode(field, code.n, rows)


def direct_sum(parts):
    """Block-diagonal generator over concatenated coordinates."""
    if not parts:
        raise LengthMismatch("direct sum of an empty list")
    field = parts[0].field
    for p in parts[1:]:
        ensure_same_field(field, p.field)
    total = sum(p.n for p in parts)
    rows = []
    offset = 0
    for p in parts:
        for row in p.gen:
            full = [field.zero] * total
            full[offset : offset + p.n] = list(row)
            rows.append(full)
        offset += p.n
    return LinearCode(field, total, rows)


def weight_distribution(code):
    """count[w] = number of codewords of Hamming weight w."""
    zero = code.field.zero
    counts = [0] * (code.n + 1)
    for w in code.codewords():
        counts[sum(1 for x in w if x != zero)] += 1
    return tuple(counts)


def _column_profiles(code):
    """Per-column count of codewords with a nonzero entry there.

    Invariant under permutations and column scalings, so it prunes the
    coordinate-assignment search.
    """
    zero = code.field.zero
    counts = [0] * code.n
    for w in code.codewords():
        for i, x in enumerate(w):
            if x != zero:
                counts[i] += 1
    return counts


def _diagonal_witness(field, source, target):
    """Column scalings lambda with rref(source * diag(lambda)) == target.

    Both codes are canonical.  Scaling columns cannot move pivots, and
    the rescaled RREF entry at (r, j) is (lambda_j / lambda_{p_r}) times
    the original, which yields ratio constraints solved by a weighted
    union-find.  Unconstrained columns get lambda = 1.  Returns the
    diagonal or None.
    """
    if source.pivots != target.pivots or source.k != target.k:
        return None
    n = source.n
    one, zero = field.one, field.zero
    parent = list(range(n))
    weight = [one] * n  # weight[i] = lambda_i / lambda_parent[i]

    def find(i):
        if parent[i] == i:
            return i, one
        root, w = find(parent[i])
        w = field.mul(weight[i], w)
        parent[i] = root
        weight[i] = w
        return root, w

    def union(i, j, ratio):
        # lambda_i = ratio * lambda_j
        ri, wi = find(i)
        rj, wj = find(j)
        if ri == rj:
            return wi == field.mul(ratio, wj)
        parent[ri] = rj
        weight[ri] = field.mul(field.inv(wi), field.mul(ratio, wj))
        return True

    for r, pc in enumerate(source.pivots):
        for j in range(n):
            e = source.gen[r][j]
            t = target.gen[r][j]
            if e == zero and t == zero:
                continue
            if e == zero or t == zero:
                return None
            # lambda_j / lambda_pc = t / e
            if not union(j, pc, field.mul(t, field.inv(e))):
                return None
    lam = []
    for i in range(n):
        _, w = find(i)
        lam.append(w)
    return tuple(lam)


def equivalence_search(code_a, code_b, mode="permutation", cutoff=DEFAULT_SEARCH_CUTOFF):
    """Exhaustive search for a monomial map taking code_a onto code_b.

    Backtracks over column assignments in ascending order, pruned by
    dimension, weight distribution and per-column nonzero profiles, so
    the returned witness is the branch-order-first one.  Returns None
    when no witness exists.
    """
    ensure_same_field(code_a.field, code_b.field)
    if code_a.n != code_b.n:
        raise LengthMismatch("codes of different length")
    n = code_a.n
    if n > cutoff:
        raise CutoffExceeded(f"length {n} exceeds the search cutoff {cutoff}")
    field = code_a.field
    if code_a.k != code_b.k:
        return None
    if code_a.k == 0:
        return MonomialMap.identity(field, n)
    if weight_distribution(code_a) != weight_distribution(code_b):
        return None
    prof_a = _column_profiles(code_a)
    prof_b = _column_profiles(code_b)
    if sorted(prof_a) != sorted(prof_b):
        return None
    candidates = [
        [j for j in range(n) if prof_b[j] == prof_a[i]] for i in range(n)
    ]

    best = None
    assignment = [None] * n
    used = [False] * n

    def backtrack(i):
        nonlocal best
        if best is not None:
            return
        if i == n:
            perm = tuple(assignment)
            mmap = MonomialMap(n, perm, field=field)
            permuted = apply_monomial(code_a, mmap)
            if mode == "permutation":
                if permuted == code_b:
                    best = mmap
            else:
                lam = _diagonal_witness(field, permuted, code_b)
                if lam is not None:
                    candidate = MonomialMap(n, perm, lam)
                    if apply_monomial(code_a, candidate) == code_b:
                        best = candidate
            return
        for j in candidates[i]:
            if not used[j]:
                used[j] = True
                assignment[i] = j
                backtrack(i + 1)
                used[j] = False
                assignment[i] = None
                if best is not None:
                    return

    if mode not in ("permutation", "monomial"):
        raise ValueError(f"unknown mode {mode!r}")
    backtrack(0)
    return best
