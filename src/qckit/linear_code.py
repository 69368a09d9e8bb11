"""Generator-matrix codes over a field handle: canonical RREF forms,
Euclidean/Hermitian duals, direct sums, monomial maps and the
bounded-exhaustive equivalence search used as the oracle layer."""

from __future__ import annotations

import itertools
import math
from bisect import insort
from collections import defaultdict

from .errors import (
    BadParameters,
    CutoffExceeded,
    LengthMismatch,
    TooLarge,
    crosscheck,
)
from .galois import ensure_same_field, reciprocal_map

DEFAULT_SEARCH_CUTOFF = 8
WEIGHT_ENUM_LIMIT = 2 ** 16
SEARCH_BUDGET = 100_000  # nodes a search above its length cutoff may visit


def _budget(n, cutoff):
    """The node budget of a search over n coordinates: none at n <= cutoff."""
    return None if n <= cutoff else SEARCH_BUDGET


class _Basis:
    """The state of row-at-a-time elimination: kept rows, each zero before
    its pivot column and 1 in it, in the field's row format (``insert``
    takes packed ints as they stand and packs sequences).  ``rows[b]`` is
    the kept row whose pivot lane holds bit b; ``row(c)`` is the row of
    pivot column c.  The given rows are inserted one at a time, and the
    rest are skipped once the rank reaches ncols.
    """

    __slots__ = ("field", "ncols", "rows", "mask", "order", "shift")

    def __init__(self, field, ncols, rows=()):
        self.field, self.ncols, self.shift = field, ncols, field.lane_shift
        self.rows = [None] * (ncols << self.shift)
        self.mask = 0  # the lanes of the pivot columns
        self.order = []  # the pivot columns, ascending
        for row in rows:
            if len(self.order) == ncols:
                break
            self.insert(row)

    def row(self, c):
        return self.rows[c << self.shift]

    def residue(self, v, above=-1):
        """The packed row v minus the combination of rows that clears each
        pivot column after ``above``, by the field's row_residue: a row
        changes nothing before its pivot column, so one cleared stays clear."""
        start = above + 1 << self.shift
        return self.field.row_residue(v, self.rows, self.mask >> start << start)

    def insert(self, row):
        """Reduce a row and keep it, scaled to a leading 1, unless it lies
        in the span; returns whether it was kept."""
        field = self.field
        v = self.residue(row if type(row) is int else field.pack_row(row))
        if not v:
            return False
        shift, full = self.shift, field.lane_mask
        c = (v & -v).bit_length() - 1 >> shift
        at, lead = c << shift, v >> (c << shift) & full
        if lead != 1:
            v = field.row_scale(v, field.inv(lead))
        self.mask |= full << at
        self.rows[at:at + (1 << shift)] = [v] * (1 << shift)
        insort(self.order, c)
        return True

    def canonical(self):
        """Back-substitute into the canonical RREF: (rows, pivots)."""
        rows, order, shift = self.rows, self.order, self.shift
        for c in order[-2::-1]:  # the last row has no later pivot to clear
            at = c << shift
            v = self.residue(rows[at], above=c)
            if v != rows[at]:
                rows[at:at + (1 << shift)] = [v] * (1 << shift)
        unpack = self.field.unpack_row
        return [tuple(unpack(rows[c << shift], self.ncols)) for c in order], order


def rref(field, rows, ncols):
    """Row-reduced echelon form; returns (rows, pivot_columns).

    Zero rows are dropped, pivot entries are 1 and pivot columns are
    cleared, so the result is the canonical basis of the row space.
    """
    return _Basis(field, ncols, rows).canonical()


class LinearCode:
    """A linear code held as its canonical RREF generator matrix.

    Two codes are equal iff their canonical matrices are identical, so
    set-level statements about codes become decidable identities.  The
    _Basis it was eliminated with is kept for membership and shift tests.
    """

    __slots__ = ("field", "n", "gen", "pivots", "k", "_basis")

    def __init__(self, field, n, rows):
        for row in rows:
            if len(row) != n:
                raise LengthMismatch(f"row of length {len(row)}, expected {n}")
        self._adopt(_Basis(field, n, rows))

    @classmethod
    def _from_basis(cls, basis):
        """The code spanned by a filled _Basis, whose rows may be packed ints."""
        code = cls.__new__(cls)
        code._adopt(basis)
        return code

    def _adopt(self, basis):
        self.field, self.n, self._basis = basis.field, basis.ncols, basis
        gen, self.pivots = basis.canonical()
        self.gen, self.k = tuple(gen), len(gen)

    def __reduce__(self):  # the generator matrix: the _Basis binds field operations
        return LinearCode, (self.field, self.n, self.gen)

    @classmethod
    def zero_code(cls, field, n):
        return cls(field, n, [])

    @classmethod
    def full_code(cls, field, n):
        return cls._from_basis(_Basis(field, n, [1 << (i << field.lane_shift) for i in range(n)]))

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
        """Residue of a vector after elimination against the basis, as a list."""
        field = self.field
        return field.unpack_row(self._basis.residue(field.pack_row(vector)), self.n)

    def contains(self, vector):
        if len(vector) != self.n:
            raise LengthMismatch(f"vector length {len(vector)}, expected {self.n}")
        return not self._basis.residue(self.field.pack_row(vector))

    def shift_invariant(self, d):
        """Whether the code is invariant under T^d, 0 <= d <= n: coordinate
        i moves to i + d (mod n).  The kept rows rotate packed."""
        basis, rotate = self._basis, self.field.rotate_row
        return not any(basis.residue(rotate(basis.row(c), d, self.n)) for c in self.pivots)

    def codewords(self):
        """All q^k codewords; guarded by the enumeration limit."""
        field = self.field
        if field.q ** self.k > WEIGHT_ENUM_LIMIT:
            raise TooLarge(f"cannot enumerate {field.q}^{self.k} codewords")
        words = [0]
        for c in self.pivots:
            row = self._basis.row(c)
            words = [field.row_add(w, field.row_scale(row, a)) for a in field.element_list() for w in words]
        return [tuple(field.unpack_row(w, self.n)) for w in words]


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
    one vector per free column f in ascending order: 1 at f and minus each
    row's entry at f in the row's pivot column."""
    return [list(v) for v in zip(*_kernel_columns(field, rows, pivots, ncols))]


def _kernel_columns(field, rows, pivots, ncols):
    """The transpose of the kernel_basis matrix: row j is the negated row
    of pivot column j at the free columns, or the unit row of free column j.
    Negation is skipped in characteristic 2, where it is the identity."""
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    columns = list(zip(*rows)) or [()] * ncols
    negated = [columns[f] if field.char == 2 else map(field.neg, columns[f]) for f in free]
    restricted = iter(list(zip(*negated)) or [()] * len(pivot_set))
    units = ((0,) * t + (1,) + (0,) * (len(free) - t - 1) for t in range(len(free)))
    return [next(restricted) if j in pivot_set else next(units) for j in range(ncols)]


class _ParityCheck:
    """Membership in a code D by syndromes: v lies in D iff H v = 0, where
    the rows of H are D's kernel basis (a basis of the dual of D).

    ``cols[j]`` is column j of H packed by the field's row codec (lane i
    holds row i of H), so a syndrome is a packed row and 0 is the zero
    syndrome.
    """

    __slots__ = ("cols", "zero", "add", "axpy", "mul")

    def __init__(self, code):
        field = code.field
        self.cols = [field.pack_row(col) for col in _kernel_columns(field, code.gen, code.pivots, code.n)]
        self.zero = 0
        self.add, self.axpy, self.mul = field.row_add, field.row_axpy, field.mul

    def plus(self, s, x, j):
        """The syndrome s plus x times column j of H, for x nonzero."""
        return self.add(s, self.cols[j]) if x == 1 else self.axpy(s, x, self.cols[j])

    def image_in(self, row, perm):
        """Whether D holds the image of a row under the permutation: entry
        i moves to coordinate perm[i]."""
        s = 0
        for i, x in enumerate(row):
            if x:
                s = self.plus(s, x, perm[i])
        return not s


def euclidean_dual(code):
    """The kernel of the generator matrix (kernel_basis), as a canonical code."""
    field = code.field
    kernel = zip(*_kernel_columns(field, code.gen, code.pivots, code.n))
    return LinearCode._from_basis(_Basis(field, code.n, map(field.pack_row, kernel)))


def conjugate_code(code, field=None):
    """The code carried entrywise by Y -> Y^-1 (galois.reciprocal_map) into
    ``field``, by default its own; the code itself where the map is the identity."""
    field = code.field if field is None else field
    image = reciprocal_map(code.field, field)
    if image is None:
        return code
    return LinearCode(field, code.n, [tuple(map(image, row)) for row in code.gen])


def hermitian_dual(code):
    """{v : sum_k v_k * conj(c_k) = 0 for all c in C}: the Euclidean dual
    of the conjugated code."""
    return euclidean_dual(conjugate_code(code))


class MonomialMap:
    """A permutation of n coordinates composed with nonzero column
    scalings; pure permutations carry an all-ones diagonal."""

    __slots__ = ("n", "perm", "diag", "_inv", "_unit")

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
            if 0 in diag:  # zero is the int 0 in every field
                raise BadParameters(f"column scalings must be nonzero: {diag}")
        self.n = n
        self.perm = perm
        self.diag = diag
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        self._inv = tuple(inv)
        self._unit = all(d == 1 for d in diag)  # one is the int 1 in every field

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
        if self._unit:
            return tuple([vector[i] for i in self._inv])
        mul = field.mul
        return tuple([mul(d, vector[i]) for d, i in zip(self.diag, self._inv)])

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


def _verified(code, target, witness):
    """The witness, once its image code, compared by canonical forms,
    equals target; the searches find witnesses by syndromes, so this is
    the second route."""
    crosscheck(apply_monomial(code, witness) == target,
               "%s passed the syndrome test but does not map the code onto the target", witness)
    return witness


def direct_sum(parts):
    """Block-diagonal generator over concatenated coordinates."""
    if not parts:
        raise LengthMismatch("direct sum of an empty list")
    field = parts[0].field
    for p in parts[1:]:
        ensure_same_field(field, p.field)
    rows, offset = [], 0
    for p in parts:
        rows += [p._basis.row(c) << (offset << field.lane_shift) for c in p.pivots]
        offset += p.n
    return LinearCode._from_basis(_Basis(field, offset, rows))


def weight_distribution(code):
    """count[w] = number of codewords of Hamming weight w."""
    return _shortened_enumerators(code)[0]


def _shortened_enumerators(code):
    """The weight distribution and the column signatures: signature i counts,
    by weight, the codewords zero at i (the code shortened at i); a monomial
    map carries it to the image of i.  The codeword sum c_r g_r is bit
    sum c_r q^r of an int, so each column's zero set is a mask, built row
    by row from its partial-sum values' masks; zero counts add bit-sliced."""
    field, n, size = code.field, code.n, code.field.q ** code.k
    if size > WEIGHT_ENUM_LIMIT:
        raise TooLarge(f"cannot enumerate {field.q}^{code.k} codewords")
    q, add, mul, zeros, planes = field.q, field.add, field.mul, [], []  # planes[t]: bit t of each word's zero count
    for j in range(n):
        last = max((r for r, row in enumerate(code.gen) if row[j]), default=-1)
        masks, width = {0: 1}, 1  # value at j -> the words so far that take it
        for r, row in enumerate(code.gen):
            if not row[j]:  # every value keeps its words, in q copies side by side
                copies = ((1 << width * q) - 1) // ((1 << width) - 1)
                masks = {v: mask * copies for v, mask in masks.items()}
            elif r == last:  # only the zero value is needed: value v takes c = -v / row[j]
                s, zero = field.inv(field.neg(row[j])), 0
                for v, mask in masks.items():
                    zero |= mask << mul(v, s) * width
                masks = {0: zero}
            else:
                new = defaultdict(int)
                for c in range(q):
                    d = mul(c, row[j])
                    for v, mask in masks.items():
                        new[add(v, d)] |= mask << c * width
                masks = new
            width *= q
        carry = masks.get(0, 0)
        zeros.append(carry)
        for t, plane in enumerate(planes):
            planes[t], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    full = (1 << size) - 1
    levels = [full if n - w < 1 << len(planes) else 0 for w in range(n + 1)]  # the words of weight w
    for t, plane in enumerate(planes):  # a word of weight w is in plane t iff n - w has bit t
        levels = [x & (plane if (n - w) >> t & 1 else full ^ plane) for w, x in enumerate(levels)]
    return tuple(x.bit_count() for x in levels), [tuple((z & x).bit_count() for x in levels) for z in zeros]


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


def _first_assignment(units, moves, leaf, rows=(), check=None, budget=None):
    """The first assignment, in branch order, of a move to each unit for
    which ``leaf``, given the chosen moves in unit order, returns a map;
    that map, or None.

    Units are disjoint tuples of coordinates, assigned in order; moves[u]
    lists the ways unit u may go, each a tuple of (target, scalar) pairs
    aligned with the unit's coordinates, and no target is used twice.
    The rows are given over the coordinates listed unit by unit.  With a
    parity check, a running syndrome is kept for each row, and a branch
    is cut once a row whose nonzero entries all lie in assigned units has
    a nonzero syndrome: that row's image is then outside the target,
    whatever the other units get, so only subtrees without a valid leaf
    are cut.  Without one, every assignment reaches ``leaf``.  Each
    branch entered is one node, and past ``budget`` nodes (None: no
    bound) the search raises CutoffExceeded instead of answering.
    """
    nunits = len(units)
    where = [(u, p) for u, unit in enumerate(units) for p in range(len(unit))]
    touched = [[] for _ in units]  # (r, p, x): row r has x != 0 at position p of the unit
    done = [[] for _ in units]  # the rows whose last nonzero entry is in the unit
    for r, row in enumerate(rows):
        support = [(where[k], x) for k, x in enumerate(row) if x]
        for (u, p), x in support:
            touched[u].append((r, p, x))
        done[support[-1][0][0]].append(r)
    # Each move with its targets as the bits of an int (a move's targets are distinct).
    branches = [[(sum(1 << t for t, _ in move), move) for move in ms] for ms in moves]
    chosen = [None] * nunits  # the move of each unit on the current branch
    if check is not None:
        plus, mul, zero = check.plus, check.mul, check.zero
    nodes, limit = itertools.count(1), math.inf if budget is None else budget

    def backtrack(u, used, syndromes):
        if next(nodes) > limit:
            raise CutoffExceeded(f"search budget of {budget} nodes spent: {budget + 1} nodes visited")
        if u == nunits:
            return leaf(chosen)
        hits, ends = touched[u], done[u]
        for bits, move in branches[u]:
            if used & bits:
                continue
            if check is not None:
                nxt = list(syndromes)
                for r, p, x in hits:
                    t, c = move[p]
                    nxt[r] = plus(nxt[r], x if c == 1 else mul(c, x), t)
                if ends and any(nxt[r] != zero for r in ends):
                    continue
            else:
                nxt = syndromes
            chosen[u] = move
            found = backtrack(u + 1, used | bits, nxt)
            if found is not None:
                return found
        return None

    return backtrack(0, 0, [check.zero] * len(rows) if check is not None else None)


def _refined(code, target, units, moves):
    """The move lists less every move that sends a coordinate to one of
    another signature, which no monomial map onto target does; None when
    the two codes' signature multisets differ.  The signature pass is
    priced at n field operations per codeword, so the moves stay as they
    are when that exceeds the leaves of the unrefined tree, or when the
    codewords are past the enumeration limit."""
    size = code.field.q ** code.k
    if size > WEIGHT_ENUM_LIMIT or code.n * size > math.prod(map(len, moves)):
        return moves
    sig, sig_t = _shortened_enumerators(code)[1], _shortened_enumerators(target)[1]
    if sorted(sig) != sorted(sig_t):
        return None
    return [[move for move in ms if all(sig[i] == sig_t[t] for i, (t, _) in zip(unit, move))]
            for unit, ms in zip(units, moves)]


def _first_witness(code, target, units, moves, budget=None):
    """The first map, in branch order, sending each unit by one of its moves
    onto target, checked by canonical forms; or None.
    Only moves that keep signatures are tried (see ``_refined``)."""
    n, field = code.n, code.field
    moves = _refined(code, target, units, moves) if code.k == target.k else None
    if moves is None:
        return None
    order = [i for unit in units for i in unit][::-1]
    # Rows ending in distinct positions of the unit order: those ending by unit
    # u span the codewords on units 0..u, so each prefix is tested against all.
    trailing, _ = rref(field, [[row[i] for i in order] for row in code.gen], n)

    def leaf(chosen):
        perm, diag = [None] * n, [None] * n
        for unit, move in zip(units, chosen):
            for i, (t, c) in zip(unit, move):
                perm[i], diag[t] = t, c
        return MonomialMap(n, perm, diag)

    found = _first_assignment(units, moves, leaf, [row[::-1] for row in trailing], _ParityCheck(target), budget)
    return None if found is None else _verified(code, target, found)


def equivalence_search(code_a, code_b, mode="permutation", cutoff=DEFAULT_SEARCH_CUTOFF):
    """Exhaustive search for a monomial map taking code_a onto code_b, or
    None when there is none.

    Backtracks over column assignments in ascending order, one unit per
    column, each column sent only to the columns of equal signature (the
    weight distribution of the code shortened there) when the codewords
    are few enough to price (see ``_refined``), which also compares the
    weight distributions; the witness is the branch-order-first one.
    In permutation mode the search is pruned by syndromes (see
    ``_first_witness``).  In monomial mode it runs without them, and each
    leaf solves for the column scalings and compares canonical forms.
    At n <= cutoff the search runs to the end; above it, it raises
    CutoffExceeded past SEARCH_BUDGET nodes (see ``_first_assignment``),
    and monomial mode tries the permutation search first.
    """
    ensure_same_field(code_a.field, code_b.field)
    if code_a.n != code_b.n:
        raise LengthMismatch("codes of different length")
    n, field, budget = code_a.n, code_a.field, _budget(code_a.n, cutoff)
    if code_a.k != code_b.k:
        return None
    units = [(i,) for i in range(n)]
    moves = [[((j, 1),) for j in range(n)]] * n
    if mode == "permutation":
        return _first_witness(code_a, code_b, units, moves, budget)
    if mode != "monomial":
        raise ValueError(f"unknown mode {mode!r}")
    try:  # above the cutoff, a permutation (a monomial map) is tried first
        found = budget is not None and _first_witness(code_a, code_b, units, moves, budget)
    except CutoffExceeded:
        found = None
    if found:
        return found
    moves = _refined(code_a, code_b, units, moves)

    def leaf(chosen):
        perm = [t for ((t, _),) in chosen]
        permuted = apply_monomial(code_a, MonomialMap(n, perm, field=field))
        lam = _diagonal_witness(field, permuted, code_b)
        if lam is not None:
            candidate = MonomialMap(n, perm, lam)
            if apply_monomial(code_a, candidate) == code_b:
                return candidate
        return None

    return None if moves is None else _first_assignment(units, moves, leaf, budget=budget)
