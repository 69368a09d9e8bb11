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
from .galois import ensure_same_field, pack_bits, reciprocal_map, rotate_bits, unpack_bits

DEFAULT_SEARCH_CUTOFF = 8
WEIGHT_ENUM_LIMIT = 2 ** 16
SEARCH_BUDGET = 100_000  # nodes a search above its length cutoff may visit


def _budget(n, cutoff):
    """The node budget of a search over n coordinates: none at n <= cutoff."""
    return None if n <= cutoff else SEARCH_BUDGET


class _Basis:
    """The state of row-at-a-time elimination: rows keyed by their pivot
    column, each zero before the pivot column and 1 in it.

    Over GF(2) a row is an int packed by ``galois.pack_bits`` (bit j holds
    column j; ``insert`` takes such ints as they stand) and elimination is
    XOR; over other fields it is a sequence of elements.  The given rows
    are inserted one at a time, and the rest are skipped once the rank
    reaches ncols.
    """

    __slots__ = ("field", "ncols", "rows", "packed", "mask", "order", "sub", "mul")

    def __init__(self, field, ncols, rows=()):
        self.field = field
        self.ncols = ncols
        self.rows = {}
        self.packed = field.q == 2
        self.mask = 0  # packed: the bits of the pivot columns
        self.order = []  # the pivot columns, ascending
        self.sub, self.mul = field.sub, field.mul  # bound once for the row updates
        for row in rows:
            if len(self.order) == ncols:
                break
            self.insert(row)

    def residue(self, v, above=-1):
        """v minus the combination of rows that clears each pivot column
        after ``above``, in the packed or sequence form of the rows.

        Pivots are taken in ascending order: a row changes nothing before
        its pivot column, so a pivot column once cleared stays clear.
        """
        rows = self.rows
        if self.packed:
            mask = self.mask >> (above + 1) << (above + 1)
            hit = v & mask
            while hit:
                v ^= rows[(hit & -hit).bit_length() - 1]
                hit = v & mask
            return v
        sub, mul = self.sub, self.mul
        for c in self.order:
            if c > above:
                x = v[c]
                if x:
                    v = [sub(a, mul(x, b)) if b else a for a, b in zip(v, rows[c])]
        return v

    def insert(self, row):
        """Reduce a row and keep it, scaled to a leading 1, unless it lies
        in the span; returns whether it was kept."""
        if self.packed:
            v = self.residue(row if type(row) is int else pack_bits(row))
            if not v:
                return False
            lead = v & -v
            self.mask |= lead
            c = lead.bit_length() - 1
        else:
            v = self.residue(row)
            for c, x in enumerate(v):
                if x:
                    break
            else:
                return False
            if x != self.field.one:
                mul, inv = self.mul, self.field.inv(x)
                v = [mul(inv, y) if y else 0 for y in v]
        self.rows[c] = v
        insort(self.order, c)
        return True

    def canonical(self):
        """Back-substitute into the canonical RREF: (rows, pivots)."""
        rows, order = self.rows, self.order
        for c in order[-2::-1]:  # the last row has no later pivot to clear
            rows[c] = self.residue(rows[c], above=c)
        if self.packed:
            return [tuple(unpack_bits(rows[c], self.ncols)) for c in order], order
        return [tuple(rows[c]) for c in order], order


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
        """Residue of a vector after elimination against the basis, as a list."""
        basis = self._basis
        if basis.packed:
            return unpack_bits(basis.residue(pack_bits(vector)), self.n)
        return list(basis.residue(vector))

    def contains(self, vector):
        if len(vector) != self.n:
            raise LengthMismatch(f"vector length {len(vector)}, expected {self.n}")
        basis = self._basis
        return not (basis.residue(pack_bits(vector)) if basis.packed else any(basis.residue(vector)))

    def shift_invariant(self, d):
        """Whether the code is invariant under T^d, 0 <= d <= n: coordinate
        i moves to i + d (mod n).  Over GF(2) the kept rows rotate packed."""
        basis = self._basis
        if basis.packed:
            return not any(basis.residue(rotate_bits(v, d, self.n)) for v in basis.rows.values())
        return not any(any(basis.residue(row[-d:] + row[:-d])) for row in self.gen)

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
    one vector per free column in ascending order.  Negation is skipped
    on zero entries and in characteristic 2, where it is the identity."""
    pivot_set = set(pivots)
    neg, char2 = field.neg, field.char == 2
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for pc, row in zip(pivots, rows):
            a = row[fc]
            v[pc] = a if char2 or not a else neg(a)
        basis.append(v)
    return basis


class _ParityCheck:
    """Membership in a code D by syndromes: v lies in D iff H v = 0, where
    the rows of H are D's kernel basis (a basis of the dual of D).

    ``cols[j]`` is column j of H: over GF(2) an int packed by
    ``galois.pack_bits`` (bit i holds row i of H), so adding a column is
    XOR; over other fields a tuple of elements.
    """

    __slots__ = ("cols", "zero", "packed", "add", "mul")

    def __init__(self, code):
        field = code.field
        h = kernel_basis(field, code.gen, code.pivots, code.n)
        columns = [[row[j] for row in h] for j in range(code.n)]
        self.packed = field.q == 2
        if self.packed:
            self.cols = [pack_bits(c) for c in columns]
            self.zero = 0
        else:
            self.cols = [tuple(c) for c in columns]
            self.zero = (field.zero,) * len(h)
        self.add, self.mul = field.add, field.mul

    def plus(self, s, x, j):
        """The syndrome s plus x times column j of H, for x nonzero."""
        if self.packed:
            return s ^ self.cols[j]
        if x == 1:
            return tuple(map(self.add, s, self.cols[j]))
        return tuple(map(self.add, s, map(self.mul, itertools.repeat(x), self.cols[j])))

    def image_in(self, row, perm):
        """Whether D holds the image of a row under the permutation: entry
        i moves to coordinate perm[i]."""
        s = self.zero
        for i, x in enumerate(row):
            if x:
                s = self.plus(s, x, perm[i])
        return s == self.zero


def euclidean_dual(code):
    """The kernel of the generator matrix, as a canonical code.  Over GF(2)
    the vector of free column fc is packed from the basis rows: bit fc, and
    the pivot bit of each row with bit fc set (kernel_basis, in ints)."""
    basis, n = code._basis, code.n
    if not basis.packed:
        return LinearCode(code.field, n, kernel_basis(code.field, code.gen, code.pivots, n))
    rows = [(1 << pc, basis.rows[pc]) for pc in code.pivots]
    kernel = [1 << fc | sum(bit for bit, row in rows if row >> fc & 1)
              for fc in range(n) if not basis.mask >> fc & 1]
    return LinearCode._from_basis(_Basis(code.field, n, kernel))


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
