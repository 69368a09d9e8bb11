"""A test-only reference for elimination, by the element-list route that
every field other than GF(2) took before rows were packed: a row is a list
of field elements and each row update is one comprehension with a field
``sub`` and ``mul`` call per entry.  Membership, shift invariance, the
kernel dual and syndromes are built on it the same way, with the kernel
basis written out vector by vector."""

from bisect import insort


class ListBasis:
    """Rows keyed by their pivot column, each zero before it and 1 in it."""

    def __init__(self, field, ncols, rows=()):
        self.field, self.ncols, self.rows, self.order = field, ncols, {}, []
        for row in rows:
            if len(self.order) == ncols:
                break
            self.insert(row)

    def residue(self, v, above=-1):
        sub, mul, rows = self.field.sub, self.field.mul, self.rows
        v = list(v)
        for c in self.order:
            if c > above:
                x = v[c]
                if x:
                    v = [sub(a, mul(x, b)) if b else a for a, b in zip(v, rows[c])]
        return v

    def insert(self, row):
        v = self.residue(row)
        for c, x in enumerate(v):
            if x:
                break
        else:
            return False
        if x != self.field.one:
            mul, inv = self.field.mul, self.field.inv(x)
            v = [mul(inv, y) if y else 0 for y in v]
        self.rows[c] = v
        insort(self.order, c)
        return True

    def canonical(self):
        rows, order = self.rows, self.order
        for c in order[-2::-1]:
            rows[c] = self.residue(rows[c], above=c)
        return [tuple(rows[c]) for c in order], order


def rref(field, rows, ncols):
    return ListBasis(field, ncols, rows).canonical()


def reduce(field, gen, vector):
    return ListBasis(field, len(vector), gen).residue(vector)


def contains(field, gen, vector):
    return not any(reduce(field, gen, vector))


def shift_invariant(field, gen, n, d):
    return not any(any(reduce(field, gen, row[n - d:] + row[:n - d])) for row in gen)


def kernel_basis(field, gen, pivots, n):
    """One vector per free column fc: 1 at fc, minus row[fc] at each pivot."""
    basis = []
    for fc in (j for j in range(n) if j not in pivots):
        v = [field.zero] * n
        v[fc] = field.one
        for pc, row in zip(pivots, gen):
            v[pc] = field.neg(row[fc])
        basis.append(v)
    return basis


def euclidean_dual(field, n, gen, pivots):
    """The kernel as canonical rows: kernel_basis, eliminated on lists."""
    return rref(field, kernel_basis(field, gen, pivots, n), n)[0]


def image_in(field, gen, pivots, n, row, perm):
    """Whether the code holds the row's image under perm, by syndromes on
    tuples of elements: H has the kernel basis as its rows."""
    h = kernel_basis(field, gen, pivots, n)
    s = (field.zero,) * len(h)
    for i, x in enumerate(row):
        if x:
            col = [field.mul(x, hrow[perm[i]]) for hrow in h]
            s = tuple(map(field.add, s, col))
    return not any(s)
