"""Test-only schoolbook references for polynomial arithmetic on coefficient
lists, ascending, through the field's own element operations: no packed
row and no library polynomial kernel is involved."""

import itertools


def strip(coeffs):
    """The coefficients as a tuple without trailing zeros."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def schoolbook_add(field, a, b):
    return strip(itertools.starmap(field.add, itertools.zip_longest(a, b, fillvalue=field.zero)))


def schoolbook_mul(field, a, b):
    out = [field.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return strip(out)


def schoolbook_divmod(field, a, b):
    a, b = strip(a), strip(b)
    rem, quot = list(a), [field.zero] * max(len(a) - len(b) + 1, 0)
    lead_inv = field.inv(b[-1])
    for shift in range(len(a) - len(b), -1, -1):
        c = field.mul(rem[shift + len(b) - 1], lead_inv)
        quot[shift] = c
        for i, x in enumerate(b):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(c, x))
    return strip(quot), strip(rem)


def schoolbook_gcd(field, a, b):
    """The monic gcd by Euclid's remainders."""
    a, b = strip(a), strip(b)
    while b:
        a, b = b, schoolbook_divmod(field, a, b)[1]
    if not a:
        return a
    inv = field.inv(a[-1])
    return tuple(field.mul(inv, x) for x in a)
