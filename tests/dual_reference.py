"""A test-only reference for the dual's constituents, by the route that
carried them before one Y -> Y^-1 map built them all: the conjugation
a -> a^(|base|^(d/2)) by repeated squaring on self-reciprocal slots, and
Horner at y^-1 for each slot of a reciprocal pair."""

from qckit.linear_code import code_from_rows, euclidean_dual


def conjugation_exponent(field):
    """e with a -> a^e the conjugation: |base|^(d/2) on a constituent field
    whose modulus is self-reciprocal of even degree d, else 1."""
    if field.self_reciprocal and field.degree % 2 == 0:
        return field.base.q ** (field.degree // 2)
    return 1


def conjugate(field, a):
    return field.pow(a, conjugation_exponent(field))


def transport(src, dst, code):
    """Carry a code over F_q[Y]/(h*) to F_q[Y]/(h) along Y -> Y^-1, each
    entry by Horner at the inverse of the class of Y in dst."""
    y_inv = dst.y_inverse()
    rows = [tuple(dst.eval_base_poly(src.base_coeffs(a), y_inv) for a in row) for row in code.gen]
    return code_from_rows(dst, rows, n=code.n)


def dual_components(decomp):
    """The dual's constituent codes in slot order: Hermitian duals on the
    s self-reciprocal slots, then each pair (h, h*) at (s + 2j, s + 2j + 1)
    with the Euclidean dual of one slot carried into the other."""
    s, comps, fields = decomp.classification.s, decomp.comps, decomp.fields
    duals = []
    for local, comp in zip(fields[:s], comps[:s]):
        conjugated = code_from_rows(local, [[conjugate(local, a) for a in row] for row in comp.gen], n=comp.n)
        duals.append(euclidean_dual(conjugated))
    for j in range(decomp.classification.t):
        h, hs = s + 2 * j, s + 2 * j + 1
        duals.append(transport(fields[hs], fields[h], euclidean_dual(comps[hs])))
        duals.append(transport(fields[h], fields[hs], euclidean_dual(comps[h])))
    return duals
