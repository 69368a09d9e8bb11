"""Quasi-cyclic codes of length l*m and index l: the slot map into
F_q[Y]/(Y^m - 1), CRT decomposition into constituents over local
fields, duality, self-dual and isodual criteria and constructions, and
multiplier-equivalence enumeration."""

from __future__ import annotations

import functools
import itertools

from . import cyclic as cy
from . import linear_code as lc
from .errors import (
    BadParameters,
    CutoffExceeded,
    DualMismatch,
    LengthMismatch,
    NoGamma,
    NotCoprime,
    NotCyclicConstituents,
    NotPrimeIndex,
    NotShiftInvariant,
    ShapeMismatch,
    TooLarge,
    crosscheck,
)
from .galois import constituent_field, ensure_same_field, find_sqrt_minus_one, is_prime
from .polynomial import Poly, factor_cyclic_modulus, poly_egcd


class QuasiCyclicCode:
    """A length-lm linear code whose row space is invariant under the
    coordinate shift by l positions."""

    __slots__ = ("field", "l", "m", "n", "code", "_decomposition", "_dual", "_dual_decomposition", "_search")

    def __init__(self, field, l, m, code):
        self.field = field
        self.l = l
        self.m = m
        self.n = l * m
        self.code = code
        self._decomposition = None
        self._dual = self._dual_decomposition = None
        self._search = None  # (witness or None,) once a search has finished

    def minimal_index(self):
        """Smallest divisor d of lm such that the code is T^d-invariant."""
        divisors = (d for d in range(1, self.n + 1) if self.n % d == 0)
        return next((d for d in divisors if self.code.shift_invariant(d)), self.n)

    def __eq__(self, other):
        return (
            isinstance(other, QuasiCyclicCode)
            and self.field == other.field
            and self.l == other.l
            and self.m == other.m
            and self.code == other.code
        )

    def __hash__(self):
        return hash((self.field, self.l, self.m, self.code))

    def __repr__(self):
        return (
            f"QuasiCyclicCode[l={self.l}, m={self.m}, "
            f"k={self.code.k}] over {self.field}"
        )


def qc_make(field, l, m, rows):
    """Build a quasi-cyclic code, verifying T^l invariance of the span."""
    if m % field.char == 0:
        raise NotCoprime(f"m={m} is not coprime to q={field.q}")
    if isinstance(rows, lc.LinearCode):
        code = rows
        ensure_same_field(field, code.field)
    else:
        code = lc.code_from_rows(field, rows, n=l * m)
    if code.n != l * m:
        raise LengthMismatch(f"rows have length {code.n}, expected {l * m}")
    if not code.shift_invariant(l):
        raise NotShiftInvariant(f"row space is not invariant under T^{l}")
    return QuasiCyclicCode(field, l, m, code)


def phi(field, l, m, vector):
    """Slot decomposition: entry j is sum_i vector[j + i*l] Y^i."""
    if len(vector) != l * m:
        raise LengthMismatch(f"vector length {len(vector)}, expected {l * m}")
    return tuple(
        Poly(field, [vector[j + i * l] for i in range(m)]) for j in range(l)
    )


def phi_inv(field, l, m, polys):
    """Inverse reindexing of phi; accepts Poly slots of degree < m."""
    if len(polys) != l:
        raise LengthMismatch(f"{len(polys)} slots, expected {l}")
    out = [field.zero] * (l * m)
    for j, p in enumerate(polys):
        coeffs = p.coeffs if isinstance(p, Poly) else tuple(p)
        if len(coeffs) > m:
            raise LengthMismatch(f"slot degree {len(coeffs) - 1} >= m={m}")
        for i, c in enumerate(coeffs):
            out[j + i * l] = c
    return tuple(out)


@functools.cache
def _slots(field, m):
    """The constituent slot layout of (F_q, m): the classification of
    Y^m - 1, its factors in slot order and their local fields."""
    classification = factor_cyclic_modulus(field, m)
    factors = tuple(classification.all_factors())
    return classification, factors, tuple(constituent_field(field, f.coeffs) for f in factors)


class ConstituentDecomposition:
    """Constituent codes of a quasi-cyclic code, one length-l code over
    the local field at each irreducible factor of Y^m - 1.

    ``factors``, ``fields`` and ``comps`` run in the classification's
    slot order: self-reciprocal factors first, then reciprocal pairs
    interleaved (h_1, h_1*, h_2, h_2*, ...).  The layout comes from
    (field, m) alone; ``comps`` must give one code per slot.
    """

    __slots__ = ("field", "l", "m", "classification", "factors", "fields", "comps")

    def __init__(self, field, l, m, comps):
        self.field = field
        self.l = l
        self.m = m
        self.classification, self.factors, self.fields = _slots(field, m)
        self.comps = list(comps)
        if len(self.comps) != len(self.factors):
            raise ShapeMismatch(f"{len(self.comps)} components, expected {len(self.factors)}")
        for local, comp in zip(self.fields, self.comps):
            if comp.field != local or comp.n != l:
                raise ShapeMismatch(
                    f"component over {comp.field} of length {comp.n}, "
                    f"expected length {l} over {local}"
                )

    def dimension(self):
        return sum(
            f.degree * comp.k for f, comp in zip(self.factors, self.comps)
        )

    def reciprocal_slot(self, i):
        """The slot of the reciprocal of factor i (i itself if self-reciprocal)."""
        s = self.classification.s
        return i if i < s else s + ((i - s) ^ 1)


def crt_decompose(qc):
    """Project the canonical rows into every local field F_q[Y]/(f) until
    the local ranks account for the code.  Each projection is the image of
    a codeword, so each local span lies in the constituent C_f; spans with
    sum deg f * dim = k = sum deg f * dim C_f are the constituents."""
    if qc._decomposition is not None:
        return qc._decomposition
    field, l, m, k = qc.field, qc.l, qc.m, qc.code.k
    _, factors, fields = _slots(field, m)
    bases, dim = [lc._Basis(local, l) for local in fields], 0
    for row in qc.code.gen:
        if dim >= k:
            break
        for f, local, basis in zip(factors, fields, bases):
            # Slot j of a row is row[j::l] (see phi); from_base_coeffs reduces it mod f.
            if len(basis.order) < l and basis.insert([local.from_base_coeffs(row[j::l]) for j in range(l)]):
                dim += f.degree
    crosscheck(dim == k, "the constituents have dimension %d, the code %d", dim, k)
    qc._decomposition = ConstituentDecomposition(field, l, m, map(lc.LinearCode._from_basis, bases))
    return qc._decomposition


@functools.cache
def _idempotent(field, m, factor):
    """e_f = u * (u^-1 mod f) with u = (Y^m - 1)/f: 1 mod f, 0 elsewhere."""
    unity = Poly.unity_modulus(field, m)
    u = unity // factor
    d, w, _ = poly_egcd(u, factor)
    crosscheck(d.degree == 0, "%s and its cofactor are not coprime", factor)
    w = w.scale(field.inv(d.coeffs[0]))
    return (u * w) % unity


@functools.cache
def _lifts(field, l, m, factor):
    """Entry i is Y^i e_f mod (Y^m - 1) as a packed row of length lm in
    slot 0, coefficient k in lane k*l (see phi_inv)."""
    shift = field.lane_shift
    e = sum(c << (k * l << shift) for k, c in enumerate(_idempotent(field, m, factor).coeffs))
    return tuple(field.rotate_row(e, i * l, l * m) for i in range(factor.degree))


def crt_reconstruct(decomp):
    """Lift every constituent basis vector to F_q^{lm} by the CRT idempotent
    e_f, with its deg f - 1 shifts by T^l (Y times each slot); return the span.
    Rows stay packed: an element's lift is the sum of the _lifts[i] scaled
    by its base coefficients i, and entry j's lift, shifted by j lanes,
    fills the lanes of slot j."""
    field, l, m = decomp.field, decomp.l, decomp.m
    add, axpy, rotate, shift = field.row_add, field.row_axpy, field.rotate_row, field.lane_shift
    rows = []
    for f, local, comp in zip(decomp.factors, decomp.fields, decomp.comps):
        lifts, lifted = _lifts(field, l, m, f), {0: 0}  # lifted: each element's lift, once
        for row in comp.gen:
            v = 0
            for j, a in enumerate(row):
                slot = lifted.get(a)
                if slot is None:
                    slot = 0
                    for lift, b in zip(lifts, local.base_coeffs(a)):
                        if b:
                            slot = add(slot, lift) if b == 1 else axpy(slot, b, lift)
                    lifted[a] = slot
                v |= slot << (j << shift)
            rows.append(v)
            for _ in range(1, f.degree):
                rows.append(rotate(rows[-1], l, l * m))
    qc = qc_make(field, l, m, lc.LinearCode._from_basis(lc._Basis(field, l * m, rows)))
    crosscheck(qc.code.k == decomp.dimension(), "the reconstructed code has the wrong dimension")
    return qc


def _dual_components(decomp):
    """Per-slot components of the dual code: slot i holds the Euclidean
    dual of the constituent at its reciprocal slot, carried into slot i by
    Y -> Y^-1.  On a self-reciprocal slot that is the Hermitian dual, as
    the conjugation is Y -> Y^-1 and commutes with the Euclidean dual."""
    duals = [lc.conjugate_code(lc.euclidean_dual(decomp.comps[decomp.reciprocal_slot(i)]), local)
             for i, local in enumerate(decomp.fields)]
    return ConstituentDecomposition(decomp.field, decomp.l, decomp.m, duals)


def qc_dual(qc):
    """Euclidean dual, computed both as the kernel over F_q and through
    the constituents; the two must agree exactly.  Kept on the code
    object with its constituents once they do, so each is computed once."""
    if qc._dual is None:
        kernel = lc.euclidean_dual(qc.code)
        route1 = qc_make(qc.field, qc.l, qc.m, kernel)
        duals = _dual_components(crt_decompose(qc))
        route2 = crt_reconstruct(duals)
        if route1.code != route2.code:
            raise DualMismatch("kernel dual and component dual disagree")
        qc._dual, qc._dual_decomposition = route1, duals
    return qc._dual


class SelfdualCertificate:
    """Outcome of the self-duality check with per-slot findings."""

    __slots__ = ("result", "component_report")

    def __init__(self, result, component_report):
        self.result = result
        self.component_report = component_report

    def __bool__(self):
        return self.result

    def __repr__(self):
        return f"SelfdualCertificate({self.result})"


def is_selfdual(qc):
    """Self-duality checked componentwise and directly; both must agree."""
    direct = qc_dual(qc).code == qc.code
    decomp = crt_decompose(qc)
    same = [comp == dual for comp, dual in zip(decomp.comps, qc._dual_decomposition.comps)]
    report = []
    for slot, f in enumerate(decomp.factors):
        partner = decomp.reciprocal_slot(slot)
        if partner >= slot:  # a pair is reported once, at its first slot
            crosscheck(same[slot] == same[partner], "the two slots of the pair at %s disagree", f)
            kind, key = ("self-reciprocal", "hermitian_selfdual") if partner == slot else ("pair", "dual_paired")
            report.append({"factor": f.coeffs, "kind": kind, key: same[slot]})
    crosscheck(direct == all(same), "componentwise criterion disagrees")
    return SelfdualCertificate(direct, report)


def selfdual_exists(field, l):
    """Whether a self-dual quasi-cyclic code of index l exists over the
    field, by the characteristic conditions and by direct search for a
    square root of -1; both formulations must agree."""
    p, e = field.char, field.e
    by_conditions = l % 2 == 0 and (
        p == 2 or p % 4 == 1 or (p % 4 == 3 and e % 2 == 0)
    )
    by_gamma = l % 2 == 0 and find_sqrt_minus_one(field) is not None
    crosscheck(by_conditions == by_gamma, "conditions and gamma search disagree for %s", field)
    return by_conditions


def construct_selfdual_qc(field, l, m):
    """The code with every constituent a sum of l/2 blocks span{(1, gamma)}
    where gamma^2 = -1; verified self-dual."""
    if l < 2 or l % 2 != 0:
        raise BadParameters(f"index l={l} must be even")
    if m % field.char == 0:
        raise BadParameters(f"m={m} is not coprime to q={field.q}")
    gamma = find_sqrt_minus_one(field)
    if gamma is None:
        raise NoGamma(f"no square root of -1 in {field}")
    shift = field.lane_shift  # one packed row (1, gamma) at slots 2b, 2b + 1 of block t
    rows = [(1 | gamma << (1 << shift)) << (2 * b + t * l << shift) for b in range(l // 2) for t in range(m)]
    qc = qc_make(field, l, m, lc.LinearCode._from_basis(lc._Basis(field, l * m, rows)))
    crosscheck(is_selfdual(qc).result, "constructed code failed the self-duality check")
    return qc


class IsodualVerdict:
    """Outcome of an isoduality test; each result carries its evidence.

    "isodual" comes with a witness permutation that ``apply_monomial``
    maps onto the dual; "not_isodual" rests on k != n/2 or on an
    exhausted permutation search; "inconclusive" names the node budget a
    search spent and the nodes it visited.  ``criterion`` is the paper's
    componentwise criterion under the "components" strategy ("holds",
    "fails", or "cutoff" when a slot's search spent its budget; None under
    "bruteforce"), with its per-slot findings in ``component_report``; it
    decides nothing by itself.
    """

    __slots__ = ("result", "strategy", "witness", "criterion", "component_report")

    def __init__(self, result, strategy, witness=None, component_report=None, criterion=None):
        self.result = result
        self.strategy = strategy
        self.witness = witness
        self.criterion = criterion
        self.component_report = component_report or []

    def __repr__(self):
        return f"IsodualVerdict({self.result}, strategy={self.strategy})"


def _structured_witness(qc, dual_code, budget=None):
    """Search permutations of the form (slot permutation, per-slot
    cyclic shift) — the coordinate permutations compatible with the
    quasi-cyclic structure — for one mapping the code onto its dual.

    Each slot is one unit of the pruned search: slot j, coordinates
    j + i*l, goes whole to slot p shifted by s, coordinate j + i*l to
    p + ((i + s) mod m)*l."""
    l, m, n = qc.l, qc.m, qc.n
    moves = [tuple((p + (i + s) % m * l, 1) for i in range(m)) for p in range(l) for s in range(m)]
    return lc._first_witness(qc.code, dual_code, [tuple(range(j, n, l)) for j in range(l)], [moves] * l, budget)


def _y_power_witness(comp, target, budget=None):
    """Search for a slot permutation composed with a diagonal of powers
    of y (the class of Y in the local field) taking comp onto target.

    These are exactly the component-level shadows of the coordinate
    permutations compatible with the quasi-cyclic structure: a pure
    slot permutation cannot be enough because a per-slot shift by Y^c
    acts on a component as the scalar y^c.  Each column is one unit of
    the pruned search, sent to a column and scaled by a power of y.
    """
    local = comp.field
    l = comp.n
    powers = [local.one]
    y = local.y_class
    while local.mul(powers[-1], y) != local.one:
        powers.append(local.mul(powers[-1], y))
        crosscheck(len(powers) <= local.q, "y is not a root of unity")
    moves = [((j, d),) for j in range(l) for d in powers]
    return lc._first_witness(comp, target, [(i,) for i in range(l)], [moves] * l, budget)


def _componentwise_criterion(qc, budget):
    """The paper's criterion: every constituent maps onto its dual
    component by a slot permutation with a diagonal of powers of y.
    Returns "fails" if some slot has no such map, else "cutoff" if some
    slot's search spent its node budget, else "holds"; with per-slot
    findings.  Runs after qc_dual, which keeps the dual's components."""
    decomp = crt_decompose(qc)
    report = []
    for slot, (f, comp, target) in enumerate(zip(decomp.factors, decomp.comps, qc._dual_decomposition.comps)):
        try:
            w = _y_power_witness(comp, target, budget)
            witness = None if w is None else (w.perm, w.diag)
        except CutoffExceeded:
            witness = "cutoff exceeded"
        kind = "self-reciprocal" if decomp.reciprocal_slot(slot) == slot else "pair"
        report.append({"factor": f.coeffs, "kind": kind, "witness": witness})
    found = [finding["witness"] for finding in report]
    return "fails" if None in found else "cutoff" if "cutoff exceeded" in found else "holds", report


def _permutation_witness(qc, cutoff):
    """The exhaustive search's first permutation taking the code onto its
    dual, or None; kept on the code object only once a search finishes."""
    if qc._search is None:
        qc._search = (lc.equivalence_search(qc.code, qc_dual(qc).code, cutoff=cutoff),)
    return qc._search[0]


def is_isodual(qc, strategy="components", cutoff=lc.DEFAULT_SEARCH_CUTOFF):
    """Decide whether the code is permutation-equivalent to its dual.

    A self-dual code is isodual by the identity, and k != n/2 rules
    isoduality out.  Otherwise the exhaustive permutation search decides
    either way: at n <= cutoff it runs to the end, and above the cutoff
    each search visits at most ``linear_code.SEARCH_BUDGET`` nodes, the
    verdict being "inconclusive" once one spends it.  Above the cutoff a
    structure-compatible witness (slot permutation and per-slot shifts)
    is searched first, when the componentwise criterion holds.  The
    "components" strategy also reports the criterion; "bruteforce" skips
    it and the structured search."""
    if strategy not in ("components", "bruteforce"):
        raise BadParameters(f"unknown strategy {strategy!r}")
    dual, budget = qc_dual(qc), lc._budget(qc.n, cutoff)
    criterion, report = _componentwise_criterion(qc, budget) if strategy == "components" else (None, [])

    def verdict(result, note=None, witness=None):
        notes = [{"note": note}] if note else []
        return IsodualVerdict(result, strategy, witness, report + notes, criterion)

    if qc.code == dual.code:
        return verdict("isodual", "self-dual", lc.MonomialMap.identity(qc.field, qc.n))
    if 2 * qc.code.k != qc.n:
        return verdict("not_isodual", "dimension is not n/2")
    try:
        witness = _structured_witness(qc, dual.code, budget) if budget and criterion == "holds" else None
        if witness is None:
            witness = _permutation_witness(qc, cutoff)
    except CutoffExceeded as spent:
        return verdict("inconclusive", str(spent))
    if witness is None:
        return verdict("not_isodual", "exhaustive permutation search found no witness")
    return verdict("isodual", witness=witness)


def construct_isodual_qc(field, l, m, cutoff=lc.DEFAULT_SEARCH_CUTOFF):
    """The quasi-cyclic code whose every constituent is the length-l
    isodual cyclic code (x+1)f(x), together with its isoduality verdict.

    The verdict is reported honestly — the underlying existence claim
    does not always survive verification."""
    if l < 2 or l % 2 != 0 or (l // 2) % 2 == 0:
        raise BadParameters(f"index l={l} must be twice an odd integer")
    if (l // 2) % field.char == 0:
        raise BadParameters(f"index l={l}: l/2 is not coprime to q={field.q}")
    if m % field.char == 0:
        raise BadParameters(f"m={m} is not coprime to q={field.q}")
    comps = [cy.construct_isodual_cyclic(local, l // 2, "B")[0].to_linear() for local in _slots(field, m)[2]]
    qc = crt_reconstruct(ConstituentDecomposition(field, l, m, comps))
    return qc, is_isodual(qc, strategy="components", cutoff=cutoff)


def constituents_all_cyclic(qc):
    """Whether every constituent code is cyclic; cross-checked against
    closure of the slot image under the block rotation of the l slots."""
    decomp = crt_decompose(qc)
    by_components = all(comp.shift_invariant(1) for comp in decomp.comps)
    # Rotating the l slots moves slot j - 1 (mod l) of every block to slot j.
    by_image = all(
        qc.code.contains(tuple(row[i - i % qc.l + (i - 1) % qc.l] for i in range(qc.n)))
        for row in qc.code.gen
    )
    crosscheck(by_components == by_image, "cyclicity criteria disagree")
    return by_components


def _cyclic_components(qc):
    """The decomposition of qc and its constituents as cyclic codes;
    NotCyclicConstituents unless every constituent is cyclic."""
    if not constituents_all_cyclic(qc):
        raise NotCyclicConstituents("constituents must all be cyclic")
    decomp = crt_decompose(qc)
    out = [cy.from_linear_code(comp) for comp in decomp.comps]
    crosscheck(None not in out, "a cyclic constituent has no generator polynomial")
    return decomp, out


def qc_multiplier_equivalent(code_a, code_b):
    """Per-slot multiplier witnesses (a_1, ..., a_r) mapping each
    constituent of code_a onto the matching constituent of code_b, or
    None if some slot admits no multiplier."""
    ensure_same_field(code_a.field, code_b.field)
    if (code_a.l, code_a.m) != (code_b.l, code_b.m):
        raise ShapeMismatch("codes must share the same index and co-length")
    _, comps_a = _cyclic_components(code_a)
    _, comps_b = _cyclic_components(code_b)
    witnesses = []
    for ca, cb in zip(comps_a, comps_b):
        a = cy.multiplier_equivalent(ca, cb)
        if a is None:
            return None
        witnesses.append(a)
    return tuple(witnesses)


class EnumerationReport:
    """Census of the multiplier-modified variants of a quasi-cyclic
    code of prime index p: one entry per selection of modified slots
    and multiplier labels, p^r selections in total."""

    __slots__ = ("p", "r", "tuples_counted", "distinct_codes", "orbit", "codes")

    def __init__(self, p, r, tuples_counted, distinct_codes, orbit, codes):
        self.p = p
        self.r = r
        self.tuples_counted = tuples_counted
        self.distinct_codes = distinct_codes
        self.orbit = orbit
        self.codes = codes

    def __repr__(self):
        return (
            f"EnumerationReport(p={self.p}, r={self.r}, "
            f"tuples={self.tuples_counted}, distinct={self.distinct_codes})"
        )


def enumerate_multiplier_equivalents(qc):
    """Apply every selection of per-slot multipliers (label 0 leaves a
    slot untouched, label a >= 1 applies mu_a) and report the p^r
    resulting codes with canonical deduplication."""
    p = qc.l
    if not is_prime(p):
        raise NotPrimeIndex(f"index {p} is not prime")
    decomp, comps = _cyclic_components(qc)
    r = decomp.classification.r
    if p ** r > 2 ** 20:
        raise TooLarge(f"{p}^{r} selections exceed the tuple-space bound")
    orbit = []
    seen = {}
    codes = []
    for labels in itertools.product(range(p), repeat=r):
        new_comps = [
            comps[i].to_linear() if a == 0
            else cy.multiplier_apply(comps[i], a).to_linear()
            for i, a in enumerate(labels)
        ]
        variant = crt_reconstruct(ConstituentDecomposition(qc.field, qc.l, qc.m, new_comps))
        key = variant.code.gen
        if key not in seen:
            seen[key] = len(codes)
            codes.append(variant)
        orbit.append((labels, seen[key]))
    crosscheck(len(orbit) == p ** r, "%d selections counted, expected %d", len(orbit), p ** r)
    return EnumerationReport(p, r, p ** r, len(codes), orbit, codes)


def slot_image_code(qc):
    """The reindexed code grouping coordinates slot-by-slot: source
    coordinate j + i*l moves to position i + j*m."""
    perm = [c // qc.l + c % qc.l * qc.m for c in range(qc.n)]  # c = j + i*l
    return lc.apply_monomial(qc.code, lc.MonomialMap.permutation(qc.field, perm))
