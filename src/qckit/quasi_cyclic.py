"""Quasi-cyclic codes of length l*m and index l: the slot map into
F_q[Y]/(Y^m - 1), CRT decomposition into constituents over local
fields, duality, self-dual and isodual criteria and constructions, and
multiplier-equivalence enumeration."""

from __future__ import annotations

import itertools
import math

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
)
from .galois import constituent_field, ensure_same_field, find_sqrt_minus_one, is_prime
from .polynomial import Poly, factor_cyclic_modulus, poly_egcd

# Bound on the (slot permutation x per-slot shift) family searched when
# assembling a global isodual witness from component witnesses.
WITNESS_SEARCH_LIMIT = 200000


class QuasiCyclicCode:
    """A length-lm linear code whose row space is invariant under the
    coordinate shift by l positions."""

    __slots__ = ("field", "l", "m", "n", "code", "_decomposition")

    def __init__(self, field, l, m, code):
        self.field = field
        self.l = l
        self.m = m
        self.n = l * m
        self.code = code
        self._decomposition = None

    def minimal_index(self):
        """Smallest divisor d of lm such that the code is T^d-invariant."""
        for d in range(1, self.n + 1):
            if self.n % d != 0:
                continue
            if _shift_invariant(self.code, d):
                return d
        return self.n

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


def _shift_invariant(code, d):
    n = code.n
    for row in code.gen:
        shifted = tuple(row[(i - d) % n] for i in range(n))
        if not code.contains(shifted):
            return False
    return True


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
    if not _shift_invariant(code, l):
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


class ConstituentDecomposition:
    """Constituent codes of a quasi-cyclic code, one length-l code over
    the local field at each irreducible factor of Y^m - 1.

    ``factors``, ``fields`` and ``comps`` run in the classification's
    slot order: self-reciprocal factors first, then reciprocal pairs
    interleaved (h_1, h_1*, h_2, h_2*, ...).
    """

    __slots__ = ("field", "l", "m", "classification", "factors", "fields", "comps")

    def __init__(self, field, l, m, classification, factors, fields, comps):
        self.field = field
        self.l = l
        self.m = m
        self.classification = classification
        self.factors = list(factors)
        self.fields = list(fields)
        self.comps = list(comps)

    def dimension(self):
        return sum(
            f.degree * comp.k for f, comp in zip(self.factors, self.comps)
        )

    def pair_slots(self):
        """Indices (slot_h, slot_h_star) for each reciprocal pair."""
        s = self.classification.s
        return [(s + 2 * j, s + 2 * j + 1) for j in range(self.classification.t)]


def crt_decompose(qc):
    """Project each generator row into every local field F_q[Y]/(f)."""
    if qc._decomposition is not None:
        return qc._decomposition
    field, l, m = qc.field, qc.l, qc.m
    classification = factor_cyclic_modulus(field, m)
    factors = classification.all_factors()
    fields = [constituent_field(field, f.coeffs) for f in factors]
    comps = []
    for f, local in zip(factors, fields):
        rows = []
        for row in qc.code.gen:
            slots = phi(field, l, m, row)
            rows.append(
                tuple(local.from_base_coeffs((p % f).coeffs) for p in slots)
            )
        if rows:
            comps.append(lc.code_from_rows(local, rows, n=l))
        else:
            comps.append(lc.LinearCode.zero_code(local, l))
    decomp = ConstituentDecomposition(
        field, l, m, classification, factors, fields, comps
    )
    assert decomp.dimension() == qc.code.k, "dimension bookkeeping failed"
    qc._decomposition = decomp
    return decomp


_IDEMPOTENT_CACHE = {}


def _idempotent(field, m, factor):
    """e_f = u * (u^-1 mod f) with u = (Y^m - 1)/f: 1 mod f, 0 elsewhere."""
    key = (field, m, factor.coeffs)
    e = _IDEMPOTENT_CACHE.get(key)
    if e is None:
        unity = Poly.unity_modulus(field, m)
        u = unity // factor
        d, w, _ = poly_egcd(u, factor)
        assert d.degree == 0
        w = w.scale(field.inv(d.coeffs[0]))
        e = (u * w) % unity
        _IDEMPOTENT_CACHE[key] = e
    return e


def crt_reconstruct(decomp):
    """Lift every constituent basis vector (times Y^k, k < deg f) back
    to F_q^{lm} through the CRT idempotents and return the span."""
    field, l, m = decomp.field, decomp.l, decomp.m
    unity = Poly.unity_modulus(field, m)
    rows = []
    for f, local, comp in zip(decomp.factors, decomp.fields, decomp.comps):
        if comp.field != local or comp.n != l:
            raise ShapeMismatch(
                f"component over {comp.field} of length {comp.n}, "
                f"expected length {l} over {local}"
            )
        e = _idempotent(field, m, f)
        lifts = [e]
        y = Poly.x(field)
        for _ in range(1, f.degree):
            lifts.append((lifts[-1] * y) % unity)
        for row in comp.gen:
            entry_polys = [Poly(field, local.base_coeffs(a)) for a in row]
            for lift in lifts:
                slots = [(p * lift) % unity for p in entry_polys]
                rows.append(phi_inv(field, l, m, slots))
    code = lc.code_from_rows(field, rows, n=l * m) if rows else (
        lc.LinearCode.zero_code(field, l * m)
    )
    qc = qc_make(field, l, m, code)
    assert crt_decompose(qc).dimension() == decomp.dimension()
    return qc


def _transport(src, dst, code):
    """Carry a code over F_q[Y]/(h*) to F_q[Y]/(h) along Y -> Y^-1."""
    y_inv = dst.y_inverse()
    rows = [
        tuple(dst.eval_base_poly(src.base_coeffs(a), y_inv) for a in row)
        for row in code.gen
    ]
    return lc.code_from_rows(dst, rows, n=code.n) if rows else (
        lc.LinearCode.zero_code(dst, code.n)
    )


def _dual_components(decomp):
    """Per-slot components of the dual code: Hermitian duals on
    self-reciprocal slots, Euclidean duals with the primed and
    double-primed slots swapped (and carried across Y -> Y^-1) on pair
    slots."""
    duals = list(decomp.comps)
    for slot in range(decomp.classification.s):
        duals[slot] = lc.hermitian_dual(decomp.comps[slot])
    for slot_h, slot_hs in decomp.pair_slots():
        fld_h, fld_hs = decomp.fields[slot_h], decomp.fields[slot_hs]
        duals[slot_h] = _transport(
            fld_hs, fld_h, lc.euclidean_dual(decomp.comps[slot_hs])
        )
        duals[slot_hs] = _transport(
            fld_h, fld_hs, lc.euclidean_dual(decomp.comps[slot_h])
        )
    return ConstituentDecomposition(
        decomp.field, decomp.l, decomp.m, decomp.classification,
        decomp.factors, decomp.fields, duals,
    )


def qc_dual(qc):
    """Euclidean dual, computed both as the kernel over F_q and through
    the constituents; the two must agree exactly."""
    kernel = lc.euclidean_dual(qc.code)
    route1 = qc_make(qc.field, qc.l, qc.m, kernel)
    route2 = crt_reconstruct(_dual_components(crt_decompose(qc)))
    if route1.code != route2.code:
        raise DualMismatch("kernel dual and component dual disagree")
    return route1


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
    duals = _dual_components(decomp).comps
    report = []
    component_ok = True
    for slot in range(decomp.classification.s):
        ok = decomp.comps[slot] == duals[slot]
        component_ok = component_ok and ok
        report.append(
            {"factor": decomp.factors[slot].coeffs, "kind": "self-reciprocal",
             "hermitian_selfdual": ok}
        )
    for slot_h, slot_hs in decomp.pair_slots():
        ok = decomp.comps[slot_h] == duals[slot_h]
        assert ok == (decomp.comps[slot_hs] == duals[slot_hs])
        component_ok = component_ok and ok
        report.append(
            {"factor": decomp.factors[slot_h].coeffs, "kind": "pair",
             "dual_paired": ok}
        )
    assert direct == component_ok, "componentwise criterion disagrees"
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
    assert by_conditions == by_gamma
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
    rows = []
    for b in range(l // 2):
        for t in range(m):
            row = [field.zero] * (l * m)
            row[2 * b + t * l] = field.one
            row[2 * b + 1 + t * l] = gamma
            rows.append(tuple(row))
    qc = qc_make(field, l, m, rows)
    cert = is_selfdual(qc)
    assert cert.result, "constructed code failed the self-duality check"
    return qc


class IsodualVerdict:
    """Outcome of an isoduality test: result in {isodual, not_isodual,
    inconclusive}, the strategy used, an optional verified witness
    permutation, and per-constituent findings."""

    __slots__ = ("result", "strategy", "witness", "component_report")

    def __init__(self, result, strategy, witness=None, component_report=None):
        self.result = result
        self.strategy = strategy
        self.witness = witness
        self.component_report = component_report or []

    def __repr__(self):
        return f"IsodualVerdict({self.result}, strategy={self.strategy})"


def _structured_witness(qc, dual_code):
    """Search permutations of the form (slot permutation, per-slot
    cyclic shift) — the coordinate permutations compatible with the
    quasi-cyclic structure — for one mapping the code onto its dual."""
    field, l, m, n = qc.field, qc.l, qc.m, qc.n
    if math.factorial(l) * m ** l > WITNESS_SEARCH_LIMIT:
        return None
    for pi in itertools.permutations(range(l)):
        for shifts in itertools.product(range(m), repeat=l):
            perm = [0] * n
            for j in range(l):
                for i in range(m):
                    perm[j + i * l] = pi[j] + ((i + shifts[j]) % m) * l
            witness = lc.MonomialMap.permutation(field, perm)
            if lc.apply_monomial(qc.code, witness) == dual_code:
                return witness
    return None


def _y_power_witness(comp, target, cutoff):
    """Search for a slot permutation composed with a diagonal of powers
    of y (the class of Y in the local field) taking comp onto target.

    These are exactly the component-level shadows of the coordinate
    permutations compatible with the quasi-cyclic structure: a pure
    slot permutation cannot be enough because a per-slot shift by Y^c
    acts on a component as the scalar y^c.
    """
    if comp.k != target.k:
        return None
    local = comp.field
    l = comp.n
    powers = [local.one]
    y = local.y_class
    while local.mul(powers[-1], y) != local.one:
        powers.append(local.mul(powers[-1], y))
        if len(powers) > local.q:
            raise AssertionError("y is not a root of unity")
    if math.factorial(l) * len(powers) ** l > WITNESS_SEARCH_LIMIT or l > cutoff:
        raise CutoffExceeded(f"component witness space too large at length {l}")
    for pi in itertools.permutations(range(l)):
        for diag in itertools.product(powers, repeat=l):
            witness = lc.MonomialMap(l, pi, diag)
            if lc.apply_monomial(comp, witness) == target:
                return witness
    return None


def is_isodual(qc, strategy="components", cutoff=lc.DEFAULT_SEARCH_CUTOFF):
    """Decide whether the code is permutation-equivalent to its dual."""
    if strategy not in ("components", "bruteforce"):
        raise BadParameters(f"unknown strategy {strategy!r}")
    dual = qc_dual(qc)
    if qc.code == dual.code:
        return IsodualVerdict(
            "isodual", strategy,
            witness=lc.MonomialMap.identity(qc.field, qc.n),
            component_report=[{"note": "self-dual"}],
        )
    if 2 * qc.code.k != qc.n:
        return IsodualVerdict(
            "not_isodual", strategy,
            component_report=[{"note": "dimension is not n/2"}],
        )
    if strategy == "bruteforce":
        try:
            witness = lc.equivalence_search(
                qc.code, dual.code, mode="permutation", cutoff=cutoff
            )
        except CutoffExceeded:
            return IsodualVerdict(
                "inconclusive", strategy,
                component_report=[{"note": f"length {qc.n} exceeds cutoff"}],
            )
        if witness is None:
            return IsodualVerdict("not_isodual", strategy)
        return IsodualVerdict("isodual", strategy, witness=witness)

    if qc.l % 2 != 0:
        # No length-l code over any constituent field can match its
        # dual's dimension when l is odd, so every slot check fails.
        return IsodualVerdict(
            "not_isodual", strategy,
            component_report=[{"note": "odd index"}],
        )
    decomp = crt_decompose(qc)
    dual_decomp = _dual_components(decomp)
    report = []
    all_ok = True
    inconclusive = False
    for slot, (f, comp, target) in enumerate(
        zip(decomp.factors, decomp.comps, dual_decomp.comps)
    ):
        kind = (
            "self-reciprocal" if slot < decomp.classification.s else "pair"
        )
        finding = {"factor": f.coeffs, "kind": kind}
        try:
            witness = _y_power_witness(comp, target, max(cutoff, qc.l))
        except CutoffExceeded:
            inconclusive = True
            finding["witness"] = "cutoff exceeded"
            report.append(finding)
            continue
        finding["witness"] = (
            (witness.perm, witness.diag) if witness is not None else None
        )
        report.append(finding)
        if witness is None:
            all_ok = False
    if not all_ok:
        return IsodualVerdict("not_isodual", strategy, component_report=report)
    if inconclusive:
        return IsodualVerdict("inconclusive", strategy, component_report=report)
    witness = _structured_witness(qc, dual.code)
    if witness is None and qc.n <= cutoff:
        try:
            witness = lc.equivalence_search(
                qc.code, dual.code, mode="permutation", cutoff=cutoff
            )
        except CutoffExceeded:
            witness = None
    return IsodualVerdict(
        "isodual", strategy, witness=witness, component_report=report
    )


def construct_isodual_qc(field, l, m, cutoff=lc.DEFAULT_SEARCH_CUTOFF):
    """The quasi-cyclic code whose every constituent is the length-l
    isodual cyclic code (x+1)f(x), together with the verified verdict.

    The verdict is reported honestly — the underlying existence claim
    does not always survive verification."""
    if l < 2 or l % 2 != 0 or (l // 2) % 2 == 0:
        raise BadParameters(f"index l={l} must be twice an odd integer")
    if m % field.char == 0:
        raise BadParameters(f"m={m} is not coprime to q={field.q}")
    s = l // 2
    classification = factor_cyclic_modulus(field, m)
    factors = classification.all_factors()
    fields = [constituent_field(field, f.coeffs) for f in factors]
    comps = [
        cy.construct_isodual_cyclic(local, s, "B")[0].to_linear()
        for local in fields
    ]
    decomp = ConstituentDecomposition(
        field, l, m, classification, factors, fields, comps
    )
    qc = crt_reconstruct(decomp)
    verdict = is_isodual(qc, strategy="components", cutoff=cutoff)
    if verdict.result != "isodual" and qc.n <= cutoff:
        verdict = is_isodual(qc, strategy="bruteforce", cutoff=cutoff)
    return qc, verdict


def constituents_all_cyclic(qc):
    """Whether every constituent code is cyclic; cross-checked against
    closure of the slot image under the block rotation of the l slots."""
    decomp = crt_decompose(qc)
    by_components = all(
        _shift_invariant(comp, 1) for comp in decomp.comps
    )
    by_image = True
    for row in qc.code.gen:
        slots = phi(qc.field, qc.l, qc.m, row)
        rotated = (slots[-1],) + slots[:-1]
        if not qc.code.contains(phi_inv(qc.field, qc.l, qc.m, rotated)):
            by_image = False
            break
    assert by_components == by_image, "cyclicity criteria disagree"
    return by_components


def _cyclic_components(qc):
    decomp = crt_decompose(qc)
    out = []
    for comp in decomp.comps:
        as_cyclic = cy.from_linear_code(comp)
        if as_cyclic is None:
            raise NotCyclicConstituents(
                f"component over {comp.field} is not cyclic"
            )
        out.append(as_cyclic)
    return decomp, out


def qc_multiplier_equivalent(code_a, code_b):
    """Per-slot multiplier witnesses (a_1, ..., a_r) mapping each
    constituent of code_a onto the matching constituent of code_b, or
    None if some slot admits no multiplier."""
    ensure_same_field(code_a.field, code_b.field)
    if (code_a.l, code_a.m) != (code_b.l, code_b.m):
        raise ShapeMismatch("codes must share the same index and co-length")
    if not constituents_all_cyclic(code_a) or not constituents_all_cyclic(code_b):
        raise NotCyclicConstituents("both codes must have cyclic constituents")
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
    if not constituents_all_cyclic(qc):
        raise NotCyclicConstituents("constituents must all be cyclic")
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
        variant = crt_reconstruct(
            ConstituentDecomposition(
                qc.field, qc.l, qc.m, decomp.classification,
                decomp.factors, decomp.fields, new_comps,
            )
        )
        key = variant.code.gen
        if key not in seen:
            seen[key] = len(codes)
            codes.append(variant)
        orbit.append((labels, seen[key]))
    report = EnumerationReport(
        p, r, p ** r, len(codes), orbit, codes
    )
    assert report.tuples_counted == len(orbit)
    return report


def slot_image_code(qc):
    """The reindexed code grouping coordinates slot-by-slot: source
    coordinate j + i*l moves to position i + j*m."""
    field, l, m, n = qc.field, qc.l, qc.m, qc.n
    perm = [0] * n
    for j in range(l):
        for i in range(m):
            perm[j + i * l] = i + j * m
    return lc.apply_monomial(
        qc.code, lc.MonomialMap.permutation(field, perm)
    )
