"""Self-verification suites: every theorem the library relies on is
re-checked against independent oracles (kernel duals, exhaustive
searches, combinatorial counts) on a seeded corpus.

Each suite returns a report dict with a "status" of "pass" or "fail"
plus enough detail to reproduce a failure.  The "main:thm" suite is
special: the componentwise isoduality criterion is cross-checked
against the exhaustive-permutation oracle, and any disagreement is a
verified counterexample reported as a finding (the oracle is the
arbiter; the suite fails only if the cross-check itself is broken).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time

from . import cyclic as cy
from . import linear_code as lc
from . import quasi_cyclic as qc_mod
from .errors import CrossCheckFailed, DualMismatch, NotPrime
from .galois import field_from_q, find_sqrt_minus_one, make_field
from .polynomial import Poly, cyclotomic_cosets, factor_cyclic_modulus

DEFAULT_SEED = 12345


def random_qc_code(field, l, m, rng):
    """A random quasi-cyclic code: a few random rows closed under T^l."""
    n = l * m
    nrows = rng.randrange(1, max(2, n // 2 + 1))
    closed = []
    for _ in range(nrows):
        v = tuple(rng.randrange(field.q) for _ in range(n))
        for s in range(m):
            closed.append(tuple(v[(i - s * l) % n] for i in range(n)))
    return qc_mod.qc_make(field, l, m, closed)


@functools.cache
def _corpus_200(seed):
    """The shared 200-code corpus: q in {2,3,4,5}, l <= 4, m <= 15."""
    rng = random.Random(seed)
    out = []
    for _ in range(200):
        q = rng.choice([2, 3, 4, 5])
        field = field_from_q(q)
        l = rng.randrange(1, 5)
        while True:
            m = rng.randrange(1, 16)
            if m % field.char != 0:
                break
        out.append(random_qc_code(field, l, m, rng))
    return out


def suite_factorization(seed=DEFAULT_SEED):
    """Re-multiplied classified factors equal Y^m - 1 and the factor
    count matches the independent cyclotomic-coset count."""
    checked = 0
    for q in (2, 3, 4, 5, 7, 9):
        field = field_from_q(q)
        for m in range(1, 31):
            if m % field.char == 0:
                continue
            cls = factor_cyclic_modulus(field, m)
            ok_product = cls.verify_product()
            ok_count = cls.r == len(cyclotomic_cosets(q, m))
            if not (ok_product and ok_count):
                return {
                    "status": "fail", "q": q, "m": m,
                    "product_ok": ok_product, "count_ok": ok_count,
                }
            checked += 1
    return {"status": "pass", "cases": checked}


def suite_crt_roundtrip(seed=DEFAULT_SEED):
    """crt_reconstruct(crt_decompose(C)) = C on the 200-code corpus."""
    for i, qc in enumerate(_corpus_200(seed)):
        rt = qc_mod.crt_reconstruct(qc_mod.crt_decompose(qc))
        if rt.code != qc.code:
            return {"status": "fail", "index": i, "code": qc.code.gen}
    return {"status": "pass", "cases": 200}


def suite_propodual(seed=DEFAULT_SEED):
    """Kernel dual equals constituent dual on the 200-code corpus."""
    for i, qc in enumerate(_corpus_200(seed)):
        try:
            dual = qc_mod.qc_dual(qc)
        except DualMismatch:
            return {"status": "fail", "index": i, "code": qc.code.gen}
        if dual.code.k + qc.code.k != qc.n:
            return {"status": "fail", "index": i, "reason": "dimension"}
    return {"status": "pass", "cases": 200}


def suite_cor_condi(seed=DEFAULT_SEED):
    """Componentwise self-duality iff direct C = C-perp, every instance
    (is_selfdual raises CrossCheckFailed if the two checks ever disagree)."""
    selfdual_seen = 0
    for i, qc in enumerate(_corpus_200(seed)):
        try:
            cert = qc_mod.is_selfdual(qc)
        except CrossCheckFailed:
            return {"status": "fail", "index": i, "code": qc.code.gen}
        if cert.result:
            selfdual_seen += 1
    # The random corpus rarely hits self-dual codes, so add constructed ones.
    for q, l, m in [(2, 2, 1), (2, 2, 3), (2, 4, 3), (5, 2, 1), (5, 2, 3),
                    (4, 2, 5), (9, 2, 1), (13, 2, 1)]:
        field = field_from_q(q)
        qc = qc_mod.construct_selfdual_qc(field, l, m)
        cert = qc_mod.is_selfdual(qc)
        if not cert.result:
            return {"status": "fail", "constructed": (q, l, m)}
        selfdual_seen += 1
    return {"status": "pass", "cases": 200 + 8, "selfdual_instances": selfdual_seen}


def _isodual_corpus(seed):
    """100 QC codes with lm <= 8: constructed isodual and non-isodual
    instances, known strategy-disagreement instances, and random fill."""
    rng = random.Random(seed + 1)
    corpus = []
    for q, l, m in [(2, 2, 1), (2, 2, 3), (2, 4, 1), (5, 2, 1), (4, 2, 1),
                    (9, 2, 1), (13, 2, 1), (5, 4, 1), (5, 2, 2)]:
        corpus.append(qc_mod.construct_selfdual_qc(field_from_q(q), l, m))
    for q, l, m in [(2, 2, 1), (2, 2, 3), (2, 6, 1), (3, 2, 1), (3, 2, 2),
                    (5, 2, 1), (7, 2, 1), (4, 2, 1), (9, 2, 1), (3, 2, 4)]:
        code, _ = qc_mod.construct_isodual_qc(field_from_q(q), l, m)
        corpus.append(code)
    # Instances where the componentwise criterion and the exhaustive
    # oracle are known to disagree; kept so findings are exercised.
    F5, F4, F3 = field_from_q(5), field_from_q(4), field_from_q(3)
    corpus.append(qc_mod.qc_make(F5, 2, 2, [(1, 0, 1, 4), (0, 1, 0, 4)]))
    corpus.append(qc_mod.qc_make(F3, 2, 2, [(1, 0, 1, 0), (0, 1, 1, 2)]))
    corpus.append(qc_mod.qc_make(F4, 2, 3, [
        tuple(F4.element_from_coeffs(c) for c in row) for row in [
            ((1, 0), (0, 0), (0, 0), (0, 1), (1, 1), (0, 1)),
            ((0, 0), (1, 0), (0, 0), (0, 1), (0, 0), (1, 1)),
            ((0, 0), (0, 0), (1, 0), (0, 1), (0, 1), (0, 1)),
        ]
    ]))
    while len(corpus) < 100:
        q = rng.choice([2, 3, 4, 5])
        field = field_from_q(q)
        pairs = [
            (l, m) for l in range(1, 5) for m in range(1, 9)
            if l * m <= 8 and m % field.char != 0
        ]
        l, m = rng.choice(pairs)
        corpus.append(random_qc_code(field, l, m, rng))
    return corpus


def suite_main_thm(seed=DEFAULT_SEED):
    """The componentwise criterion vs the exhaustive permutation oracle
    on 100 codes with lm <= 8; disagreements become verified findings."""
    corpus = _isodual_corpus(seed)
    findings = []
    agreements = 0
    for i, qc in enumerate(corpus):
        criterion = qc_mod.is_isodual(qc, strategy="components", cutoff=8).criterion
        v_brute = qc_mod.is_isodual(qc, strategy="bruteforce", cutoff=8)
        if v_brute.result == "inconclusive" or criterion == "cutoff":
            return {"status": "fail", "index": i, "reason": "inconclusive at lm <= 8"}
        claimed = "isodual" if criterion == "holds" else "not_isodual"
        if claimed == v_brute.result:
            agreements += 1
            continue
        # Verify the oracle's side before reporting the counterexample.
        dual = qc_mod.qc_dual(qc)
        if v_brute.result == "isodual":
            verified = (
                v_brute.witness is not None
                and lc.apply_monomial(qc.code, v_brute.witness) == dual.code
            )
        else:
            # Every permutation, with no pruning and no invariants: none
            # may move all generator rows into the dual.
            check = lc._ParityCheck(dual.code)
            verified = qc.code.k != dual.code.k or not any(
                all(check.image_in(row, p) for row in qc.code.gen)
                for p in itertools.permutations(range(qc.n))
            )
        if not verified:
            return {"status": "fail", "index": i, "reason": "unverified witness"}
        findings.append({
            "q": qc.field.q, "l": qc.l, "m": qc.m,
            "generators": list(map(qc.field.coeffs_of_row, qc.code.gen)),
            "components_verdict": claimed,
            "oracle_verdict": v_brute.result,
            "oracle_witness": (
                list(v_brute.witness.perm) if v_brute.witness else None
            ),
        })
    return {
        "status": "pass",
        "cases": len(corpus),
        "agreements": agreements,
        "disagreements": len(findings),
        "findings": findings,
    }


def suite_thm_equivalent2(seed=DEFAULT_SEED):
    """Both length-2s variants map exactly onto their duals under the
    constructed witness; exhaustive monomial search confirms at 2s <= 8."""
    cases = 0
    for q in (2, 3, 5, 7, 9):
        field = field_from_q(q)
        for s in (1, 3, 5, 7):
            if math.gcd(2 * s, q) != 1:
                continue
            for variant in ("A", "B"):
                code, witness = cy.construct_isodual_cyclic(field, s, variant)
                expanded = code.to_linear()
                dual = lc.euclidean_dual(expanded)
                if lc.apply_monomial(expanded, witness) != dual:
                    return {"status": "fail", "q": q, "s": s, "variant": variant}
                if 2 * s <= 8:
                    found = lc.equivalence_search(
                        expanded, dual, mode="monomial", cutoff=8
                    )
                    if found is None:
                        return {
                            "status": "fail", "q": q, "s": s,
                            "variant": variant, "reason": "search found nothing",
                        }
                cases += 1
    return {"status": "pass", "cases": cases}


def suite_selfdual_existence(seed=DEFAULT_SEED):
    """Condition test vs gamma enumeration for q <= 64; constructions
    verify; exhaustive nonexistence check at q = 3, l = 2, m = 1."""
    for q in range(2, 65):
        try:
            field = field_from_q(q)
        except NotPrime:
            continue
        for l in (2, 3, 4):
            claim = qc_mod.selfdual_exists(field, l)  # cross-checked internally
            gamma = find_sqrt_minus_one(field)
            if claim != (l % 2 == 0 and gamma is not None):
                return {"status": "fail", "q": q, "l": l}
    built = 0
    for q in (2, 4, 5, 9, 13):
        field = field_from_q(q)
        for l in (2, 4):
            for m in (1, 3, 5):
                if m % field.char == 0:
                    continue
                code = qc_mod.construct_selfdual_qc(field, l, m)
                dual = lc.euclidean_dual(code.code)
                if dual != code.code:
                    return {"status": "fail", "q": q, "l": l, "m": m}
                built += 1
    # q = 3, l = 2, m = 1: every 1-dimensional code fails a*a + b*b = 0.
    F3 = make_field(3)
    for v in [(0, 1), (1, 0), (1, 1), (1, 2)]:
        ip = F3.add(F3.mul(v[0], v[0]), F3.mul(v[1], v[1]))
        if ip == F3.zero:
            return {"status": "fail", "reason": f"unexpected self-dual {v} over F3"}
    return {"status": "pass", "constructions": built}


def _th_prime_seed(field, l, m):
    """A QC code with cyclic constituents on which multipliers act
    nontrivially: each constituent is generated by the last irreducible
    factor of x^l - 1 over its local field, in slot order."""
    comps = []
    for local in qc_mod._slots(field, m)[2]:
        g = factor_cyclic_modulus(local, l).all_factors()[-1]
        comps.append(cy.cyclic_make(local, l, g).to_linear())
    return qc_mod.crt_reconstruct(qc_mod.ConstituentDecomposition(field, l, m, comps))


def suite_th_prime(seed=DEFAULT_SEED):
    """tuples_counted = p^r on the three benchmark shapes; every
    enumerated code is multiplier-equivalent back to the seed code."""
    results = []
    for q, m, l in [(2, 3, 3), (2, 7, 3), (3, 2, 5)]:
        field = field_from_q(q)
        qc = _th_prime_seed(field, l, m)
        report = qc_mod.enumerate_multiplier_equivalents(qc)
        r = factor_cyclic_modulus(field, m).r
        if report.tuples_counted != l ** r:
            return {"status": "fail", "shape": (q, m, l),
                    "tuples": report.tuples_counted, "expected": l ** r}
        for variant in report.codes:
            if qc_mod.qc_multiplier_equivalent(qc, variant) is None:
                return {"status": "fail", "shape": (q, m, l),
                        "reason": "variant not multiplier-equivalent"}
        results.append({
            "q": q, "m": m, "l": l, "r": r,
            "tuples_counted": report.tuples_counted,
            "distinct_codes": report.distinct_codes,
        })
    return {"status": "pass", "shapes": results}


def suite_multiplier_consistency(seed=DEFAULT_SEED):
    """Generator-polynomial and defining-set multiplier routes agree on
    every divisor of x^n - 1 (checked inside multiplier_apply), and
    the two Hamming generators are multiplier equivalent."""
    checked = 0
    for q in (2, 4):
        field = field_from_q(q)
        for n in (7, 9, 15):
            factors = factor_cyclic_modulus(field, n).all_factors()
            units = [a for a in range(1, n) if math.gcd(a, n) == 1]
            for size in range(len(factors) + 1):
                for combo in itertools.combinations(factors, size):
                    g = Poly.one(field)
                    for f in combo:
                        g = g * f
                    code = cy.cyclic_make(field, n, g.monic())
                    for a in units:
                        cy.multiplier_apply(code, a)  # checks route agreement
                        checked += 1
    F2 = make_field(2)
    ham1 = cy.cyclic_make(F2, 7, Poly(F2, (1, 1, 0, 1)))
    ham2 = cy.cyclic_make(F2, 7, Poly(F2, (1, 0, 1, 1)))
    witness = cy.multiplier_equivalent(ham1, ham2)
    if witness != 3:
        return {"status": "fail", "hamming_witness": witness}
    return {"status": "pass", "cases": checked, "hamming_witness": witness}


def suite_prop_image(seed=DEFAULT_SEED):
    """Codes are equivalent iff their slot images are, on constructed
    pairs with lm <= 8; witnesses correspond under the reindexing."""
    rng = random.Random(seed + 2)
    cases = 0
    for _ in range(40):
        q = rng.choice([2, 3])
        field = field_from_q(q)
        pairs = [
            (l, m) for l in range(1, 5) for m in range(1, 9)
            if l * m <= 8 and m % field.char != 0
        ]
        l, m = rng.choice(pairs)
        code_a = random_qc_code(field, l, m, rng)
        if rng.random() < 0.5:
            # An equivalent partner: a structure-compatible permutation.
            perm = list(range(l * m))
            shift = rng.randrange(m)
            for j in range(l):
                for i in range(m):
                    perm[j + i * l] = j + ((i + shift) % m) * l
            moved = lc.apply_monomial(
                code_a.code, lc.MonomialMap.permutation(field, perm)
            )
            code_b = qc_mod.qc_make(field, l, m, moved)
        else:
            code_b = random_qc_code(field, l, m, rng)
        direct = lc.equivalence_search(
            code_a.code, code_b.code, mode="permutation", cutoff=8
        )
        image = lc.equivalence_search(
            qc_mod.slot_image_code(code_a), qc_mod.slot_image_code(code_b),
            mode="permutation", cutoff=8,
        )
        if (direct is None) != (image is None):
            return {"status": "fail", "q": q, "l": l, "m": m,
                    "generators": code_a.code.gen}
        cases += 1
    return {"status": "pass", "cases": cases}


SUITES = [
    ("factorization", suite_factorization),
    ("crt_roundtrip", suite_crt_roundtrip),
    ("propodual", suite_propodual),
    ("main:thm", suite_main_thm),
    ("cor:condi", suite_cor_condi),
    ("thm:equivalent2", suite_thm_equivalent2),
    ("selfdual_existence", suite_selfdual_existence),
    ("th:prime", suite_th_prime),
    ("multiplier_consistency", suite_multiplier_consistency),
    ("prop:image", suite_prop_image),
]


def run_all(seed=DEFAULT_SEED):
    suites = {}
    ok = True
    for name, fn in SUITES:
        t0 = time.time()
        result = fn(seed)
        result["seconds"] = round(time.time() - t0, 2)
        suites[name] = result
        ok = ok and result["status"] == "pass"
    return {"seed": seed, "ok": ok, "suites": suites}
