"""Equivalence and witness searches that test candidates by syndromes,
against the route they replaced: one canonical form per candidate.

The reference searches below enumerate the same candidates in the same
order and compare the image code's canonical form with the target, so a
search must return the identical witness, or None, on every input."""

import itertools
import math
import random
import subprocess
import sys
import textwrap

import pytest

from qckit import linear_code as lc
from qckit import quasi_cyclic as qc_mod
from qckit.galois import field_from_q
from qckit.selftest import random_qc_code

FIELDS = [field_from_q(q) for q in (2, 3, 4, 5)]


# -- the canonical-form route ---------------------------------------------


def reference_equivalence_search(code_a, code_b, mode):
    """Backtracking over column assignments with the same invariants and
    the same branch order, testing each leaf by canonical forms."""
    n, field = code_a.n, code_a.field
    if code_a.k != code_b.k:
        return None
    if code_a.k == 0:
        return lc.MonomialMap.identity(field, n)
    if lc.weight_distribution(code_a) != lc.weight_distribution(code_b):
        return None

    def profile(code):
        return [sum(1 for w in code.codewords() if w[i]) for i in range(n)]

    prof_a, prof_b = profile(code_a), profile(code_b)
    if sorted(prof_a) != sorted(prof_b):
        return None
    candidates = [[j for j in range(n) if prof_b[j] == prof_a[i]] for i in range(n)]
    assignment, used = [None] * n, [False] * n

    def leaf():
        perm = tuple(assignment)
        permuted = lc.apply_monomial(code_a, lc.MonomialMap(n, perm, field=field))
        if mode == "permutation":
            return lc.MonomialMap(n, perm, field=field) if permuted == code_b else None
        lam = lc._diagonal_witness(field, permuted, code_b)
        if lam is None:
            return None
        candidate = lc.MonomialMap(n, perm, lam)
        return candidate if lc.apply_monomial(code_a, candidate) == code_b else None

    def backtrack(i):
        if i == n:
            return leaf()
        for j in candidates[i]:
            if not used[j]:
                used[j], assignment[i] = True, j
                found = backtrack(i + 1)
                used[j] = False
                if found is not None:
                    return found
        return None

    return backtrack(0)


def reference_structured_witness(qc, dual_code):
    l, m, n = qc.l, qc.m, qc.n
    if math.factorial(l) * m ** l > qc_mod.WITNESS_SEARCH_LIMIT:
        return None
    for pi in itertools.permutations(range(l)):
        for shifts in itertools.product(range(m), repeat=l):
            perm = [0] * n
            for j in range(l):
                for i in range(m):
                    perm[j + i * l] = pi[j] + ((i + shifts[j]) % m) * l
            witness = lc.MonomialMap.permutation(qc.field, perm)
            if lc.apply_monomial(qc.code, witness) == dual_code:
                return witness
    return None


def reference_y_power_witness(comp, target):
    if comp.k != target.k:
        return None
    local = comp.field
    powers = [local.one]
    while local.mul(powers[-1], local.y_class) != local.one:
        powers.append(local.mul(powers[-1], local.y_class))
    for pi in itertools.permutations(range(comp.n)):
        for diag in itertools.product(powers, repeat=comp.n):
            witness = lc.MonomialMap(comp.n, pi, diag)
            if lc.apply_monomial(comp, witness) == target:
                return witness
    return None


# -- inputs -----------------------------------------------------------------


def _random_code(field, n, k, rng):
    rows = [[field.random_element(rng) for _ in range(n)] for _ in range(k)]
    return lc.LinearCode(field, n, rows)


def _random_codeword(code, rng):
    field = code.field
    word = [field.zero] * code.n
    for row in code.gen:
        c = field.random_element(rng)
        word = [field.add(a, field.mul(c, b)) for a, b in zip(word, row)]
    return tuple(word)


def _random_map(field, n, rng, monomial):
    perm = list(range(n))
    rng.shuffle(perm)
    if not monomial:
        return lc.MonomialMap.permutation(field, perm)
    return lc.MonomialMap(n, perm, [rng.randrange(1, field.q) for _ in range(n)])


def _search_pairs(field, rng):
    """Pairs with a witness (a code and its image under a random map),
    pairs of random codes of one dimension, and codes with their duals."""
    pairs = []
    for _ in range(10):
        n = rng.randrange(1, 8)
        k = rng.randrange(0, n + 1)
        a = _random_code(field, n, k, rng)
        for monomial in (False, True):
            pairs.append((a, lc.apply_monomial(a, _random_map(field, n, rng, monomial))))
        pairs.append((a, _random_code(field, n, a.k, rng)))
        pairs.append((a, lc.euclidean_dual(a)))
    return pairs


# -- tests --------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.q})")
@pytest.mark.parametrize("mode", ["permutation", "monomial"])
def test_equivalence_search_matches_canonical_form_route(field, mode):
    rng = random.Random(f"search:{field.q}:{mode}")
    found = 0
    for a, b in _search_pairs(field, rng):
        witness = lc.equivalence_search(a, b, mode=mode)
        expected = reference_equivalence_search(a, b, mode)
        assert witness == expected, (a.gen, b.gen)
        if witness is not None:
            found += 1
            assert lc.apply_monomial(a, witness) == b
    assert found >= 10


def _qc_codes(rng):
    for field in FIELDS:
        for l, m in [(2, 1), (2, 2), (2, 3), (3, 2), (4, 1), (2, 4), (6, 1)]:
            if m % field.char:
                for _ in range(3):
                    yield random_qc_code(field, l, m, rng)


def test_structured_witness_matches_canonical_form_route():
    rng = random.Random(11)
    for qc in _qc_codes(rng):
        dual = qc_mod.qc_dual(qc).code
        for target in (dual, qc.code):
            witness = qc_mod._structured_witness(qc, target)
            assert witness == reference_structured_witness(qc, target), qc.code.gen


def test_y_power_witness_matches_canonical_form_route():
    rng = random.Random(12)
    compared = 0
    for qc in _qc_codes(rng):
        decomp = qc_mod.crt_decompose(qc)
        duals = qc_mod._dual_components(decomp)
        for comp, target in zip(decomp.comps, duals.comps):
            for tgt in (target, comp):
                witness = qc_mod._y_power_witness(comp, tgt, cutoff=8)
                assert witness == reference_y_power_witness(comp, tgt)
                compared += 1
    assert compared > 50


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.q})")
def test_parity_check_membership_agrees_with_contains(field):
    rng = random.Random(f"membership:{field.q}")
    for n in range(1, 8):
        codes = [lc.LinearCode.zero_code(field, n), lc.LinearCode.full_code(field, n)]
        codes += [_random_code(field, n, rng.randrange(1, n + 1), rng) for _ in range(3)]
        for code in codes:
            check = lc._ParityCheck(code)
            vectors = [tuple(field.random_element(rng) for _ in range(n)) for _ in range(20)]
            vectors += [tuple([field.zero] * n)]
            vectors += [_random_codeword(code, rng) for _ in range(20)]
            for v in vectors:
                assert check.image_in(v, range(n)) == code.contains(v), (code.gen, v)
            assert all(check.image_in(row, range(n)) for row in code.gen)


CROSS_CHECK_SCRIPT = textwrap.dedent("""
    import qckit
    from qckit import linear_code as lc, quasi_cyclic as qc_mod
    from qckit.errors import CrossCheckFailed

    assert not __debug__  # running under -O
    # Every candidate passes the syndrome test, so the first one is
    # returned unless the canonical-form route rejects it.
    lc._ParityCheck.plus = lambda self, s, x, j: self.zero
    lc._ParityCheck.image_in = lambda self, row, perm, diag=None: True

    f2 = qckit.field_from_q(2)
    a = lc.code_from_rows(f2, [(1, 0, 1, 0), (0, 1, 0, 1)])
    b = lc.code_from_rows(f2, [(1, 1, 0, 0), (0, 0, 1, 1)])
    qc = qckit.qc_make(f2, 2, 3, [(1, 0, 0, 0, 1, 0), (0, 1, 0, 1, 0, 1), (0, 0, 1, 0, 1, 0)])
    decomp = qckit.crt_decompose(qc)
    dual = qc_mod._dual_components(decomp)
    comp, target = next((c, t) for c, t in zip(decomp.comps, dual.comps) if c != t)
    searches = {
        "equivalence_search": lambda: lc.equivalence_search(a, b),
        "structured": lambda: qc_mod._structured_witness(qc, qckit.qc_dual(qc).code),
        "y_power": lambda: qc_mod._y_power_witness(comp, target, 8),
    }
    for name, search in searches.items():
        try:
            search()
        except CrossCheckFailed:
            print(name, "raised")
        else:
            print(name, "returned")
""")


def test_disagreeing_routes_raise_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CROSS_CHECK_SCRIPT],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == [
        "equivalence_search raised", "structured raised", "y_power raised",
    ]
