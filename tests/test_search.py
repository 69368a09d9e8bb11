"""Equivalence and witness searches that test candidates by syndromes,
against the route they replaced: one canonical form per candidate.

The reference searches below enumerate the same candidates in the same
order and compare the image code's canonical form with the target, so a
search must return the identical witness, or None, on every input."""

import itertools
import random
import subprocess
import sys
import textwrap
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qckit import linear_code as lc
from qckit import quasi_cyclic as qc_mod
from qckit.galois import field_from_q
from qckit.selftest import random_qc_code

FIELDS = [field_from_q(q) for q in (2, 3, 4, 5)]


# -- the canonical-form route ---------------------------------------------


def reference_equivalence_search(code_a, code_b, mode):
    """Backtracking over column assignments in the same branch order,
    testing each leaf by canonical forms.  Its only column invariant is
    the count of codewords nonzero there, weaker than the signatures, so
    it visits more leaves but returns the same first witness."""
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


def reference_maps(code, target, units, moves):
    """Every map with unit u sent by one of moves[u] and no target used
    twice, in the order of the move lists, that maps code onto target by
    canonical forms; every candidate is tried, none is cut."""
    for choice in itertools.product(*moves):
        if len({t for move in choice for t, _ in move}) == code.n:
            witness = map_of(units, choice)
            if lc.apply_monomial(code, witness) == target:
                yield witness


def map_of(units, choice):
    """The monomial map sending each unit by its chosen move."""
    n = sum(map(len, units))
    perm, diag = [None] * n, [None] * n
    for unit, move in zip(units, choice):
        for i, (t, c) in zip(unit, move):
            perm[i], diag[t] = t, c
    return lc.MonomialMap(n, perm, diag)


def reference_first_map(code, target, units, moves):
    return next(reference_maps(code, target, units, moves), None)


def slot_units(l, m):
    """Slot j (coordinates j + i*l) as one unit, moved whole to slot p and
    cyclically shifted by s, for each (p, s) in that order."""
    moves = [tuple((p + (i + s) % m * l, 1) for i in range(m)) for p in range(l) for s in range(m)]
    return [tuple(j + i * l for i in range(m)) for j in range(l)], [moves] * l


def reference_structured_witness(qc, dual_code):
    return reference_first_map(qc.code, dual_code, *slot_units(qc.l, qc.m))


def reference_y_power_witness(comp, target):
    if comp.k != target.k:
        return None
    local = comp.field
    powers = [local.one]
    while local.mul(powers[-1], local.y_class) != local.one:
        powers.append(local.mul(powers[-1], local.y_class))
    moves = [((j, d),) for j in range(comp.n) for d in powers]
    return reference_first_map(comp, target, [(i,) for i in range(comp.n)], [moves] * comp.n)


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


def _structured_image(qc, rng):
    """The code under a random slot permutation with per-slot shifts."""
    units, moves = slot_units(qc.l, qc.m)
    slots = rng.sample(range(qc.l), qc.l)
    return lc.apply_monomial(qc.code, map_of(units, [moves[0][p * qc.m + rng.randrange(qc.m)] for p in slots]))


def _rate_half_qc_code(field, l, m, rng):
    while True:
        qc = random_qc_code(field, l, m, rng)
        if 2 * qc.code.k == qc.n:
            return qc


def _structured_cases(rng):
    """Codes with their duals, themselves and a random structured image:
    the shapes of _qc_codes, and l >= 3 with m >= 3 (rate 1/2 where
    l*m is even), where slots of size m are units of the search."""
    yield from _qc_codes(rng)
    for field in FIELDS:
        for l, m in [(3, 4), (4, 3), (3, 5)]:
            if m % field.char:
                yield random_qc_code(field, l, m, rng)
                if l * m % 2 == 0:
                    yield _rate_half_qc_code(field, l, m, rng)


def test_structured_witness_matches_canonical_form_route():
    rng = random.Random(11)
    found = 0
    for qc in _structured_cases(rng):
        dual = qc_mod.qc_dual(qc).code
        for target in (dual, qc.code, _structured_image(qc, rng)):
            witness = qc_mod._structured_witness(qc, target)
            assert witness == reference_structured_witness(qc, target), qc.code.gen
            found += witness is not None and qc.l >= 3 and qc.m >= 3 and target != qc.code
    assert found >= 10


def test_y_power_witness_matches_canonical_form_route():
    rng = random.Random(12)
    compared = 0
    for qc in _qc_codes(rng):
        decomp = qc_mod.crt_decompose(qc)
        duals = qc_mod._dual_components(decomp)
        for comp, target in zip(decomp.comps, duals.comps):
            for tgt in (target, comp):
                witness = qc_mod._y_power_witness(comp, tgt)
                assert witness == reference_y_power_witness(comp, tgt)
                compared += 1
    assert compared > 50


def test_units_cut_branches_before_the_last_unit():
    """Slots of size 3 as units, with the trailing basis taken in unit
    order: a code of dimension k > 3 has a row ending before the last
    slot.  The search reaches exactly the leaves of the unpruned
    enumeration that map the code onto the target, and it makes fewer
    syndrome updates than with every syndrome taken as zero, so it cut
    branches before the last unit."""
    field = field_from_q(2)
    rng = random.Random(13)
    qc = next(c for c in iter(lambda: random_qc_code(field, 3, 3, rng), None) if c.code.k > 3)
    target = _structured_image(qc, rng)
    units, moves = slot_units(3, 3)
    order = [i for unit in units for i in unit][::-1]
    trailing, _ = lc.rref(field, [[row[i] for i in order] for row in qc.code.gen], qc.n)
    check = lc._ParityCheck(target)

    def search(cut):
        leaves, updates = [], []

        def plus(s, x, j):
            updates.append(j)
            return check.plus(s, x, j) if cut else check.zero

        def leaf(chosen):
            leaves.append(map_of(units, chosen))

        spy = types.SimpleNamespace(plus=plus, mul=check.mul, zero=check.zero)
        assert lc._first_assignment(units, moves, leaf, [row[::-1] for row in trailing], spy) is None
        return leaves, len(updates)

    leaves, updates = search(cut=True)
    assert leaves == list(reference_maps(qc.code, target, units, moves))
    assert leaves and updates < search(cut=False)[1]


def enumerated_signatures(code):
    """The weight distribution and each column's signature (the weights of
    the codewords zero there), counted word by word over codewords()."""
    n = code.n
    dist, sigs = [0] * (n + 1), [[0] * (n + 1) for _ in range(n)]
    for word in code.codewords():
        w = sum(1 for x in word if x)
        dist[w] += 1
        for i, x in enumerate(word):
            if not x:
                sigs[i][w] += 1
    return tuple(dist), [tuple(s) for s in sigs]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_signatures_match_enumeration(q):
    """The one-pass signatures against a codeword-by-codeword count: the
    zero code (no generator rows), the full code, and random codes, one
    per length with an all-zero column."""
    field = field_from_q(q)
    rng = random.Random(f"signatures:{q}")
    codes = []
    for n in range(1, 9):
        codes += [lc.LinearCode.zero_code(field, n), lc.LinearCode.full_code(field, min(n, 3))]
        for trial in range(4):
            k = rng.randrange(1, n + 1)
            while q ** k > 3000:
                k -= 1
            zero = rng.randrange(n) if trial == 0 else None
            rows = [[0 if i == zero else field.random_element(rng) for i in range(n)] for _ in range(k)]
            codes.append(lc.LinearCode(field, n, rows))
    assert sum(1 for code in codes if code.k and not all(map(any, zip(*code.gen)))) >= 7
    for code in codes:
        assert lc._shortened_enumerators(code) == enumerated_signatures(code), code.gen
        assert lc.weight_distribution(code) == enumerated_signatures(code)[0]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF({f.q})")
def test_refinement_keeps_the_moves_between_equal_signatures(field):
    """Each column keeps exactly the target columns of its signature, and
    codes whose signature multisets differ get no moves at all, unless
    the pass (n per codeword) costs more than the n^n leaves it prunes."""
    rng = random.Random(f"refine:{field.q}")
    cut = refuted = priced_out = 0
    for a, b in _search_pairs(field, rng):
        n = a.n
        moves = [[((j, 1),) for j in range(n)]] * n
        refined = lc._refined(a, b, [(i,) for i in range(n)], moves)
        if n * field.q ** a.k > n ** n:
            assert refined is moves
            priced_out += 1
            continue
        sig_a, sig_b = enumerated_signatures(a)[1], enumerated_signatures(b)[1]
        if sorted(sig_a) != sorted(sig_b):
            assert refined is None
            refuted += 1
            continue
        assert refined == [[((j, 1),) for j in range(n) if sig_b[j] == sig_a[i]] for i in range(n)]
        cut += sum(n - len(kept) for kept in refined)
    assert cut and refuted and priced_out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_monomial_maps_carry_signatures(data):
    """Column i of C and column perm[i] of M(C) have one signature, and
    both searches find a witness between C and its image."""
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    field = field_from_q(q)
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(0, min(n, 3)))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    code = lc.LinearCode(field, n, data.draw(st.lists(entries, min_size=k, max_size=k)))
    perm = data.draw(st.permutations(range(n)))
    diag = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    image = lc.apply_monomial(code, lc.MonomialMap(n, perm, diag))
    sig, sig_image = lc._shortened_enumerators(code)[1], lc._shortened_enumerators(image)[1]
    assert all(sig_image[perm[i]] == sig[i] for i in range(n))
    targets = {"permutation": lc.apply_monomial(code, lc.MonomialMap.permutation(field, perm)),
               "monomial": image}
    for mode, target in targets.items():
        witness = lc.equivalence_search(code, target, mode=mode)
        assert witness is not None and lc.apply_monomial(code, witness) == target


def _rate_half_family(q, l, m, seed=None):
    """Rate-1/2 QC codes, each from l/2 random vectors and their T^l
    shifts, drawn from random.Random(seed), by default f"{q}{l}{m}"."""
    field, n, rng = field_from_q(q), l * m, random.Random(f"{q}{l}{m}" if seed is None else seed)
    while True:
        vectors = [[rng.randrange(q) for _ in range(n)] for _ in range(l // 2)]
        qc = qc_mod.qc_make(field, l, m, [tuple(v[(i - s * l) % n] for i in range(n)) for v in vectors for s in range(m)])
        if 2 * qc.code.k == n:
            yield qc


def test_binary_rate_half_code_of_length_18():
    """The first rate-1/2 binary QC code with l = 2, m = 9 built from one
    random vector and its T^2 shifts (random.Random(3)) is isodual.  Its
    permutation search needs the signatures: without them it visits too
    many branches to finish in minutes."""
    qc = next(_rate_half_family(2, 2, 9, seed=3))
    verdict = qc_mod.is_isodual(qc, strategy="bruteforce", cutoff=qc.n)
    assert verdict.result == "isodual"
    assert verdict.witness.perm == (1, 0, *range(17, 1, -1))
    assert lc.apply_monomial(qc.code, verdict.witness) == qc_mod.qc_dual(qc).code


# Of the first six codes of each shape (q, l, m), by position from 1: codes
# above the default cutoff of 8 that the exhaustive search decides in about
# 0.1 s each.  The others among the first six are shown isodual by a
# structured witness, except the sixth (3, 4, 4) code, which spends the budget.
FAST_ABOVE_THE_CUTOFF = {(2, 2, 7): (2, 3, 5), (3, 2, 5): (1, 5, 6), (2, 4, 3): (2, 3, 4), (2, 6, 3): range(1, 7),
                         (2, 4, 5): (1, 3, 4, 5, 6), (4, 2, 5): range(1, 7), (3, 4, 4): range(1, 6)}


def test_default_verdict_above_the_cutoff_is_the_exhaustive_one():
    """At n = 10-16, above the default cutoff, the default verdict on
    these codes and on three isodual-qc constructions equals that of the
    exhaustive search without a budget (run on a separate code object),
    and every "isodual" carries a witness onto the dual."""
    verdicts = []
    for (q, l, m), picks in FAST_ABOVE_THE_CUTOFF.items():
        codes = itertools.islice(_rate_half_family(q, l, m), max(picks))
        verdicts += [(qc, qc_mod.is_isodual(qc)) for i, qc in enumerate(codes, 1) if i in picks]
    verdicts += [qc_mod.construct_isodual_qc(field_from_q(q), l, m) for q, l, m in ((3, 2, 5), (3, 2, 7), (5, 2, 6))]
    results = []
    for qc, verdict in verdicts:
        oracle = qc_mod.is_isodual(qc_mod.qc_make(qc.field, qc.l, qc.m, qc.code), strategy="bruteforce", cutoff=qc.n)
        assert qc.n > lc.DEFAULT_SEARCH_CUTOFF and verdict.result == oracle.result, qc.code.gen
        for v in (verdict, oracle):
            assert v.result != "isodual" or lc.apply_monomial(qc.code, v.witness) == qc_mod.qc_dual(qc).code
        results.append(verdict.result)
    assert (results.count("isodual"), results.count("not_isodual")) == (11, 23)
    assert results[-3:] == ["not_isodual"] * 3


def test_monomial_search_above_the_cutoff_tries_a_permutation_first():
    """Above the cutoff, monomial mode answers with the syndrome-pruned
    permutation search when it finds a witness: on the fourth (4, 2, 5)
    code against its dual the monomial search alone spends its budget."""
    qc = next(itertools.islice(_rate_half_family(4, 2, 5), 3, None))
    dual = qc_mod.qc_dual(qc).code
    witness = lc.equivalence_search(qc.code, dual, mode="monomial")
    assert witness.is_permutation(qc.field) and lc.apply_monomial(qc.code, witness) == dual
    assert witness == lc.equivalence_search(qc.code, dual, mode="permutation")


def test_monomial_search_above_the_cutoff_falls_back_to_the_monomial_search():
    """Where no permutation works, the monomial search still runs above the cutoff."""
    field = field_from_q(3)
    code = lc.code_from_rows(field, [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)])
    scaled = lc.apply_monomial(code, lc.MonomialMap.diagonal((1, 2, 1, 1, 1)))
    assert lc.equivalence_search(code, scaled, mode="permutation", cutoff=2) is None
    witness = lc.equivalence_search(code, scaled, mode="monomial", cutoff=2)
    assert lc.apply_monomial(code, witness) == scaled


def test_search_past_the_enumeration_limit():
    """A GF(17) code with 17^4 codewords, past WEIGHT_ENUM_LIMIT, keeps
    every move: the permutation search still finds a witness, and its QC
    code gets a verdict from the exhaustive search."""
    field = field_from_q(17)
    qc = qc_mod.qc_make(field, 2, 4, [
        (1, 0, 0, 0, 10, 6, 2, 8), (0, 1, 0, 0, 1, 9, 4, 15),
        (0, 0, 1, 0, 6, 1, 8, 6), (0, 0, 0, 1, 13, 11, 1, 7),
    ])
    assert qc.code.k == 4 and 17 ** 4 > lc.WEIGHT_ENUM_LIMIT
    perm = (6, 0, 4, 7, 5, 1, 2, 3)
    image = lc.apply_monomial(qc.code, lc.MonomialMap.permutation(field, perm))
    witness = lc.equivalence_search(qc.code, image)
    assert witness is not None and lc.apply_monomial(qc.code, witness) == image
    verdict = qc_mod.is_isodual(qc)
    assert verdict.result == "not_isodual"
    assert verdict.component_report[-1] == {"note": "exhaustive permutation search found no witness"}


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

    f2 = qckit.field_from_q(2)
    a = lc.code_from_rows(f2, [(1, 0, 1, 0), (0, 1, 0, 1)])
    b = lc.code_from_rows(f2, [(1, 1, 0, 0), (0, 0, 1, 1)])
    # A code and its dual with the same column signatures, so the searches
    # reach signature-compatible candidates, the first of which is no witness.
    qc = qckit.qc_make(f2, 4, 3, [
        (1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0), (0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0),
        (0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1), (0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1),
        (0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
    ])
    decomp = qckit.crt_decompose(qc)
    dual = qc_mod._dual_components(decomp)
    comp, target = next((c, t) for c, t in zip(decomp.comps, dual.comps) if c != t)
    searches = {
        "equivalence_search": lambda: lc.equivalence_search(a, b),
        "structured": lambda: qc_mod._structured_witness(qc, qckit.qc_dual(qc).code),
        "y_power": lambda: qc_mod._y_power_witness(comp, target),
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
