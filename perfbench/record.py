"""Record one workload's item pool and expected outputs.

    python3 perfbench/record.py WORKLOAD

Writes ``perfbench/expected/WORKLOAD.json``: the pool slots (the input
parameters every pass draws from) and, for every pool item, the
representation-independent summary of its outputs.  The file is
recorded once, on the commit that defines the benchmark, and committed;
benchmark runs compare against it and never rewrite it.  Every recorded
item must first pass the workload's independent checks.

Some pool choices use timings taken while recording (which (q, m) pairs
fit a run, and the cost class of an isodual slot); they only decide
which inputs are in the pool and how they are grouped.
"""

import json
import math
import os
import random
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qckit  # noqa: E402

from worker import Reference  # noqa: E402
from workloads import WORKLOADS, poly_coeffs  # noqa: E402

VARIANTS = 8


def run(wl, pool, key):
    x = wl.prepare(qckit, pool, key)
    t = time.perf_counter()
    out = wl.call(qckit, x)
    dt = time.perf_counter() - t
    problems = wl.check(x, out)
    if problems:
        sys.exit(f"{wl.name} {key}: {problems}")
    return x, wl.summary(x, out), dt


def input_rank(x):
    """Rank of the seeded rows, by gf.py's own elimination."""
    gf, field = x["gf"], x["field"]
    return gf.rank([[gf.index(field.coeffs_of(a)) for a in row] for row in x["rows"]])


def check_rank(x, summary):
    """The code must be the span of the seeded rows: compare k with their rank."""
    rank = input_rank(x)
    if rank != summary["k"]:
        sys.exit(f"rank {rank} of the input rows differs from k = {summary['k']}")


def coprime_m(rng, q, top):
    p = min(d for d in range(2, q + 1) if q % d == 0)
    while True:
        m = rng.randrange(1, top + 1)
        if m % p:
            return m


def record_qc(wl, slots):
    pool = {"slots": slots, "expected": {}}
    for j, slot in enumerate(slots):
        for v in slot["variants"]:
            key = f"{j}/{v}"
            x, summary, _ = run(wl, pool, key)
            check_rank(x, summary)
            pool["expected"][key] = summary
    return pool


def qc_corpus():
    """60 codes, q in {2,3,4,5}, l <= 4, m <= 15, up to n/2 seeded vectors."""
    rng = random.Random("qc_corpus:slots")
    slots = []
    for _ in range(60):
        q = rng.choice([2, 3, 4, 5])
        l = rng.randrange(1, 5)
        m = coprime_m(rng, q, 15)
        vectors = rng.randrange(1, max(2, l * m // 2 + 1))
        slots.append({"q": q, "l": l, "m": m, "vectors": vectors,
                      "variants": list(range(VARIANTS))})
    return record_qc(WORKLOADS["qc_corpus"], slots)


# Sizes from n = 36 to 168.  The middle of a pass is a block of ten codes
# at n = 70-72, so its median and p56.5 (its tail percentile) fall on codes
# of one size instead of jumping between sizes; about 9 s per pass on the
# recording machine.
BINARY_SHAPES = [(4, 9), (6, 7), (2, 21), (6, 9), (8, 7), (4, 15), (2, 31),
                 (10, 7), (10, 7), (10, 7), (10, 7), (10, 7),
                 (8, 9), (8, 9), (8, 9), (8, 9), (8, 9),
                 (4, 21), (6, 15), (10, 9), (14, 7), (8, 15), (8, 21)]


def binary_large():
    """Rate-1/2 binary codes from l/2 seeded vectors and their shifts."""
    slots = [{"q": 2, "l": l, "m": m, "vectors": l // 2, "variants": list(range(VARIANTS))}
             for l, m in BINARY_SHAPES]
    return record_qc(WORKLOADS["binary_large"], slots)


HEAVY_S = 0.3
HEAVY_MAX_S = 0.6
HEAVY_SLOTS = 2
EXHAUSTIVE_SHAPES = [(3, 2, 4), (5, 2, 4), (3, 4, 2), (5, 4, 2)]
EXHAUSTIVE_BAND = 0.08


def isodual_search():
    """60 rate-1/2 codes with lm <= 8 by rejection sampling.

    Shapes of the first 59 slots are drawn like a user's corpus: l from
    {2, 4, 6}, then q, then m.  A slot is defined by its first accepted
    code: its shape, its bruteforce verdict and its cost class (a
    factor-of-sqrt(2) bucket of the item time while recording).  Later
    variants must match all three, so every pass has the same mix of
    cheap and expensive searches.  At most HEAVY_SLOTS of these slots
    may cost more than HEAVY_S, and none more than HEAVY_MAX_S; other
    draws are discarded and drawn again.  The last slot is one
    exhaustive bruteforce search at n = 8 (a not_isodual verdict costing
    more than HEAVY_S), the case that dominates equivalence_search.  It
    is half of a pass's time, so its variants must also lie within
    EXHAUSTIVE_BAND of the first one's time, measured against
    worker.Reference to cancel machine drift.
    """
    wl = WORKLOADS["isodual_search"]
    rng = random.Random("isodual_search:slots")
    slots, expected = [], {}
    pool = {"slots": slots, "expected": expected}
    heavy = 0
    draw = 0
    reference = Reference()
    for _ in range(4):
        reference.measure()

    def too_heavy(dt):
        return dt > HEAVY_MAX_S or (dt > HEAVY_S and heavy == HEAVY_SLOTS)

    while len(slots) < 60:
        j = len(slots)
        last = j == 59
        if last:
            q, l, m = rng.choice(EXHAUSTIVE_SHAPES)
        else:
            l = rng.choice([2, 4, 6])
            q = rng.choice([2, 3, 4, 5])
            p = min(d for d in range(2, q + 1) if q % d == 0)
            m = rng.choice([m for m in range(1, 9) if l * m <= 8 and m % p])
        slot = {"q": q, "l": l, "m": m, "variants": [], "draw": draw}
        draw += 1
        cls, spent, first_dt = None, 0.0, None
        for attempt in range(400):
            key = f"{j}/{slot['draw']}.{attempt}"
            if 2 * input_rank(wl.random_qc(qckit, slot, key)) != l * m:
                continue
            slots.append(slot)
            try:
                _, summary, dt = run(wl, pool, key)
            finally:
                slots.pop()
            spent += dt
            this = (summary["bruteforce"], math.floor(2 * math.log2(max(dt, 1e-4) / 1e-4)))
            if last:
                for _ in range(3):
                    reference.measure()
                scaled = dt / reference.slowness(len(reference.times) - 1)
            if cls is None:
                if last and (dt <= HEAVY_S or this[0] != "not_isodual"):
                    continue
                cls, first_dt = this, dt
                if last:
                    first_scaled = scaled
                if not last and too_heavy(first_dt):
                    break
            if last and abs(scaled / first_scaled - 1) > EXHAUSTIVE_BAND:
                continue
            if this[0] == cls[0] and (last or this[1] == cls[1]):
                slot["variants"].append(f"{slot['draw']}.{attempt}")
                expected[key] = summary
            if len(slot["variants"]) == VARIANTS or spent > (120 if last else 30):
                break
        if not slot["variants"] or (not last and too_heavy(first_dt)):
            continue
        heavy += first_dt > HEAVY_S and not last
        slot["class"] = {"bruteforce": cls[0], "cost_bucket_log_sqrt2_100us": cls[1]}
        slots.append(slot)
        print(j, slot, flush=True)
    return pool


FACTOR_QS = (2, 3, 4, 5, 7, 8, 9, 16)
PAIR_CAP_S = 0.4
PAIR_REPEATS = 3
PAIR_BUCKETS = 30
CYCLIC_QS = (2, 3, 4)
CYCLIC_SPLITTING_BOUND = 4096


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def time_pairs(q):
    """Cold factor_cyclic_modulus time of every m <= 128 coprime to q.

    Runs in its own process, so every factorization is cold; a pair
    still running after 2 * PAIR_CAP_S is interrupted and reported as None.
    """
    field = qckit.field_from_q(q)
    signal.signal(signal.SIGALRM, _alarm)
    out = {}
    for m in range(1, 129):
        if m % field.char == 0:
            continue
        signal.setitimer(signal.ITIMER_REAL, 2 * PAIR_CAP_S)
        t = time.perf_counter()
        try:
            qckit.factor_cyclic_modulus(field, m)
            out[m] = time.perf_counter() - t
        except _Timeout:
            out[m] = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return out


def factor_cyclic():
    """Every (q, m) with m <= 128 coprime to q whose cold factorization takes
    at most PAIR_CAP_S (the least of PAIR_REPEATS fresh-process timings),
    in PAIR_BUCKETS equal-count cost buckets; then the cyclic slots."""
    wl = WORKLOADS["factor_cyclic"]
    pool = {"pair_buckets": [], "cyclic_slots": [], "expected": {}, "excluded_pairs": {}}
    best = {}
    for _ in range(PAIR_REPEATS):
        for q in FACTOR_QS:
            proc = subprocess.run([sys.executable, __file__, "time-pairs", str(q)],
                                  capture_output=True, text=True, check=True)
            for m, dt in json.loads(proc.stdout).items():
                key = (q, int(m))
                if dt is not None and (best.get(key) is None or dt < best[key]):
                    best[key] = dt
                best.setdefault(key, None)
    timed = []
    for (q, m), dt in sorted(best.items()):
        if dt is None or dt > PAIR_CAP_S:
            pool["excluded_pairs"][f"{q},{m}"] = dt
            continue
        _, pool["expected"][f"pair/{q},{m}"], _ = run(wl, pool, f"pair/{q},{m}")
        pool.setdefault("pair_costs_s", {})[f"{q},{m}"] = dt
        timed.append((dt, [q, m]))
    timed.sort()
    size = len(timed) / PAIR_BUCKETS
    pool["pair_buckets"] = [[qm for _, qm in timed[round(b * size):round((b + 1) * size)]]
                            for b in range(PAIR_BUCKETS)]
    for q in CYCLIC_QS:
        field = qckit.field_from_q(q)
        for n in range(2, 22):
            if n % field.char == 0:
                continue
            order = next(k for k in range(1, n + 1) if pow(q, k, n) == 1 % n)
            if q ** order > CYCLIC_SPLITTING_BOUND:
                continue
            factors = qckit.factor_cyclic_modulus(field, n).all_factors()
            j = len(pool["cyclic_slots"])
            divisors = []
            for v in range(VARIANTS):
                rng = random.Random(f"factor_cyclic:cyc:{j}:{v}")
                g = qckit.Poly.one(field)
                for f in factors:
                    if rng.random() < 0.5:
                        g = g * f
                divisors.append(poly_coeffs(g))
            pool["cyclic_slots"].append({"q": q, "n": n, "divisors": divisors})
            for v in range(VARIANTS):
                key = f"cyc/{j}/{v}"
                _, pool["expected"][key], _ = run(wl, pool, key)
    return pool


RECORDERS = {f.__name__: f for f in (qc_corpus, binary_large, isodual_search, factor_cyclic)}

if __name__ == "__main__":
    name = sys.argv[1]
    if name == "time-pairs":
        print(json.dumps(time_pairs(int(sys.argv[2]))))
        sys.exit()
    pool = RECORDERS[name]()
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    with open(os.path.join(HERE, "expected", name + ".json"), "w") as fh:
        json.dump(pool, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
