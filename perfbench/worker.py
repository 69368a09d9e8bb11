"""One benchmark worker: a fresh interpreter that runs one pass.

    python3 perfbench/worker.py --workload W --seed S --pass P --t0 T
        [--fields 2,3] [--setup-only] [--trace] [--spans FILE] [--stop-at T]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so the reported set-up
time covers interpreter start, ``import qckit`` and construction of the
workload's fields.  The result is one JSON object on stdout.

Every time reported is scaled to the speed the recording machine had
usually: a fixed reference computation is timed before each item, and an
item's time is divided by the slowness of the references around it (their
median time over REFERENCE_S).  The processor's speed drifts by tens of
per cent over minutes on shared machines; the reference drifts with it and
does not call qckit, so the scaling cancels the drift and nothing else.
"""

import os
import statistics
import sys
import time

# Median time of one reference chunk on the recording machine.
REFERENCE_S = 1.6e-3


class Reference:
    """Slowness of the machine, from a fixed elimination in gf.py."""

    def __init__(self):
        import random

        from gf import GF

        rng = random.Random(0)
        self.gf = GF(5, 1, None)
        self.matrix = [[rng.randrange(5) for _ in range(40)] for _ in range(20)]
        self.times = []
        self.measure()
        self.times.clear()

    def measure(self):
        t = time.perf_counter()
        self.gf.rank(self.matrix)
        self.times.append(time.perf_counter() - t)

    def slowness(self, i=None):
        """Around chunk i (two before to two after), or over all chunks."""
        window = self.times if i is None else self.times[max(0, i - 2):i + 3]
        return statistics.median(window) / REFERENCE_S


def _arg(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if sys.flags.optimize:
        sys.exit("worker: refusing to run under -O; the library's cross-checks are asserts")
    sys.path.insert(0, src)
    import qckit

    if not os.path.abspath(qckit.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"worker: imported qckit from {qckit.__file__}, not from {src}")
    for q in _arg(argv, "--fields", "").split(","):
        if q:
            qckit.field_from_q(int(q))
    setup_s = time.monotonic() - float(_arg(argv, "--t0"))
    if "--setup-only" in argv:
        ref = Reference()
        for _ in range(5):
            ref.measure()
        print('{"setup_s": %r, "raw_setup_s": %r}' % (setup_s / ref.slowness(), setup_s))
        return

    import json
    import resource

    from workloads import WORKLOADS

    workload = WORKLOADS[_arg(argv, "--workload")]
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "expected", workload.name + ".json")) as fh:
        pool = json.load(fh)
    seed, pass_index = int(_arg(argv, "--seed")), int(_arg(argv, "--pass"))
    stop_at = float(_arg(argv, "--stop-at", "inf"))
    tracer = None
    if "--trace" in argv:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    ref = Reference()
    timed, failures = [], []  # timed: (chunk index, raw seconds, ok)
    items = workload.pass_items(pool, seed, pass_index)
    for key in items:
        if time.monotonic() > stop_at:
            break
        try:
            inputs = workload.prepare(qckit, pool, key)
        except Exception as exc:  # a failed item, not a failed benchmark
            failures.append({"item": key, "why": f"prepare: {type(exc).__name__}: {exc}"})
            continue
        ref.measure()
        if tracer:
            tracer.begin_item()
        t = time.perf_counter()
        try:
            out, err = workload.call(qckit, inputs), None
        except Exception as exc:
            out, err = None, exc
        dt = time.perf_counter() - t
        if tracer:
            tracer.end_item({"serialize.json_bytes": (out or {}).get("json_bytes", 0)})
        problems = [f"{type(err).__name__}: {err}"] if err is not None else []
        if err is None:
            try:
                problems = workload.check(inputs, out)
                summary = workload.summary(inputs, out)
                if summary != pool["expected"][key]:
                    problems.append(f"outputs differ from the recorded ones: {summary}")
            except Exception as exc:
                problems = [f"check: {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"item": key, "why": "; ".join(problems)})
        timed.append((len(ref.times) - 1, dt, not problems))
    ref.measure()

    scaled = [(dt / ref.slowness(i), ok) for i, dt, ok in timed]
    result = {
        "planned": len(items),
        "latencies": [dt for dt, ok in scaled if ok],
        "failed_s": sum(dt for dt, ok in scaled if not ok),
        "raw_s": sum(dt for _, dt, _ in timed),
        "slowness": ref.slowness(),
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["trace"] = tracer.totals(1 / ref.slowness())
        spans_path = _arg(argv, "--spans")
        if spans_path:
            tracer.write(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
