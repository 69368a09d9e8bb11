"""qckit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qckit source checkout; qckit is imported from
``src/`` there, in fresh worker processes (see ``worker.py``), never
under ``-O``.  The load is a closed loop with one client: one worker
runs the items of a pass one after another, and a new pass, in a new
worker with empty module caches, starts until ``--seconds`` of passes
have run.  The seed picks the variants of every pass.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` each pass runs untraced and then traced, and the
line reports the per-layer metrics.  Times are scaled to the recording
machine's usual speed by a reference computation timed alongside (see
``worker.py``); the line before the result also gives unscaled figures.
Workloads, metrics and bounds are described in ``perfbench/NOTES.md``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

FIELDS = {"qc_corpus": "2,3,4,5", "binary_large": "2", "factor_cyclic": "2,3,4,5,7,8,9,16",
          "isodual_search": "2,3,4,5"}
SETUP_PROBES = 11
SETUP_PROBES_PER_PASS = 2
CLI_PROBES = 5
# No pass starts after LAST_START_S, and every child is killed at RUN_LIMIT_S,
# so a run always ends inside 180 s.
LAST_START_S = 120
RUN_LIMIT_S = 170

IMPORT_PROBE = (
    "import os, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import qckit\n"
    "dt = time.perf_counter() - t\n"
    "if not os.path.abspath(qckit.__file__).startswith(sys.argv[1]):\n"
    "    sys.exit('imported qckit from ' + qckit.__file__)\n"
    "print(repr(dt))\n"
)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, deadline):
    t0 = time.monotonic()
    timeout = max(deadline - t0, 1.0)
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              cwd=ROOT, env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[:2]} did not finish in {timeout:.0f} s") from exc
    return proc, time.monotonic() - t0


def worker(argv, deadline):
    t0 = time.monotonic()
    proc, _ = spawn([os.path.join(HERE, "worker.py"), *argv, "--t0", repr(t0)], deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(workload, deadline):
    return worker(["--setup-only", "--fields", FIELDS[workload]], deadline)["setup_s"]


def run_passes(args, start, deadline, traced, setups=None):
    """Passes until --seconds have gone by; with traced, each pass twice.

    With ``setups``, set-up probes are spread over the run: a few before
    every pass and the rest after the last one.
    """
    runs = []
    p = 0
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--fields", FIELDS[args.workload], "--stop-at", repr(start + LAST_START_S)]
    while not runs or (time.monotonic() - start < args.seconds
                       and time.monotonic() - start < LAST_START_S):
        if setups is not None:
            setups.extend(setup_probe(args.workload, deadline)
                          for _ in range(SETUP_PROBES_PER_PASS))
        plain = worker([*common, "--pass", str(p)], deadline)
        pair = [plain]
        if traced:
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, f"{args.workload}-pass{p}.spans")
            pair.append(worker([*common, "--pass", str(p), "--trace", "--spans", spans], deadline))
        runs.append(pair)
        p += 1
    if setups is not None:
        setups.extend(setup_probe(args.workload, deadline)
                      for _ in range(SETUP_PROBES - len(setups)))
    return runs


def busy_s(result):
    return sum(result["latencies"]) + result["failed_s"]


def tail(latencies, per_pass):
    """Latency at the percentile that leaves 10 of a pass's items beyond it.

    The percentile is fixed by the pass size, not by the run's item count,
    so it stays put when a faster commit fits more passes into a run; every
    run holds at least one pass, so at least 10 items lie beyond it.
    """
    n = len(latencies)
    share = max(per_pass - 10, 1) / per_pass
    index = min(math.ceil(share * n) - 1, max(n - 11, 0))
    return latencies[index], 100.0 * share, n - 1 - index


def end_to_end(setups, passes):
    lat = sorted(x for r in passes for x in r["latencies"])
    failed = sum(len(r["failures"]) for r in passes)
    attempted = len(lat) + failed
    if not lat:
        raise BenchError(f"no item succeeded: {passes[0]['failures'][:3]}")
    tail_s, percentile, beyond = tail(lat, passes[0]["planned"])
    detail = {"passes": len(passes), "items": len(lat),
              "item_tail_s": {"percentile": percentile, "items_beyond": beyond, "items": len(lat)},
              "unscaled": {"items_per_s": len(lat) / sum(r["raw_s"] for r in passes),
                           "machine_slowness": statistics.median(r["slowness"] for r in passes)}}
    metrics = {
        "items_per_s": (len(lat) / sum(busy_s(r) for r in passes), "1/s"),
        "item_p50_s": (statistics.median(lat), "s"),
        "item_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in passes) / 1024, "MB"),
        "ok_ratio": (len(lat) / attempted, "ratio"),
    }
    return metrics, attempted, detail


def cli_probes(deadline):
    """Fresh-interpreter import time and one CLI process, each a median of runs."""
    imports, processes, failures = [], [], []
    for _ in range(CLI_PROBES):
        proc, _ = spawn(["-c", IMPORT_PROBE, os.path.join(SRC, "")], deadline)
        if proc.returncode == 0:
            imports.append(float(proc.stdout))
        else:
            failures.append(f"import qckit: {proc.stderr.strip()[-500:]}")
        proc, wall = spawn(["-m", "qckit.cli", "factor", "--q", "2", "--m", "7", "--json"],
                           deadline)
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["r"] == 3
        except (ValueError, KeyError):
            ok = False
        if ok:
            processes.append(wall)
        else:
            failures.append(f"qckit factor exited {proc.returncode}: {proc.stdout[-300:]}")
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    return {"import_s": med(imports), "process_s": med(processes)}, 2 * CLI_PROBES, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FIELDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qckit", "__init__.py")):
        sys.exit(f"run.py: no qckit sources under {SRC}; run from a qckit checkout")

    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        from tracing import per_layer

        cli, cli_attempted, cli_failures = cli_probes(deadline)
        runs = run_passes(args, time.monotonic(), deadline, traced=True)
        plain = [r[0] for r in runs]
        traced = [r[1] for r in runs]
        missing = sorted({m for r in traced for m in r["trace"]["missing"]})
        if missing:
            print(f"warning: traced names not found in qckit: {missing}", file=sys.stderr)
        metrics = per_layer([r["trace"] for r in traced], sum(map(busy_s, plain)),
                            sum(map(busy_s, traced)), cli)
        failures = cli_failures + [f for r in runs for x in r for f in x["failures"]]
        attempted = cli_attempted + sum(len(x["latencies"]) + len(x["failures"])
                                        for r in runs for x in r)
        detail = {"pairs": len(runs), "traced_items": sum(r["trace"]["items"] for r in traced)}
    else:
        setups = []
        passes = [r[0] for r in run_passes(args, time.monotonic(), deadline, traced=False,
                                           setups=setups)]
        metrics, attempted, detail = end_to_end(setups, passes)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        failures = [f for r in passes for f in r["failures"]]
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failures=failures[:5])
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        sys.exit(f"run.py: {exc}")
