"""mrlai benchmark: one workload, one seed, closed loop, one process.

    python3 perfbench/run.py --workload closed-grid --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` cycles through the workload's distinct passes of ops, in
whole cycles, until the timed time reaches ``--seconds``, and reports the
end-to-end metrics.  On a machine whose cores other tenants share (the
reference machine is a 2-core VM), speed drifts by up to +-25% within
seconds and for minutes at a time, so each op's wall time is divided by the time of a
fixed pure-Python calibration kernel run right before and right after it,
each op keeps the median of its normalised times over the cycles, and the
result is expressed in milliseconds of a machine on which the kernel takes
``CALIB_REF_MS``; set-up time is calibrated the same way.  The plain
wall-clock rate is printed alongside.

``--trace 1`` runs the first pass once untraced and once under the
per-layer tracer and reports the per-layer metrics; their counts depend
only on the seed.

Every result is checked against an independent reference outside the
timed region.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
PKG = "mrlai"

SETUP_REPEATS = 5
WALL_LIMIT_S = 110.0
# Fixed, so commits compare the same percentile; at the seed commit every
# workload leaves at least ten samples beyond it (the count is printed).
TAIL_PERCENTILE = 90.0
CALIB_ITERS = 6000
# Kernel time on the reference machine (2-core x86-64 VM, CPython 3.11.7).
CALIB_REF_MS = 0.8
_W = (0.2, 0.19, 0.17, 0.14, 0.1, 0.06, 0.02, 0.12)


def _purge():
    for name in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
        del sys.modules[name]


def setup(workload, seed, n_passes):
    """Import the package and generate and parse the workload.

    Returns the package, the passes, the median set-up time of the repeats
    (calibrated like the op latencies: seconds at reference speed) and the
    path CLI ops write to.
    """
    import workloads

    gen = workloads.WORKLOADS[workload][0]
    out = str(OUT_DIR / f"cli-{workload}-{os.getpid()}.out")
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = perf_counter()
        _purge()
        pkg = importlib.import_module(PKG)
        importlib.import_module(PKG + ".cli")  # the CLI pulls in every layer
        passes = gen(pkg, random.Random(seed), out, n_passes)
        for ops in passes:
            for op in ops:
                for text in op.specs:
                    pkg.load_spec(text)
        dt = perf_counter() - t0
        times.append(2.0 * dt / (before + calibrate()) * CALIB_REF_MS * 1e-3)
    if Path(pkg.__file__).resolve().parent != SRC / PKG:
        raise SystemExit(f"error: imported {pkg.__file__}, not the package under {SRC}")
    return pkg, passes, statistics.median(times), out


def calibrate():
    """Seconds for a fixed pure-Python kernel: the machine's momentary speed."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(CALIB_ITERS):
        x = i * 1e-3
        acc += math.exp(-x) * _W[i & 7] + (x if x < 1.0 else 1.0 / x)
    return perf_counter() - t0


def run_op(op, inline, problems):
    """Run one op; return (seconds, result, ok). Failures are appended to ``problems``."""
    if op.prepare is not None:
        op.prepare()
    t0 = perf_counter()
    try:
        res = op.run()
    except Exception as exc:  # every failing op is reported, the loop goes on
        dt = perf_counter() - t0
        problems.append(f"FAILED {op.label}: {type(exc).__name__}: {exc}")
        return dt, None, False
    dt = perf_counter() - t0
    if inline:
        return dt, None, check_op(op, res, problems)
    return dt, res, True


def check_op(op, res, problems, worst=None):
    try:
        errs, rel = op.check(res)
    except Exception:
        errs, rel = ["check raised:\n" + traceback.format_exc()], 0.0
    if worst is not None:
        worst[0] = max(worst[0], rel)
    if errs:
        problems.append(f"WRONG {op.label}: " + "; ".join(errs))
        return False
    return True


def percentile(sorted_vals, p):
    """Nearest-rank percentile and the number of values strictly beyond its rank."""
    n = len(sorted_vals)
    k = max(1, math.ceil(p / 100.0 * n))
    return sorted_vals[k - 1], n - k


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds):
    import workloads

    _, inline, n_passes = workloads.WORKLOADS[workload]
    pkg, passes, setup_s, out = setup(workload, seed, n_passes)
    ops = [op for pass_ops in passes for op in pass_ops]
    norm = [[] for _ in ops]  # per op: wall time / adjacent kernel time
    problems, deferred = [], []
    failed = executions = 0
    timed = 0.0
    wall0 = perf_counter()
    cycles = 0
    while timed < seconds and perf_counter() - wall0 < WALL_LIMIT_S:
        for i, op in enumerate(ops):
            before = calibrate()
            dt, res, ok = run_op(op, inline, problems)
            after = calibrate()
            norm[i].append(2.0 * dt / (before + after))
            timed += dt
            executions += 1
            failed += not ok
            if ok and not inline:
                deferred.append((op, res))
        cycles += 1
    rss = peak_rss_mib()
    Path(out).unlink(missing_ok=True)
    worst = [0.0]
    for op, res in deferred:
        failed += not check_op(op, res, problems, worst)
    probe_raised, probe_total = _probe(workload, pkg, seed, problems)

    # every op ran once per cycle, so each op's median stands for `cycles` samples
    per_op = sorted(statistics.median(v) * CALIB_REF_MS for v in norm)
    p50 = statistics.median(per_op)
    tail, beyond = percentile(per_op, TAIL_PERCENTILE)
    throughput = 1e3 * len(per_op) / sum(per_op)
    for line in problems[:20]:
        print(line)
    print(f"# {workload} seed {seed}: {len(ops)} distinct ops x {cycles} cycles, {timed:.3f} s timed")
    print(f"# wall clock: {executions / timed:.4f} ops/s over all {executions} executions")
    print(f"setup_s           {setup_s:.6f} s (median of {SETUP_REPEATS})")
    print(f"latency_p50_ms    {p50:.4f} ms")
    print(f"latency_tail_ms   {tail:.4f} ms (p{TAIL_PERCENTILE:g}, {beyond * cycles} samples beyond, "
          f"n={executions})")
    print(f"throughput_ops_s  {throughput:.4f} ops/s")
    print(f"failed_ops_share  {failed / executions:.6f} ratio ({failed}/{executions})")
    print(f"peak_rss_mb       {rss:.3f} MiB")
    print(f"# largest relative error against the reference: {worst[0]:.3e}")
    if probe_total:
        print(f"# far-tail probe (not in the op counts): {probe_raised}/{probe_total} raised BeyondSupport")
    metrics = {
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "throughput_ops_s": (throughput, "ops/s"),
        "peak_rss_mb": (rss, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return problems, executions, failed, metrics


def _probe(workload, pkg, seed, problems):
    """Far-tail MRL queries that fail at the seed commit; reported, not counted as ops."""
    if workload != "numeric-smooth":
        return 0, 0
    import workloads

    queries = workloads.far_tail_queries(random.Random(seed))
    raised, wrong = workloads.far_tail_probe(pkg, queries)
    problems.extend(wrong)
    return raised, len(queries)


def trace_run(workload, seed, ops_limit=None, spans_path=None):
    """Untraced then traced run of the first pass; returns (problems, attempted, failed, metrics)."""
    import tracer as tr
    import workloads

    inline = workloads.WORKLOADS[workload][1]
    pkg, passes, _, out = setup(workload, seed, 1)
    ops = passes[0][:ops_limit]
    problems = []
    untraced = 0.0
    for op in ops:
        untraced += run_op(op, False, problems)[0]
    problems.clear()
    tracer = tr.Tracer(pkg)
    tracer.install()
    traced, failed, deferred = 0.0, 0, []
    try:
        for op in ops:
            tracer.begin_op()
            dt, res, ok = run_op(op, inline, problems)
            traced += dt
            failed += not ok
            if ok and not inline:
                deferred.append((op, res))
    finally:
        tracer.uninstall()
        Path(out).unlink(missing_ok=True)
    for op, res in deferred:
        failed += not check_op(op, res, problems)
    raised = _probe(workload, pkg, seed, problems)[0] if ops_limit is None else 0
    metrics = tracer.metrics()
    metrics["ageing.mrl.far_tail_raised"] = raised
    metrics["tracing.overhead_ms"] = (traced - untraced) * 1e3
    metrics["tracing.overhead_share"] = (traced - untraced) / untraced
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return problems, len(ops), failed, {k: (metrics[k], unit) for k, unit in tr.metric_units()}


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / PKG / "__init__.py").is_file():
        print(f"error: no {PKG} package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        problems, attempted, failed, metrics = trace_run(args.workload, args.seed, spans_path=spans)
        for line in problems[:20]:
            print(line)
        for name, (value, unit) in metrics.items():
            print(f"{name:45s} {value:.6g} {unit}")
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        problems, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
