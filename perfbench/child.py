"""One benchmark run of one workload, in a fresh process.

Started by run.py as
``child.py --spawned T --workload W --seed N --seconds S --trace 0|1``
where T is run.py's ``time.monotonic()`` just before the spawn.  It
imports epkit first, so ``setup_s`` ends when ``import epkit.cli`` returns.
It then generates the workload's inputs, runs whole passes over the
workload's operations until the next pass would overrun ``--seconds`` (at
least one pass; with tracing, untraced and traced passes alternate and at
least one of each runs), checks every outcome, and prints one JSON line.
Pass k runs the workload's instance k modulo the number of instances.  A
fixed reference loop is timed before the first pass and after each pass,
so every pass can be set against the host's speed at the time it ran.
"""

import sys
import time

import epkit.cli  # setup_s ends when this import returns

READY = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from stats import tail_percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES")
                              * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
    }


_REF_ROWS = np.random.default_rng(0).standard_normal((10, 6))


def reference_loop() -> float:
    """Seconds for a fixed piece of interpreter-bound and small-array work
    that calls no epkit code.  A shared host's speed drifts by up to 1.5x
    within a minute; a pass divided by the loops timed next to it drifts
    less.  The loop allocates almost nothing, so peak RSS stays the
    workload's."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(100_000):
        total += i * i % 7
        table[i % 97] = total
    acc = 0.0
    for i in range(6000):
        acc += float(np.abs(_REF_ROWS @ _REF_ROWS[i % 10]).max())
    return time.perf_counter() - start


def run_pass(ops, work):
    """Run every op once; return (wall seconds, outcomes).  An op that
    raises becomes a failed outcome with its traceback."""
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        try:
            outcomes.append(op.run(work / op.name))
        except Exception:
            outcomes.append(workloads.Outcome(False, "", traceback.format_exc(limit=3)))
    return time.perf_counter() - start, outcomes


def layer_report(tracer, traced_passes):
    """Per-layer values (median over traced passes), their sums over traced
    passes, trace coverage and per-call latency percentiles of the first
    traced pass."""
    per_pass, coverage, latency = [], [], {}
    for p in traced_passes:
        rows = tracer.run_spans(p["run_id"])
        per_pass.append(spans.layer_stats(rows, tracer.counts[p["run_id"]]))
        coverage.append(spans.top_level_time(rows) / p["wall_s"])
        if not latency:
            durations = {}
            for name, start, end, _, _ in rows:
                durations.setdefault(name, []).append(end - start)
            for name, vals in durations.items():
                q, v, n = tail_percentile(vals)
                if q is not None:
                    latency[name] = {"n": n, "median_s": statistics.median(vals),
                                     "p": q, "p_s": v}
    values, totals = {}, {}
    for name in sorted({k for stats in per_pass for k in stats}):
        for stat in sorted({s for stats in per_pass for s in stats[name]}):
            column = [stats.get(name, {}).get(stat, 0) for stats in per_pass]
            values[f"{name}.{stat}"] = statistics.median(column)
            totals[f"{name}.{stat}"] = sum(column)
    return values, totals, statistics.median(coverage), latency


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    src = (ROOT / "src").resolve()
    if src not in Path(epkit.__file__).resolve().parents:
        sys.exit(f"epkit was imported from {epkit.__file__}, not from {src}")

    work = STATE / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    instances = workloads.build(args.workload, args.seed, work)
    # Digests are compared only between runs of the same workload definitions.
    defs = hashlib.sha256(Path(workloads.__file__).read_bytes()).hexdigest()[:12]
    store = STATE / "digests" / f"{args.workload}-{args.seed}-{defs}.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    tracer = spans.Tracer() if args.trace else None

    passes, failures, attempted = [], [], 0
    budget_start = time.perf_counter()
    ref_before = reference_loop()
    while True:
        ops = instances[len(passes) % len(instances)]
        traced = tracer is not None and len(passes) % 2 == 1
        run_id = f"{args.workload}-{args.seed}-pass{len(passes)}"
        if traced:
            tracer.run_id = run_id
            tracer.install()
        try:
            wall, outcomes = run_pass(ops, work)
        finally:
            if traced:
                tracer.uninstall()
        for op, out in zip(ops, outcomes):
            attempted += 1
            if out.digest:
                known.setdefault(op.name, out.digest)
            if not out.ok or not out.digest or out.digest != known[op.name]:
                failures.append({"pass": len(passes), "op": op.name,
                                 "ok": out.ok, "digest_match": out.digest == known.get(op.name),
                                 "detail": out.detail})
        ref_after = reference_loop()
        passes.append({"run_id": run_id, "wall_s": wall, "traced": traced,
                       "ref_s": 0.5 * (ref_before + ref_after)})
        ref_before = ref_after
        spent = time.perf_counter() - budget_start
        if len(passes) >= (2 if tracer else 1) and \
                spent + wall + ref_after > args.seconds:
            break
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")

    result = {"setup_s": READY - args.spawned, "passes": passes,
              "attempted": attempted, "failures": failures,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "env": environment()}
    if tracer is not None:
        traced_passes = [p for p in passes if p["traced"]]
        values, totals, coverage, latency = layer_report(tracer, traced_passes)
        untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        result.update(layers=values, layer_totals=totals,
                      trace_coverage=coverage, latency=latency,
                      tracing_overhead=traced_wall / untraced,
                      traced_wall_s=traced_wall)
        trace_file = STATE / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": result["env"], "passes": passes,
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": tracer.spans,
            "counts": {k: dict(v) for k, v in tracer.counts.items()}}) + "\n")
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
