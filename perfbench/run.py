"""epkit benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and uses ``src/`` there, never an
installed epkit.  It byte-compiles ``src/epkit``, times three bare
``import epkit.cli`` processes, then starts one child process (child.py)
that runs the workload in a closed loop with a single caller.  Children run
one at a time.  It prints the environment, one line per metric with its
unit, and as its last line a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
State (digests of earlier runs, traces, suite outputs) goes to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import describe, share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("l1-sweep", "l1-radius", "point-cloud", "check-battery")
SETUP_SPAWNS = 3
RUN_LIMIT_S = 170.0

# wall_ref is the pass time in units of the reference loop timed beside it
# (child.reference_loop); raw pass seconds are reported as wall_s.
END_TO_END = [("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "iterations": "count",
          "uncertified": "count", "g_evals": "calls/draw", "bytes_computed": "B",
          "samples": "count", "attempts": "count", "failed": "count", "bytes": "B"}


def _layer(span, *stats):
    return [(f"{span}.{stat}", _UNITS[stat]) for stat in stats]


PER_LAYER = [
    *_layer("regression.solve_ls_l1", "calls", "self_s", "iterations", "uncertified"),
    *_layer("regression.design_rank", "calls", "self_s"),
    *_layer("regression.l1_rate_experiment", "self_s"),
    *_layer("regression.l1_localized_sup", "calls", "self_s"),
    *_layer("regression.critical_radius", "total_s", "g_evals"),
    *_layer("regression.localized_complexity_mc", "total_s"),
    *_layer("regression.estimate_bad_event_probability", "total_s"),
    *_layer("metric.from_points", "calls", "self_s"),
    *_layer("metric.farthest_point_order", "calls", "self_s"),
    *_layer("metric.covering_number_bounds", "calls", "self_s"),
    *_layer("metric.is_epsilon_net", "calls", "self_s"),
    *_layer("metric.entropy_profile", "total_s"),
    *_layer("metric.entropy_integral", "total_s"),
    *_layer("metric.dyadic_sum", "calls", "total_s"),
    *_layer("chaining.realize", "calls", "self_s", "bytes_computed"),
    *_layer("chaining.stage1_bound_check", "self_s"),
    *_layer("chaining.dudley_bound_check", "self_s"),
    *_layer("chaining.build_dyadic_nets", "total_s"),
    *_layer("chaining.projection_step_margins", "self_s"),
    *_layer("chaining.telescoping_residual", "calls", "self_s"),
    *_layer("chaining.subgaussian_process_check", "self_s"),
    *[m for f in ("poincare_gap", "gaussian_lsi_gap", "herbst_cgf_gap",
                  "lipschitz_tail_gap", "finite_max_bound_check", "mollify_1d")
      for m in _layer(f"gaussian.{f}", "self_s")],
    *_layer("gaussian.McEstimate.from_samples", "calls", "self_s", "samples"),
    *[m for f in ("efron_stein_gap", "entropy_duality_check", "tensorization_gap",
                  "han_inequality_gap", "bernoulli_lsi_gap")
      for m in _layer(f"discrete.{f}", "calls", "self_s")],
    *_layer("maurey.maurey_sparsify", "calls", "self_s", "attempts", "failed"),
    *_layer("maurey.l1_hull_net_construct", "self_s"),
    *[m for f in ("poincare", "lsi", "lipschitz")
      for m in _layer(f"fields.{f}_battery", "total_s")],
    *[m for suite in ("regress", "cover", "entropy", "dudley", "discrete_check",
                      "gauss_check", "maurey")
      for m in _layer(f"cli.run_{suite}", "total_s", "self_s")],
    *_layer("reports.write_text", "calls", "bytes", "self_s"),
    *_layer("rng.derive_rng", "calls", "self_s"),
    ("uncertified_frac", "ratio"),
    ("uncertified_base", "count"),
    ("tracing_overhead", "ratio"),
    ("trace_coverage", "ratio"),
    ("trace_uncovered_s", "s"),
    ("wall_s", "s"),
    ("ref_loop_s", "s"),
]


class BenchError(RuntimeError):
    pass


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree.
    The search for .git stops at the checkout root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def setup_sample(env) -> float:
    """Seconds from spawning a fresh interpreter to ``import epkit.cli``
    returning in it."""
    code = ("import time, epkit.cli; "
            "print(epkit.cli.__file__); print(time.monotonic())")
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            not Path(lines[0]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise BenchError(f"import epkit.cli failed: {proc.stderr.strip()[-500:]}")
    return float(lines[1]) - spawned


def run_child(args, env, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned"]
    spawned = time.monotonic()
    with subprocess.Popen(cmd + [repr(spawned)], cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"workload child exceeded {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload child exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(args):
    start = time.monotonic()
    if not (ROOT / "src" / "epkit" / "__init__.py").is_file():
        raise BenchError(f"no epkit sources under {ROOT / 'src'}")
    if not compileall.compile_dir(ROOT / "src" / "epkit", quiet=1):
        raise BenchError("byte-compiling src/epkit failed")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    setups = [setup_sample(env) for _ in range(SETUP_SPAWNS)]
    child = run_child(args, env, RUN_LIMIT_S - (time.monotonic() - start))
    setups.append(child["setup_s"])
    sha, dirty = git_state()
    child["env"].update(git_sha=sha, git_dirty=dirty)
    return child, setups


def report(args, child, setups):
    """Print the human-readable lines; return the metrics for the JSON line."""
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(child["env"], sort_keys=True))
    passes = child["passes"]
    attempted, failed = child["attempted"], len(child["failures"])
    for f in child["failures"]:
        print(f"FAILED pass {f['pass']} {f['op']}: ok={f['ok']} "
              f"digest_match={f['digest_match']} {f['detail'][-300:]}")
    print(f"ops_failed_frac {share(failed, attempted):.6g} ratio "
          f"(base: {failed} of {attempted} ops)")
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    refs = [p["ref_s"] for p in passes if not p["traced"]]
    print(f"wall_s {describe(untraced, 's')} over passes")
    print(f"ref_loop_s {describe(refs, 's')} beside those passes")
    if not args.trace:
        relative = [w / r for w, r in zip(untraced, refs)]
        values = {"wall_ref": statistics.median(relative),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": child["peak_rss_mb"]}
        print(f"wall_ref {describe(relative, 'ref')} over passes")
        print(f"setup_s {describe(setups, 's')} over spawns")
        print(f"peak_rss_mb {child['peak_rss_mb']:.6g} MB")
        units = END_TO_END
    else:
        layers, totals = dict(child["layers"]), child["layer_totals"]
        # an exact count over every traced pass, not a median of per-pass shares
        base = (totals.get("regression.solve_ls_l1.calls", 0)
                + totals.get("maurey.maurey_sparsify.calls", 0))
        bad = (totals.get("regression.solve_ls_l1.uncertified", 0)
               + totals.get("maurey.maurey_sparsify.failed", 0))
        layers.update(uncertified_frac=share(bad, base), uncertified_base=base,
                      tracing_overhead=child["tracing_overhead"],
                      trace_coverage=child["trace_coverage"],
                      trace_uncovered_s=(1.0 - child["trace_coverage"])
                      * child["traced_wall_s"],
                      wall_s=statistics.median(untraced),
                      ref_loop_s=statistics.median(refs))
        values = {name: layers.get(name, 0) for name, _ in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"{name} {values[name]:.6g} {unit}")
        print(f"uncertified_frac base: {bad} of {base} solver results")
        print(f"tracing_overhead: traced {child['traced_wall_s']:.6g} s / "
              f"untraced {statistics.median(untraced):.6g} s per pass")
        for name, lat in sorted(child["latency"].items()):
            print(f"latency {name} median {lat['median_s']:.3g} s "
                  f"p{lat['p']:g} {lat['p_s']:.3g} s (n={lat['n']})")
        print(f"trace written to {child['trace_file']}")
        units = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        child, setups = measure(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(args, child, setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
