"""Unified command-line front end for the verification suites.

Subcommands: cover, entropy, discrete-check, gauss-check, dudley, regress,
maurey.  One 64-bit seed governs all randomness through labeled substreams,
so a rerun with the same configuration writes byte-identical reports.

Exit codes: 0 all checks passed, 1 at least one inequality check failed,
2 usage or configuration error (zero-size configurations included).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import chaining, discrete, fields, gaussian, maurey, metric, regression
from .reports import ReportCollector, fmt, reports_to_csv, reports_to_json, write_text
from .rng import derive_rng

EXACT_TOL = 1e-10


class ConfigError(ValueError):
    pass


# -- configuration ------------------------------------------------------------

COMMON_DEFAULTS = {"seed": 0, "samples": 100000, "trials": 200,
                   "out": ".", "format": "csv", "config": None}

SUITE_DEFAULTS = {
    "cover": {"points": None, "dist_matrix": False, "eps": None, "scales": 8},
    "entropy": {"points": None, "dist_matrix": False, "D": None, "K": None,
                "nodes": 64},
    "discrete-check": {"instances": 200},
    "gauss-check": {"fields": 20},
    "dudley": {"points": None, "sigma": 1.0, "D": None, "K": None,
               "refine": None},
    "regress": {"cls": "linear", "grid": None, "n": 64, "d": 8, "R": 1.0,
                "sigma": 1.0},
    "maurey": {"d": 3, "n": 20, "R": 1.0, "eps": 0.5, "instances": 200},
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="numerical verification suites for covering numbers, "
                    "chaining, concentration, and localized regression")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", type=str, default=None)

    p = sub.add_parser("cover", help="covering/packing profile of a point cloud")
    p.add_argument("--points", type=str, default=None)
    p.add_argument("--dist-matrix", dest="dist_matrix", action="store_true",
                   default=None)
    p.add_argument("--eps", type=str, default=None,
                   help="comma-separated scales; default: dyadic from the diameter")
    p.add_argument("--scales", type=int, default=None,
                   help="number of auto dyadic scales")
    common(p)

    p = sub.add_parser("entropy", help="entropy integral and dyadic sums")
    p.add_argument("--points", type=str, default=None)
    p.add_argument("--dist-matrix", dest="dist_matrix", action="store_true",
                   default=None)
    p.add_argument("--D", type=float, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--nodes", type=int, default=None)
    common(p)

    p = sub.add_parser("discrete-check", help="exact product-space inequalities")
    p.add_argument("--instances", type=int, default=None)
    common(p)

    p = sub.add_parser("gauss-check", help="Gaussian Monte Carlo inequality suite")
    p.add_argument("--fields", type=int, default=None)
    common(p)

    p = sub.add_parser("dudley", help="dyadic chaining suite on a point cloud")
    p.add_argument("--points", type=str, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--D", type=float, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--refine", type=str, default=None,
                   help="optional CSV of a finer cloud for the dense-sup check")
    common(p)

    p = sub.add_parser("regress", help="localized least-squares rate suite")
    p.add_argument("--class", dest="cls", choices=("linear", "l1"), default=None)
    p.add_argument("--grid", type=str, default=None,
                   help="cells as n1:d1,n2:d2,...")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    common(p)

    p = sub.add_parser("maurey", help="l1-hull sparsification suite")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--instances", type=int, default=None)
    common(p)

    return parser


def _effective_config(args) -> dict:
    cmd = args.command
    cfg = dict(COMMON_DEFAULTS)
    cfg.update(SUITE_DEFAULTS[cmd])
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys for {cmd}: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["seed"] is None:
        raise ConfigError("a seed is required")
    for key in ("samples", "trials"):
        if cfg[key] is not None and cfg[key] < 2:
            raise ConfigError(f"{key} must be at least 2")
    # zero instances, fields or dimensions would pass every check vacuously
    for key in ("instances", "fields", "d", "n"):
        if cfg.get(key) is not None and cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1")
    return cfg


def _load_metric_set(cfg) -> metric.FiniteMetricSet:
    if not cfg.get("points"):
        raise ConfigError("this suite requires --points")
    if cfg.get("dist_matrix"):
        return metric.load_distance_matrix_csv(cfg["points"])
    return metric.FiniteMetricSet.from_points(metric.load_points_csv(cfg["points"]))


def _write(cfg, name, content) -> Path:
    """Write one output file under the --out directory: a string as it is, a
    list of rows as CSV, anything else as sorted, indented JSON."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(content, list):
        buf = io.StringIO()
        csv.writer(buf).writerows(content)
        content = buf.getvalue()
    elif not isinstance(content, str):
        content = json.dumps(content, sort_keys=True, indent=2) + "\n"
    write_text(out / name, content)
    return out / name


def _write_reports(collector, cfg, prefix):
    if cfg["format"] == "json":
        return _write(cfg, f"{prefix}_reports.json", reports_to_json(collector.reports))
    return _write(cfg, f"{prefix}_reports.csv", reports_to_csv(collector.reports))


# -- suites -------------------------------------------------------------------


def run_cover(cfg) -> ReportCollector:
    s = _load_metric_set(cfg)
    col = ReportCollector()
    if cfg["eps"]:
        scales = [float(tok) for tok in str(cfg["eps"]).split(",")]
    else:
        top = s.diameter if s.diameter > 0 else 1.0
        scales = [top * 2.0 ** (-k) for k in range(cfg["scales"])]
    profile = metric.entropy_profile(s, scales)
    for eps, lower, upper in zip(profile.scales, profile.lowers, profile.counts):
        eps = float(eps)
        witness = metric.maximal_packing(eps, s, order="farthest")
        valid = metric.is_epsilon_net(witness, eps, s)
        col.add(f"net-valid-eps={fmt(eps)}", lhs=0.0 if valid else 1.0,
                rhs=0.0, stderr=0.0, margin=0.0 if valid else -1.0,
                seed=cfg["seed"], n_samples=s.n)
        col.add(f"sandwich-eps={fmt(eps)}", lhs=float(lower), rhs=float(upper),
                stderr=0.0, margin=float(upper - lower), seed=cfg["seed"],
                n_samples=s.n)
    _write(cfg, "cover_profile.csv", metric.profile_to_csv(profile))
    return col


def run_entropy(cfg) -> ReportCollector:
    s = _load_metric_set(cfg)
    col = ReportCollector()
    D = cfg["D"] if cfg["D"] else (s.diameter if s.diameter > 0 else 1.0)
    nodes = cfg["nodes"]
    integral = metric.entropy_integral(s, D, nodes=nodes)
    half = metric.entropy_integral(s, D / 2.0, nodes=nodes)
    col.add("entropy-integral-nonneg", lhs=0.0, rhs=integral, stderr=0.0,
            margin=integral, seed=cfg["seed"], n_samples=s.n)
    col.add("entropy-integral-monotone-D", lhs=half, rhs=integral, stderr=0.0,
            margin=integral - half, seed=cfg["seed"], n_samples=s.n)
    K = cfg["K"] if cfg["K"] is not None else 8
    rows = [["k", "eps_k", "dyadic_sum_k"]]
    for k in range(K + 1):
        rows.append([k, fmt(D * 2.0 ** (-k)), fmt(metric.dyadic_sum(s, D, k))])
    _write(cfg, "entropy_sums.csv", rows)
    return col


def run_discrete_check(cfg) -> ReportCollector:
    col = ReportCollector()
    seed = cfg["seed"]
    violations = []
    for idx in range(cfg["instances"]):
        rng = derive_rng(seed, "discrete-instance", idx)
        # the checks read the dumped form, so a violation replays exactly
        doc = discrete.random_instance(rng).to_dict()
        gaps = discrete.replay_instance(doc)
        for family, (lhs, rhs) in gaps.items():
            margin = (EXACT_TOL - abs(rhs - lhs) if family == "duality_eq"
                      else rhs + EXACT_TOL - lhs)
            col.add(f"{family.replace('_', '-')}-{idx}", lhs, rhs, 0.0, margin, seed)
        if not all(r.passed for r in col.reports[-len(gaps):]):
            violations.append(doc | {"index": idx})
    if violations:
        _write(cfg, "discrete_violations.json", {"violations": violations})
    return col


def run_gauss_check(cfg) -> ReportCollector:
    col = ReportCollector()
    seed, n = cfg["seed"], cfg["samples"]
    count = cfg["fields"]
    for f in fields.poincare_battery(count, seed):
        lhs, rhs = gaussian.poincare_gap(f, n, seed)
        col.add(f"poincare/{f.name}", lhs.mean, rhs.mean, lhs.stderr + rhs.stderr,
                gaussian.three_sigma_margin(lhs, rhs), seed, n)
    for f in fields.lsi_battery(count, seed):
        lhs, rhs = gaussian.gaussian_lsi_gap(f, n, seed)
        col.add(f"lsi/{f.name}", lhs.mean, rhs.mean, lhs.stderr + rhs.stderr,
                gaussian.three_sigma_margin(lhs, rhs), seed, n)
    for f in fields.lipschitz_battery(count, seed):
        lam = 0.5 / f.lipschitz
        lhs, rhs = gaussian.herbst_cgf_gap(f, lam, n, seed)
        col.add(f"herbst/{f.name}", lhs.mean, rhs, lhs.stderr,
                rhs + 3.0 * lhs.stderr - lhs.mean, seed, n)
        tail, bound = gaussian.lipschitz_tail_gap(f, f.lipschitz, n, seed)
        col.add(f"tail/{f.name}", tail.mean, bound, tail.stderr,
                bound + 3.0 * tail.stderr - tail.mean, seed, n)
    for m in (1, 2, 16):
        emax, bound = gaussian.finite_max_bound_check(m, np.ones(m), n, seed)
        col.add(f"finite-max/m={m}", emax.mean, bound, emax.stderr,
                bound + 3.0 * emax.stderr - emax.mean, seed, n)
    grid = np.linspace(-2.0, 2.0, 81)
    for eps in (0.1, 0.05):
        _, sup_err, c_rho = gaussian.mollify_1d(np.abs, 1.0, eps, grid)
        bound = 1.0 * c_rho * eps + 1e-6
        col.add(f"mollify/abs-eps={fmt(eps)}", sup_err, bound, 0.0,
                bound - sup_err, seed)
    return col


def run_dudley(cfg) -> ReportCollector:
    col = ReportCollector()
    seed, n_samples = cfg["seed"], cfg["samples"]
    pts = metric.load_points_csv(cfg["points"]) if cfg.get("points") else None
    if pts is None:
        raise ConfigError("dudley requires --points")
    s = chaining.IndexSet(points=pts, basepoint=0)
    proc = chaining.CanonicalProcess(sigma=cfg["sigma"])
    nets = chaining.build_dyadic_nets(s, D=cfg["D"], K=cfg["K"])
    for lv in nets.levels:
        ok = metric.is_epsilon_net(lv.net, lv.eps, s.metric_set())
        col.add(f"net-valid-k={lv.k}", 0.0 if ok else 1.0, 0.0, 0.0,
                0.0 if ok else -1.0, seed, s.m)
        col.add(f"net-card-k={lv.k}", float(len(lv.net)), float(lv.card_bound),
                0.0, float(lv.card_bound - len(lv.net)), seed, s.m)
    margins = chaining.projection_step_margins(nets)
    col.add("projection-step", float(-margins.min()), 0.0, 0.0,
            float(margins.min()) + 1e-12, seed, s.m)
    rng = derive_rng(seed, "telescope")
    resid = 0.0
    finest = nets.levels[nets.K].net
    for _ in range(100):
        u = int(finest[rng.integers(len(finest))])
        w = rng.standard_normal(s.dim)
        resid = max(resid, chaining.telescoping_residual(u, nets, proc, w))
    col.add("telescoping-residual", resid, EXACT_TOL, 0.0, EXACT_TOL - resid,
            seed, 100)
    if nets.K >= 1:
        esup, bound = chaining.stage1_bound_check(nets, proc, n_samples, seed)
        col.add("stage1", esup.mean, bound, esup.stderr,
                bound + 3.0 * esup.stderr - esup.mean, seed, n_samples)
    esup, rhs = chaining.dudley_bound_check(s, proc, n_samples, seed, D=cfg["D"])
    col.add("entropy-integral-bound", esup.mean, rhs, esup.stderr,
            rhs + 3.0 * esup.stderr - esup.mean, seed, n_samples)
    rng = derive_rng(seed, "mgf-pairs")
    m = s.m
    pairs = [(0, m - 1)] if m > 1 else [(0, 0)]
    for _ in range(min(4, m * (m - 1) // 2)):
        i, j = rng.integers(0, m, size=2)
        if i != j:
            pairs.append((int(i), int(j)))
    diam = s.diameter if s.diameter > 0 else 1.0
    lams = [x / (cfg["sigma"] * diam) for x in (-1.0, -0.5, 0.5, 1.0)]
    worst, _ = chaining.subgaussian_process_check(s, proc, pairs, lams,
                                                  n_samples, seed)
    col.add("subgaussian-mgf-grid", 0.0, 0.0, 0.0, worst, seed, n_samples)
    if cfg.get("refine"):
        fine = chaining.IndexSet(points=metric.load_points_csv(cfg["refine"]),
                                 basepoint=0)
        check = chaining.dense_sequence_sup_check(s, fine, proc, n_samples, seed)
        col.add("dense-sup-refinement", check.fine.mean - check.coarse.mean,
                check.gap_bound,
                check.coarse.stderr + check.fine.stderr, check.margin, seed,
                n_samples)
    rows = [["k", "eps_k", "net_size"]]
    for lv in nets.levels:
        rows.append([lv.k, fmt(lv.eps), len(lv.net)])
    _write(cfg, "dudley_profile.csv", rows)
    return col


def _parse_grid(cfg):
    if cfg["grid"]:
        cells = []
        for tok in str(cfg["grid"]).split(","):
            n_str, d_str = tok.split(":")
            cells.append((int(n_str), int(d_str)))
        return cells
    return [(cfg["n"], cfg["d"])]


def run_regress(cfg) -> ReportCollector:
    col = ReportCollector()
    seed, trials = cfg["seed"], cfg["trials"]
    grid = _parse_grid(cfg)
    if cfg["cls"] == "linear":
        report = regression.linear_rate_experiment(grid, cfg["sigma"], trials, seed)
        for cell in report.cells:
            col.add(f"linear-normalized-n={cell.n}-d={cell.d}",
                    cell.normalized, 2.0, 0.0, 2.0 - cell.normalized, seed, trials)
        for d, slope in report.slopes.items():
            col.add(f"linear-slope-d={d}", slope, -1.0, 0.0,
                    0.15 - abs(slope + 1.0), seed, trials)
    else:
        report = regression.l1_rate_experiment(grid, cfg["R"], cfg["sigma"],
                                               trials, seed)
        norms = [c.normalized for c in report.cells]
        if len(norms) > 1 and min(norms) > 0:
            spread = max(norms) / min(norms)
            col.add("l1-normalized-band", spread, 3.0, 0.0, 3.0 - spread,
                    seed, trials)
        for cell in report.cells:
            finite = np.isfinite(cell.normalized) and cell.normalized >= 0
            col.add(f"l1-normalized-finite-n={cell.n}-d={cell.d}",
                    cell.normalized, 0.0, 0.0, 0.0 if finite else -1.0,
                    seed, trials)
    rows = [["n", "d", "r", "delta_star", "median_err", "normalized", "slope"]]
    for cell in report.cells:
        slope = report.slopes.get(cell.d, float("nan"))
        rows.append([cell.n, cell.d, cell.rank, fmt(cell.delta_star),
                     fmt(cell.median_err), fmt(cell.normalized), fmt(slope)])
    _write(cfg, "regress_cells.csv", rows)
    summary = {"schema_version": 1, "class": cfg["cls"], "params": report.params,
               "slopes": {str(k): v for k, v in report.slopes.items()},
               "cells": [{"n": c.n, "d": c.d, "r": c.rank,
                          "delta_star": c.delta_star,
                          "median_err": c.median_err,
                          "normalized": c.normalized} for c in report.cells]}
    _write(cfg, "regress_summary.json", summary)
    return col


def run_maurey(cfg) -> ReportCollector:
    col = ReportCollector()
    seed = cfg["seed"]
    d, n, R, eps = cfg["d"], cfg["n"], cfg["R"], cfg["eps"]
    k = max(int(np.ceil(R ** 2 / eps ** 2)), 1)
    bound = maurey.l1_hull_net_bound(d, R, eps)
    max_err = 0.0
    attempts = []
    worst_unbias = 0.0
    worst_second = np.inf
    for idx in range(cfg["instances"]):
        rng = derive_rng(seed, "maurey-instance", idx)
        X = rng.standard_normal((n, d))
        X *= np.sqrt(n) / np.linalg.norm(X, axis=0)
        dic = maurey.ColumnDictionary(X, normalized=True)
        raw = rng.standard_normal(d)
        theta = raw / np.abs(raw).sum() * R * rng.uniform(0.0, 1.0)
        dist = maurey.maurey_distribution(theta, R, dic)
        v = X @ theta / np.sqrt(n)
        worst_unbias = max(worst_unbias,
                           float(np.abs(dist.expectation() - v).max()))
        second = maurey.maurey_second_moment(theta, R, dic)
        worst_second = min(worst_second,
                           R * float(np.abs(theta).sum()) - second)
        res = maurey.maurey_sparsify(theta, R, dic, eps, seed=seed + idx)
        attempts.append(res.attempts)
        max_err = max(max_err, res.error if res.success else np.inf)
        if not res.success:
            col.add(f"sparsify-{idx}", res.error, eps, 0.0, -1.0, seed)
    col.add("unbiasedness", worst_unbias, 1e-12, 0.0, 1e-12 - worst_unbias, seed)
    col.add("second-moment", 0.0, 0.0, 0.0, worst_second + 1e-12, seed)
    col.add("sparsify-max-error", max_err, eps, 0.0, eps - max_err, seed)
    net_size = None
    if bound <= maurey.NET_BUDGET:
        rng = derive_rng(seed, "maurey-net")
        X = rng.standard_normal((n, d))
        X *= np.sqrt(n) / np.linalg.norm(X, axis=0)
        dic = maurey.ColumnDictionary(X, normalized=True)
        net = maurey.l1_hull_net_construct(dic, R, eps, n_validation=100,
                                           seed=seed)
        net_size = len(net.net)
        col.add("net-cardinality", float(net_size), float(bound), 0.0,
                float(bound - net_size), seed)
    summary = {"schema_version": 1, "k": k, "bound": str(bound),
               "net_size": net_size, "instances": cfg["instances"],
               "max_attempts_seen": max(attempts) if attempts else 0,
               "mean_attempts": float(np.mean(attempts)) if attempts else 0.0,
               "max_observed_error": max_err}
    _write(cfg, "maurey_summary.json", summary)
    return col


SUITES = {
    "cover": run_cover,
    "entropy": run_entropy,
    "discrete-check": run_discrete_check,
    "gauss-check": run_gauss_check,
    "dudley": run_dudley,
    "regress": run_regress,
    "maurey": run_maurey,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _effective_config(args)
        start = time.perf_counter()
        collector = SUITES[args.command](cfg)
        elapsed = time.perf_counter() - start
        path = _write_reports(collector, cfg, args.command.replace("-", "_"))
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n = len(collector.reports)
    failed = collector.n_failed
    print(f"{args.command}: {n - failed}/{n} checks passed "
          f"({elapsed:.2f}s, reports in {path})")
    for rep in collector.reports:
        if not rep.passed:
            print(f"  FAIL {rep.check}: lhs={fmt(rep.lhs)} rhs={fmt(rep.rhs)} "
                  f"margin={fmt(rep.margin)}")
    return 0 if collector.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
