"""Unified command-line front end for the verification suites.

Subcommands: cover, entropy, discrete-check, gauss-check, dudley, regress,
maurey.  One 64-bit seed governs all randomness through labeled substreams,
so a rerun with the same configuration writes byte-identical reports.

Every option is declared once, in ``OPTIONS`` or ``COMMON``; the parser, the
defaults and the validation of flag and config-file values come from there.

Exit codes: 0 all checks passed, 1 at least one inequality check failed,
2 usage or configuration error (a value of the wrong type, outside its
choices or below its bound, a zero-size configuration, non-finite input, a
point cloud whose diameter is 0, a scale such as sigma^2 that underflows to
0 or overflows, a linear regress sigma below its rounding floor, a
gauss-check or dudley sample count above ``gaussian.SAMPLE_BUDGET``), 3
internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import chaining, discrete, fields, gaussian, maurey, metric, regression, workers
from .reports import ReportCollector, fmt, render, versioned, write_text
from .rng import derive_rng, gaussian_design, l1_ball_point

EXACT_TOL = 1e-10


class ConfigError(ValueError):
    pass


# -- configuration ------------------------------------------------------------


# A suite option: config key, type (int, float, str, bool) or tuple of choices,
# default, smallest accepted value (a float must exceed it), and help.  Its
# flag is the key with - for _, except --class for cls.
Option = namedtuple("Option", "name type default low help")

_POINTS = Option("points", str, None, None, "CSV file, one point per row")
_DIST_MATRIX = Option("dist_matrix", bool, False, None, "--points holds distances")
_D = Option("D", float, None, 0.0, "diameter bound; default: the diameter")
_R = Option("R", float, 1.0, 0.0, "radius of the l1 ball")
_SIGMA = Option("sigma", float, 1.0, 0.0, "scale of the Gaussian noise")
_INSTANCES = Option("instances", int, 200, 1, "random instances")
# the tail estimate of gauss-check keeps n - n // 2 samples, and an estimate
# needs two
_SAMPLES = Option("samples", int, 100000, 3, "Monte Carlo samples per estimate")
COMMON = (Option("seed", int, 0, None, "seed of every random stream"),
          Option("out", str, ".", None, "directory of the output files"),
          Option("format", ("csv", "json"), "csv", None, "report file format"),
          Option("config", str, None, None, "JSON file of option values"))
OPTIONS = {
    "cover": (_POINTS, _DIST_MATRIX,
              Option("eps", str, None, None, "comma-separated scales; default dyadic"),
              Option("scales", int, 8, 1, "number of dyadic scales")),
    "entropy": (_POINTS, _DIST_MATRIX, _D,
                Option("K", int, 8, 0, "deepest dyadic sum")),
    "discrete-check": (_INSTANCES,),
    "gauss-check": (Option("fields", int, 20, 1, "fields per battery"), _SAMPLES),
    "dudley": (_POINTS, _SIGMA, _D, _SAMPLES,
               Option("K", int, None, 0,
                      f"depth of the nets, at most {chaining.MAX_DEPTH}"),
               Option("refine", str, None, None, "finer cloud containing --points")),
    "regress": (Option("cls", ("linear", "l1"), "linear", None, "function class"),
                Option("grid", str, "64:8", None, "cells as n1:d1,n2:d2,..."),
                _R, _SIGMA, Option("trials", int, 200, 2, "regression trials per cell")),
    "maurey": (Option("d", int, 3, 1, "dictionary columns"),
               Option("n", int, 20, 1, "dictionary rows"), _R,
               Option("eps", float, 0.5, 0.0, "target distance"), _INSTANCES),
}
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a finite number"),
               str: (str, "a string"), bool: (bool, "true or false")}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="numerical verification suites for covering numbers, "
                    "chaining, concentration, and localized regression")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, options in OPTIONS.items():
        p = sub.add_parser(cmd, help=SUITES[cmd].__doc__)
        for opt in options + COMMON:
            kind = ({"action": "store_true"} if opt.type is bool
                    else {"choices": opt.type} if isinstance(opt.type, tuple)
                    else {"type": opt.type})
            spelled = "class" if opt.name == "cls" else opt.name.replace("_", "-")
            bound = "" if opt.low is None else f" ({_bound(opt)})"
            p.add_argument("--" + spelled, dest=opt.name, default=None,
                           help=opt.help + bound, **kind)
    return parser


def _bound(opt: Option) -> str:
    return f"greater than {opt.low}" if opt.type is float else f"at least {opt.low}"


def _check(opt: Option, value) -> None:
    """Reject a wrong JSON type, a non-finite float, a value outside the
    choices or below the bound."""
    if value is None and opt.default is None:
        return
    if isinstance(opt.type, tuple):
        ok, what = value in opt.type, "one of " + ", ".join(opt.type)
    else:
        kinds, what = _JSON_TYPES[opt.type]
        ok = (isinstance(value, kinds)
              and isinstance(value, bool) == (opt.type is bool)
              and (opt.type is not float or abs(value) < math.inf))
    if not ok:
        raise ConfigError(f"{opt.name} must be {what}, not {value!r}")
    strict = opt.type is float
    if opt.low is not None and not (value > opt.low if strict else value >= opt.low):
        raise ConfigError(f"{opt.name} must be {_bound(opt)}")


def _effective_config(args) -> dict:
    options = OPTIONS[args.command] + COMMON
    cfg = {opt.name: opt.default for opt in options}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("the config file must hold a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys for {args.command}: "
                              f"{sorted(unknown)}")
        cfg.update(file_cfg)
    for opt in options:
        if getattr(args, opt.name) is not None:
            cfg[opt.name] = getattr(args, opt.name)
        _check(opt, cfg[opt.name])
    # both Monte Carlo suites hold at most 32 bytes per sample
    if cfg.get("samples", 0) > gaussian.SAMPLE_BUDGET:
        raise ConfigError(f"samples = {cfg['samples']} exceeds the sample budget "
                          f"{gaussian.SAMPLE_BUDGET}")
    return cfg


def _in_float_range(name: str, value: float) -> None:
    """Reject a scale that underflowed to 0 or overflowed, naming it."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} = {value:g} is outside the float range")


def _nondegenerate(s):
    """s, unless its diameter is 0, where every check would pass vacuously."""
    if not s.diameter > 0:
        raise ConfigError(f"the point cloud has diameter {s.diameter:g}")
    return s


def _load_metric_set(cfg) -> metric.FiniteMetricSet:
    if not cfg["points"]:
        raise ConfigError("this suite requires --points")
    if cfg.get("dist_matrix"):   # dudley reads points only
        return _nondegenerate(metric.load_distance_matrix_csv(cfg["points"]))
    points = metric.load_points_csv(cfg["points"])
    return _nondegenerate(metric.FiniteMetricSet.from_points(points))


def _write(cfg, name, content) -> Path:
    """Write one output file, rendered by ``reports.render``, under --out."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / name, render(content))
    return out / name


# -- suites -------------------------------------------------------------------


def run_cover(cfg) -> ReportCollector:
    """covering/packing profile of a point cloud"""
    s = _load_metric_set(cfg)
    col = ReportCollector(cfg["seed"])
    if cfg["eps"]:
        scales = []
        for tok in cfg["eps"].split(","):
            try:
                scales.append(float(tok))
            except ValueError:
                raise ConfigError(f"the eps scale {tok!r} is not a number") from None
            if not math.isfinite(scales[-1]):
                raise ConfigError(f"eps holds a non-finite scale {tok!r}")
    else:
        # the smallest scale must not underflow to 0
        _in_float_range(f"the scale D 2^-(scales-1) at scales={cfg['scales']}",
                        s.diameter * 2.0 ** (1 - cfg["scales"]))
        scales = [s.diameter * 2.0 ** (-k) for k in range(cfg["scales"])]
    profile = metric.entropy_profile(s, scales)
    for eps, lower, upper in zip(profile.scales, profile.lowers, profile.counts):
        eps = float(eps)
        witness = metric.maximal_packing(eps, s)
        valid = metric.is_epsilon_net(witness, eps, s)
        col.at_most(f"net-valid-eps={fmt(eps)}", float(not valid), 0.0, 0.0, s.n)
        col.at_most(f"sandwich-eps={fmt(eps)}", float(lower), float(upper), 0.0, s.n)
    _write(cfg, "cover_profile.csv",
           [["eps", "lower", "upper", "entropy"],
            *zip(profile.scales, profile.lowers, profile.counts, profile.entropies)])
    return col


def run_entropy(cfg) -> ReportCollector:
    """entropy integral and dyadic sums"""
    s = _load_metric_set(cfg)
    col = ReportCollector(cfg["seed"])
    D, K = cfg["D"] or s.diameter, cfg["K"]
    if K:   # the deepest sum reaches the scale D 2^-(K-1), which must not underflow
        _in_float_range(f"the scale D 2^-(K-1) at K={K}", D * 2.0 ** (1 - K))
    integral = metric.entropy_integral(s, D)
    half = metric.entropy_integral(s, D / 2.0)
    col.at_most("entropy-integral-nonneg", 0.0, integral, 0.0, s.n)
    col.at_most("entropy-integral-monotone-D", half, integral, 0.0, s.n)
    rows = [["k", "eps_k", "dyadic_sum_k"]]
    for k, total in enumerate(metric.dyadic_sums(s, D, K)):
        rows.append([k, D * 2.0 ** (-k), total])
    _write(cfg, "entropy_sums.csv", rows)
    return col


def run_discrete_check(cfg) -> ReportCollector:
    """exact product-space inequalities"""
    seed = cfg["seed"]
    col = ReportCollector(seed)
    violations = []
    for idx in range(cfg["instances"]):
        rng = derive_rng(seed, "discrete-instance", idx)
        # the checks read the dumped form, so a violation replays exactly
        doc = discrete.random_instance(rng)
        gaps = discrete.replay_instance(doc)
        for family, (lhs, rhs) in gaps.items():
            contract = col.within if family == "duality_eq" else col.at_most
            contract(f"{family.replace('_', '-')}-{idx}", lhs, rhs, EXACT_TOL, 0)
        if not all(r.passed for r in col.reports[-len(gaps):]):
            violations.append(doc | {"index": idx})
    if violations:
        _write(cfg, "discrete_violations.json", {"violations": violations})
    return col


def run_gauss_check(cfg) -> ReportCollector:
    """Gaussian Monte Carlo inequality suite"""
    from concurrent.futures import ThreadPoolExecutor

    seed, n, count = cfg["seed"], cfg["samples"], cfg["fields"]
    col = ReportCollector(seed)

    # One job per field, each on its own (seed, label, field) streams, so the
    # estimates do not depend on the schedule; map hands them back in battery
    # order.
    def poincare(f):
        return [(f"poincare/{f.name}", gaussian.poincare_gap(f, n, seed))]

    def lsi(f):
        return [(f"lsi/{f.name}", gaussian.gaussian_lsi_gap(f, n, seed))]

    def lipschitz(f):
        # the tail estimate holds n - n // 2 samples; the report gives n
        herbst = gaussian.herbst_cgf_gap(f, 0.5 / f.lipschitz, n, seed)
        tail = gaussian.lipschitz_tail_gap(f, f.lipschitz, n, seed)
        return [(f"herbst/{f.name}", herbst), (f"tail/{f.name}", tail)]

    jobs = ([(poincare, f) for f in fields.poincare_battery(count, seed)]
            + [(lsi, f) for f in fields.lsi_battery(count, seed)]
            + [(lipschitz, f) for f in fields.lipschitz_battery(count, seed)])
    cpus = workers.available_cpus()
    with ThreadPoolExecutor(max_workers=min(cpus, len(jobs))) as pool:
        for rows in pool.map(lambda job: job[0](job[1]), jobs):
            for check, (lhs, rhs) in rows:
                col.mc(check, lhs, rhs, n)
    for m in (1, 2, 16):
        col.mc(f"finite-max/m={m}",
               *gaussian.finite_max_bound_check(m, np.ones(m), n, seed), n)
    grid = np.linspace(-2.0, 2.0, 81)
    c_rho = gaussian.bump_first_moment()
    for eps in (0.1, 0.05):
        _, sup_err = gaussian.mollify_1d(np.abs, eps, grid)
        bound = 1.0 * c_rho * eps + 1e-6
        col.at_most(f"mollify/abs-eps={fmt(eps)}", sup_err, bound, 0.0, 0)
    return col


def run_dudley(cfg) -> ReportCollector:
    """dyadic chaining suite on a point cloud"""
    seed, n_samples, sigma = cfg["seed"], cfg["samples"], cfg["sigma"]
    col = ReportCollector(seed)
    ms = _load_metric_set(cfg)
    # the MGF grid squares sigma and lam = x / (sigma diam), |x| <= 1; the
    # estimates sum squared deviations of maxima, below (8 sigma diam)^2
    # unless a draw strays by 8 standard deviations (sigma diam bounds one)
    sd = sigma * ms.diameter
    _in_float_range("sigma^2", sigma * sigma)
    _in_float_range(f"64 samples (sigma diam)^2 at samples={n_samples}",
                    64.0 * n_samples * sd * sd)
    _in_float_range("1/(sigma diam)^2", 1.0 / sd / sd)
    proc = chaining.CanonicalProcess(sigma=sigma)
    nets = chaining.build_dyadic_nets(ms, D=cfg["D"], K=cfg["K"])
    for lv in nets.levels:
        ok = metric.is_epsilon_net(lv.net, lv.eps, ms)
        col.at_most(f"net-valid-k={lv.k}", float(not ok), 0.0, 0.0, ms.n)
        card = int(metric.covering_counts(ms, lv.eps / 2.0))
        col.at_most(f"net-card-k={lv.k}", float(len(lv.net)), float(card), 0.0,
                    ms.n)
    margins = chaining.projection_step_margins(nets)
    col.at_most("projection-step", float(-margins.min()), 0.0, 1e-12, ms.n)
    rng = derive_rng(seed, "telescope")
    resid = w_norm = 0.0
    finest = nets.levels[nets.K].net
    for _ in range(100):
        u = int(finest[rng.integers(len(finest))])
        w = rng.standard_normal(ms.points.shape[1])
        w_norm = max(w_norm, float(np.linalg.norm(w)))
        resid = max(resid, chaining.telescoping_residual(u, nets, proc, w))
    # The chained sum telescopes exactly, so the residual is rounding of the
    # realized values X_t, each within M = 2 sigma diam |w| of 0 (Cauchy-
    # Schwarz, |t - t0| <= diam, and (1 + gamma_{dim+2}) < 2 for the rounding
    # of sigma (t - t0) and of the dot product).  With unit roundoff u: the
    # K + 1 differences and the left side are each off by at most 2uM; the
    # K additions of the running sum, which stays within 2M + E of 0, add
    # 2uM + u(2M + E) each to its error E; the final subtraction adds u E.
    # In all at most (4K + 5) u M for K <= 48.  On unit-scale clouds that is
    # below 1e-12, and EXACT_TOL stays the bound.
    tol = max(EXACT_TOL, (4 * nets.K + 5) * 2.0 ** -53 * 2.0 * sd * w_norm)
    col.at_most("telescoping-residual", resid, tol, 0.0, 100)
    if nets.K >= 1:
        esup, bound = chaining.stage1_bound_check(nets, proc, n_samples, seed)
        col.mc("stage1", esup, bound, n_samples)
    col.mc("entropy-integral-bound",
           *chaining.dudley_bound_check(ms, proc, n_samples, seed, D=cfg["D"]),
           n_samples)
    rng = derive_rng(seed, "mgf-pairs")
    m = ms.n
    pairs = [(0, m - 1)]
    for _ in range(min(4, m * (m - 1) // 2)):
        i, j = rng.integers(0, m, size=2)
        if i != j:
            pairs.append((int(i), int(j)))
    lams = [x / sd for x in (-1.0, -0.5, 0.5, 1.0)]
    worst, _ = chaining.subgaussian_process_check(ms, proc, pairs, lams,
                                                  n_samples, seed)
    col.add("subgaussian-mgf-grid", 0.0, 0.0, 0.0, worst, n_samples)
    if cfg["refine"]:
        fine = metric.load_points_csv(cfg["refine"])
        check = chaining.dense_sequence_sup_check(ms.points, fine, proc,
                                                  n_samples, seed)
        col.mc("dense-sup-refinement", check.gap, check.gap_bound, n_samples)
    rows = [["k", "eps_k", "net_size"]]
    for lv in nets.levels:
        rows.append([lv.k, lv.eps, len(lv.net)])
    _write(cfg, "dudley_profile.csv", rows)
    return col


def _parse_grid(grid: str):
    cells = []
    for tok in grid.split(","):
        try:
            n, d = map(int, tok.split(":"))
        except ValueError:
            raise ConfigError(f"the grid cell {tok!r} is not n:d") from None
        cells.append((n, d))
    if min(map(min, cells)) < 1:
        raise ConfigError("every grid cell needs n and d of at least 1")
    repeated = [cell for i, cell in enumerate(cells) if cell in cells[:i]]
    if repeated:
        raise ConfigError("the grid repeats the cell %d:%d" % repeated[0])
    return cells


def run_regress(cfg) -> ReportCollector:
    """localized least-squares rate suite"""
    seed, trials, R, sigma = cfg["seed"], cfg["trials"], cfg["R"], cfg["sigma"]
    col = ReportCollector(seed)
    grid = _parse_grid(cfg["grid"])
    # each sweep divides its errors by a scale that must be a positive float
    if cfg["cls"] == "linear":
        _in_float_range("sigma^2", sigma * sigma)
        # responses x'theta* + sigma w have size sqrt(d) and round by about
        # eps sqrt(d); the noise must exceed that by 1/sqrt(eps), or the
        # errors measure rounding: at n=8, d=4 the normalized error drifts by
        # 2e-7 at sigma = 1e-8, by 2e-3 at 1e-12, and reads 7.5e169 at 1e-100
        d_max = max(d for _, d in grid)
        floor = math.sqrt(sys.float_info.epsilon * d_max)
        if sigma < floor:
            raise ConfigError(
                f"sigma = {sigma:g} is below the rounding floor sqrt(eps d) = "
                f"{floor:.3g} at d={d_max}, where the rounding of the responses, "
                f"not the noise, would set the errors")
        report = regression.linear_rate_experiment(grid, sigma, trials, seed)
        for cell in report.cells:
            col.at_most(f"linear-normalized-n={cell.n}-d={cell.d}",
                        cell.normalized, 2.0, 0.0, trials)
        for d, slope in report.slopes.items():
            col.within(f"linear-slope-d={d}", slope, -1.0, 0.15, trials)
    else:
        for n, d in grid:
            if d > 1:   # the sweep itself rejects d = 1
                _in_float_range(f"R^2 log(d)/n at n={n}, d={d}", R * R * math.log(d) / n)
            # the largest sum of squares the solver forms is ||y - X theta||^2
            # <= n (1.9 R + sigma max|w_i|)^2 <= 64 n (R + sigma)^2 while every
            # |w_i| <= 8 (a draw exceeds 8 with probability 1.2e-15)
            _in_float_range(f"64 n (R + sigma)^2 at n={n}",
                            64.0 * n * (R + sigma) * (R + sigma))
        report = regression.l1_rate_experiment(grid, R, sigma, trials, seed)
        norms = [c.normalized for c in report.cells]
        if len(norms) > 1 and min(norms) > 0:
            spread = max(norms) / min(norms)
            col.at_most("l1-normalized-band", spread, 3.0, 0.0, trials)
        for cell in report.cells:
            finite = np.isfinite(cell.normalized) and cell.normalized >= 0
            col.add(f"l1-normalized-finite-n={cell.n}-d={cell.d}",
                    cell.normalized, 0.0, 0.0, 0.0 if finite else -1.0, trials)
    rows = [["n", "d", "r", "delta_star", "median_err", "normalized", "slope"]]
    for cell in report.cells:
        slope = report.slopes.get(cell.d, float("nan"))
        rows.append([cell.n, cell.d, cell.rank, cell.delta_star, cell.median_err,
                     cell.normalized, slope])
    _write(cfg, "regress_cells.csv", rows)
    summary = versioned({"class": cfg["cls"], "params": report.params,
                         "slopes": {str(k): v for k, v in report.slopes.items()},
                         "cells": [{"n": c.n, "d": c.d, "r": c.rank,
                                    "delta_star": c.delta_star,
                                    "median_err": c.median_err,
                                    "normalized": c.normalized} for c in report.cells]})
    _write(cfg, "regress_summary.json", summary)
    return col


def run_maurey(cfg) -> ReportCollector:
    """l1-hull sparsification suite"""
    seed = cfg["seed"]
    col = ReportCollector(seed)
    d, n, R, eps = cfg["d"], cfg["n"], cfg["R"], cfg["eps"]
    if R * R == math.inf:   # the atoms' squared norms would overflow
        raise ConfigError(f"R = {R:g} is too large: R^2 overflows")
    k = maurey.sample_size(R, eps)
    bound = maurey.l1_hull_net_bound(d, R, eps)
    try:
        bound_text = str(bound)
    except ValueError as exc:  # more digits than Python converts
        raise ConfigError(f"cannot write the bound (2d+1)^k = {2 * d + 1}^{k}: {exc}")
    max_err = 0.0
    attempts = []
    worst_unbias = 0.0
    worst_second = np.inf
    for idx in range(cfg["instances"]):
        rng = derive_rng(seed, "maurey-instance", idx)
        X = gaussian_design(rng, n, d)
        dic = maurey.ColumnDictionary(X)
        theta = l1_ball_point(rng, d, R)
        dist = maurey.maurey_distribution(theta, R, dic)
        v = X @ theta / np.sqrt(n)
        worst_unbias = max(worst_unbias,
                           float(np.abs(dist.expectation() - v).max()))
        second = maurey.maurey_second_moment(theta, R, dic)
        worst_second = min(worst_second,
                           R * float(np.abs(theta).sum()) - second)
        res = maurey.maurey_sparsify(dist, eps, seed=seed + idx)
        attempts.append(res.attempts)
        max_err = max(max_err, res.error if res.success else np.inf)
        if not res.success:
            col.add(f"sparsify-{idx}", res.error, eps, 0.0, -1.0)
    tol = 1e-12 * max(1.0, R)   # both checks are exact up to rounding ~ R, R^2
    col.at_most("unbiasedness", worst_unbias, tol, 0.0, 0)
    col.add("second-moment", 0.0, 0.0, 0.0, worst_second + tol * max(1.0, R))
    col.at_most("sparsify-max-error", max_err, eps, 0.0, 0)
    net_size = None
    if bound <= maurey.NET_BUDGET:
        rng = derive_rng(seed, "maurey-net")
        dic = maurey.ColumnDictionary(gaussian_design(rng, n, d))
        net = maurey.l1_hull_net_construct(dic, R, eps, seed)
        net_size = len(net.net)
        col.at_most("net-cardinality", float(net_size), float(bound), 0.0, 0)
    summary = versioned({"k": k, "bound": bound_text, "net_size": net_size,
                         "instances": cfg["instances"],
                         "max_attempts_seen": max(attempts),
                         "mean_attempts": float(np.mean(attempts)),
                         "max_observed_error": max_err})
    _write(cfg, "maurey_summary.json", summary)
    return col


SUITES = {"cover": run_cover, "entropy": run_entropy,
          "discrete-check": run_discrete_check, "gauss-check": run_gauss_check,
          "dudley": run_dudley, "regress": run_regress, "maurey": run_maurey}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _effective_config(args)
        start = time.perf_counter()
        collector = SUITES[args.command](cfg)
        elapsed = time.perf_counter() - start
        name = f"{args.command.replace('-', '_')}_reports.{cfg['format']}"
        path = _write(cfg, name, collector.content(cfg["format"]))
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect or a broken invariant, not a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    n, failed = len(collector.reports), collector.n_failed
    print(f"{args.command}: {n - failed}/{n} checks passed "
          f"({elapsed:.2f}s, reports in {path})")
    for rep in collector.reports:
        if not rep.passed:
            print(f"  FAIL {rep.check}: lhs={fmt(rep.lhs)} rhs={fmt(rep.rhs)} "
                  f"margin={fmt(rep.margin)}")
    return 0 if collector.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
