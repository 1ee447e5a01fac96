"""gauss-check on its thread pool against the serial suite it replaced: the
report files must come out byte for byte as before at any worker count, an
error must name the first failing field in battery order, and every worker
must have joined when the suite returns."""

import concurrent.futures
import os
import sys
import threading

import numpy as np
import pytest

from epkit import cli, fields, gaussian, workers
from epkit.reports import ReportCollector, fmt


def _add_mc(col, check, lhs, rhs, n_samples):
    """The former cli._add_mc, verbatim."""
    rhs = gaussian.as_estimate(rhs)
    col.add(check, lhs.mean, rhs.mean, lhs.stderr + rhs.stderr,
            gaussian.three_sigma_margin(lhs, rhs), n_samples)


def former_run_gauss_check(cfg) -> ReportCollector:
    """The former serial cli.run_gauss_check, verbatim."""
    seed, n, count = cfg["seed"], cfg["samples"], cfg["fields"]
    col = ReportCollector(seed)
    for f in fields.poincare_battery(count, seed):
        _add_mc(col, f"poincare/{f.name}", *gaussian.poincare_gap(f, n, seed), n)
    for f in fields.lsi_battery(count, seed):
        _add_mc(col, f"lsi/{f.name}", *gaussian.gaussian_lsi_gap(f, n, seed), n)
    for f in fields.lipschitz_battery(count, seed):
        _add_mc(col, f"herbst/{f.name}",
                *gaussian.herbst_cgf_gap(f, 0.5 / f.lipschitz, n, seed), n)
        # the tail estimate holds n - n // 2 samples; the report gives n
        _add_mc(col, f"tail/{f.name}",
                *gaussian.lipschitz_tail_gap(f, f.lipschitz, n, seed), n)
    for m in (1, 2, 16):
        _add_mc(col, f"finite-max/m={m}",
                *gaussian.finite_max_bound_check(m, np.ones(m), n, seed), n)
    grid = np.linspace(-2.0, 2.0, 81)
    c_rho = gaussian.bump_first_moment()
    for eps in (0.1, 0.05):
        _, sup_err = gaussian.mollify_1d(np.abs, eps, grid)
        bound = 1.0 * c_rho * eps + 1e-6
        col.add(f"mollify/abs-eps={fmt(eps)}", sup_err, bound, 0.0, bound - sup_err)
    return col


def run_main(argv, out, suite, monkeypatch, capsys):
    """(exit code, stderr, report bytes) of ``epkit gauss-check`` run by
    ``suite``; the threads alive before and after must be the same."""
    monkeypatch.setitem(cli.SUITES, "gauss-check", suite)
    before = threading.active_count()
    code = cli.main(["gauss-check", *argv, "--out", str(out)])
    assert threading.active_count() == before
    fmt_name = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    path = out / f"gauss_check_reports.{fmt_name}"
    return code, capsys.readouterr().err, path.read_bytes() if path.exists() else None


SMALL = ["--fields", "40", "--samples", "20000"]


@pytest.mark.parametrize("argv", [[*SMALL, "--seed", str(seed), "--format", fmt_name]
                                  for seed in (1, 5, 7, 11)
                                  for fmt_name in ("csv", "json")] + [[]])
def test_reports_match_the_serial_suite(argv, tmp_path, monkeypatch, capsys):
    want = run_main(argv, tmp_path / "serial", former_run_gauss_check,
                    monkeypatch, capsys)
    assert want[0] == 0
    for cpus in (1, 4):
        monkeypatch.setattr(workers, "available_cpus", lambda: cpus)
        got = run_main(argv, tmp_path / f"cpus-{cpus}", cli.run_gauss_check,
                       monkeypatch, capsys)
        assert got[0] == 0 and got[2] == want[2]


def test_reports_hold_under_frequent_thread_switches(tmp_path, monkeypatch, capsys):
    # more workers than cores, with the interpreter switching threads every
    # microsecond: rows out of battery order would change the file
    argv = ["--fields", "12", "--samples", "3000", "--seed", "2"]
    want = run_main(argv, tmp_path / "serial", former_run_gauss_check,
                    monkeypatch, capsys)
    monkeypatch.setattr(workers, "available_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_main(argv, tmp_path / "pool", cli.run_gauss_check, monkeypatch,
                       capsys)
    finally:
        sys.setswitchinterval(interval)
    assert got[0] == 0 and got[2] == want[2]


def broken_gradients(battery, ks):
    """``battery`` with the gradients of the fields at ``ks`` doubled."""
    def build(count, seed):
        fs = battery(count, seed)
        for k in ks:
            fs[k].grad = lambda x, grad=fs[k].grad: 2.0 * grad(x)
        return fs
    return build


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("battery", ["poincare_battery", "lsi_battery"])
def test_error_names_the_first_failing_field(battery, cpus, tmp_path, monkeypatch,
                                             capsys):
    k = 2
    first = getattr(fields, battery)(8, 3)[k].name
    monkeypatch.setattr(fields, battery,
                        broken_gradients(getattr(fields, battery), (k, k + 3)))
    monkeypatch.setattr(workers, "available_cpus", lambda: cpus)
    cfg = {"seed": 3, "samples": 2000, "fields": 8}
    raised = []
    for suite in (former_run_gauss_check, cli.run_gauss_check):
        before = threading.active_count()
        with pytest.raises(gaussian.OracleValidationError) as exc:
            suite(cfg)
        assert threading.active_count() == before
        raised.append(str(exc.value))
    assert raised[0] == raised[1]
    assert f"gradient check failed for {first}:" in raised[1]
    argv = ["--seed", "3", "--samples", "2000", "--fields", "8"]
    want = run_main(argv, tmp_path / "serial", former_run_gauss_check,
                    monkeypatch, capsys)
    got = run_main(argv, tmp_path / "pool", cli.run_gauss_check, monkeypatch, capsys)
    assert got == want
    assert got[0] == 2 and f"error: gradient check failed for {first}:" in got[1]


@pytest.mark.parametrize("cpus, count, size", [(1, 40, 1), (4, 40, 4), (4, 1, 3)])
def test_one_worker_per_cpu_at_most_one_per_job(cpus, count, size, monkeypatch):
    seen = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(workers, "available_cpus", lambda: cpus)
    cli.run_gauss_check({"seed": 0, "samples": 200, "fields": count})
    assert seen == [size]


def test_available_cpus(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert workers.available_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert workers.available_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert workers.available_cpus() == 1
