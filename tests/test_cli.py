"""Command-line front end tests: exit codes, report artifacts, config
handling, and byte-identical reruns."""

import argparse
import ast
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from epkit import chaining, cli, discrete, gaussian, maurey, metric
from epkit.reports import CheckReport, ReportCollector, render
import golden_cases

DATA = str(Path(__file__).parent / "data")
SMALL_REGRESS = ("--grid", "8:4", "--trials", "2")
OUTSIDE_SQUARES = ("1e-320", "1e-200", "1e160", "1e200", "1e300")  # x^2: 0 or inf

# rejected configurations whose message must name the bound or budget they
# break, before any instance runs
NAMED_LIMITS = {
    ("gauss-check", "--samples", "2"): "samples must be at least 3",
    ("gauss-check", "--samples", str(gaussian.SAMPLE_BUDGET + 1), "--fields", "1"):
        f"sample budget {gaussian.SAMPLE_BUDGET}",
    # an option is declared only by the suites that read it
    ("cover", "--points", f"{DATA}/square.csv", "--samples", "7"):
        "unrecognized arguments: --samples 7",
    ("regress", "--samples", "3"): "unrecognized arguments: --samples 3",
    # regress names its cells by --grid alone
    ("regress", "--d", "0"): "unrecognized arguments: --d 0",
    ("maurey", "--trials", "5"): "unrecognized arguments: --trials 5",
    ("entropy", "--points", f"{DATA}/square.csv", "--nodes", "64"):
        "unrecognized arguments: --nodes 64",
    ("maurey", "--eps", "1e-3", "--instances", "1"):
        f"sample budget {maurey.SAMPLE_BUDGET}",
    ("maurey", "--eps", "1e-200"): f"sample budget {maurey.SAMPLE_BUDGET}",
    ("dudley", "--points", f"{DATA}/square.csv", "--K", "49"):
        f"supported depths 0..{chaining.MAX_DEPTH}",
    # one budget for both Monte Carlo suites, whatever the cloud's dimension
    ("dudley", "--points", f"{DATA}/square.csv", "--samples",
     str(gaussian.SAMPLE_BUDGET + 1)): f"sample budget {gaussian.SAMPLE_BUDGET}",
    # a NaN or an infinity is rejected before any distance is computed
    ("cover", "--points", f"{DATA}/nan_point.csv"): "non-finite entry in row 1",
    ("entropy", "--points", f"{DATA}/inf_point.csv"): "non-finite entry in row 2",
    ("dudley", "--points", f"{DATA}/nan_point.csv"): "non-finite entry in row 1",
    ("dudley", "--points", f"{DATA}/square.csv", "--refine",
     f"{DATA}/nan_point.csv"): "non-finite entry in row 1",
    ("cover", "--points", f"{DATA}/nan_distance.csv", "--dist-matrix"):
        "non-finite entry in row 0",
    # two points 2e308 apart: the distance itself exceeds the float maximum
    ("entropy", "--points", f"{DATA}/overflow.csv"): "overflows to inf",
    # a float option is finite, from a flag or a config file (json reads
    # Infinity); a scale list and a grid are checked token by token
    ("entropy", "--points", f"{DATA}/square.csv", "--D", "inf"):
        "D must be a finite number, not inf",
    ("entropy", "--points", f"{DATA}/square.csv", "--config",
     f"{DATA}/D_infinity.json"): "D must be a finite number, not inf",
    ("dudley", "--points", f"{DATA}/square.csv", "--sigma", "inf"):
        "sigma must be a finite number, not inf",
    ("regress", "--class", "l1", "--R", "inf"): "R must be a finite number, not inf",
    ("maurey", "--eps", "inf"): "eps must be a finite number, not inf",
    ("maurey", "--eps", "nan"): "eps must be a finite number, not nan",
    ("cover", "--points", f"{DATA}/square.csv", "--eps", "inf"):
        "non-finite scale 'inf'",
    ("cover", "--points", f"{DATA}/square.csv", "--eps", "0.5,nan"):
        "non-finite scale 'nan'",
    ("cover", "--points", f"{DATA}/square.csv", "--eps", ","):
        "the eps scale '' is not a number",
    ("cover", "--points", f"{DATA}/square.csv", "--eps", "0.1,x"):
        "the eps scale 'x' is not a number",
    ("regress", "--grid", "32:4,32:4"): "the grid repeats the cell 32:4",
    ("regress", "--class", "l1", "--grid", "32:64,64:128,32:64"):
        "the grid repeats the cell 32:64",
    ("regress", "--grid", "64"): "the grid cell '64' is not n:d",
    ("regress", "--grid", "32:4,64:8:3"): "the grid cell '64:8:3' is not n:d",
    # a scale the errors are divided by must not underflow to 0 or overflow
    **{("regress", "--sigma", v, *SMALL_REGRESS): "sigma^2 = "
       for v in OUTSIDE_SQUARES},
    **{("regress", "--class", "l1", "--R", v, *SMALL_REGRESS):
       "R^2 log(d)/n at n=8, d=4 = " for v in OUTSIDE_SQUARES},
    # the l1 solver's sums of squares would overflow: the first passed
    # vacuously (tol * sum y^2 = inf certifies theta = 0), the second failed
    ("regress", "--class", "l1", "--sigma", "1e154", *SMALL_REGRESS):
        "64 n (R + sigma)^2 at n=8 = inf",
    ("regress", "--class", "l1", "--sigma", "1e154", "--R", "1e154",
     *SMALL_REGRESS): "64 n (R + sigma)^2 at n=8 = inf",
    # the rounding of the responses, not the noise, would set the errors
    ("regress", "--sigma", "1e-100", *SMALL_REGRESS):
        "below the rounding floor sqrt(eps d) = 2.98e-08 at d=4",
    ("maurey", "--R", "1e160", "--eps", "1e160"): "R = 1e+160 is too large",
    # the deepest dyadic scale D 2^-k underflows to 0 (2^-1075 is 0, and so
    # is 0.3 * 2^-1074); test_deepest_scale_above_0_runs holds the boundary
    ("cover", "--points", f"{DATA}/square.csv", "--scales", "1076"):
        "the scale D 2^-(scales-1) at scales=1076 = 0",
    ("entropy", "--points", f"{DATA}/square.csv", "--K", "1076"):
        "the scale D 2^-(K-1) at K=1076 = 0",
    ("entropy", "--points", f"{DATA}/square.csv", "--D", "0.3", "--K", "1075"):
        "the scale D 2^-(K-1) at K=1075 = 0",
    # the MGF grid squares sigma and 1/(sigma diam); the estimates sum
    # squares of maxima of size sigma diam.  These ended in an OverflowError
    # (exit 3), and --sigma 1e153 passed with stderr inf
    ("dudley", "--points", f"{DATA}/square.csv", "--sigma", "1e-155"):
        "1/(sigma diam)^2 = inf",
    ("dudley", "--points", f"{DATA}/square.csv", "--sigma", "1e154"):
        "64 samples (sigma diam)^2 at samples=100000 = inf",
    ("dudley", "--points", f"{DATA}/square.csv", "--sigma", "1e153",
     "--samples", "1000"): "64 samples (sigma diam)^2 at samples=1000 = inf",
    ("dudley", "--points", f"{DATA}/square.csv", "--sigma", "1e200"):
        "sigma^2 = inf",
    ("dudley", "--points", f"{DATA}/square.csv", "--sigma", "1e-320"):
        "sigma^2 = 0",
}


@pytest.fixture(scope="module")
def points_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pts.csv"
    rng = np.random.default_rng(0)
    np.savetxt(path, rng.uniform(0, 1, size=(25, 2)), delimiter=",")
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert cli.main(["not-a-suite"]) == 2

    def test_no_subcommand(self):
        assert cli.main([]) == 2

    def test_missing_points(self, tmp_path):
        assert cli.main(["cover", "--out", str(tmp_path)]) == 2

    def test_failing_check_flips_exit(self, tmp_path, monkeypatch):
        def broken(cfg):
            col = ReportCollector(0)
            col.reports.append(CheckReport("forced", 1.0, 0.0, 0.0, -1.0, 0, 0))
            return col

        monkeypatch.setitem(cli.SUITES, "discrete-check", broken)
        assert cli.main(["discrete-check", "--out", str(tmp_path)]) == 1

    def test_internal_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def broken(cfg):
            raise RuntimeError("residual failed the orthogonality check")

        monkeypatch.setitem(cli.SUITES, "discrete-check", broken)
        assert cli.main(["discrete-check", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "internal error: RuntimeError: residual failed the orthogonality check\n")

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert cli.main(["discrete-check", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("suite, key", [("discrete-check", "samples"),
                                            ("maurey", "trials"), ("regress", "n")])
    def test_config_key_of_another_suite(self, suite, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 5}))
        assert cli.main([suite, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"unknown config keys for {suite}: ['{key}']" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path):
        assert cli.main(["discrete-check", "--config",
                         str(tmp_path / "absent.json"),
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["discrete-check", "--instances", "0"],
        ["maurey", "--instances", "0"],
        ["maurey", "--d", "0"],
        ["gauss-check", "--fields", "0"],
        ["cover", "--points", "EMPTY"],
        ["entropy", "--points", "EMPTY"],
        ["dudley", "--points", "EMPTY"],
        # config values are checked like flags: type, choices, bounds
        ["regress", "--config", f"{DATA}/cls_quadratic.json"],
        ["discrete-check", "--config", f"{DATA}/format_xml.json"],
        ["discrete-check", "--config", f"{DATA}/seed_float.json"],
        ["gauss-check", "--config", f"{DATA}/samples_string.json"],
        ["discrete-check", "--config", f"{DATA}/instances_bool.json"],
        ["regress", "--grid", "64:4,4:0"],
        ["regress", "--sigma", "0"],
        ["maurey", "--eps", "0"],
        ["maurey", "--R", "0"],
        ["entropy", "--points", f"{DATA}/square.csv", "--D", "0"],
        # a cloud of diameter 0 would pass every check vacuously
        ["cover", "--points", f"{DATA}/one_point.csv"],
        ["cover", "--points", f"{DATA}/zero_distance.csv", "--dist-matrix"],
        ["entropy", "--points", f"{DATA}/coincident.csv"],
        ["dudley", "--points", f"{DATA}/one_point.csv"],
        ["dudley", "--points", f"{DATA}/one_point.csv",
         "--refine", f"{DATA}/square.csv"],
        *map(list, NAMED_LIMITS),
    ])
    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    def test_zero_size_config(self, argv, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        limit = NAMED_LIMITS.get(tuple(argv), "")
        argv = [str(empty) if a == "EMPTY" else a for a in argv]
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert limit in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["cover", "--scales", "1075"],
                                      ["entropy", "--K", "1075"],
                                      ["entropy", "--D", "0.3", "--K", "1074"]])
    def test_deepest_scale_above_0_runs(self, argv, tmp_path):
        assert cli.main([*argv, "--points", f"{DATA}/square.csv",
                         "--out", str(tmp_path)]) == 0


class TestCover:
    def test_profile_and_reports(self, points_csv, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["cover", "--points", points_csv, "--eps", "0.1,0.4",
                         "--out", str(out)]) == 0
        profile = (out / "cover_profile.csv").read_text()
        assert profile.splitlines()[0] == "eps,lower,upper,entropy"
        assert len(profile.splitlines()) == 3
        reports = (out / "cover_reports.csv").read_text()
        assert "net-valid-eps=0.4" in reports

    def test_auto_scales(self, points_csv, tmp_path):
        out = tmp_path / "auto"
        assert cli.main(["cover", "--points", points_csv, "--scales", "5",
                         "--out", str(out)]) == 0
        assert len((out / "cover_profile.csv").read_text().splitlines()) == 6


class TestEntropySuite:
    def test_reports_and_sums(self, points_csv, tmp_path):
        out = tmp_path / "ent"
        assert cli.main(["entropy", "--points", points_csv, "--K", "3",
                         "--out", str(out)]) == 0
        sums = (out / "entropy_sums.csv").read_text().splitlines()
        assert sums[0] == "k,eps_k,dyadic_sum_k"
        assert len(sums) == 5

    def test_sums_are_the_per_depth_dyadic_sums(self, points_csv, tmp_path,
                                                monkeypatch):
        written = {}

        def keep(cfg, name, content):
            written[name] = content
            return write(cfg, name, content)

        write = cli._write
        monkeypatch.setattr(cli, "_write", keep)
        out = tmp_path / "ent200"
        assert cli.main(["entropy", "--points", points_csv, "--K", "200",
                         "--out", str(out)]) == 0
        s = metric.FiniteMetricSet.from_points(np.loadtxt(points_csv, delimiter=","))
        expected = [metric.dyadic_sum(s, s.diameter, k) for k in range(201)]
        rows = written["entropy_sums.csv"][1:]
        assert [k for k, _, _ in rows] == list(range(201))
        assert [total.hex() for _, _, total in rows] == [x.hex() for x in expected]
        assert read(out / "entropy_sums.csv") == render(
            [["k", "eps_k", "dyadic_sum_k"],
             *([k, eps, x] for (k, eps, _), x in zip(rows, expected))]).encode()


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_extreme_scale_clouds(scale, tmp_path, capsys):
    # the squared sides underflow to 0 or overflow to inf, the sides do not;
    # dudley still rejects the square through its guard on sigma diam
    path = tmp_path / "square.csv"
    np.savetxt(path, np.loadtxt(f"{DATA}/square.csv", delimiter=",") * scale,
               delimiter=",", fmt="%.17g")
    for suite in ("cover", "entropy"):
        assert cli.main([suite, "--points", str(path),
                         "--out", str(tmp_path / suite)]) == 0
    assert cli.main(["dudley", "--points", str(path),
                     "--out", str(tmp_path / "dudley")]) == 2
    assert "64 samples (sigma diam)^2" in capsys.readouterr().err


class TestDiscreteSuite:
    def test_all_pass(self, tmp_path):
        out = tmp_path / "disc"
        assert cli.main(["discrete-check", "--instances", "25", "--seed", "3",
                         "--out", str(out)]) == 0
        lines = (out / "discrete_check_reports.csv").read_text().splitlines()
        assert len(lines) == 1 + 25 * 6
        assert not (out / "discrete_violations.json").exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "discj"
        assert cli.main(["discrete-check", "--instances", "5", "--seed", "3",
                         "--format", "json", "--out", str(out)]) == 0
        doc = json.loads((out / "discrete_check_reports.json").read_text())
        assert doc["schema_version"] == 1
        assert len(doc["reports"]) == 30
        assert all(r["verdict"] == "pass" for r in doc["reports"])

    def test_only_the_equality_rows_are_two_sided(self):
        reports = cli.run_discrete_check({"seed": 3, "instances": 25}).reports
        for r in reports:
            if r.check.startswith("duality-eq-"):
                assert r.margin == cli.EXACT_TOL - abs(r.rhs - r.lhs)
            else:
                assert r.margin == r.rhs + cli.EXACT_TOL - r.lhs
        assert any(r.check.startswith("duality-eq-") and r.rhs > r.lhs
                   for r in reports)


class TestGaussSuite:
    def test_small_battery(self, tmp_path):
        out = tmp_path / "gauss"
        assert cli.main(["gauss-check", "--fields", "3", "--samples", "20000",
                         "--seed", "1", "--out", str(out)]) == 0
        text = (out / "gauss_check_reports.csv").read_text()
        assert "poincare/linear-control" in text
        assert "finite-max/m=16" in text
        assert "mollify/abs-eps=0.1" in text


class TestDudleySuite:
    def test_full_run(self, points_csv, tmp_path):
        out = tmp_path / "dud"
        assert cli.main(["dudley", "--points", points_csv, "--sigma", "1.5",
                         "--samples", "20000", "--seed", "7",
                         "--out", str(out)]) == 0
        text = (out / "dudley_reports.csv").read_text()
        for name in ("stage1", "entropy-integral-bound",
                     "telescoping-residual", "subgaussian-mgf-grid"):
            assert name in text
        profile = (out / "dudley_profile.csv").read_text().splitlines()
        assert profile[0] == "k,eps_k,net_size"

    def test_refinement_check(self, points_csv, tmp_path):
        fine = tmp_path / "fine.csv"
        rng = np.random.default_rng(0)
        base = rng.uniform(0, 1, size=(25, 2))
        np.savetxt(fine, np.vstack([base, rng.uniform(0, 1, size=(30, 2))]),
                   delimiter=",")
        out = tmp_path / "dudref"
        assert cli.main(["dudley", "--points", points_csv, "--refine", str(fine),
                         "--samples", "10000", "--seed", "2",
                         "--out", str(out)]) == 0
        assert "dense-sup-refinement" in (out / "dudley_reports.csv").read_text()

    @pytest.mark.parametrize("sigma", ["1e-150", "1e150"])
    @pytest.mark.filterwarnings("error")
    def test_scales_inside_the_guards_run(self, sigma, tmp_path):
        out = tmp_path / "edge"
        assert cli.main(["dudley", "--points", f"{DATA}/square.csv", "--sigma",
                         sigma, "--samples", "1000", "--out", str(out)]) == 0


class TestRegressSuite:
    def test_linear_grid(self, tmp_path):
        out = tmp_path / "reg"
        assert cli.main(["regress", "--class", "linear", "--grid",
                         "64:4,128:4,256:4", "--trials", "100", "--seed", "4",
                         "--out", str(out)]) == 0
        cells = (out / "regress_cells.csv").read_text().splitlines()
        assert cells[0] == "n,d,r,delta_star,median_err,normalized,slope"
        assert len(cells) == 4
        summary = json.loads((out / "regress_summary.json").read_text())
        assert summary["class"] == "linear"
        assert "4" in summary["slopes"]

    @pytest.mark.parametrize("argv", [
        ["--sigma", "3e-8"],                          # just above sqrt(eps d)
        ["--class", "l1", "--sigma", "1e150"],        # 64 n (R + sigma)^2 finite
        ["--class", "l1", "--R", "1e150", "--sigma", "1"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_scales_inside_the_guards_run(self, argv, tmp_path):
        out = tmp_path / "edge"
        assert cli.main(["regress", *argv, *SMALL_REGRESS, "--out", str(out)]) == 0

    def test_l1_cell(self, tmp_path):
        out = tmp_path / "regl1"
        assert cli.main(["regress", "--class", "l1", "--grid", "24:48",
                         "--R", "1.0", "--trials", "15", "--seed", "5",
                         "--out", str(out)]) == 0
        summary = json.loads((out / "regress_summary.json").read_text())
        assert summary["cells"][0]["d"] == 48

    def test_the_default_cell_is_the_golden_one(self, tmp_path):
        # regress, regress --grid 64:8 and the golden csv case write the same
        # bytes
        golden = golden_cases.ROOT / "regress" / "csv"
        for name, argv in (("default", []), ("grid", ["--grid", "64:8"])):
            assert cli.main(["regress", *argv, "--out", str(tmp_path / name)]) == 0
            assert golden_cases.first_mismatch(golden, tmp_path / name) is None

    def test_l1_traced_reports_match_untraced(self, tmp_path):
        # the benchmark's tracer wraps solve_ls_l1 and design_rank and reads
        # counts off each result; a traced run must succeed and write the
        # same reports
        path = Path(__file__).parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        args = ["regress", "--class", "l1", "--grid", "8:16", "--trials", "3"]
        assert cli.main([*args, "--out", str(tmp_path / "plain")]) == 0
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert cli.main([*args, "--out", str(tmp_path / "traced")]) == 0
        finally:
            tracer.uninstall()
        names = {row[0] for row in tracer.spans}
        assert {"cli.run_regress", "regression.l1_rate_experiment",
                "regression.design_rank"} <= names
        plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert plain == sorted(p.name for p in (tmp_path / "traced").iterdir())
        for name in plain:
            assert read(tmp_path / "traced" / name) == read(tmp_path / "plain" / name)


class TestMaureySuite:
    def test_summary(self, tmp_path):
        out = tmp_path / "mau"
        assert cli.main(["maurey", "--d", "3", "--n", "20", "--R", "1",
                         "--eps", "0.5", "--instances", "20", "--seed", "2",
                         "--out", str(out)]) == 0
        doc = json.loads((out / "maurey_summary.json").read_text())
        assert doc["k"] == 4
        assert doc["bound"] == "2401"
        assert doc["max_observed_error"] <= 0.5

    def test_huge_eps_is_one_atom(self, tmp_path):
        # eps^2 overflows a float, R^2 / eps^2 does not
        out = tmp_path / "mau"
        assert cli.main(["maurey", "--eps", "1e155", "--instances", "5",
                         "--out", str(out)]) == 0
        doc = json.loads((out / "maurey_summary.json").read_text())
        assert doc["k"] == 1

    def test_underflowing_ratio_is_one_atom(self, tmp_path):
        # R^2 / eps^2 underflows to 0, but a radius R > 0 needs one atom
        out = tmp_path / "mau"
        assert cli.main(["maurey", "--R", "1", "--eps", "1e300", "--d", "3",
                         "--instances", "5", "--out", str(out)]) == 0
        doc = json.loads((out / "maurey_summary.json").read_text())
        assert (doc["k"], doc["bound"], doc["net_size"]) == (1, "7", 7)

    def test_extreme_radii_and_scales_exit_0_or_2(self, tmp_path):
        values = ("1e-320", "1e-160", "1", "1e160", "1e300")
        codes = {(R, eps): cli.main(["maurey", "--R", R, "--eps", eps, "--d", "2",
                                     "--n", "3", "--instances", "3",
                                     "--out", str(tmp_path / f"{R}_{eps}")])
                 for R in values for eps in values}
        assert set(codes.values()) <= {0, 2}, codes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_checks_pass_at_large_radius(self, tmp_path, seed):
        # the rounding of both exact checks grows like R and R^2
        assert cli.main(["maurey", "--R", "100", "--eps", "50", "--instances",
                         "200", "--seed", str(seed), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("R", [1.0, 100.0, 1e6])
    def test_exact_checks_catch_a_relative_error_of_1e_9(self, monkeypatch,
                                                         tmp_path, R):
        def verdicts(out):
            argv = ["maurey", "--R", str(R), "--eps", str(R / 2), "--instances",
                    "50", "--out", str(tmp_path / out)]
            code = cli.main(argv)
            with open(tmp_path / out / "maurey_reports.csv", newline="") as fh:
                found = {row["check"]: row["verdict"] for row in csv.DictReader(fh)}
            return code, found["unbiasedness"], found["second-moment"]

        assert verdicts("exact") == (0, "pass", "pass")
        second, mean = maurey.maurey_second_moment, maurey.AtomDistribution.expectation
        monkeypatch.setattr(maurey, "maurey_second_moment",
                            lambda *args: second(*args) * (1 + 1e-9))
        assert verdicts("second") == (1, "pass", "fail")
        monkeypatch.undo()
        monkeypatch.setattr(maurey.AtomDistribution, "expectation",
                            lambda dist: mean(dist) * (1 + 1e-9))
        assert verdicts("mean") == (1, "fail", "pass")


class TestReproducibility:
    def test_byte_identical_reruns(self, points_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--points", points_csv, "--samples", "5000", "--seed", "11"]
        assert cli.main(["dudley", *args, "--out", str(a)]) == 0
        assert cli.main(["dudley", *args, "--out", str(b)]) == 0
        assert read(a / "dudley_reports.csv") == read(b / "dudley_reports.csv")
        assert read(a / "dudley_profile.csv") == read(b / "dudley_profile.csv")

    @pytest.mark.parametrize("suite", [["cover", "--scales", "6"],
                                       ["entropy", "--K", "5"]])
    def test_points_and_distance_matrix_write_the_same_files(self, suite,
                                                             tmp_path):
        # 250 points: both forms take the sampled triangle check
        pts = np.random.default_rng(5).uniform(0, 1, size=(250, 3))
        np.savetxt(tmp_path / "pts.csv", pts, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "dm.csv", cdist(pts, pts), delimiter=",",
                   fmt="%.17g")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main([*suite, "--points", str(tmp_path / "pts.csv"),
                         "--out", str(a)]) == 0
        assert cli.main([*suite, "--points", str(tmp_path / "dm.csv"),
                         "--dist-matrix", "--out", str(b)]) == 0
        names = sorted(f.name for f in a.iterdir())
        assert names == sorted(f.name for f in b.iterdir()) and len(names) == 2
        assert all(read(a / name) == read(b / name) for name in names)

    def test_config_equivalent_to_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": 8, "seed": 13}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["discrete-check", "--config", str(cfg),
                         "--out", str(a)]) == 0
        assert cli.main(["discrete-check", "--instances", "8", "--seed", "13",
                         "--out", str(b)]) == 0
        assert read(a / "discrete_check_reports.csv") == \
            read(b / "discrete_check_reports.csv")

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": 8}))
        out = tmp_path / "o"
        assert cli.main(["discrete-check", "--config", str(cfg),
                         "--instances", "3", "--out", str(out)]) == 0
        lines = (out / "discrete_check_reports.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 6


class TestDiscreteReplay:
    def test_dumped_violations_replay_to_the_reported_values(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.setattr(cli, "EXACT_TOL", -1.0)  # every check fails
        out = tmp_path / "viol"
        assert cli.main(["discrete-check", "--instances", "3", "--seed", "3",
                         "--format", "json", "--out", str(out)]) == 1
        reports = json.loads((out / "discrete_check_reports.json").read_text())
        rows = {r["check"]: (r["lhs"], r["rhs"]) for r in reports["reports"]}
        dump = json.loads((out / "discrete_violations.json").read_text())
        assert [v["index"] for v in dump["violations"]] == [0, 1, 2]
        replayed = 0
        for v in dump["violations"]:
            for family, pair in discrete.replay_instance(v).items():
                assert rows[f"{family.replace('_', '-')}-{v['index']}"] == pair
                replayed += 1
        assert replayed == len(rows) == 18


def fresh_interpreter(code: str) -> str:
    """stdout of code run in a new Python process that imports epkit from
    this checkout: test modules import scipy submodules themselves, so only
    a fresh process shows what epkit loads on its own."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def run_under_an_address_space_limit(argv):
    """The child process of epkit argv, which alone caps its address space
    at 1.5 GB."""
    pytest.importorskip("resource")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1500 * 10 ** 6,) * 2)\n"
            "from epkit import cli\n"
            f"sys.exit(cli.main({argv!r}))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_samples_above_the_budget_exit_2_under_an_address_space_limit(tmp_path):
    # the whole draw of 200000000 samples asked for 1.49 GiB there and ended
    # in exit 3
    proc = run_under_an_address_space_limit(
        ["gauss-check", "--samples", "200000000", "--fields", "1",
         "--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert f"sample budget {gaussian.SAMPLE_BUDGET}" in proc.stderr
    assert gaussian.SAMPLE_BUDGET >= cli._SAMPLES.default


def test_dudley_samples_above_the_budget_exit_2_under_an_address_space_limit(
        tmp_path):
    # on 50 points a whole noise panel of 200000000 samples asked for 2.98
    # GiB there and ended in exit 3
    pts = tmp_path / "pts.csv"
    np.savetxt(pts, np.random.default_rng(0).uniform(0, 1, size=(50, 2)),
               delimiter=",")
    proc = run_under_an_address_space_limit(
        ["dudley", "--points", str(pts), "--samples", "200000000",
         "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert f"sample budget {gaussian.SAMPLE_BUDGET}" in proc.stderr
    assert not (tmp_path / "out").exists()


class NetsReached(Exception):
    pass


@pytest.fixture
def no_nets(monkeypatch):
    """build_dyadic_nets replaced by a raise of NetsReached."""
    def refuse(*args, **kwargs):
        raise NetsReached

    monkeypatch.setattr(chaining, "build_dyadic_nets", refuse)


def test_dudley_checks_its_budget_before_any_net(no_nets, tmp_path, capsys):
    for dim in (1, 2, 8):
        pts = tmp_path / f"pts{dim}.csv"
        np.savetxt(pts, np.random.default_rng(dim).uniform(size=(5, dim)),
                   delimiter=",")
        argv = ["dudley", "--points", str(pts),
                "--samples", str(gaussian.SAMPLE_BUDGET + 1)]
        assert cli.main(argv) == 2
        assert f"sample budget {gaussian.SAMPLE_BUDGET}" in capsys.readouterr().err


def test_dudley_takes_samples_above_its_former_2d_budget(no_nets, capsys):
    # 2^30 // 40 + 1: past the 2-D budget of the whole noise panel, within
    # the one sample budget, so the run reaches the nets
    argv = ["dudley", "--points", f"{DATA}/square.csv", "--samples", "26843546"]
    assert cli.main(argv) == 3
    assert "NetsReached" in capsys.readouterr().err


LOADED_SCIPY = ("print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")


def test_import_loads_no_scipy():
    assert fresh_interpreter(f"import sys, epkit.cli; {LOADED_SCIPY}").strip() == "[]"


def test_import_loads_no_process_pool_and_no_ctypes_of_its_own():
    # the worker pool and the OpenBLAS lookup are imported where they are
    # used, so that a run that never forks pays for neither; a module-level
    # "from concurrent.futures import ..." alone loads concurrent.futures._base,
    # logging, string and traceback.  numpy loads ctypes itself
    # (numpy._core._internal), so only ctypes modules beyond numpy's count
    code = ("import sys, numpy\nnumpys = set(sys.modules)\nimport epkit.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent', 'logging'))"
            " or m.startswith('ctypes') and m not in numpys))")
    assert fresh_interpreter(code).strip() == "[]"


def test_suites_without_a_cloud_load_no_scipy(tmp_path):
    # the Gaussian, discrete and regression suites never call scipy
    runs = [["discrete-check", "--instances", "3"],
            ["gauss-check", "--fields", "1", "--samples", "200"],
            ["maurey", "--instances", "2"],
            ["regress", *SMALL_REGRESS],
            ["regress", "--class", "l1", "--grid", "8:16", "--trials", "2"]]
    code = ("import sys\nfrom epkit import cli\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    if cli.main(argv + ['--out', {str(tmp_path)!r} + '/' + str(i)]):\n"
            "        sys.exit(1)\n"
            + LOADED_SCIPY)
    assert fresh_interpreter(code).splitlines()[-1] == "[]"


def scipy_packages_loaded(runs) -> list:
    """The scipy subpackages that a fresh interpreter has loaded after
    running the suites runs, each an argv without --out."""
    code = ("import sys\nfrom epkit import cli\n"
            f"for argv in {runs!r}:\n"
            "    if cli.main(argv + ['--out', argv[-1] + '.out']):\n"
            "        sys.exit(1)\n"
            "print(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')"
            " and hasattr(sys.modules[m], '__path__')"
            " and not m.split('.')[1].startswith('_')}))")
    return json.loads(fresh_interpreter(code).splitlines()[-1].replace("'", '"'))


@pytest.fixture(scope="module")
def clouds_2d_3d(tmp_path_factory):
    rng = np.random.default_rng(0)
    paths = []
    for dim in (2, 3):
        path = tmp_path_factory.mktemp("clouds") / f"pts{dim}.csv"
        np.savetxt(path, rng.uniform(0, 1, size=(60, dim)), delimiter=",")
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("suite", ["cover", "entropy", "dudley"])
def test_point_cloud_suites_load_no_scipy_spatial(suite, clouds_2d_3d):
    # every distance and the near-hull rows come from numpy
    samples = ["--samples", "2000"] if suite == "dudley" else []
    runs = [[suite, *samples, "--points", path] for path in clouds_2d_3d]
    assert scipy_packages_loaded(runs) == []


def test_dudley_refine_loads_no_scipy(clouds_2d_3d):
    # E||w|| of the refinement bound is the chi-mean recursion
    runs = [["dudley", "--samples", "2000", "--refine", path, "--points", path]
            for path in clouds_2d_3d]
    code = ("import sys\nfrom epkit import cli\n"
            f"for argv in {runs!r}:\n"
            "    if cli.main(argv + ['--out', argv[-1] + '.refined']):\n"
            "        sys.exit(1)\n"
            + LOADED_SCIPY)
    assert fresh_interpreter(code).splitlines()[-1] == "[]"


def test_readme_names_every_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {flag for p in sub.choices.values() for action in p._actions
             for flag in action.option_strings if flag.startswith("--")}
    missing = sorted(flag for flag in flags
                     if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", readme))
    assert missing == []


def test_src_has_no_scipy_import():
    # no scipy import statement in src/epkit, at module level or inside a
    # function, so no suite can load a scipy module
    src = Path(cli.__file__).resolve().parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            found |= {(path.name, n) for n in names
                      if n == "scipy" or n.startswith("scipy.")}
    assert found == set()
