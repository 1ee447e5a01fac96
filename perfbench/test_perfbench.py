"""Tests of the benchmark's own logic: span self times, the percentile
choice, failure shares, the wrappers, and agreement with BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import epkit  # noqa: E402
from epkit import cli, gaussian, regression, rng  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stats import share, tail_percentile  # noqa: E402


def row(name, start, end, parent):
    return [name, start, end, parent, "r"]


class TestSelfTime:
    def test_nested_and_sibling_spans(self):
        rows = [row("root", 0.0, 10.0, -1),
                row("a", 1.0, 3.0, 0),
                row("b", 4.0, 8.0, 0),
                row("c", 5.0, 6.0, 2)]
        assert spans.self_times(rows) == pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_child_outside_parent_is_clipped(self):
        rows = [row("root", 0.0, 2.0, -1), row("a", 1.5, 3.0, 0),
                row("b", 1.0, 1.8, 0)]
        assert spans.self_times(rows)[0] == pytest.approx(1.0)

    def test_layer_stats_count_recursion_once(self):
        rows = [row("f", 0.0, 4.0, -1), row("f", 1.0, 2.0, 0),
                row("g", 5.0, 6.0, -1)]
        stats = spans.layer_stats(rows, {"f.items": 7})
        assert stats["f"]["calls"] == 2
        assert stats["f"]["total_s"] == pytest.approx(4.0)
        assert stats["f"]["self_s"] == pytest.approx(4.0)
        assert stats["f"]["items"] == 7
        assert spans.top_level_time(rows) == pytest.approx(5.0)

    def test_g_evals_counts_sup_calls_under_radius_per_draw(self):
        rows = [row("regression.critical_radius", 0.0, 5.0, -1),
                *[row("regression.l1_localized_sup", 1.0 + i, 1.5 + i, 0)
                  for i in range(3)],
                row("regression.l1_localized_sup", 6.0, 7.0, -1)]
        stats = spans.layer_stats(rows, {"regression.critical_radius.draws": 2})
        assert stats["regression.critical_radius"]["g_evals"] == pytest.approx(1.5)


    def test_run_spans_renumber_parents(self):
        tracer = spans.Tracer()
        f = tracer.wrap("f", lambda: g())
        g = tracer.wrap("g", lambda: None)
        for run_id in ("a", "b"):
            tracer.run_id = run_id
            f()
        assert [r[3] for r in tracer.spans] == [-1, 0, -1, 2]
        assert [r[3] for r in tracer.run_spans("b")] == [-1, 0]


class TestPercentile:
    @pytest.mark.parametrize("n, p", [(19, None), (20, 50.0), (100, 90.0),
                                      (999, 90.0), (1000, 99.0),
                                      (10000, 99.9), (100000, 99.99)])
    def test_highest_with_ten_beyond(self, n, p):
        q, _, count = tail_percentile(list(range(n)))
        assert q == p
        assert count == n

    def test_nearest_rank_value(self):
        assert tail_percentile(list(range(1, 101))) == (90.0, 90, 100)


class TestFailureShare:
    def test_share_against_base(self):
        assert share(3, 360) == pytest.approx(3 / 360)
        assert share(0, 0) == 0.0

    def test_report_counts_failures_against_attempts(self, capsys):
        args = type("A", (), {"workload": "l1-sweep", "seed": 1, "seconds": 5,
                              "trace": 0})()
        child = {"env": {}, "attempted": 4, "peak_rss_mb": 100.0,
                 "passes": [{"wall_s": 2.0, "ref_s": 0.1, "traced": False},
                            {"wall_s": 3.0, "ref_s": 0.2, "traced": False}],
                 "failures": [{"pass": 1, "op": "regress", "ok": False,
                               "digest_match": True, "detail": "exit code 1"}]}
        result = run.report(args, child, [1.0, 1.2, 1.1])
        assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 1)
        assert result["metrics"]["wall_ref"] == {"value": 17.5, "unit": "ref"}
        assert result["metrics"]["setup_s"]["value"] == pytest.approx(1.1)
        assert "ops_failed_frac 0.25 ratio (base: 1 of 4 ops)" in capsys.readouterr().out


class TestWrappers:
    def test_result_and_behaviour_unchanged(self):
        original = rng.derive_rng
        from_samples = vars(gaussian.McEstimate)["from_samples"]
        untraced = regression.localized_complexity_mc(
            np.eye(3), regression.LinearClass(), 0.5, 50, 4)
        tracer = spans.Tracer()
        tracer.run_id = "t"
        tracer.install()
        try:
            assert regression.derive_rng is not original
            assert cli.SUITES["regress"] is cli.run_regress
            assert cli.run_regress.__wrapped__ is not None
            traced = regression.localized_complexity_mc(
                np.eye(3), regression.LinearClass(), 0.5, 50, 4)
            draws = epkit.derive_rng(9, "x").standard_normal(4)
        finally:
            tracer.uninstall()
        assert traced == untraced
        np.testing.assert_array_equal(draws, original(9, "x").standard_normal(4))
        names = [s[0] for s in tracer.spans]
        assert names[0] == "regression.localized_complexity_mc"
        assert {"rng.derive_rng", "gaussian.McEstimate.from_samples"} <= set(names)
        assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
        assert tracer.counts["t"]["gaussian.McEstimate.from_samples.samples"] == 50
        for mod in (epkit, rng, regression, gaussian, cli):
            assert mod.derive_rng is original
        assert vars(gaussian.McEstimate)["from_samples"] is from_samples
        assert all(cli.SUITES[k.replace("_", "-")] is getattr(cli, f"run_{k}")
                   and not hasattr(cli.SUITES[k.replace("_", "-")], "__wrapped__")
                   for k in ("regress", "discrete_check", "maurey"))

    def test_traced_reports_byte_identical(self, tmp_path):
        argv = ["discrete-check", "--instances", "3", "--seed", "5"]
        assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert cli.main(argv + ["--out", str(tmp_path / "traced")]) == 0
        finally:
            tracer.uninstall()
        plain = (tmp_path / "plain" / "discrete_check_reports.csv").read_bytes()
        assert (tmp_path / "traced" / "discrete_check_reports.csv").read_bytes() == plain
        stats = spans.layer_stats(tracer.spans, tracer.counts[""])
        assert stats["cli.run_discrete_check"]["calls"] == 1
        assert stats["discrete.efron_stein_gap"]["calls"] == 3
        assert stats["reports.write_text"]["bytes"] == len(plain)


class TestBenchmarkSpec:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_metrics_match_spec(self):
        assert [(m["name"], m["unit"]) for m in self.spec["end_to_end"]] == run.END_TO_END
        assert [(m["name"], m["unit"]) for m in self.spec["per_layer"]] == run.PER_LAYER

    def test_workloads_match_spec(self):
        names = [w["name"] for w in self.spec["workloads"]]
        assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)

    def test_layer_metrics_name_traced_spans(self):
        traced = {name for name, *_ in spans.TARGETS}
        summary = {"uncertified_frac", "uncertified_base", "tracing_overhead",
                   "trace_coverage", "trace_uncovered_s", "wall_s", "ref_loop_s"}
        for name, _ in run.PER_LAYER:
            assert name in summary or name.rsplit(".", 1)[0] in traced, name

    def test_inputs_depend_only_on_seed(self):
        a = workloads.inputs_rng("l1-radius", 3).standard_normal(4)
        b = workloads.inputs_rng("l1-radius", 3).standard_normal(4)
        c = workloads.inputs_rng("l1-radius", 4).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_instances_have_distinct_op_names(self, tmp_path):
        instances = workloads.build("l1-radius", 3, tmp_path)
        ops = [op.name for ops in instances for op in ops]
        assert len(instances) == workloads.RADIUS_INSTANCES
        assert len(set(ops)) == len(ops)
