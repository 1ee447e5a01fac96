"""The renderer of report files against the writers it replaced: every file
must come out byte for byte as before.  The check contracts against the
margins the suites computed by hand before them, and the inventory of the
rows that still record their own margin."""

import ast
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epkit import cli, gaussian, metric
from epkit.gaussian import McEstimate
from epkit.reports import CSV_COLUMNS, SCHEMA_VERSION, ReportCollector, fmt, render


def old_row(r):
    """The former CheckReport.row, verbatim: floats formatted in the row."""
    return [r.check, fmt(r.lhs), fmt(r.rhs), fmt(r.stderr),
            fmt(r.margin), r.verdict, r.seed, r.n_samples]


def reports_to_csv(reports) -> str:
    """The former reports.reports_to_csv, verbatim but for old_row."""
    buf = io.StringIO()
    writer = csv.writer(buf)  # csv default lineterminator is RFC-4180 CRLF
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow(old_row(r))
    return buf.getvalue()


def reports_to_json(reports) -> str:
    """The former reports.reports_to_json, verbatim."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "reports": [
            {
                "check": r.check,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "stderr": r.stderr,
                "margin": r.margin,
                "verdict": r.verdict,
                "seed": r.seed,
                "n_samples": r.n_samples,
            }
            for r in reports
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def profile_to_csv(profile) -> str:
    """The former metric.profile_to_csv, verbatim."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["eps", "lower", "upper", "entropy"])
    for eps, lo, up, h in zip(profile.scales, profile.lowers,
                              profile.counts, profile.entropies):
        writer.writerow([format(eps, ".12g"), lo, up, format(h, ".12g")])
    return buf.getvalue()


def profile_rows(profile):
    """The cover profile as run_cover hands it to render."""
    return [["eps", "lower", "upper", "entropy"],
            *zip(profile.scales, profile.lowers, profile.counts, profile.entropies)]


# nan, the infinities, -0.0, subnormals and the extremes of the float range
EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, float("nan"), float("inf"),
                        float("-inf"), 0.1, 1 / 3])
FLOATS = st.one_of(EDGE, st.floats(allow_nan=True, allow_infinity=True),
                   st.floats(min_value=-1e-307, max_value=1e-307))
NAMES = st.one_of(st.text(), st.text(alphabet=',"\r\n a=/-'))
REPORT = st.tuples(NAMES, FLOATS, FLOATS, FLOATS, FLOATS, st.integers(0, 2**63 - 1))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), rows=st.lists(REPORT, max_size=12))
def test_report_files_match_the_former_writers(seed, rows):
    col = ReportCollector(seed)
    for row in rows:
        col.add(*row)
    assert all(r.seed == seed for r in col.reports)
    assert render(col.content("csv")) == reports_to_csv(col.reports)
    assert render(col.content("json")) == reports_to_json(col.reports)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(FLOATS, st.integers(0, 2**62), st.integers(0, 2**62),
                               FLOATS), max_size=12))
def test_profile_rows_match_the_former_writer(rows):
    scales, lowers, counts, ents = (list(c) for c in zip(*rows)) if rows else [[]] * 4
    profile = metric.EntropyProfile(
        scales=np.array(scales, dtype=float), lowers=np.array(lowers, dtype=np.intp),
        counts=np.array(counts, dtype=np.intp), entropies=np.array(ents, dtype=float))
    assert render(profile_rows(profile)) == profile_to_csv(profile)


def test_text_and_documents():
    assert render("as it is\r\n") == "as it is\r\n"
    doc = {"b": [1.5, float("nan")], "a": {"z": None, "y": "x"}}
    assert render(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_cover_files_match_the_former_writers(tmp_path, monkeypatch):
    # the files main writes, against the oracles run on what the suite computed
    pts = np.random.default_rng(3).uniform(0, 1, size=(60, 2))
    np.savetxt(tmp_path / "pts.csv", pts, delimiter=",", fmt="%.17g")
    runs = []

    def recorded(cfg):
        runs.append(cli.run_cover(cfg))
        return runs[-1]

    monkeypatch.setitem(cli.SUITES, "cover", recorded)
    for fmt_name, oracle in (("csv", reports_to_csv), ("json", reports_to_json)):
        out = tmp_path / fmt_name
        assert cli.main(["cover", "--points", str(tmp_path / "pts.csv"), "--scales",
                         "7", "--format", fmt_name, "--out", str(out)]) == 0
        written = (out / f"cover_reports.{fmt_name}").read_bytes()
        assert written == oracle(runs[-1].reports).encode()
    s = metric.FiniteMetricSet.from_points(pts)
    profile = metric.entropy_profile(s, [s.diameter * 2.0 ** (-k) for k in range(7)])
    assert (tmp_path / "csv" / "cover_profile.csv").read_bytes() == \
        profile_to_csv(profile).encode()


def former_add_mc(col, check, lhs, rhs, n_samples):
    """The former cli._add_mc, verbatim."""
    rhs = gaussian.as_estimate(rhs)
    col.add(check, lhs.mean, rhs.mean, lhs.stderr + rhs.stderr,
            gaussian.three_sigma_margin(lhs, rhs), n_samples)


# finite floats: the signed zeros, subnormals and the extremes of the range
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                    1.7976931348623157e308, -1.7976931348623157e308]),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(min_value=-1e-307, max_value=1e-307))
TOLS = st.sampled_from([0.0, 1e-12, cli.EXACT_TOL, 0.15])


@settings(max_examples=300, deadline=None)
@given(lhs=FINITE, rhs=FINITE, tol=TOLS)
def test_exact_contracts_match_the_former_margins(lhs, rhs, tol):
    col = ReportCollector(0)
    at_most, within = (col.at_most("a", lhs, rhs, tol, 3),
                       col.within("w", lhs, rhs, tol, 3))
    # the formulas the suites wrote at each row before the contracts
    formers = ((at_most, [rhs + tol - lhs] + ([rhs - lhs] if tol == 0.0 else [])),
               (within, [tol - abs(rhs - lhs), tol - abs(lhs - rhs)]))
    for rep, margins in formers:
        assert (rep.lhs, rep.rhs, rep.stderr, rep.n_samples) == (lhs, rhs, 0.0, 3)
        for former in margins:
            assert rep.margin == former
            assert rep.passed == (former >= 0)


@settings(max_examples=300, deadline=None)
@given(x=FINITE)
def test_the_shifted_rows_match_their_former_margins(x):
    # projection-step: lhs -min, rhs 0, slack 1e-12; linear-slope: rhs -1
    col = ReportCollector(0)
    assert col.at_most("p", -x, 0.0, 1e-12, 0).margin == x + 1e-12
    assert col.within("s", x, -1.0, 0.15, 0).margin == 0.15 - abs(x + 1.0)


@pytest.mark.parametrize("ok, lhs, margin", [(True, 0.0, 0.0), (False, 1.0, -1.0)])
def test_pass_fail_flag(ok, lhs, margin):
    rep = ReportCollector(0).at_most("net-valid", float(not ok), 0.0, 0.0, 5)
    assert (rep.lhs.hex(), rep.margin.hex()) == (lhs.hex(), margin.hex())
    assert rep.passed == ok


@settings(max_examples=300, deadline=None)
@given(rhs=FINITE, tol=TOLS)
def test_one_ulp_above_the_bound_fails(rhs, tol):
    bound = rhs + tol
    assume(math.isfinite(bound))
    assert not ReportCollector(0).at_most(
        "a", math.nextafter(bound, math.inf), rhs, tol, 0).passed


ESTIMATES = st.builds(McEstimate, FINITE, st.floats(0.0, 1e300), st.integers(2, 10**9))


@settings(max_examples=300, deadline=None)
@given(lhs=ESTIMATES, rhs=st.one_of(ESTIMATES, FINITE), n=st.integers(0, 10**9))
def test_mc_rows_match_the_former_recorder(lhs, rhs, n):
    got, want = ReportCollector(7), ReportCollector(7)
    got.mc("mc", lhs, rhs, n)
    former_add_mc(want, "mc", lhs, rhs, n)
    def hexed(col):
        return [c.hex() if isinstance(c, float) else c for c in col.reports[0].row()]
    assert hexed(got) == hexed(want)


# the rows whose margin no contract states, by the literal head of their name
RAW_ROWS = ["l1-normalized-finite-n=", "second-moment", "sparsify-",
            "subgaussian-mgf-grid"]


def test_only_the_inventoried_rows_record_their_own_margin():
    tree = ast.parse(Path(cli.__file__).read_text())
    heads = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"):
            name = node.args[0]
            head = name.values[0] if isinstance(name, ast.JoinedStr) else name
            heads.append(getattr(head, "value", None))
    assert sorted(heads) == RAW_ROWS
