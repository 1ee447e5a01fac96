"""The renderer of report files against the writers it replaced: every file
must come out byte for byte as before."""

import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit import cli, metric
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
