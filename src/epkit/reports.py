"""Check reports and their CSV/JSON serialization.

A CheckReport records one verified inequality: lhs, rhs, Monte Carlo standard
error (0 for exact checks), and the margin left by the owning contract.  The
verdict is pass iff margin >= 0.

File output is deterministic: identical inputs produce byte-identical files,
so no timing is ever written to a report.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

CSV_COLUMNS = ("check", "lhs", "rhs", "stderr", "margin", "verdict", "seed", "n_samples")


def fmt(x) -> str:
    """Stable decimal rendering for report files."""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


@dataclass
class CheckReport:
    check: str
    lhs: float
    rhs: float
    stderr: float
    margin: float
    seed: int
    n_samples: int = 0

    @property
    def passed(self) -> bool:
        return self.margin >= 0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def row(self):
        return [self.check, fmt(self.lhs), fmt(self.rhs), fmt(self.stderr),
                fmt(self.margin), self.verdict, self.seed, self.n_samples]


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # csv default lineterminator is RFC-4180 CRLF
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow(r.row())
    return buf.getvalue()


def reports_to_json(reports) -> str:
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


def write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


@dataclass
class ReportCollector:
    """Accumulates CheckReports for one suite run."""

    reports: list = field(default_factory=list)

    def add(self, check, lhs, rhs, stderr, margin, seed, n_samples=0) -> CheckReport:
        rep = CheckReport(check, float(lhs), float(rhs), float(stderr),
                          float(margin), int(seed), int(n_samples))
        self.reports.append(rep)
        return rep

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def n_failed(self) -> int:
        return sum(0 if r.passed else 1 for r in self.reports)
