"""Check reports, and the one place where the files epkit writes are rendered.

A CheckReport records one verified inequality: lhs, rhs, Monte Carlo standard
error (0 for exact checks), and the margin left by the owning contract.  The
verdict is pass iff margin >= 0.  A suite records a row through one of the
three contracts of ``ReportCollector``, which compute the margin:
``at_most`` (lhs <= rhs + tol), ``within`` (|rhs - lhs| <= tol) and ``mc``
(lhs <= rhs + 3 combined Monte Carlo stderr).

The CSV dialect, the 12 significant digits of a float, the JSON layout and the
schema version are set here only.  Identical inputs render byte-identical
files, so no timing is ever written to a report.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from . import gaussian

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
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.margin >= 0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def row(self):
        return [self.check, self.lhs, self.rhs, self.stderr, self.margin,
                self.verdict, self.seed, self.n_samples]


def render(content) -> str:
    """A file's text: a string as it is, a list of rows as CSV (the default
    dialect, CRLF line ends, float cells through ``fmt``), anything else as
    sorted, indented JSON."""
    if isinstance(content, str):
        return content
    if isinstance(content, list):
        buf = io.StringIO()
        csv.writer(buf).writerows([fmt(c) if isinstance(c, float) else c for c in row]
                                  for row in content)
        return buf.getvalue()
    return json.dumps(content, sort_keys=True, indent=2) + "\n"


def versioned(doc: dict) -> dict:
    """A JSON document tagged with the schema version of the report files."""
    return {"schema_version": SCHEMA_VERSION, **doc}


def write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


@dataclass
class ReportCollector:
    """Accumulates the CheckReports of one suite run, all under its seed."""

    seed: int
    reports: list = field(default_factory=list, init=False)

    def add(self, check, lhs, rhs, stderr, margin, n_samples=0) -> CheckReport:
        rep = CheckReport(check, float(lhs), float(rhs), float(stderr),
                          float(margin), int(self.seed), int(n_samples))
        self.reports.append(rep)
        return rep

    def at_most(self, check, lhs, rhs, tol, n_samples) -> CheckReport:
        """The exact contract lhs <= rhs + tol."""
        return self.add(check, lhs, rhs, 0.0, rhs + tol - lhs, n_samples)

    def within(self, check, lhs, rhs, tol, n_samples) -> CheckReport:
        """The exact contract |rhs - lhs| <= tol."""
        return self.add(check, lhs, rhs, 0.0, tol - abs(rhs - lhs), n_samples)

    def mc(self, check, lhs, rhs, n_samples) -> CheckReport:
        """The Monte Carlo contract lhs <= rhs + 3 combined stderr; rhs is an
        estimate or exact."""
        rhs = gaussian.as_estimate(rhs)
        return self.add(check, lhs.mean, rhs.mean, lhs.stderr + rhs.stderr,
                        gaussian.three_sigma_margin(lhs, rhs), n_samples)

    def content(self, file_format: str):
        """The report file's content, csv or json, for ``render``."""
        rows = [r.row() for r in self.reports]
        if file_format == "csv":
            return [CSV_COLUMNS, *rows]
        return versioned({"reports": [dict(zip(CSV_COLUMNS, row)) for row in rows]})

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def n_failed(self) -> int:
        return sum(0 if r.passed else 1 for r in self.reports)
