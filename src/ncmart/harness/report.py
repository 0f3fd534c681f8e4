"""Structured verification reports with JSON and CSV serialization.

The numeric payload of a report is deterministic for a fixed config and
seed; wall-clock timing is kept in a separate top-level key so two runs
can be compared byte for byte after dropping it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..tolerances import worst
from .checks import CheckRecord


@dataclass
class VerificationReport:
    command: str
    config: dict
    records: list[CheckRecord] = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    certificates: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def numeric_payload(self) -> dict:
        """Everything except timing; identical across identical seeded runs."""
        return {
            "command": self.command,
            "config": self.config,
            "summary": self.summary,
            "records": [dict(vars(r)) for r in self.records],
            "tables": self.tables,
            "certificates": self.certificates,
        }

    def to_dict(self) -> dict:
        out = self.numeric_payload()
        out["timing"] = self.timing
        return out

    def to_json(self) -> str:
        """The report as compact, strict JSON: a non-finite float (the
        ``inf`` residual of a contained instance, a NaN ratio) is written as
        the string ``"inf"``, ``"-inf"`` or ``"nan"``."""
        data = self.to_dict()
        try:
            return json.dumps(data, separators=(",", ":"), allow_nan=False)
        except ValueError:
            return json.dumps(_strict(data), separators=(",", ":"), allow_nan=False)

    def summarize(self) -> None:
        """Aggregate per-check worst residuals and pass counts."""
        by_check: dict[str, list[CheckRecord]] = {}
        for r in self.records:
            by_check.setdefault(r.check, []).append(r)
        self.summary["checks"] = {check: {
            "formula": rs[0].formula, "tolerance": rs[0].tolerance,
            "max_residual": worst(r.residual for r in rs), "count": len(rs),
            "failures": sum(not r.passed for r in rs),
        } for check, rs in by_check.items()}
        self.summary["all_passed"] = self.all_passed

    # -- output -----------------------------------------------------------

    def csv_rows(self) -> tuple[list[str], list[dict]]:
        """The command's sweep table as (columns, rows) for CSV output."""
        name = self.tables.get("csv_table")
        if name == "certificates":
            rows = self.certificates
        elif name in self.tables:
            rows = self.tables[name]
        else:
            rows = [dict(vars(r)) for r in self.records]
        if not rows:
            return [], []
        return list(rows[0].keys()), rows

    def render_csv(self) -> str:
        columns, rows = self.csv_rows()
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()

    def write(self, path: str | Path, fmt: str = "json") -> None:
        text = self.to_json() if fmt == "json" else self.render_csv()
        Path(path).write_text(text + "\n" if not text.endswith("\n") else text,
                              encoding="utf-8")


def _strict(obj):
    """obj with each non-finite float replaced by its string name."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj
