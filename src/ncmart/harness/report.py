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
from .checks import CheckRecord, RecordTable


@dataclass
class VerificationReport:
    command: str
    config: dict
    record_tables: list[RecordTable] = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    certificates: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    @property
    def records(self) -> list[CheckRecord]:
        """Every record, table after table, made on demand."""
        return [r for table in self.record_tables for r in table.records()]

    @property
    def all_passed(self) -> bool:
        return all(table.all_passed for table in self.record_tables)

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
        the string ``"inf"``, ``"-inf"`` or ``"nan"``.  The records array is
        written from the tables, between the keys before and after it."""
        head = _dumps({"command": self.command, "config": self.config, "summary": self.summary})
        tail = _dumps({"tables": self.tables, "certificates": self.certificates,
                       "timing": self.timing})
        return f'{head[:-1]},"records":{_records_json(self.record_tables)},{tail[1:]}'

    def summarize(self) -> None:
        """Aggregate per-check worst residuals and pass counts, each check in
        the order it first appears."""
        by_check: dict[str, list] = {}
        for table in self.record_tables:
            for row, column in zip(table.rows, table.columns):
                by_check.setdefault(row[0], []).append((row, column))
        self.summary["checks"] = {check: {
            "formula": columns[0][0][1], "tolerance": columns[0][0][2],
            "max_residual": worst(r for _, column in columns for r in column),
            "count": sum(len(column) for _, column in columns),
            "failures": sum(not r <= tol for (_, _, tol), column in columns for r in column),
        } for check, columns in by_check.items()}
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


def _dumps(obj) -> str:
    """obj as compact JSON, each non-finite float written as by :func:`_strict`."""
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)
    except ValueError:
        return json.dumps(_strict(obj), separators=(",", ":"), allow_nan=False)


_NON_FINITE = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}


def _records_json(tables: list[RecordTable]) -> str:
    """The records array of the tables, as :func:`_dumps` writes the record
    dicts: one JSON prefix per row, and a float ``repr`` per residual."""
    out = []
    for table in tables:
        cells = []
        for (check, formula, tolerance), column in zip(table.rows, table.columns):
            head = f'{{"check":{_dumps(check)},"formula":{_dumps(formula)},"residual":'
            tail = f',"tolerance":{_dumps(tolerance)},"passed":'
            cells.append([f'{head}{_NON_FINITE.get(text, text)}{tail}'
                          f'{"true" if r <= tolerance else "false"}'
                          for r, text in zip(column, map(repr, column))])
        ends = [f',"instance":{instance}}}' for instance in table.instances]
        out += [cell + end for end, row in zip(ends, zip(*cells)) for cell in row]
    return f'[{",".join(out)}]'
