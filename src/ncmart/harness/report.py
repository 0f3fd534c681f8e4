"""Structured verification reports with JSON and CSV serialization.

The numeric payload of a report is deterministic for a fixed config and
seed; wall-clock timing is kept in a separate top-level key so two runs
can be compared byte for byte after dropping it.  Records and sweep rows are
kept as tables of columns; ``to_json`` writes them and their dicts are made on demand.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from ..tolerances import worst
from .checks import CheckRecord, RecordTable


class RowTable(NamedTuple):
    """The rows of a sweep as columns: one list of Python values per field."""
    fields: tuple[str, ...]
    columns: list[list]

    @classmethod
    def of(cls, **columns: list) -> RowTable:
        return cls(tuple(columns), list(columns.values()))

    def column(self, name: str) -> list:  # empty in the empty join of no tables
        return self.columns[self.fields.index(name)] if name in self.fields else []

    def rows(self) -> list[dict]:
        return [dict(zip(self.fields, row)) for row in zip(*self.columns)]


def joined(tables) -> RowTable:
    """The rows of the tables, table after table, as one table."""
    tables = list(tables)
    return RowTable(tables[0].fields if tables else (),
                    [list(itertools.chain(*c)) for c in zip(*(t.columns for t in tables))])


@dataclass
class VerificationReport:
    command: str
    config: dict
    record_tables: list[RecordTable] = field(default_factory=list)
    csv_table: str | None = None  # the name of row_table: a key of tables, or "certificates"
    row_table: RowTable = RowTable((), [])
    summary: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    @property
    def records(self) -> list[CheckRecord]:
        """Every record, table after table, made on demand."""
        return [r for table in self.record_tables for r in table.records()]

    @property
    def tables(self) -> dict:
        """The sweep's rows under its name, then ``csv_table``, made on demand."""
        name = self.csv_table
        rows = {} if name in (None, "certificates") else {name: self.row_table.rows()}
        return {**rows, "csv_table": name} if name else {}

    @property
    def certificates(self) -> list[dict]:
        return self.row_table.rows() if self.csv_table == "certificates" else []

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
        the string ``"inf"``, ``"-inf"`` or ``"nan"``.  The records and the
        sweep's rows are written from their tables, between the keys around them."""
        head = _dumps({"command": self.command, "config": self.config, "summary": self.summary})
        tables, certificates = "{}", "[]"
        if self.csv_table == "certificates":
            tables, certificates = '{"csv_table":"certificates"}', _rows_json(self.row_table)
        elif self.csv_table is not None:
            name = _dumps(self.csv_table)
            tables = f'{{{name}:{_rows_json(self.row_table)},"csv_table":{name}}}'
        return (f'{head[:-1]},"records":{_records_json(self.record_tables)},"tables":{tables},'
                f'"certificates":{certificates},"timing":{_dumps(self.timing)}}}')

    def summarize(self) -> None:
        """Aggregate per-check worst residuals and pass counts, each check in
        the order it first appears."""
        by_check: dict[str, list] = {}
        for table in self.record_tables:
            for row, column, verdict in zip(table.rows, table.columns, table.verdicts):
                by_check.setdefault(row[0], []).append((row, column, verdict))
        self.summary["checks"] = {check: {
            "formula": rows[0][0][1], "tolerance": rows[0][0][2],
            "max_residual": worst(r for _, column, _ in rows for r in column),
            "count": sum(len(column) for _, column, _ in rows),
            "failures": sum(verdict.count(False) for *_, verdict in rows),
        } for check, rows in by_check.items()}
        self.summary["all_passed"] = self.all_passed

    # -- output -----------------------------------------------------------

    def render_csv(self) -> str:
        """The command's sweep table, or else its records, as CSV."""
        rows = self.row_table.rows() if self.csv_table else [dict(vars(r)) for r in self.records]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]) if rows else [],
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()

    def render(self, fmt: str = "json") -> str:
        """The report as ``fmt``, "json" or "csv", ending in one newline: every output."""
        return self.to_json() + "\n" if fmt == "json" else self.render_csv()

    def write(self, path: str | Path, fmt: str = "json") -> None:
        Path(path).write_text(self.render(fmt), encoding="utf-8")


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


def _rows_json(table: RowTable) -> str:
    """The rows of the table, as :func:`_dumps` writes the row dicts: a template of the
    field names filled with the ``repr`` of each number or the JSON of each string."""
    template = "{%s}" % ",".join(_dumps(name).replace("%", "%%") + ":%s" for name in table.fields)
    cells = [list(map({v: _dumps(v) for v in set(column)}.__getitem__, column))
             if column and isinstance(column[0], str) else
             [_NON_FINITE.get(text, text) for text in map(repr, column)]
             for column in table.columns]
    return "[%s]" % ",".join(map(template.__mod__, zip(*cells)))


def _records_json(tables: list[RecordTable]) -> str:
    """The records array of the tables, as :func:`_dumps` writes the record
    dicts: one JSON prefix per row, a float ``repr`` per residual and its verdict."""
    out = []
    for table in tables:
        cells = []
        for (check, formula, tolerance), column, verdict in zip(table.rows, table.columns,
                                                                 table.verdicts):
            head = f'{{"check":{_dumps(check)},"formula":{_dumps(formula)},"residual":'
            tail = f',"tolerance":{_dumps(tolerance)},"passed":'
            cells.append([f'{head}{_NON_FINITE.get(text, text)}{tail}'
                          f'{"true" if passed else "false"}'
                          for text, passed in zip(map(repr, column), verdict)])
        ends = [f',"instance":{instance}}}' for instance in table.instances]
        out += [cell + end for end, row in zip(ends, zip(*cells)) for cell in row]
    return f'[{",".join(out)}]'
