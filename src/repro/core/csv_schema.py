"""CSV schema sniffing for the SQL backend (§5.1.1 of the paper).

Derives SQL column types from the file content (int, float, everything
else text), detects the index-column-without-header layout, and reports
per-column nullability so join translations can add the null-safe clause
only where needed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice

from repro.errors import TranslationError
from repro.frame.io import infer_column_type

__all__ = ["ColumnSchema", "CsvSchema", "sniff_csv"]

_SQL_TYPES = {"int": "INT", "float": "DOUBLE PRECISION", "str": "TEXT"}


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    sql_type: str  # INT | DOUBLE PRECISION | TEXT
    nullable: bool


@dataclass(frozen=True)
class CsvSchema:
    columns: tuple[ColumnSchema, ...]
    has_index_column: bool

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]


def sniff_csv(
    path: str, na_values: str | None = None, sample_limit: int | None = None
) -> CsvSchema:
    """Analyse a CSV file and derive its SQL schema.

    ``sample_limit`` bounds the rows read: types and nullability come from
    the first ``sample_limit`` non-empty rows (all rows when None).  A
    sampled row whose field count differs from the first one's raises
    :class:`TranslationError` naming its line, as ``read_csv`` does.
    """
    nulls = {"", na_values} if na_values else {""}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TranslationError(f"empty CSV file: {path}") from None
        rows = []
        for row in islice(filter(None, reader), sample_limit):
            if rows and len(row) != len(rows[0]):
                raise TranslationError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"expected {len(rows[0])}"
                )
            rows.append(row)
    n_fields = len(rows[0]) if rows else len(header)
    has_index_column = n_fields == len(header) + 1
    names = (["index_"] if has_index_column else []) + list(header)
    if len(names) != n_fields:
        raise TranslationError(
            f"{path}: header has {len(header)} fields but rows have {n_fields}"
        )
    # the type depends only on the set of values, so classify each
    # column's distinct non-null values once
    columns = []
    for name, column in zip(names, zip(*rows) if rows else [()] * n_fields):
        distinct = dict.fromkeys(column)
        nullable = not nulls.isdisjoint(distinct)
        kind = infer_column_type([v for v in distinct if v not in nulls])
        columns.append(ColumnSchema(name, _SQL_TYPES[kind], nullable))
    return CsvSchema(tuple(columns), has_index_column)
