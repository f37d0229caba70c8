"""CSV schema sniffing for the SQL backend (§5.1.1 of the paper).

Derives SQL column types from the file content (int, float, everything
else text), detects the index-column-without-header layout, and reports
per-column nullability so join translations can add the null-safe clause
only where needed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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
    the first ``sample_limit`` non-empty rows (all rows when None).
    """
    nulls = {"", na_values} if na_values else {""}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TranslationError(f"empty CSV file: {path}") from None
        raw_columns: list[list[str | None]] = []
        n_fields = None
        n_rows = 0
        for row in reader:
            if not row:
                continue
            if n_rows == sample_limit:
                break
            n_rows += 1
            if n_fields is None:
                n_fields = len(row)
                raw_columns = [[] for _ in range(n_fields)]
            for j, cell in enumerate(row):
                raw_columns[j].append(None if cell in nulls else cell)
    if n_fields is None:
        n_fields = len(header)
        raw_columns = [[] for _ in range(n_fields)]
    has_index_column = n_fields == len(header) + 1
    names = (["index_"] if has_index_column else []) + list(header)
    if len(names) != n_fields:
        raise TranslationError(
            f"{path}: header has {len(header)} fields but rows have {n_fields}"
        )
    columns = []
    for name, raw in zip(names, raw_columns):
        kind = infer_column_type(raw)
        nullable = any(v is None for v in raw)
        columns.append(ColumnSchema(name, _SQL_TYPES[kind], nullable))
    return CsvSchema(tuple(columns), has_index_column)
