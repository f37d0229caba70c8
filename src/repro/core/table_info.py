"""The SQL mapping's value objects (§4 of the paper).

The SQL mapping associates every Python *dummy object* flowing through the
pipeline with the information needed to build its SQL representation:

* :class:`TableInfo` — a table expression (one view/CTE): its name, its
  visible columns with types, and the tuple-tracking columns with their
  aggregation state;
* :class:`SeriesExpr` — the execution tree of scalar operations over one
  table expression (§5.1.4's condensed translation): instead of one CTE
  per sub-operation, nested arithmetic/boolean calls fold into a single
  SQL scalar expression over the parent block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["SeriesExpr", "TableInfo"]


@dataclass
class TableInfo:
    """One table expression registered in the query container."""

    name: str
    #: visible data columns in order (pandas-facing names, unquoted)
    columns: list[str]
    #: column -> SQL type ('INT' | 'DOUBLE PRECISION' | 'TEXT' | 'BOOLEAN'
    #: | 'ARRAY')
    column_types: dict[str, str]
    #: tracking column name -> True when aggregated into an array
    ctids: dict[str, bool] = field(default_factory=dict)
    #: columns that may contain NULL (drives null-safe join clauses)
    nullable: set[str] = field(default_factory=set)
    #: True when this expression represents a matrix (transformer output)
    is_matrix: bool = False
    #: row-number column (§5.1.8) carried for row-wise operations across
    #: tables; None when the source had no index column
    index_column: Optional[str] = None

    def type_of(self, column: str) -> str:
        return self.column_types.get(column, "DOUBLE PRECISION")

    def derive(self, name: str, columns: Optional[list[str]] = None) -> "TableInfo":
        """A child expression with the same tracking/nullability state."""
        cols = list(self.columns) if columns is None else list(columns)
        return TableInfo(
            name,
            cols,
            {c: self.column_types.get(c, "DOUBLE PRECISION") for c in cols},
            dict(self.ctids),
            {c for c in self.nullable if c in cols},
            self.is_matrix,
            self.index_column,
        )


@dataclass(frozen=True)
class SeriesExpr:
    """A scalar SQL expression over one parent table expression."""

    parent: TableInfo
    sql: str
    name: Optional[str] = None
    sql_type: str = "DOUBLE PRECISION"
    nullable: bool = True
