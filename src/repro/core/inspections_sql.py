"""SQL-side implementations of the inspections (§3 of the paper).

``SQLHistogramForColumns`` generates the ratio-measurement queries of
Listings 1-3/5: when the sensitive column survived into the current table
expression it is grouped directly; when only a tuple identifier survived,
a join back to the ctid-exposing view restores it; when the identifier was
aggregated, an ``unnest`` precedes the join.  One such query per DAG node
and sensitive column becomes one arm of a single ``UNION ALL`` statement,
so a pipeline's histograms cost one statement (see
:meth:`SQLHistogramForColumns.batch_query`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.core.naming import quote_identifier as q
from repro.core.table_info import TableInfo

__all__ = ["ColumnOwner", "SQLHistogramForColumns", "first_rows_query"]


@dataclass(frozen=True)
class ColumnOwner:
    """Where a source column can be restored from: its ctid-exposing view,
    and the column's SQL type there."""

    ctid_column: str
    ctid_view: str
    sql_type: str


class SQLHistogramForColumns:
    """Generates the per-operator histogram queries for sensitive columns.

    Maintains the paper's dictionary from original pandas column names to
    the SQL table and tuple identifier that can restore them.
    """

    def __init__(self, column_owners: dict[str, ColumnOwner]) -> None:
        self._owners = column_owners

    def register_column(self, column: str, owner: ColumnOwner) -> None:
        self._owners.setdefault(column, owner)

    def _histogram_source(
        self, info: TableInfo, column: str
    ) -> Optional[tuple[str, str, str]]:
        """``(value expression, FROM clause, SQL type)`` grouping one
        sensitive column at one operator (Listings 1-3); None when the
        column is unrestorable there."""
        if column in info.columns and not info.is_matrix:
            return q(column), info.name, info.type_of(column)
        owner = self._owners.get(column)
        if owner is None or owner.ctid_column not in info.ctids:
            return None
        ctid = q(owner.ctid_column)
        if info.ctids[owner.ctid_column]:
            # aggregated identifier: unnest before restoring (Listing 3)
            current = (
                f"(SELECT unnest({ctid}) AS {ctid} FROM {info.name}) tb_curr"
            )
        else:
            current = f"{info.name} tb_curr"
        source = (
            f"{current} JOIN {owner.ctid_view} tb_orig "
            f"ON tb_curr.{ctid} = tb_orig.{ctid}"
        )
        return f"tb_orig.{q(column)}", source, owner.sql_type

    def batch_query(
        self, infos: Iterable[tuple[Any, TableInfo]], columns: Sequence[str]
    ) -> tuple[str, dict[int, tuple[Any, str]]]:
        """One ``UNION ALL`` computing the histogram of every column of
        *columns* at every table expression of *infos* (``(key, info)``
        pairs), and the ``(key, column)`` each arm's tag stands for.

        An arm selects ``tag, value columns..., count``.  It writes its
        values into the value column of its sensitive column and SQL type
        and NULL into the others, so no value column mixes types (an
        ``int`` key stays ``int`` even where a column was replaced by one
        of another type).  Padding is always NULL: an arm's key is its one
        non-NULL value, or NULL.  The query is empty when no arm exists.
        """
        found: list[tuple[Any, str, tuple[str, str, str]]] = []
        for key, info in infos:
            for column in columns:
                source = self._histogram_source(info, column)
                if source is not None:
                    found.append((key, column, source))
        slots: dict[tuple[str, str], int] = {}
        for _, column, (_, _, sql_type) in found:
            slots.setdefault((column, sql_type), len(slots))
        arms: list[str] = []
        tags: dict[int, tuple[Any, str]] = {}
        for tag, (key, column, (value, source, sql_type)) in enumerate(found):
            values = ["NULL"] * len(slots)
            values[slots[column, sql_type]] = value
            arms.append(
                f"SELECT {tag}, {', '.join(values)}, count(*)\n"
                f"FROM {source}\n"
                f"GROUP BY {value}"
            )
            tags[tag] = (key, column)
        return "\nUNION ALL\n".join(arms), tags


def first_rows_query(info: TableInfo, row_count: int) -> str:
    """Query behind MaterializeFirstOutputRows in SQL mode."""
    columns = [q(c) for c in info.columns] or ["*"]
    return f"SELECT {', '.join(columns)} FROM {info.name} LIMIT {row_count}"
