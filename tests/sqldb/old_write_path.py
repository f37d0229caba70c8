"""The batch-shaped write path that the direct append replaced, kept
verbatim as a reference oracle (``test_write_path_oracle.py``).

An INSERT used to build each column's batch as its own vector (text with
a fresh dictionary, ``text_vector``) and merge it onto the stored column
through ``concat_vectors`` (``vector._shared_codes`` remapping the batch
dictionary into the column's), and a sorted index grew by ``argsort``
plus two ``np.insert``.  These are the parent versions of
``catalog._coerce_column``, ``Table.append_columns`` (list branch),
``Table.append_rows``, ``_sorted_entries`` and ``extend_index``, as free
functions over a :class:`~repro.sqldb.catalog.Table` and an
:class:`~repro.sqldb.catalog.Index`, plus the per-cell coercion they
called, ``catalog.coerce_to_type``, which the one assignment rule
(``vector.CELL_RULES``) replaced.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import SQLExecutionError
from repro.sqldb.catalog import (
    Index,
    Table,
    _indexed_positions,
    _key_vectors,
    _unique_violation,
)
from repro.sqldb.vector import Vector, cells, concat_vectors, text_vector


def coerce_to_type(raw: Any, storage: str) -> Any:
    """Coerce one Python value (from COPY/INSERT) to a storage class."""
    if raw is None:
        return None
    if storage in ("int", "serial"):
        try:
            return int(float(raw))
        except (TypeError, ValueError):
            raise SQLExecutionError(
                f"cannot interpret {raw!r} as integer", sqlstate="22P02"
            ) from None
    if storage == "float":
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise SQLExecutionError(
                f"cannot interpret {raw!r} as number", sqlstate="22P02"
            ) from None
    if storage == "bool":
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("t", "true", "1"):
            return True
        if text in ("f", "false", "0"):
            return False
        raise SQLExecutionError(f"cannot interpret {raw!r} as boolean")
    if storage == "array":
        if isinstance(raw, list):
            # arrays are values: the table never holds the caller's list
            return list(raw)
        raise SQLExecutionError(f"cannot interpret {raw!r} as array")
    return str(raw)


def coerce_column(raw: list[Any], storage: str, name: str) -> Vector:
    n = len(raw)
    if storage in ("int", "serial", "float"):
        try:
            values = np.fromiter(
                (np.nan if v is None else float(v) for v in raw),
                dtype=np.float64,
                count=n,
            )
        except (TypeError, ValueError) as exc:
            raise SQLExecutionError(
                f"column {name!r}: cannot interpret a value as a number "
                f"({exc})"
            ) from None
        return Vector(values, np.isnan(values))
    nulls = np.fromiter((v is None for v in raw), dtype=bool, count=n)
    if storage == "bool":
        values = np.fromiter(
            (coerce_to_type(v, storage) or False for v in raw),
            dtype=bool,
            count=n,
        )
        return Vector(values, nulls)
    if storage == "text":
        return text_vector(raw, nulls)
    values = np.empty(n, dtype=object)
    for i, v in enumerate(raw):
        values[i] = v
    return Vector(values, nulls)


def append_columns(table: Table, data: dict[str, list[Any]], n_new: int) -> None:
    for name, storage in zip(table.column_names, table.column_types):
        if name in data:
            raw = data[name]
            if len(raw) != n_new:
                raise SQLExecutionError(
                    f"COPY column {name!r} has {len(raw)} values, "
                    f"expected {n_new}"
                )
            vector = (
                raw if isinstance(raw, Vector)
                else coerce_column(raw, storage, name)
            )
        elif storage == "serial":
            counter = table._next_serial.get(name, 0)
            values = np.arange(counter, counter + n_new, dtype=np.float64)
            table._next_serial[name] = counter + n_new
            vector = Vector(values, np.zeros(n_new, dtype=bool))
        else:
            vector = coerce_column([None] * n_new, storage, name)
        if table.n_rows:
            vector = concat_vectors([table.columns[name], vector])
        table.columns[name] = vector
    table.n_rows += n_new


def append_rows(table: Table, rows: list[dict[str, Any]]) -> None:
    if not rows:
        return
    data = {
        name: [coerce_to_type(row[name], storage) for row in rows]
        for name, storage in zip(table.column_names, table.column_types)
        if name in rows[0]
    }
    append_columns(table, data, len(rows))


def sorted_entries(
    name: str, columns: tuple[str, ...], vector: Vector, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    keys = cells(vector)[positions] if vector.is_text else vector.values[positions]
    if keys.dtype != object:
        keys = keys.astype(np.float64, copy=False)
    order = np.argsort(keys, kind="stable")
    return keys[order], positions[order]


def extend_index(index: Index, table: Table) -> Index:
    """The one-column index grown by ``np.insert`` (composite keys have
    no reference here: ``build_index`` is their oracle)."""
    name, columns = index.name, index.columns
    vectors = _key_vectors(table, columns)
    positions = _indexed_positions(vectors, index.n_rows)
    (old_keys,) = index.key_arrays
    keys, positions = sorted_entries(name, columns, vectors[0], positions)
    at = np.searchsorted(old_keys, keys, side="right")
    first = np.searchsorted(old_keys, keys, side="left") if index.unique else at
    if index.unique:
        duplicated = first < at
        duplicated[1:] |= np.asarray(keys[1:] == keys[:-1], dtype=bool)
        if duplicated.any():
            raise _unique_violation(
                name, columns, (keys,), int(np.flatnonzero(duplicated)[0])
            )
    return Index(
        name, table.name, columns, index.unique, table.n_rows,
        (np.insert(old_keys, at, keys),),
        np.insert(index.positions, at, positions),
    )
