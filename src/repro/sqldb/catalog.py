"""Catalog: base tables, views and materialised views.

Base tables store column vectors plus the synthetic ``ctid`` system column
(an int64 row identifier standing in for PostgreSQL's physical tuple id —
the paper only relies on it as a consistent logical identifier, captured
once in the first CTE).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import numpy as np

from repro.errors import CatalogError, SQLExecutionError, UniqueViolation
from repro.sqldb import ast_nodes as ast
from repro.sqldb.vector import Vector, concat_vectors

__all__ = [
    "Table",
    "TrainedModel",
    "View",
    "Catalog",
    "CatalogSnapshot",
    "ColumnStats",
    "Index",
    "TableStats",
    "CTID",
    "build_index",
    "extend_index",
    "coerce_to_type",
    "normalise_type",
]

#: name of the system column exposing the tuple identifier
CTID = "ctid"

_INT_TYPES = {"int", "integer", "bigint", "smallint"}
_SERIAL_TYPES = {"serial", "bigserial"}
_FLOAT_TYPES = {"float", "real", "numeric", "decimal", "double", "double precision"}
_TEXT_TYPES = {"text", "varchar", "char", "date", "timestamp"}
_BOOL_TYPES = {"boolean", "bool"}


def normalise_type(type_name: str) -> str:
    """Map a declared SQL type to the engine's storage class."""
    base = type_name.strip().lower()
    if base.endswith("[]"):
        return "array"
    if base in _INT_TYPES:
        return "int"
    if base in _SERIAL_TYPES:
        return "serial"
    if base in _FLOAT_TYPES:
        return "float"
    if base in _TEXT_TYPES:
        return "text"
    if base in _BOOL_TYPES:
        return "bool"
    raise CatalogError(f"unsupported column type {type_name!r}")


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
            return raw
        raise SQLExecutionError(f"cannot interpret {raw!r} as array")
    return str(raw)


def _coerce_column(raw: list[Any], storage: str, name: str) -> Vector:
    """Build the typed vector of one column's new values.

    The dtype comes from the declared storage class alone, never from the
    values: float64 (NaN under NULL) for ``int``/``serial``/``float``, bool
    for ``bool``, object (None under NULL) for ``text``/``array`` — so an
    empty or all-NULL batch has the same dtype as any other and appending
    never flips a column's dtype.
    """
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
    values = np.empty(n, dtype=object)
    if storage == "array":
        # cell by cell: numpy would unpack equally long lists into a matrix
        for i, v in enumerate(raw):
            values[i] = v
    else:
        # one object per distinct string of the batch: COPY parses a fresh
        # str per cell, and a column of repeated (categorical) values
        # would otherwise hold one per row
        distinct: dict[Any, Any] = {}
        values[:] = [distinct.setdefault(v, v) for v in raw]
    return Vector(values, nulls)


@dataclass
class Table:
    """A stored base table."""

    name: str
    column_names: list[str]
    column_types: list[str]  # storage classes
    columns: dict[str, Vector] = field(default_factory=dict)
    n_rows: int = 0
    _next_serial: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.column_names)) != len(self.column_names):
            raise CatalogError(f"duplicate column names in table {self.name!r}")
        for name in self.column_names:
            if name == CTID:
                raise CatalogError("'ctid' is reserved for the system column")
        if not self.columns:
            for name, storage in zip(self.column_names, self.column_types):
                self.columns[name] = _coerce_column([], storage, name)

    @property
    def ctid(self) -> Vector:
        values = np.arange(self.n_rows, dtype=np.float64)
        return Vector(values, np.zeros(self.n_rows, dtype=bool))

    def storage_of(self, column: str) -> str:
        try:
            return self.column_types[self.column_names.index(column)]
        except ValueError:
            raise CatalogError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def append_columns(self, data: dict[str, list[Any]], n_new: int) -> None:
        """The one append: ``data`` maps provided column names to equally
        long value lists; absent serial columns are auto-numbered, other
        absent columns fill with NULL.

        Only the new batch is coerced (column-at-a-time, to the declared
        storage class); it is then concatenated onto the existing typed
        arrays, so the cost is O(batch) Python plus one memcpy.  Every
        column gets a fresh vector — mementos, forks and snapshots keep
        the old ones.
        """
        for name, storage in zip(self.column_names, self.column_types):
            if name in data:
                raw = data[name]
                if len(raw) != n_new:
                    raise SQLExecutionError(
                        f"COPY column {name!r} has {len(raw)} values, "
                        f"expected {n_new}"
                    )
                vector = _coerce_column(raw, storage, name)
            elif storage == "serial":
                counter = self._next_serial.get(name, 0)
                values = np.arange(counter, counter + n_new, dtype=np.float64)
                self._next_serial[name] = counter + n_new
                vector = Vector(values, np.zeros(n_new, dtype=bool))
            else:
                vector = _coerce_column([None] * n_new, storage, name)
            if self.n_rows:
                vector = concat_vectors([self.columns[name], vector])
            self.columns[name] = vector
        self.n_rows += n_new

    def append_rows(self, rows: list[dict[str, Any]]) -> None:
        """Append row dicts sharing one key set (INSERT, and through it
        replicated apply and WAL replay): each cell is coerced to its
        column's storage class and the batch transposed into
        :meth:`append_columns`."""
        if not rows:
            return
        data = {
            name: [coerce_to_type(row[name], storage) for row in rows]
            for name, storage in zip(self.column_names, self.column_types)
            if name in rows[0]
        }
        self.append_columns(data, len(rows))

    def patch_column(
        self, name: str, positions: np.ndarray, cells: list[Any]
    ) -> None:
        """Replace the cells of column *name* at *positions* (UPDATE).

        The new cells are coerced like appended ones and written into a
        copy of the column; the old vector stays untouched for the
        mementos, forks and snapshots sharing it."""
        storage = self.storage_of(name)
        patch = _coerce_column(
            [coerce_to_type(cell, storage) for cell in cells], storage, name
        )
        old = self.columns[name]
        values, nulls = old.values.copy(), old.nulls.copy()
        values[positions] = patch.values
        nulls[positions] = patch.nulls
        self.columns[name] = Vector(values, nulls)


# -- secondary indexes --------------------------------------------------------


_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)


@dataclass
class Index:
    """A secondary index over one base table.

    Two physical shapes share this class: ``hash`` keeps a dict from key
    (scalar, or tuple for composite keys) to the ascending row positions
    holding it; ``sorted`` keeps the non-null keys in ascending order next
    to their row positions (bisect lookups, range scans).  Rows with a
    NULL in any key column are not indexed — SQL equality never matches
    them, and PostgreSQL's unique indexes likewise admit repeated NULLs.

    An ``Index`` is immutable once built: maintenance *replaces* the whole
    object, sharing no array it would have to write into (see
    :meth:`Catalog.refresh_indexes`), the same copy-on-write
    contract the column vectors follow, which is what makes catalog
    mementos, transaction forks and checkpoint pickles valid by sharing.

    Positions are physical row numbers (== ``ctid``), so every lookup
    returns ascending positions and a gather reproduces exactly the rows —
    in exactly the order — a full scan plus filter would produce.
    """

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    method: str = "sorted"  # 'sorted' | 'hash'
    #: table row count at build time (consistency guard for executors)
    n_rows: int = 0
    #: hash shape: key -> ascending int64 positions
    hash_map: Optional[dict] = None
    #: sorted shape: ascending non-null keys / their row positions
    #: (position-ascending within equal keys: stable sort)
    sorted_keys: Optional[np.ndarray] = None
    sorted_positions: Optional[np.ndarray] = None

    def _probe_key(self, value: Any) -> Any:
        """Normalise a probe value to the stored key representation."""
        if self.method == "sorted" and self.sorted_keys is not None:
            if self.sorted_keys.dtype != object and not isinstance(value, str):
                return float(value)
            return value
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, (int, float, np.integer, np.floating)):
            return float(value)
        return value

    def eq_positions(self, key: Any) -> np.ndarray:
        """Ascending positions of rows whose key equals *key* (single or
        tuple for composite hash indexes)."""
        if self.method == "hash":
            if isinstance(key, tuple):
                key = tuple(self._probe_key(part) for part in key)
            else:
                key = self._probe_key(key)
            try:
                return self.hash_map.get(key, _EMPTY_POSITIONS)
            except TypeError:  # unhashable probe value
                return _EMPTY_POSITIONS
        key = self._probe_key(key)
        keys = self.sorted_keys
        try:
            lo = int(np.searchsorted(keys, key, side="left"))
            hi = int(np.searchsorted(keys, key, side="right"))
        except TypeError:
            return _EMPTY_POSITIONS
        return self.sorted_positions[lo:hi]

    def in_positions(self, keys: tuple) -> np.ndarray:
        """Ascending positions matching any of *keys* (IN-list probe)."""
        parts = [self.eq_positions(key) for key in keys]
        parts = [p for p in parts if len(p)]
        if not parts:
            return _EMPTY_POSITIONS
        # unique: restores scan order AND collapses duplicate IN-list
        # literals (IN is a set predicate — each row matches once)
        return np.unique(np.concatenate(parts))

    def range_positions(
        self,
        lo: Any,
        lo_inclusive: bool,
        hi: Any,
        hi_inclusive: bool,
    ) -> np.ndarray:
        """Ascending positions with key in the given range (sorted only).

        ``None`` bounds are open; inclusivity follows the flags.
        """
        keys = self.sorted_keys
        try:
            start = (
                0
                if lo is None
                else int(
                    np.searchsorted(
                        keys,
                        self._probe_key(lo),
                        side="left" if lo_inclusive else "right",
                    )
                )
            )
            stop = (
                len(keys)
                if hi is None
                else int(
                    np.searchsorted(
                        keys,
                        self._probe_key(hi),
                        side="right" if hi_inclusive else "left",
                    )
                )
            )
        except TypeError:
            return _EMPTY_POSITIONS
        if stop <= start:
            return _EMPTY_POSITIONS
        return np.sort(self.sorted_positions[start:stop])


def _resolve_index_method(method: Optional[str], n_columns: int) -> str:
    """Normalise/choose the physical index shape."""
    if method in (None, ""):
        return "sorted" if n_columns == 1 else "hash"
    resolved = {"btree": "sorted"}.get(method, method)
    if resolved not in ("sorted", "hash"):
        raise CatalogError(f"unknown index method {method!r}")
    if resolved == "sorted" and n_columns != 1:
        raise CatalogError(
            "sorted (btree) indexes cover exactly one column; "
            "use USING hash for composite keys"
        )
    return resolved


def _key_vectors(table: Table, columns: tuple[str, ...]) -> list[Vector]:
    vectors = []
    for column in columns:
        if table.storage_of(column) == "array":
            raise CatalogError(
                f"cannot index array column {column!r} of table {table.name!r}"
            )
        vectors.append(table.columns[column])
    return vectors


def _indexed_positions(vectors: list[Vector], start: int) -> np.ndarray:
    """Positions >= *start* whose key has no NULL part (the indexed rows)."""
    present = ~vectors[0].nulls[start:]
    for vector in vectors[1:]:
        present = present & ~vector.nulls[start:]
    return np.flatnonzero(present).astype(np.int64) + start


def _unique_violation(
    name: str, columns: tuple[str, ...], key: Any
) -> UniqueViolation:
    return UniqueViolation(
        f"duplicate key value violates unique index {name!r}: "
        f"({', '.join(columns)})=({key!r})"
    )


def _unsortable(name: str, columns: tuple[str, ...]) -> SQLExecutionError:
    return SQLExecutionError(
        f"index {name!r}: column {columns[0]!r} holds values that "
        "do not sort consistently; use USING hash"
    )


def _sorted_entries(
    name: str, columns: tuple[str, ...], vector: Vector, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The keys at *positions* in ascending order (position-ascending
    within equal keys) next to their positions."""
    keys = vector.values[positions]
    if keys.dtype != object:
        keys = keys.astype(np.float64, copy=False)
    try:
        order = np.argsort(keys, kind="stable")
    except TypeError:
        raise _unsortable(name, columns) from None
    return keys[order], positions[order]


def _hash_buckets(
    name: str, vectors: list[Vector], positions: np.ndarray
) -> dict[Any, list[int]]:
    """Group *positions* (ascending) by key: scalar, or tuple when
    composite."""
    key_columns = [vec.values[positions].tolist() for vec in vectors]
    keys = key_columns[0] if len(key_columns) == 1 else list(zip(*key_columns))
    buckets: dict[Any, list[int]] = {}
    try:
        for pos, key in zip(positions.tolist(), keys):
            buckets.setdefault(key, []).append(pos)
    except TypeError:
        raise SQLExecutionError(
            f"index {name!r}: unhashable key values; cannot build hash index"
        ) from None
    return buckets


def build_index(
    name: str,
    table: Table,
    columns: tuple[str, ...],
    unique: bool,
    method: str,
) -> Index:
    """Build a fresh index over *table*'s current rows.

    Raises :class:`UniqueViolation` (SQLSTATE 23505) when ``unique`` and
    the data already holds duplicate non-null keys — the CREATE UNIQUE
    INDEX validation, the constraint check of every DML statement that
    rebuilds (see :meth:`Catalog.refresh_indexes`), and the oracle that
    :func:`extend_index` is tested against.
    """
    vectors = _key_vectors(table, columns)
    positions = _indexed_positions(vectors, 0)
    if method == "sorted":
        keys, positions = _sorted_entries(name, columns, vectors[0], positions)
        if unique and len(keys) > 1:
            duplicated = np.asarray(keys[1:] == keys[:-1], dtype=bool)
            if duplicated.any():
                raise _unique_violation(
                    name, columns, keys[int(np.flatnonzero(duplicated)[0])]
                )
        return Index(
            name, table.name, columns, unique, method, table.n_rows,
            sorted_keys=keys, sorted_positions=positions,
        )
    hash_map: dict[Any, np.ndarray] = {}
    for key, rows in _hash_buckets(name, vectors, positions).items():
        if unique and len(rows) > 1:
            raise _unique_violation(name, columns, key)
        hash_map[key] = np.asarray(rows, dtype=np.int64)
    return Index(
        name, table.name, columns, unique, method, table.n_rows,
        hash_map=hash_map,
    )


def extend_index(index: Index, table: Table) -> Index:
    """A new index covering *table* after an append: rows
    ``index.n_rows..`` are new, the earlier ones are exactly what *index*
    was built over.

    Field for field what :func:`build_index` returns for the grown table,
    at the cost of the batch: ``sorted`` bisects the new keys into a copy
    of the key/position arrays (new positions exceed every old one, so
    going after equal keys keeps equal keys position-ascending), ``hash``
    updates only the buckets of the new keys in a shallow copy of the
    map.  *index* itself is never written; a unique violation — against
    the old keys or inside the batch — raises before anything is built.
    """
    name, columns = index.name, index.columns
    vectors = _key_vectors(table, columns)
    positions = _indexed_positions(vectors, index.n_rows)
    if index.method == "sorted":
        old_keys = index.sorted_keys
        keys, positions = _sorted_entries(name, columns, vectors[0], positions)
        if keys.dtype != old_keys.dtype:
            # a column restored from a pre-typed-storage checkpoint may
            # change dtype on its first append
            return build_index(name, table, columns, index.unique, "sorted")
        try:
            at = np.searchsorted(old_keys, keys, side="right")
            first = (
                np.searchsorted(old_keys, keys, side="left")
                if index.unique
                else at
            )
        except TypeError:
            raise _unsortable(name, columns) from None
        if index.unique:
            duplicated = first < at
            duplicated[1:] |= np.asarray(keys[1:] == keys[:-1], dtype=bool)
            if duplicated.any():
                raise _unique_violation(
                    name, columns, keys[int(np.flatnonzero(duplicated)[0])]
                )
        return Index(
            name, table.name, columns, index.unique, "sorted", table.n_rows,
            sorted_keys=np.insert(old_keys, at, keys),
            sorted_positions=np.insert(index.sorted_positions, at, positions),
        )
    hash_map = dict(index.hash_map)
    for key, rows in _hash_buckets(name, vectors, positions).items():
        bucket = hash_map.get(key)
        if index.unique and (bucket is not None or len(rows) > 1):
            raise _unique_violation(name, columns, key)
        fresh = np.asarray(rows, dtype=np.int64)
        hash_map[key] = (
            fresh if bucket is None else np.concatenate([bucket, fresh])
        )
    return Index(
        name, table.name, columns, index.unique, "hash", table.n_rows,
        hash_map=hash_map,
    )


@dataclass(frozen=True)
class ColumnStats:
    """ANALYZE-collected per-column statistics.

    ``ndv`` counts distinct non-null values; ``min_value``/``max_value``
    are kept for numeric and text columns (None for arrays and for
    columns without non-null values).
    """

    n_nulls: int
    null_fraction: float
    ndv: int
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None


@dataclass(frozen=True)
class TableStats:
    """ANALYZE-collected per-table statistics snapshot."""

    table: str
    n_rows: int
    columns: dict[str, ColumnStats]
    #: catalog schema version (the DDL clock) at collection time
    schema_version: int


def _column_stats(vec: Vector, n_rows: int) -> ColumnStats:
    n_nulls = int(vec.nulls.sum())
    null_fraction = (n_nulls / n_rows) if n_rows else 0.0
    values = vec.values[~vec.nulls]
    if len(values) == 0:
        return ColumnStats(n_nulls, null_fraction, 0)
    kind = vec.values.dtype.kind
    if kind in ("f", "i", "u"):
        ndv = int(len(np.unique(values)))
        return ColumnStats(
            n_nulls, null_fraction, ndv, float(values.min()), float(values.max())
        )
    if kind == "b":
        ndv = int(len(np.unique(values)))
        return ColumnStats(
            n_nulls, null_fraction, ndv, bool(values.min()), bool(values.max())
        )
    items = values.tolist()
    try:
        distinct = set(items)
    except TypeError:
        # unhashable cells (array columns): distinct by representation
        return ColumnStats(n_nulls, null_fraction, len({repr(v) for v in items}))
    if all(isinstance(v, str) for v in distinct):
        return ColumnStats(
            n_nulls, null_fraction, len(distinct), min(distinct), max(distinct)
        )
    return ColumnStats(n_nulls, null_fraction, len(distinct))


def collect_table_stats(table: Table, schema_version: int) -> TableStats:
    """One full-scan ANALYZE pass over a base table."""
    columns = {
        name: _column_stats(table.columns[name], table.n_rows)
        for name in table.column_names
    }
    return TableStats(table.name, table.n_rows, columns, schema_version)


@dataclass
class View:
    """A stored view definition; materialised views cache their result."""

    name: str
    query: ast.Select
    materialized: bool = False
    #: populated on first use for materialised views: (schema names, vectors)
    snapshot: Optional[tuple[list[str], dict[str, Vector], int]] = None


@dataclass(frozen=True)
class TrainedModel:
    """A fitted model stored in the catalog by ``TRAIN``.

    Frozen and built entirely from immutable values (tuples, floats,
    strings), so models follow the same copy-on-write contract as
    :class:`Index`: mementos, forks and checkpoint pickles share the
    object by reference, and retraining *replaces* it wholesale.

    ``coef``/``intercept`` carry linear-model weights; ``tree`` carries a
    decision tree as nested tuples (see ``repro.learn.tree``).  Exactly
    one family is populated depending on ``estimator``.
    """

    name: str
    estimator: str  # 'logistic_regression' | 'linear_regression' | 'decision_tree'
    features: tuple[str, ...]
    target: str
    #: the hyperparameters the trainer actually used, sorted by key
    hyperparams: tuple[tuple[str, Any], ...]
    coef: Optional[tuple[float, ...]] = None
    intercept: Optional[float] = None
    tree: Optional[tuple] = None
    n_iter: int = 0
    loss: Optional[float] = None


@dataclass
class CatalogSnapshot:
    """Copy-on-write memento of the whole catalog (see ``snapshot()``).

    Holds the live ``Table``/``View`` objects by identity plus shallow
    copies of their mutable containers.  Valid because every data
    mutation path *replaces* column vectors (``append_columns`` /
    ``patch_column`` build fresh vectors) and view refreshes replace
    the whole ``snapshot`` tuple — nothing writes into a captured
    container.  A memento can be restored any number of times
    (``restore`` re-copies its containers on the way back in).
    """

    tables: dict[str, tuple]
    views: dict[str, tuple]
    table_stats: dict[str, "TableStats"]
    schema_version: int
    stats_version: int
    indexes: dict[str, Index] = field(default_factory=dict)
    index_epoch: int = 0
    models: dict[str, TrainedModel] = field(default_factory=dict)


#: unique ids for transaction forks; the committed catalog is always
#: uid 0, so fork-built plan-cache entries can never collide with each
#: other or with committed-state ones
_fork_ids = itertools.count(1)


class Catalog:
    """Name → table/view registry with PostgreSQL-style single namespace."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, View] = {}
        #: 0 for a committed catalog, unique per transaction fork (part
        #: of the plan-cache key: two forks at the same schema_version
        #: may have diverged)
        self.uid = 0
        #: per-relation last-write version (the id of the most recent
        #: commit that wrote it, kept as a tombstone across DROP); MVCC
        #: first-committer-wins compares these at COMMIT
        self.table_versions: dict[str, int] = {}
        #: monotonically increasing counter, bumped on every change that can
        #: invalidate a cached plan: DDL, a restore that undid some, a
        #: checkpoint/snapshot install — never by row-changing statements
        #: (plans resolve relations by name when they run).  Plan-cache keys
        #: embed it, so stale entries simply stop matching and age out of
        #: the LRU.
        self.schema_version = 0
        #: ANALYZE-collected statistics per base table; PostgreSQL-style,
        #: they go stale on data change and refresh only on the next ANALYZE
        self._table_stats: dict[str, TableStats] = {}
        #: bumped on every ANALYZE so plan-cache keys embedding it stop
        #: matching (a stats refresh can change the chosen plan)
        self.stats_version = 0
        #: secondary indexes by name (single namespace of their own; the
        #: objects are immutable and replaced wholesale on maintenance)
        self._indexes: dict[str, Index] = {}
        #: monotonic counter of index DDL (CREATE/DROP INDEX); plan-cache
        #: keys embed it so access-path choices die with their indexes
        self.index_epoch = 0
        #: fitted models by name (TRAIN output; immutable objects replaced
        #: wholesale on retrain, same copy-on-write contract as indexes)
        self._models: dict[str, TrainedModel] = {}

    def bump_version(self) -> None:
        self.schema_version += 1

    def note_write(self, name: str, commit_id: int) -> None:
        """Record a committed write to relation *name*: stamp its
        last-write version with the (monotonic) id of the commit."""
        self.table_versions[name] = commit_id

    # -- transactional mementos ---------------------------------------------

    def snapshot(self) -> CatalogSnapshot:
        """Capture a restorable memento of the full catalog state.

        O(relations + columns): dict/list shallow copies only — the
        column vectors themselves are shared copy-on-write (see
        :class:`CatalogSnapshot`)."""
        tables = {
            name: (
                table,
                list(table.column_names),
                list(table.column_types),
                dict(table.columns),
                table.n_rows,
                dict(table._next_serial),
            )
            for name, table in self._tables.items()
        }
        views = {
            name: (view, view.snapshot) for name, view in self._views.items()
        }
        return CatalogSnapshot(
            tables,
            views,
            dict(self._table_stats),
            self.schema_version,
            self.stats_version,
            dict(self._indexes),
            self.index_epoch,
            dict(self._models),
        )

    def restore(self, snap: CatalogSnapshot) -> None:
        """Roll the catalog back to *snap*.

        Relations created since the memento vanish; dropped ones
        reappear (same objects — plans resolve relations by name, so
        identity preservation is a nicety, not a requirement).  When
        anything actually changed since the capture, ``schema_version``
        takes a fresh monotonic bump rather than rewinding, so plans
        cached *inside* the rolled-back span can never be served again
        (version values are never reused).
        """
        changed = (
            self.schema_version != snap.schema_version
            or self.stats_version != snap.stats_version
            or self.index_epoch != snap.index_epoch
        )
        self._tables = {}
        for name, (table, names, types, columns, n_rows, serials) in snap.tables.items():
            table.column_names = list(names)
            table.column_types = list(types)
            table.columns = dict(columns)
            table.n_rows = n_rows
            table._next_serial = dict(serials)
            self._tables[name] = table
        self._views = {}
        for name, (view, view_snapshot) in snap.views.items():
            view.snapshot = view_snapshot
            self._views[name] = view
        self._table_stats = dict(snap.table_stats)
        self._indexes = dict(snap.indexes)
        self._models = dict(snap.models)
        if self.index_epoch != snap.index_epoch:
            # monotonic, like schema_version: epoch values are never reused
            self.index_epoch += 1
        if changed:
            self.bump_version()

    def fork(self) -> "Catalog":
        """Detached copy-on-write clone for one transaction's snapshot.

        Unlike :meth:`snapshot` (a memento that restores *this* catalog
        in place), a fork is a fully independent :class:`Catalog` whose
        ``Table``/``View`` objects are fresh — they share the immutable
        column vectors and view-snapshot tuples with the committed state,
        so capturing one is O(relations + columns), but mutating the fork
        never touches the committed objects (and vice versa).
        """
        clone = Catalog()
        clone.uid = next(_fork_ids)
        for name, table in self._tables.items():
            clone._tables[name] = Table(
                table.name,
                list(table.column_names),
                list(table.column_types),
                dict(table.columns),
                table.n_rows,
                dict(table._next_serial),
            )
        for name, view in self._views.items():
            twin = View(view.name, view.query, view.materialized)
            twin.snapshot = view.snapshot
            clone._views[name] = twin
        clone._table_stats = dict(self._table_stats)
        clone._indexes = dict(self._indexes)
        clone._models = dict(self._models)
        clone.schema_version = self.schema_version
        clone.stats_version = self.stats_version
        clone.index_epoch = self.index_epoch
        clone.table_versions = dict(self.table_versions)
        return clone

    def adopt_relation(self, name: str, source: "Catalog") -> None:
        """Install *source*'s version of relation *name* into this
        catalog (the MVCC commit swap); absent in *source* means the
        transaction dropped it."""
        if name in source._tables:
            self._views.pop(name, None)
            self._tables[name] = source._tables[name]
            if name in source._table_stats:
                self._table_stats[name] = source._table_stats[name]
        elif name in source._views:
            self._tables.pop(name, None)
            self._views[name] = source._views[name]
        elif name in source._models:
            self._models[name] = source._models[name]
        else:
            self._tables.pop(name, None)
            self._views.pop(name, None)
            self._table_stats.pop(name, None)
            self._models.pop(name, None)
        # the transaction's index set for this table replaces ours
        # (covers CREATE INDEX, DROP INDEX and DROP TABLE cascades)
        before = {
            index_name
            for index_name, index in self._indexes.items()
            if index.table == name
        }
        after = {
            index_name: index
            for index_name, index in source._indexes.items()
            if index.table == name
        }
        if before != set(after):
            self.index_epoch += 1
        for index_name in before:
            del self._indexes[index_name]
        self._indexes.update(after)

    def install(
        self,
        tables: dict[str, Table],
        views: dict[str, View],
        table_stats: dict[str, TableStats],
        indexes: Optional[dict[str, Index]] = None,
        models: Optional[dict[str, TrainedModel]] = None,
    ) -> None:
        """Adopt recovered state wholesale (checkpoint load on open)."""
        self._tables = dict(tables)
        self._views = dict(views)
        self._table_stats = dict(table_stats)
        self._indexes = dict(indexes or {})
        self._models = dict(models or {})
        self.index_epoch += 1
        self.bump_version()

    def export_state(
        self,
    ) -> tuple[
        dict[str, Table],
        dict[str, View],
        dict[str, TableStats],
        dict[str, Index],
        dict[str, TrainedModel],
    ]:
        """The live relation/statistics dicts for checkpointing (the
        inverse of :meth:`install`)."""
        return (
            dict(self._tables),
            dict(self._views),
            dict(self._table_stats),
            dict(self._indexes),
            dict(self._models),
        )

    # -- ANALYZE statistics -------------------------------------------------

    def analyze(self, name: Optional[str] = None) -> list[str]:
        """Collect statistics for one base table (or all of them).

        Returns the analyzed table names and bumps ``stats_version`` so
        cached plans chosen under the old statistics are invalidated.
        """
        names = [name] if name is not None else self.table_names
        for table_name in names:
            table = self.table(table_name)
            self._table_stats[table_name] = collect_table_stats(
                table, self.schema_version
            )
        self.stats_version += 1
        return names

    def table_stats(self, name: str) -> Optional[TableStats]:
        """The last ANALYZE snapshot for *name*, if any."""
        return self._table_stats.get(name)

    @property
    def analyzed_tables(self) -> list[str]:
        return sorted(self._table_stats)

    def create_table(self, table: Table) -> None:
        if (
            table.name in self._tables
            or table.name in self._views
            or table.name in self._models
        ):
            raise CatalogError(
                f"relation {table.name!r} already exists", sqlstate="42P07"
            )
        self._tables[table.name] = table
        self.bump_version()

    def create_view(self, view: View) -> None:
        if (
            view.name in self._tables
            or view.name in self._views
            or view.name in self._models
        ):
            raise CatalogError(
                f"relation {view.name!r} already exists", sqlstate="42P07"
            )
        self._views[view.name] = view
        self.bump_version()

    def drop(self, name: str, kind: str, if_exists: bool = False) -> None:
        store = self._tables if kind == "table" else self._views
        if name not in store:
            if if_exists:
                return
            raise CatalogError(f"{kind} {name!r} does not exist")
        del store[name]
        if kind == "table":
            self._table_stats.pop(name, None)
            dependent = [
                index_name
                for index_name, index in self._indexes.items()
                if index.table == name
            ]
            for index_name in dependent:
                del self._indexes[index_name]
            if dependent:
                self.index_epoch += 1
        self.bump_version()

    # -- secondary indexes ---------------------------------------------------

    def create_index(self, index: Index) -> None:
        """Register a freshly built index (relation namespace is shared:
        an index may not reuse a table/view/index name)."""
        if (
            index.name in self._indexes
            or index.name in self._tables
            or index.name in self._views
            or index.name in self._models
        ):
            raise CatalogError(
                f"relation {index.name!r} already exists", sqlstate="42P07"
            )
        if index.table not in self._tables:
            raise CatalogError(f"table {index.table!r} does not exist")
        self._indexes[index.name] = index
        self.index_epoch += 1
        self.bump_version()

    def drop_index(self, name: str, if_exists: bool = False) -> None:
        if name not in self._indexes:
            if if_exists:
                return
            raise CatalogError(f"index {name!r} does not exist")
        del self._indexes[name]
        self.index_epoch += 1
        self.bump_version()

    def index(self, name: str) -> Index:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"index {name!r} does not exist") from None

    def has_index(self, name: str) -> bool:
        return name in self._indexes

    def indexes_on(self, table: str) -> list[Index]:
        """Indexes over *table*, in name order (deterministic planning)."""
        return sorted(
            (ix for ix in self._indexes.values() if ix.table == table),
            key=lambda ix: ix.name,
        )

    @property
    def index_names(self) -> list[str]:
        return sorted(self._indexes)

    def refresh_indexes(
        self,
        table_name: str,
        appended: bool = False,
        assigned: Optional[Iterable[str]] = None,
    ) -> None:
        """Bring every index on *table_name* in line with its current rows.

        Called by the engine after each DML statement that touched the
        table, with what the statement did: ``appended`` — rows were only
        added at the end (INSERT, COPY), so each index is extended by the
        new keys (:func:`extend_index`); ``assigned`` — rows stayed in
        place and only these columns were rewritten (UPDATE), so an index
        over none of them is kept as it is; otherwise (DELETE, or an
        UPDATE of a key column) the index is rebuilt.  Maintenance
        replaces the ``Index`` objects (copy-on-write: mementos and forks
        captured earlier keep the old ones), and a
        :class:`UniqueViolation` raises *before* any index is swapped in —
        the engine's statement memento then rolls the data change back
        too.
        """
        table = self._tables[table_name]
        fresh = []
        for ix in self.indexes_on(table_name):
            if appended:
                fresh.append(extend_index(ix, table))
            elif assigned is None or not set(assigned).isdisjoint(ix.columns):
                fresh.append(
                    build_index(ix.name, table, ix.columns, ix.unique, ix.method)
                )
        for index in fresh:
            self._indexes[index.name] = index

    # -- trained models ------------------------------------------------------

    def create_model(self, model: TrainedModel) -> None:
        """Store a fitted model (retraining an existing model name
        replaces it; a table/view/index name is a 42P07 collision)."""
        if (
            model.name in self._tables
            or model.name in self._views
            or model.name in self._indexes
        ):
            raise CatalogError(
                f"relation {model.name!r} already exists", sqlstate="42P07"
            )
        self._models[model.name] = model
        self.bump_version()

    def drop_model(self, name: str, if_exists: bool = False) -> None:
        if name not in self._models:
            if if_exists:
                return
            raise CatalogError(f"model {name!r} does not exist")
        del self._models[name]
        self.bump_version()

    def model(self, name: str) -> TrainedModel:
        try:
            return self._models[name]
        except KeyError:
            raise CatalogError(f"model {name!r} does not exist") from None

    @property
    def model_names(self) -> list[str]:
        return sorted(self._models)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def resolve(self, name: str) -> Table | View:
        if name in self._tables:
            return self._tables[name]
        if name in self._views:
            return self._views[name]
        raise CatalogError(f"relation {name!r} does not exist")

    def has(self, name: str) -> bool:
        return name in self._tables or name in self._views

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    @property
    def view_names(self) -> list[str]:
        return sorted(self._views)
