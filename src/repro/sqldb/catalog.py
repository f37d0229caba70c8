"""Catalog: base tables, views and materialised views.

Base tables store column vectors plus the synthetic ``ctid`` system column
(an int64 row identifier standing in for PostgreSQL's physical tuple id —
the paper only relies on it as a consistent logical identifier, captured
once in the first CTE).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import (
    CatalogError,
    DurabilityError,
    SQLError,
    SQLExecutionError,
    UniqueViolation,
)
from repro.sqldb import ast_nodes as ast
from repro.sqldb import colcodec
from repro.sqldb.parser import parse_statement
from repro.sqldb.vector import (
    CELL_RULES,
    Vector,
    array_vector,
    coded_text,
    compact,
    concat_vectors,
    extend_dictionary,
    gather,
    python_cells,
    to_python,
)

__all__ = [
    "Table",
    "TrainedModel",
    "View",
    "Catalog",
    "ColumnStats",
    "CsvColumn",
    "Index",
    "TableStats",
    "CTID",
    "build_index",
    "extend_index",
    "decode_records",
    "probe_compatible",
    "referenced_relations",
]

#: name of the system column exposing the tuple identifier
CTID = "ctid"

def _coerce_column(
    raw: list[Any], storage: str, onto: Optional[Vector] = None
) -> Vector:
    """Build the typed vector of one column's new values, each non-NULL
    cell converted by the storage class's assignment rule
    (:data:`~repro.sqldb.vector.CELL_RULES`).

    The dtype comes from the declared storage class alone, never from the
    values: float64 (NaN under NULL) for ``int``/``serial``/``float``, bool
    for ``bool``, int32 codes into a dictionary for ``text`` and int64
    entries over an element vector for ``array`` — so an empty or all-NULL batch has
    the same dtype as any other and appending never flips a column's
    dtype.  Text is coded into the dictionary of *onto* (the column's
    stored vector; a fresh one without it), extended by the new strings
    with one lookup per distinct one, so the cells stack onto or
    overwrite *onto*'s with no merge.
    """
    n = len(raw)
    rule = CELL_RULES[storage]
    raw = [None if v is None else rule(v) for v in raw]
    if storage in ("int", "serial", "float"):
        values = np.array(raw, dtype=np.float64)  # None reads as NaN
        return Vector(values, np.isnan(values))
    nulls = np.array([v is None for v in raw], dtype=bool)
    if storage == "bool":
        return Vector(np.array(raw, dtype=bool), nulls)
    if storage == "text":
        dictionary = (
            np.empty(0, dtype=object) if onto is None else onto.dictionary
        )
        distinct = dict.fromkeys(raw)
        distinct.pop(None, None)
        if not distinct:
            return Vector(np.zeros(n, dtype=np.int32), nulls, dictionary)
        dictionary, values = extend_dictionary(dictionary, list(distinct))
        if len(distinct) < n:
            # a NULL row's code is 0, a valid index once a string is stored
            code = dict(zip(distinct, values.tolist()))
            values = np.fromiter(
                map(code.get, raw, itertools.repeat(0)), np.int32, n
            )
        return Vector(values, nulls, dictionary)
    return array_vector(raw)


class CsvColumn:
    """One column of a COPY, typed chunk by chunk from its CSV text cells.

    :meth:`add` takes a chunk of the column's cells (the ``str``s
    ``csv.reader`` yields) and :meth:`vector` concatenates the typed parts
    once.  The NULL text and the empty field both read as NULL
    (PostgreSQL's CSV-mode default).  Every pass over a chunk is a C-level
    ``map``: numbers go through ``float()`` per cell when the chunk holds
    no NULL (plus one vectorised integrality check for ``int``), and else
    — or for booleans, or when a cell fails — through the assignment rule
    once per distinct string; text goes through one dict for the whole
    COPY — a ``defaultdict`` numbering each new string with its own
    length — that emits int32 codes and becomes the column's dictionary,
    so the NULL mask is an integer compare.  The result equals
    :func:`_coerce_column` over the NULL-mapped cells, error included.
    """

    def __init__(self, name: str, storage: str, null_text: str) -> None:
        self.name = name
        self.storage = storage
        self.null_keys = tuple(dict.fromkeys(("", null_text)))
        self.parts: list[Any] = []
        #: text: each distinct string's code, in first-occurrence order
        self.known: dict[str, int] = defaultdict()
        self.known.default_factory = self.known.__len__

    def add(self, cells: Sequence[str]) -> None:
        if self.storage == "text":
            part = np.fromiter(
                map(self.known.__getitem__, cells), np.int32, len(cells)
            )
        else:
            part = self._values(cells)
        self.parts.append(part)

    def _values(self, cells: Sequence[str]) -> np.ndarray | list:
        """A chunk of numbers or booleans as float64, NaN under NULL (or
        of arrays as lists, None under NULL)."""
        if self.storage not in ("bool", "array") and all(
            key not in cells for key in self.null_keys
        ):
            try:
                part = np.fromiter(map(float, cells), np.float64, len(cells))
            except ValueError:
                pass  # the rule below names the first cell that fails
            else:
                if self.storage == "float" or (
                    np.isfinite(part).all() and (np.rint(part) == part).all()
                ):
                    return part
        rule = CELL_RULES[self.storage]
        missing = None if self.storage == "array" else np.nan
        parsed = dict.fromkeys(cells)
        try:
            for cell in parsed:
                parsed[cell] = missing if cell in self.null_keys else rule(cell)
        except SQLExecutionError as exc:
            raise SQLExecutionError(
                f"column {self.name!r}: {exc}", sqlstate=exc.sqlstate
            ) from None
        if self.storage == "array":
            return list(map(parsed.__getitem__, cells))
        return np.fromiter(
            map(parsed.__getitem__, cells), np.float64, len(cells)
        )

    def vector(self) -> Vector:
        if self.storage == "array":
            return array_vector(list(itertools.chain(*self.parts)))
        if self.storage != "text":
            values = np.concatenate([np.empty(0), *self.parts])
            nulls = np.isnan(values)
            return Vector(values == 1 if self.storage == "bool" else values, nulls)
        codes = np.concatenate([np.empty(0, np.int32), *self.parts])
        nulls = np.zeros(len(codes), dtype=bool)
        for key in self.null_keys:
            if key in self.known:
                nulls |= codes == self.known[key]
        return coded_text(codes, nulls, list(self.known))


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
                self.columns[name] = _coerce_column([], storage)

    @property
    def ctid(self) -> Vector:
        values = np.arange(self.n_rows, dtype=np.float64)
        return Vector(values, np.zeros(self.n_rows, dtype=bool))

    def storage_of(self, column: str) -> str:
        try:
            return self.column_types[self.column_names.index(column)]
        except ValueError:
            raise CatalogError(
                f"table {self.name!r} has no column {column!r}",
                sqlstate="42703",
            ) from None

    def append_columns(
        self, data: dict[str, list[Any] | Vector], n_new: int
    ) -> None:
        """The one append: ``data`` maps provided column names to equally
        long value lists or typed vectors (COPY's :class:`CsvColumn`
        output); absent serial columns are auto-numbered, other absent
        columns fill with NULL.

        Only the new batch is coerced (column-at-a-time, to the declared
        storage class and straight into the stored form: text into codes
        of the column's own dictionary), then concatenated onto the
        existing arrays, so the cost is O(batch) Python plus one memcpy;
        a typed vector is stacked on through :func:`concat_vectors`, or
        taken as it is by an empty table.  Every column gets a fresh
        vector — catalog clones, view snapshots and results keep the old
        ones.
        """
        for name, storage in zip(self.column_names, self.column_types):
            old = self.columns[name]
            raw = data.get(name)
            if raw is not None and len(raw) != n_new:
                raise SQLExecutionError(
                    f"COPY column {name!r} has {len(raw)} values, "
                    f"expected {n_new}"
                )
            if isinstance(raw, Vector):
                self.columns[name] = (
                    concat_vectors([old, raw]) if self.n_rows else raw
                )
                continue
            if raw is None and storage == "serial":
                counter = self._next_serial.get(name, 0)
                values = np.arange(counter, counter + n_new, dtype=np.float64)
                self._next_serial[name] = counter + n_new
                new = Vector(values, np.zeros(n_new, dtype=bool))
            else:
                new = _coerce_column(
                    [None] * n_new if raw is None else raw, storage, old
                )
            self.columns[name] = (
                concat_vectors([old, new]) if new.elements is not None
                else Vector(
                    np.concatenate((old.values, new.values)),
                    np.concatenate((old.nulls, new.nulls)),
                    new.dictionary,
                )
            )
        self.n_rows += n_new

    def append_rows(self, rows: list[dict[str, Any]]) -> None:
        """Append row dicts sharing one key set (INSERT, and through it
        replicated apply and WAL replay): the batch is transposed into
        :meth:`append_columns`, which converts each cell to its column's
        storage class."""
        if not rows:
            return
        data = {
            name: [row[name] for row in rows]
            for name in self.column_names
            if name in rows[0]
        }
        self.append_columns(data, len(rows))

    def patch_column(
        self, name: str, positions: np.ndarray, cells: list[Any]
    ) -> None:
        """Replace the cells of column *name* at *positions* (UPDATE).

        The new cells are coerced like appended ones and written into a
        copy of the column; the old vector stays untouched for the
        catalog clones and view snapshots sharing it."""
        storage = self.storage_of(name)
        old = self.columns[name]
        patch = _coerce_column(cells, storage, old)
        if patch.elements is not None:
            # arrays: the old rows with the patched ones' runs taken instead
            rows = np.arange(len(old))
            rows[positions] = len(old) + np.arange(len(positions))
            self.columns[name] = compact(
                gather(concat_vectors([old, patch]), rows)
            )
            return
        values, nulls = old.values.copy(), old.nulls.copy()
        values[positions] = patch.values
        nulls[positions] = patch.nulls
        self.columns[name] = Vector(values, nulls, patch.dictionary)


# -- secondary indexes --------------------------------------------------------


_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)


@dataclass
class Index:
    """A secondary index over one base table: one sorted run.

    ``key_arrays`` holds one array per key column (float64 for numbers
    and booleans, ``str`` objects for text), the non-null keys in
    ascending lexicographic order, next to ``positions``, their row
    positions — ascending within equal full keys (stable sorts).  One
    shape serves one column and composite keys alike (``USING btree`` and
    ``USING hash`` are spellings of it).  Rows with a NULL in any key
    column are not indexed — SQL equality never matches them, and
    PostgreSQL's unique indexes likewise admit repeated NULLs.

    An ``Index`` is immutable once built: maintenance *replaces* the whole
    object, sharing no array it would have to write into (see
    :meth:`Catalog.refresh_indexes`), the same copy-on-write
    contract the column vectors follow, which is what makes catalog
    clones (:meth:`Catalog.snapshot`) valid by sharing.

    Positions are physical row numbers (== ``ctid``), so every lookup
    returns ascending positions and a gather reproduces exactly the rows —
    in exactly the order — a full scan plus filter would produce.
    """

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool
    #: table row count at build time (consistency guard for executors)
    n_rows: int
    key_arrays: tuple[np.ndarray, ...]
    positions: np.ndarray

    def eq_positions(self, key: tuple) -> np.ndarray:
        """Ascending positions of rows whose key equals *key* (one value
        per key column)."""
        lo, hi = _equal_span(self.key_arrays, key)
        return self.positions[lo:hi]

    def in_positions(self, keys: tuple) -> np.ndarray:
        """Ascending positions matching any of *keys* (IN-list probe of a
        one-column index)."""
        parts = [self.eq_positions((key,)) for key in keys]
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
        """Ascending positions with the first key column in the given
        range.

        ``None`` bounds are open; inclusivity follows the flags.
        """
        keys = self.key_arrays[0]
        start = 0 if lo is None else int(keys.searchsorted(
            _probe_key(keys, lo), side="left" if lo_inclusive else "right"
        ))
        stop = len(keys) if hi is None else int(keys.searchsorted(
            _probe_key(keys, hi), side="right" if hi_inclusive else "left"
        ))
        if stop <= start:
            return _EMPTY_POSITIONS
        return np.sort(self.positions[start:stop])


def _probe_key(keys: np.ndarray, value: Any) -> Any:
    """*value* as *keys* store it: text as it is, a number (or boolean)
    as float64.  The planner probes only with values of the column's
    storage class (:func:`probe_compatible`)."""
    return value if keys.dtype == object else float(value)


def _equal_span(
    key_arrays: tuple[np.ndarray, ...], key: tuple
) -> tuple[int, int]:
    """The span of a sorted run whose keys equal *key* (empty at its
    insertion point when none does): a bisect pair on the first column,
    then one pair per further column inside the previous span."""
    keys = key_arrays[0]
    value = _probe_key(keys, key[0])
    lo = int(keys.searchsorted(value, side="left"))
    hi = int(keys.searchsorted(value, side="right"))
    for keys, value in zip(key_arrays[1:], key[1:]):
        run = keys[lo:hi]
        value = _probe_key(keys, value)
        lo, hi = (
            lo + int(run.searchsorted(value, side="left")),
            lo + int(run.searchsorted(value, side="right")),
        )
    return lo, hi


#: storage classes whose scan-filter comparison semantics match an index
#: probe for a numeric (or boolean) value
_NUMERIC_STORAGE = {"int", "serial", "float", "bool"}


def probe_compatible(value: Any, storage: str) -> bool:
    """True when probing an index on a *storage*-class column with
    *value* provably returns the same rows a scan + compare would.

    Mixed-type comparisons are the divergence hazard: ``text_col < 5``
    string-compares on a scan but cannot bisect a key array of ``str``,
    so cross-class probes are simply never taken.
    """
    if value is None:
        return False
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return storage in _NUMERIC_STORAGE
    if isinstance(value, str):
        return storage == "text"
    return False


def _check_index_method(method: Optional[str]) -> None:
    """``btree`` and ``hash`` — PostgreSQL's access method names — both
    name the one sorted index."""
    if method not in (None, "btree", "hash"):
        raise CatalogError(
            f'access method "{method}" does not exist', sqlstate="42704"
        )


def _key_vectors(table: Table, columns: tuple[str, ...]) -> list[Vector]:
    vectors = []
    for column in columns:
        if table.storage_of(column) == "array":
            raise CatalogError(
                f"cannot index array column {column!r} of table "
                f"{table.name!r}",
                sqlstate="0A000",
            )
        vectors.append(table.columns[column])
    return vectors


def _indexed_positions(vectors: list[Vector], start: int) -> np.ndarray:
    """Positions >= *start* whose key has no NULL part (the indexed rows)."""
    present = ~vectors[0].nulls[start:]
    for vector in vectors[1:]:
        present = present & ~vector.nulls[start:]
    return present.nonzero()[0].astype(np.int64, copy=False) + start


def _unique_violation(
    name: str, columns: tuple[str, ...], key_arrays: tuple[np.ndarray, ...],
    at: int,
) -> UniqueViolation:
    key = ", ".join(repr(to_python(keys[at])) for keys in key_arrays)
    return UniqueViolation(
        f"duplicate key value violates unique index {name!r}: "
        f"({', '.join(columns)})=({key})"
    )


def _sorted_entries(
    vectors: list[Vector], positions: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The keys at *positions*, one array per key column, in ascending
    lexicographic order (position-ascending within equal keys) next to
    their positions.  A stored column holds one storage class and arrays
    are not indexed (:func:`_key_vectors`), so every key array is float64
    or all ``str``: the stable sorts cannot meet incomparable values."""
    key_arrays = [
        vector.dictionary[vector.values[positions]] if vector.is_text
        else vector.values[positions].astype(np.float64, copy=False)
        for vector in vectors
    ]
    # least significant column first: each stable sort keeps the order
    # of the columns after it among equal keys
    order = key_arrays[-1].argsort(kind="stable")
    for keys in key_arrays[-2::-1]:
        order = order[keys[order].argsort(kind="stable")]
    return tuple([keys[order] for keys in key_arrays]), positions[order]


def _equal_rows(
    left: Sequence[np.ndarray], right: Sequence[np.ndarray]
) -> np.ndarray:
    """Row-wise: whether the full keys of *left* and *right* are equal."""
    equal = left[0] == right[0]
    for a, b in zip(left[1:], right[1:]):
        equal &= a == b
    return equal


def _merged(old: np.ndarray, new: np.ndarray, at: np.ndarray) -> np.ndarray:
    """*old* with each of *new* inserted before ``old[at[j]]`` (*at*
    ascending, as bisecting sorted keys gives it): one slice
    concatenation when the batch lands in one gap (a single row always
    does), one scatter otherwise.  Index arrays are never written, so an
    empty batch shares *old*."""
    if not len(new):
        return old
    if at[0] == at[-1]:
        cut = int(at[0])
        return np.concatenate((old[:cut], new, old[cut:]))
    slots = at + np.arange(len(new))
    merged = np.empty(len(old) + len(new), dtype=old.dtype)
    merged[slots] = new
    rest = np.ones(len(merged), dtype=bool)
    rest[slots] = False
    merged[rest] = old
    return merged


def build_index(
    name: str,
    table: Table,
    columns: tuple[str, ...],
    unique: bool,
) -> Index:
    """Build a fresh index over *table*'s current rows.

    Raises :class:`UniqueViolation` (SQLSTATE 23505) when ``unique`` and
    the data already holds duplicate non-null keys — the CREATE UNIQUE
    INDEX validation, the constraint check of every DML statement that
    rebuilds (see :meth:`Catalog.refresh_indexes`), and the oracle that
    :func:`extend_index` is tested against.
    """
    vectors = _key_vectors(table, columns)
    key_arrays, positions = _sorted_entries(
        vectors, _indexed_positions(vectors, 0)
    )
    if unique and len(positions) > 1:
        duplicated = _equal_rows(
            [keys[1:] for keys in key_arrays],
            [keys[:-1] for keys in key_arrays],
        )
        if duplicated.any():
            raise _unique_violation(
                name, columns, key_arrays, int(np.flatnonzero(duplicated)[0])
            )
    return Index(
        name, table.name, columns, unique, table.n_rows, key_arrays, positions
    )


def extend_index(index: Index, table: Table) -> Index:
    """A new index covering *table* after an append: rows
    ``index.n_rows..`` are new, the earlier ones are exactly what *index*
    was built over.

    Field for field what :func:`build_index` returns for the grown table,
    at the cost of the batch and a fixed number of numpy calls: the
    sorted new keys are bisected into the old first column in one call,
    and only a composite key whose first part equals an old one narrows
    further, column by column inside that span (:func:`_equal_span`).
    Going after equal keys keeps equal keys position-ascending, since
    new positions exceed every old one.  Uniqueness is checked against
    each new key's left neighbour and its batch predecessor, and the
    grown arrays are built with :func:`_merged`.  *index* itself is
    never written; a unique violation — against the old keys or inside
    the batch — raises before anything is built.
    """
    name, columns, old = index.name, index.columns, index.key_arrays
    vectors = _key_vectors(table, columns)
    keys, positions = _sorted_entries(
        vectors, _indexed_positions(vectors, index.n_rows)
    )
    at = old[0].searchsorted(keys[0], side="right")
    if len(columns) > 1:
        collided = old[0].searchsorted(keys[0], side="left") < at
        for j in collided.nonzero()[0].tolist():
            at[j] = _equal_span(old, tuple(k[j] for k in keys))[1]
    if index.unique:
        # the one old key that can equal a new key is left of its
        # insertion point (at 0 that is the largest key: greater)
        duplicated = (
            _equal_rows([k[at - 1] for k in old], keys)
            if len(index.positions) else np.zeros(len(positions), dtype=bool)
        )
        if len(positions) > 1:
            duplicated[1:] |= _equal_rows(
                [k[1:] for k in keys], [k[:-1] for k in keys]
            )
        if np.count_nonzero(duplicated):
            raise _unique_violation(
                name, columns, keys, int(duplicated.nonzero()[0][0])
            )
    return Index(
        name, table.name, columns, index.unique, table.n_rows,
        tuple([_merged(o, k, at) for o, k in zip(old, keys)]),
        _merged(index.positions, positions, at),
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
    if vec.is_array:  # distinct arrays by representation
        arrays = [repr(c) for c in python_cells(vec) if c is not None]
        return ColumnStats(n_nulls, null_fraction, len(set(arrays)))
    values = vec.values[~vec.nulls]
    if len(values) == 0:
        return ColumnStats(n_nulls, null_fraction, 0)
    if vec.is_text:
        values = vec.dictionary[values]
    kind = values.dtype.kind
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
    distinct = set(values.tolist())
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
    #: the query's source text, which checkpoints store
    sql: str = ""
    #: populated on first use for materialised views: (schema names, vectors)
    snapshot: Optional[tuple[list[str], dict[str, Vector], int]] = None
    #: every relation name the query's text references, walked once here
    #: so a write finds its dependent views without re-walking their ASTs
    relations: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        self.relations = referenced_relations(self.query)


def referenced_relations(select: ast.Select) -> frozenset[str]:
    """All table/view/CTE names a SELECT references (transitively in its
    own text, not through the catalog)."""
    return frozenset(
        node.name for node in ast.walk(select) if type(node) is ast.NamedTable
    )


@dataclass(frozen=True)
class TrainedModel:
    """A fitted model stored in the catalog by ``TRAIN``.

    Frozen and built entirely from immutable values (tuples, floats,
    strings), so models follow the same copy-on-write contract as
    :class:`Index`: catalog clones share the object by reference,
    and retraining *replaces* it wholesale.

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


#: unique ids for catalog clones; the committed catalog is always uid 0,
#: so plan-cache entries built against a transaction's clone can never
#: collide with each other or with committed-state ones
_clone_ids = itertools.count(1)


def _shallow_copy(obj):
    """A shallow copy that skips ``__init__`` / ``__post_init__``: what
    is copied passed those checks when it was created."""
    clone = object.__new__(type(obj))
    clone.__dict__ = obj.__dict__.copy()
    return clone


class Catalog:
    """Name → table/view registry with PostgreSQL-style single namespace.

    Its state has one copy primitive: :meth:`snapshot` clones it and
    :meth:`restore` copies a clone (or a decoded checkpoint) back."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, View] = {}
        #: 0 for a committed catalog, unique per clone (part of the
        #: plan-cache key: two transactions' clones at the same
        #: schema_version may have diverged)
        self.uid = 0
        #: per-relation last-write version (the id of the most recent
        #: commit that wrote it, kept as a tombstone across DROP); MVCC
        #: first-committer-wins compares these at COMMIT
        self.table_versions: dict[str, int] = {}
        #: monotonically increasing counter, bumped on every change that can
        #: invalidate a cached plan: DDL, a restore that undid some, a
        #: replica snapshot install — never by row-changing statements
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

    # -- copy-on-write clones ------------------------------------------------

    def snapshot(self) -> "Catalog":
        """A detached copy-on-write clone, O(relations + columns): fresh
        ``Table``/``View`` objects over the same column vectors and view
        snapshots, sharing the immutable indexes, statistics and models
        — sound because every mutation path *replaces* what it changes
        and never writes into it.  The clone keeps this catalog's
        versions and ``table_versions`` under a fresh ``uid``: it is a
        transaction's catalog, a statement's or savepoint's undo image
        (:meth:`restore`), a replica export."""
        clone = _shallow_copy(self)
        clone.uid = next(_clone_ids)
        clone.table_versions = dict(self.table_versions)
        clone._copy_state(self)
        return clone

    def restore(self, other: "Catalog") -> None:
        """Make this catalog hold a copy of *other*'s relations,
        statistics, indexes and models (so *other* can be restored
        again).  ``uid`` and ``table_versions`` stay this catalog's own.

        Versions never rewind: when *other* was taken at different
        versions, ``index_epoch`` and ``schema_version`` take a fresh
        monotonic bump, so plans cached since the capture can never be
        served again (version values are never reused)."""
        changed = (
            self.schema_version != other.schema_version
            or self.stats_version != other.stats_version
            or self.index_epoch != other.index_epoch
        )
        if self.index_epoch != other.index_epoch:
            self.index_epoch += 1
        if changed:
            self.bump_version()
        self._copy_state(other)

    def _copy_state(self, source: "Catalog") -> None:
        """The one list of catalog state a clone or restore copies (a
        clone's scalar fields come with its shallow copy)."""
        self._tables = {}
        for name, table in source._tables.items():
            clone = self._tables[name] = _shallow_copy(table)
            clone.column_names = list(table.column_names)
            clone.column_types = list(table.column_types)
            clone.columns = dict(table.columns)
            clone._next_serial = dict(table._next_serial)
        # a view's one changing field, its snapshot, is replaced, not written
        self._views = {
            name: _shallow_copy(view) for name, view in source._views.items()
        }
        self._table_stats = dict(source._table_stats)
        self._indexes = dict(source._indexes)
        self._models = dict(source._models)

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

    def export_records(self) -> Iterator[dict]:
        """The catalog as JSON records, tables first: the body of a
        checkpoint and of a replica snapshot (the inverse of
        :func:`decode_records`).  A table's or materialised view's
        columns are :mod:`~repro.sqldb.colcodec` headers under ``"data"``
        plus their buffers as bytes under ``"blob"``.  An index is stored
        as its definition and rebuilt on load; a materialised view's
        snapshot is stored as it is, since it can outlive a dropped
        input."""
        for table in self._tables.values():
            headers, buffers = colcodec.encode(
                [table.columns[c] for c in table.column_names]
            )
            yield {
                "t": "table",
                "name": table.name,
                "columns": table.column_names,
                "types": table.column_types,
                "rows": table.n_rows,
                "serial": table._next_serial,
                "data": headers,
                "blob": b"".join(buffers),
            }
        for view in self._views.values():
            record = {
                "t": "view",
                "name": view.name,
                "sql": view.sql,
                "materialized": view.materialized,
                "snapshot": None,
            }
            if view.snapshot is not None:
                names, data, length = view.snapshot
                headers, buffers = colcodec.encode([data[n] for n in names])
                record["snapshot"] = {
                    "columns": names, "rows": length, "data": headers,
                }
                record["blob"] = b"".join(buffers)
            yield record
        for stats in self._table_stats.values():
            yield {"t": "stats", **asdict(stats)}
        for index in self._indexes.values():
            yield {
                "t": "index",
                "name": index.name,
                "table": index.table,
                "columns": index.columns,
                "unique": index.unique,
            }
        for model in self._models.values():
            yield {"t": "model", **asdict(model)}

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

    def _claim(self, name: str, replacing: Optional[dict] = None) -> None:
        """Raise 42P07 unless *name* is free in the one namespace tables,
        views, indexes and models share (an entry of the *replacing*
        store may be overwritten)."""
        for store in (self._tables, self._views, self._indexes, self._models):
            if name in store and store is not replacing:
                raise CatalogError(
                    f"relation {name!r} already exists", sqlstate="42P07"
                )

    def create_table(self, table: Table) -> None:
        self._claim(table.name)
        self._tables[table.name] = table
        self.bump_version()

    def create_view(self, view: View) -> None:
        self._claim(view.name)
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
        """Register a freshly built index."""
        self._claim(index.name)
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
        replaces the ``Index`` objects (copy-on-write: clones taken
        earlier keep the old ones), and a
        :class:`UniqueViolation` raises *before* any index is swapped in —
        the engine's statement undo clone then rolls the data change
        back too.
        """
        table = self._tables[table_name]
        fresh = []
        for ix in self.indexes_on(table_name):
            if appended:
                fresh.append(extend_index(ix, table))
            elif assigned is None or not set(assigned).isdisjoint(ix.columns):
                fresh.append(build_index(ix.name, table, ix.columns, ix.unique))
        for index in fresh:
            self._indexes[index.name] = index

    # -- trained models ------------------------------------------------------

    def create_model(self, model: TrainedModel) -> None:
        """Store a fitted model (retraining an existing model name
        replaces it)."""
        self._claim(model.name, replacing=self._models)
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


# -- checkpoint records -------------------------------------------------------


def _columns_from(columns: dict, blob: Any) -> dict[str, Vector]:
    """The named vectors of a table record or materialised-view snapshot
    (*columns*: its names, row count and column headers) read from the
    record's *blob*."""
    names, headers, rows = columns["columns"], columns["data"], columns["rows"]
    if type(names) is not list or type(headers) is not list:
        raise ValueError("column names or headers that are not lists")
    if len(headers) != len(names):
        raise ValueError(f"{len(headers)} columns under {len(names)} names")
    if not isinstance(blob, bytes):
        raise ValueError("a column record without its buffers")
    return dict(zip(names, colcodec.decode(headers, rows, blob)))


def _table_from(record: dict) -> Table:
    columns = _columns_from(record, record.get("blob"))
    types = record["types"]
    if len(types) != len(columns):
        raise ValueError(f"{len(types)} types for {len(columns)} columns")
    for storage, (name, vector) in zip(types, list(columns.items())):
        if storage not in CELL_RULES:
            raise ValueError(f"unknown storage class {storage!r}")
        if storage == "array" and vector.values.dtype == object:
            # an older checkpoint's array column as JSON cells: lists, or
            # the literal text COPY and INSERT kept (22P02 if not one)
            vector = columns[name] = _coerce_column(vector.tolist(), storage)
        empty = _coerce_column([], storage)  # the class's stored form
        if (
            vector.values.dtype != empty.values.dtype
            or vector.is_text != empty.is_text
            or vector.is_array != empty.is_array
        ):
            raise ValueError(
                f"a {storage} column stored as {vector.values.dtype}"
            )
    return Table(
        record["name"], record["columns"], types, columns, record["rows"],
        record["serial"],
    )


def _tuples(value: Any) -> Any:
    """JSON lists back to the tuples a :class:`TrainedModel` is built of."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def decode_records(records: Iterable[dict]) -> Catalog:
    """The catalog :meth:`Catalog.export_records` wrote, ready for
    :meth:`Catalog.restore`.  Views are parsed from their text and
    indexes rebuilt over their tables.  A record of the wrong shape
    raises :class:`DurabilityError`, before anything is restored."""
    catalog = Catalog()
    tables, views = catalog._tables, catalog._views
    stats, indexes, models = (
        catalog._table_stats, catalog._indexes, catalog._models
    )
    try:
        for record in records:
            kind = record["t"]
            if kind == "table":
                tables[record["name"]] = _table_from(record)
            elif kind == "view":
                query = parse_statement(record["sql"])
                if not isinstance(query, ast.Select):
                    raise ValueError("a view's text is not a query")
                view = View(
                    record["name"], query, record["materialized"], record["sql"]
                )
                snapshot = record["snapshot"]
                if snapshot is not None:
                    view.snapshot = (
                        snapshot["columns"],
                        _columns_from(snapshot, record.get("blob")),
                        snapshot["rows"],
                    )
                views[view.name] = view
            elif kind == "stats":
                columns = {
                    name: ColumnStats(**fields)
                    for name, fields in record["columns"].items()
                }
                stats[record["table"]] = TableStats(
                    record["table"], record["n_rows"], columns,
                    record["schema_version"],
                )
            elif kind == "index":
                indexes[record["name"]] = build_index(
                    record["name"], tables[record["table"]],
                    tuple(record["columns"]), record["unique"],
                )
            elif kind == "model":
                fields = {k: _tuples(v) for k, v in record.items() if k != "t"}
                models[record["name"]] = TrainedModel(**fields)
            else:
                raise ValueError(f"unknown record type {kind!r}")
    except (
        LookupError, TypeError, ValueError, ArithmeticError, AttributeError,
        RecursionError, SQLError,
    ) as exc:
        raise DurabilityError(f"malformed catalog record ({exc!r})") from None
    return catalog
