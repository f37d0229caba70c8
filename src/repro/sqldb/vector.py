"""Column vector model of the SQL engine.

A :class:`Vector` is a pair of numpy arrays, ``values`` and a boolean
``nulls`` mask, plus a ``dictionary`` for text and an ``elements`` vector
for arrays.  Numeric vectors store float64 (ints are widened) and booleans
store bool.  Text stores int32 codes into its dictionary: an object array
of *distinct* strings, kept in first-occurrence, append-only order and
never sorted, which may hold entries no row uses (after a filter, DELETE
or rollback).  Equal text has equal codes, so factorising a text key is a
read of its codes.  A code under NULL is any valid index (0 when the
dictionary is empty).

An array column is int64 ``(start, end)`` entries in ``values`` (shape
``(n, 2)``) over one element vector: row *i* holds
``elements[start:end]``, and a NULL row holds none (DuckDB's LIST layout:
offset and length entries over one child vector).  Elements follow the
ordinary storage rules (float64, coded text, bool, arrays of arrays), and
only genuinely mixed-type elements store object.  A row take (filter,
join, CASE, the postgres profile's copy) takes the entries and shares the
elements; an array kernel — ``array_agg``, ``unnest``, ``||`` — is
arithmetic on the entries plus one take of the elements, whose result is
*compact* (the rows' runs back to back, in row order: :func:`compact`).
Python lists exist only in :func:`python_cells`, at the boundary.
Genuinely mixed-type cells (and nothing else) store object.  All engine
operators exchange vectors, which keeps SQL three-valued logic explicit.

Scalar kernels whose work is Python per value (text functions, mixed-type
fallbacks) go through :func:`per_distinct`, which calls the kernel once
per distinct input tuple — per *used* dictionary entry for text — and
gathers the results to rows.  Text is decoded to ``str`` objects only at
the boundary (:func:`python_cells`, index builds), with one ``take`` of
the dictionary.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.errors import CatalogError, SQLExecutionError

__all__ = [
    "CELL_RULES",
    "STORAGE_CLASSES",
    "Vector",
    "assign",
    "cell_text",
    "normalise_type",
    "pg_text",
    "from_values",
    "constant",
    "gather",
    "concat_vectors",
    "align",
    "array_column",
    "array_lengths",
    "array_runs",
    "array_vector",
    "cells",
    "choose",
    "compact",
    "coded_text",
    "dictionary_ranks",
    "extend_dictionary",
    "find_codes",
    "first_occurrence_codes",
    "first_occurrence_ranks",
    "per_distinct",
    "per_distinct_cells",
    "text_vector",
    "python_cells",
    "read_only",
    "to_python",
    "to_rows",
]


#: integral floats in [-2**63, 2**63) surface as ``int`` (like psycopg2's
#: INT columns); beyond it they stay the float they are (an int64 cast
#: would wrap 1e19 to -2**63).  The one cell rule of ``to_python`` and
#: ``python_cells``.
_INT64_LOW, _INT64_HIGH = -(2.0 ** 63), 2.0 ** 63


def to_python(value: Any) -> Any:
    """The Python value of one stored cell: numpy scalars unwrapped, and
    integral numpy floats in the int64 range as ``int`` (``Vector.item``
    without the null)."""
    if isinstance(value, np.floating):
        x = float(value)
        return int(x) if x.is_integer() and _INT64_LOW <= x < _INT64_HIGH else x
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


@dataclass
class Vector:
    """A column of SQL values with an explicit null mask; text holds
    int32 codes into *dictionary*, an array int64 ``(start, end)``
    entries into *elements* (see the module docstring)."""

    values: np.ndarray
    nulls: np.ndarray
    dictionary: Optional[np.ndarray] = None
    elements: Optional["Vector"] = None

    def __post_init__(self) -> None:
        if len(self.values) != len(self.nulls):
            raise SQLExecutionError("vector values/nulls length mismatch")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_bool(self) -> bool:
        return self.values.dtype.kind == "b"

    @property
    def is_text(self) -> bool:
        return self.dictionary is not None

    @property
    def is_array(self) -> bool:
        return self.elements is not None

    def copy(self) -> "Vector":
        # a dictionary or element vector is never written in place: shared
        return Vector(
            self.values.copy(), self.nulls.copy(), self.dictionary, self.elements
        )

    def item(self, i: int) -> Any:
        """Python value at row *i* (None when null)."""
        if self.nulls[i]:
            return None
        if self.dictionary is not None:
            return self.dictionary[self.values[i]]
        if self.elements is not None:
            return python_cells(gather(self, np.array([i])))[0]
        return to_python(self.values[i])

    def tolist(self) -> list:
        if self.elements is not None:
            return python_cells(self)
        return [self.item(i) for i in range(len(self))]


def cells(vector: Vector) -> np.ndarray:
    """The stored cells of *vector* as one array: text decoded with one
    ``take`` of its dictionary (the boundary decode), arrays as one
    Python list a row (a decode for object-level fallbacks, never
    stored), any other vector's values as they are.  Cells under NULL
    are unspecified."""
    if vector.elements is not None:
        return _object_array(python_cells(vector))
    if vector.dictionary is None:
        return vector.values
    if not len(vector.dictionary):
        return np.full(len(vector), None, dtype=object)
    return vector.dictionary.take(vector.values)


def _object_array(items: Sequence[Any]) -> np.ndarray:
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


def python_cells(vector: Vector) -> np.ndarray | list:
    """The cells of one result column as Python values (None under NULL):
    what a fetched row holds in that column, by ``to_python``'s rule.
    Array cells are fresh lists: the caller gets its own, never one
    another row (or the engine) holds."""
    if vector.elements is not None:
        return _array_cells(vector)
    values = vector.values
    if vector.dictionary is not None:
        as_object = cells(vector)
    elif values.dtype.kind == "f":
        as_object = values.astype(object)
        integral = _integral(values)
        if integral.any():
            as_object[integral] = values[integral].astype(np.int64)
    elif values.dtype.kind == "b":
        as_object = values.astype(object)
    else:
        as_object = values.copy()
    if vector.nulls.any():
        as_object[vector.nulls] = None
    if values.dtype == object and list in set(map(type, as_object)):
        return [
            list(cell) if type(cell) is list else cell for cell in as_object
        ]
    return as_object


def _element_cells(elements: Vector) -> list:
    """The Python values of an element vector, as a list (numpy scalars
    in mixed-type elements unwrapped too)."""
    items = python_cells(elements)
    if type(items) is list:
        return items
    if elements.values.dtype == object:
        return list(map(to_python, items))
    return items.tolist()


def _integral(values: np.ndarray) -> np.ndarray:
    """Where float64 *values* are integers ``to_python`` returns as int."""
    return (
        (np.floor(values) == values)
        & (values >= _INT64_LOW)
        & (values < _INT64_HIGH)
    )


def _array_cells(vector: Vector) -> list:
    """:func:`python_cells` of an array vector.  Arrays of one length
    (one-hot vectors) are one C-level ``tolist`` of their elements as a
    matrix, integral numbers straight from int64; any other array slices
    one list of every element.  Either way each row gets a fresh list."""
    vector = compact(vector)
    elements, lengths = vector.elements, array_lengths(vector)
    n = len(lengths)
    if (
        n
        and lengths[0]
        and elements.elements is None
        and elements.values.dtype != object
        and (lengths == lengths[0]).all()
    ):
        values = elements.values
        if values.dtype.kind == "f" and _integral(values).all():
            return values.astype(np.int64).reshape(n, -1).tolist()
        return python_cells(elements).reshape(n, -1).tolist()
    items = _element_cells(elements)
    out = list(map(items.__getitem__, map(slice, *vector.values.T.tolist())))
    for i in np.flatnonzero(vector.nulls).tolist():
        out[i] = None
    return out


def read_only(vector: Vector) -> Vector:
    """A read-only view of *vector*: what a ``Result`` hands out, so no
    caller can write the arrays behind it."""
    values, nulls = vector.values.view(), vector.nulls.view()
    values.flags.writeable = nulls.flags.writeable = False
    dictionary = vector.dictionary
    if dictionary is not None:  # shared with the table it came from
        dictionary = dictionary.view()
        dictionary.flags.writeable = False
    elements = vector.elements
    if elements is not None:
        elements = read_only(elements)
    return Vector(values, nulls, dictionary, elements)


def to_rows(vectors: Sequence[Vector]) -> list[tuple]:
    """Row tuples of Python values over equally long result columns: the
    one conversion behind every ``Result.rows``, in-process or fetched
    over the wire."""
    return list(zip(*map(python_cells, vectors))) if vectors else []


# ---------------------------------------------------------------------------
# arrays: int64 (start, end) entries over one element vector
# ---------------------------------------------------------------------------


def array_runs(vector: Vector) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``(start, end)`` run of an array vector's elements, as
    two int64 arrays (an empty run under NULL)."""
    return vector.values[:, 0], vector.values[:, 1]


def array_lengths(vector: Vector) -> np.ndarray:
    """Each row's element count (0 under NULL) of an array vector."""
    starts, ends = array_runs(vector)
    return ends - starts


def _no_elements() -> Vector:
    return Vector(np.zeros(0), np.zeros(0, dtype=bool))


def array_column(
    lengths: np.ndarray, nulls: np.ndarray, elements: Vector
) -> Vector:
    """The compact array vector whose rows hold *lengths* elements each,
    back to back in *elements*."""
    ends = np.cumsum(lengths, dtype=np.int64)
    return Vector(np.column_stack((ends - lengths, ends)), nulls, None, elements)


def array_vector(items: Sequence[Any]) -> Vector:
    """The array vector of Python lists (None is a NULL row); elements
    are typed like :func:`from_values` cells, all-NULL ones as numbers."""
    nulls = np.fromiter((c is None for c in items), bool, len(items))
    lengths = np.fromiter(
        (0 if c is None else len(c) for c in items), np.int64, len(items)
    )
    flat = list(itertools.chain.from_iterable(c for c in items if c is not None))
    elements = from_values(flat)
    if elements.values.dtype == object and elements.nulls.all():
        elements = Vector(np.full(len(flat), np.nan), elements.nulls)
    return array_column(lengths, nulls, elements)


def _run_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions of runs ``[start, start + length)`` laid end to end:
    one ``repeat`` plus an ``arange``."""
    ends = np.cumsum(lengths, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        total, dtype=np.int64
    )


def compact(vector: Vector) -> Vector:
    """An array vector whose elements are its rows' runs back to back, in
    row order: *vector* itself when it is, else one take of its runs (a
    row take shares elements, so a filtered or reordered array is not)."""
    starts, ends = vector.values[:, 0], vector.values[:, 1]
    last = int(ends[-1]) if len(ends) else 0
    if (
        last == len(vector.elements)
        and (starts[:1] == 0).all()
        and (starts[1:] == ends[:-1]).all()
    ):
        return vector
    lengths = ends - starts
    return array_column(
        lengths, vector.nulls,
        gather(vector.elements, _run_index(starts, lengths)),
    )


def _as_arrays(parts: Sequence[Vector]) -> list[Vector]:
    """*parts* as array vectors: an all-NULL non-array part becomes NULL
    arrays; a non-array part holding a value is a type error."""
    out = []
    for part in parts:
        if part.elements is None:
            if not part.nulls.all():
                raise SQLExecutionError(
                    "arrays and non-array values cannot be matched",
                    sqlstate="42804",
                )
            part = array_column(
                np.zeros(len(part), np.int64), part.nulls, _no_elements()
            )
        out.append(part)
    return out


def choose(vectors: Sequence[Vector], which: np.ndarray) -> Vector:
    """Row *i* of ``vectors[which[i]]``, NULL where *which* is -1 (the
    vectors are as long as *which*): CASE and ``coalesce`` over arrays,
    as one concatenation and one gather."""
    n = len(which)
    if not vectors:
        return constant(None, n)
    positions = np.where(which < 0, -1, which * n + np.arange(n))
    return gather(concat_vectors(list(vectors)), positions, missing_null=True)


# ---------------------------------------------------------------------------
# text dictionaries
# ---------------------------------------------------------------------------

#: ``id(dictionary) -> (weak reference, holder)``: the string -> code
#: lookup of a dictionary, built once.  A holder ``[lookup, length,
#: buffer]`` is shared along a chain of append-only extensions (each
#: dictionary a prefix of the next), so a code found is valid for a
#: dictionary only below its length; ``length`` is the longest dictionary
#: the lookup covers, and only that one may extend it in place.  The
#: chain's dictionaries are views of ``buffer``, which has spare
#: capacity behind ``length``: appending a string costs O(1).
_LOOKUPS: dict[int, tuple[weakref.ref, list]] = {}
#: serialises extensions: two sessions may extend one table's dictionary
_EXTENDING = threading.Lock()


def _remember(dictionary: np.ndarray, holder: list) -> None:
    key = id(dictionary)

    def forget(ref: weakref.ref, key: int = key) -> None:
        entry = _LOOKUPS.get(key)
        if entry is not None and entry[0] is ref:
            del _LOOKUPS[key]

    _LOOKUPS[key] = (weakref.ref(dictionary, forget), holder)


def _holder(dictionary: np.ndarray) -> list:
    entry = _LOOKUPS.get(id(dictionary))
    if entry is not None and entry[0]() is dictionary:
        return entry[1]
    lookup = dict(zip(dictionary.tolist(), range(len(dictionary))))
    holder = [lookup, len(dictionary), None]
    _remember(dictionary, holder)
    return holder


def find_codes(dictionary: np.ndarray, keys: Sequence[Any]) -> np.ndarray:
    """The code of each of *keys* in *dictionary*, -1 where absent."""
    lookup = _holder(dictionary)[0]
    k = len(dictionary)
    found = np.fromiter(
        map(lookup.get, keys, itertools.repeat(k)), np.int64, len(keys)
    )
    found[found >= k] = -1
    return found


def extend_dictionary(
    dictionary: np.ndarray, keys: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """*dictionary* with the new ones of (distinct) *keys* appended, and
    every key's code in it: the append-only merge."""
    k = len(dictionary)
    with _EXTENDING:
        holder = _holder(dictionary)
        lookup, owner = holder[0], holder[1] == k
        # a code at or past k belongs to a longer dictionary of the chain
        added = [key for key in keys if lookup.get(key, k) >= k]
        if not added:
            return dictionary, np.fromiter(
                map(lookup.__getitem__, keys), np.int32, len(keys)
            )
        size = k + len(added)
        if not owner:
            # another extension of this prefix owns the chain: copy
            extra = dict(zip(added, range(k, size)))
            merged = np.empty(size, dtype=object)
            merged[:k] = dictionary
            merged[k:] = added
            codes = [lookup.get(key, k) for key in keys]
            codes = [c if c < k else extra[key] for c, key in zip(codes, keys)]
            return merged, np.array(codes, dtype=np.int32)
        lookup.update(zip(added, range(k, size)))
        buffer = holder[2]
        if buffer is None or len(buffer) < size:
            buffer = holder[2] = np.empty(2 * size, dtype=object)
            buffer[:k] = dictionary
        # behind every view of the chain: no dictionary sees it
        buffer[k:size] = added
        dictionary = buffer[:size]
        holder[1] = size
        _remember(dictionary, holder)
        codes = np.fromiter(map(lookup.__getitem__, keys), np.int32, len(keys))
    return dictionary, codes


def text_vector(items: Sequence[Any], nulls: np.ndarray) -> Vector:
    """A text vector of *items* (``str``, or anything under NULL): one
    C-level pass numbers the strings in first-occurrence order."""
    known: defaultdict = defaultdict()
    known.default_factory = known.__len__
    codes = np.fromiter(map(known.__getitem__, items), np.int32, len(items))
    return coded_text(codes, nulls, list(known))


def coded_text(codes: np.ndarray, nulls: np.ndarray, keys: list) -> Vector:
    """The text vector of int32 *codes* into *keys*, numbered in first
    occurrence: a key only NULL rows hold (None, the NULL text) is no
    dictionary entry, so the entries after it are renumbered."""
    if np.count_nonzero(nulls):
        keep = np.zeros(len(keys), dtype=bool)
        keep[codes[~nulls]] = True
        if not keep.all():
            renumber = np.cumsum(keep, dtype=np.int32) - 1
            codes = np.where(nulls, 0, renumber[codes]).astype(np.int32)
            keys = [key for key, kept in zip(keys, keep.tolist()) if kept]
    return Vector(codes, nulls, _object_array(keys))


def _shared_codes(
    vectors: Sequence[Vector],
) -> tuple[Optional[np.ndarray], list[np.ndarray]]:
    """The dictionary and codes of :func:`align`'s text case, or
    ``(None, [])`` when its vectors are not all text or all-NULL."""
    merged = None
    for v in vectors:
        if v.dictionary is not None:
            if merged is None:
                merged = v.dictionary
        elif not v.nulls.all():
            return None, []
    if merged is None:
        return None, []
    # the first dictionary is a prefix of the merged one: its codes stay
    remaps: dict[int, Optional[np.ndarray]] = {id(merged): None}
    codes = []
    for v in vectors:
        if v.dictionary is None or not len(v.dictionary):
            codes.append(np.zeros(len(v), dtype=np.int32))
            continue
        key = id(v.dictionary)
        if key not in remaps:
            merged, remaps[key] = extend_dictionary(
                merged, v.dictionary.tolist()
            )
        remap = remaps[key]
        codes.append(v.values if remap is None else remap[v.values])
    return merged, codes


def align(vectors: Sequence[Vector]) -> list[Vector]:
    """*vectors* over one representation, for operators that mix their
    rows (UNION ALL, CASE, coalesce, UPDATE): text and all-NULL vectors
    become codes into one dictionary — the first text vector's, extended
    with the others' entries, so a table's dictionary stays append-only.
    When another vector holds non-NULL cells that are not text (numbers,
    arrays), the cells are genuinely mixed and text decodes to objects."""
    dictionary, codes = _shared_codes(vectors)
    if dictionary is not None:
        return [
            Vector(part, v.nulls, dictionary) for part, v in zip(codes, vectors)
        ]
    return [
        Vector(cells(v), v.nulls) if v.dictionary is not None else v
        for v in vectors
    ]


def dictionary_ranks(dictionary: np.ndarray) -> np.ndarray:
    """Each entry's rank in ascending string order (the k entries are
    sorted once; no two are equal)."""
    ranks = np.empty(len(dictionary), dtype=np.int64)
    ranks[np.argsort(dictionary, kind="stable")] = np.arange(len(dictionary))
    return ranks


def first_occurrence_ranks(
    codes: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Integer *codes* in ``[0, k)`` renumbered ``0, 1, ...`` in order of
    first occurrence, and the first position of each: a read of the
    codes, never of the values behind them."""
    n = len(codes)
    if k > 4 * n + 1024:
        # few rows over a large code space: sort the rows instead
        _, first, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return rank[inverse.reshape(-1)], first[order]
    first = np.full(k, n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
    used = np.flatnonzero(first < n)
    order = used[np.argsort(first[used], kind="stable")]
    rank = np.zeros(k, dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[codes], first[order]


def from_values(items: Iterable[Any]) -> Vector:
    """Build a vector from Python values, inferring the backing dtype."""
    items = list(items)
    nulls = np.array([v is None for v in items], dtype=bool)
    present = [v for v in items if v is not None]
    if present and all(isinstance(v, bool) for v in present):
        values = np.array([bool(v) if v is not None else False for v in items])
        return Vector(values, nulls)
    if present and all(
        isinstance(v, (int, float, np.integer, np.floating))
        and not isinstance(v, bool)
        for v in present
    ):
        values = np.array(
            [float(v) if v is not None else np.nan for v in items], dtype=np.float64
        )
        return Vector(values, nulls)
    if present and all(type(v) is str for v in present):
        return text_vector(items, nulls)
    if present and all(type(v) is list for v in present):
        return array_vector(items)
    return Vector(_object_array(items), nulls)


def constant(value: Any, length: int) -> Vector:
    """A vector repeating one value."""
    if value is None:
        return Vector(np.zeros(length), np.ones(length, dtype=bool))
    nulls = np.zeros(length, dtype=bool)
    if isinstance(value, bool):
        return Vector(np.full(length, value, dtype=bool), nulls)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Vector(np.full(length, float(value)), nulls)
    if type(value) is str:
        return Vector(
            np.zeros(length, dtype=np.int32), nulls, _object_array([value])
        )
    if type(value) is list:
        return gather(array_vector([value]), np.zeros(length, dtype=np.int64))
    values = np.empty(length, dtype=object)
    values[:] = [value] * length
    return Vector(values, nulls)


def gather(vector: Vector, positions: np.ndarray, missing_null: bool = False) -> Vector:
    """Reorder/duplicate rows by position; -1 yields null when allowed."""
    if vector.elements is not None:  # the entries; elements are shared
        if missing_null:
            hole = positions < 0
            if not len(vector):  # outer join against an empty side
                vector = _as_arrays([constant(None, 1)])[0]
            positions = np.where(hole, 0, positions)
        entries, nulls = vector.values[positions], vector.nulls[positions]
        if missing_null:
            entries[hole] = 0
            nulls = nulls | hole
        return Vector(entries, nulls, None, vector.elements)
    if missing_null:
        hole = positions < 0
        if len(vector) == 0:
            # outer join against an empty side: all positions are holes
            if vector.dictionary is not None:
                return Vector(
                    np.zeros(len(positions), dtype=np.int32),
                    np.ones(len(positions), dtype=bool),
                    vector.dictionary,
                )
            return Vector(
                np.full(len(positions), np.nan),
                np.ones(len(positions), dtype=bool),
            )
        safe = np.where(hole, 0, positions)
        values = vector.values[safe]
        nulls = vector.nulls[safe] | hole
        if values.dtype == object:
            values = values.copy()
            values[hole] = None
        return Vector(values, nulls, vector.dictionary)
    return Vector(
        vector.values[positions], vector.nulls[positions], vector.dictionary
    )


def concat_vectors(parts: list[Vector]) -> Vector:
    """Stack vectors vertically, reconciling dtypes (text parts meet in
    one dictionary: :func:`align`)."""
    if not parts:
        return from_values([])
    if any(p.elements is not None for p in parts):
        # each part's entries shifted past the elements before it
        parts = _as_arrays(parts)
        shifts = np.cumsum([0] + [len(p.elements) for p in parts[:-1]])
        return Vector(
            np.concatenate([p.values + shift for p, shift in zip(parts, shifts)]),
            np.concatenate([p.nulls for p in parts]),
            None,
            concat_vectors([p.elements for p in parts]),
        )
    if parts[0].dictionary is not None or any(
        p.dictionary is not None for p in parts
    ):
        dictionary, codes = _shared_codes(parts)
        if dictionary is not None:
            return Vector(
                np.concatenate(codes),
                np.concatenate([p.nulls for p in parts]),
                dictionary,
            )
        parts = align(parts)
    # an empty part (no elements in one partition) takes no part in typing
    kinds = {p.values.dtype.kind for p in parts if len(p)} or {
        p.values.dtype.kind for p in parts
    }
    if kinds <= {"f", "i", "u"}:
        values = np.concatenate(
            [p.values.astype(np.float64, copy=False) for p in parts]
        )
    elif kinds == {"b"}:
        values = np.concatenate([p.values.astype(bool, copy=False) for p in parts])
    else:
        # numbers become objects by to_python's rule: integral ones as int
        values = np.concatenate([
            python_cells(p) if p.values.dtype.kind == "f"
            else p.values.astype(object, copy=False)
            for p in parts
        ])
    nulls = np.concatenate([p.nulls for p in parts])
    return Vector(values, nulls)


# ---------------------------------------------------------------------------
# per-distinct evaluation of Python-level kernels
# ---------------------------------------------------------------------------


def first_occurrence_codes(
    keys: list, distinct: dict | None = None
) -> tuple[np.ndarray, int]:
    """Dense codes for *keys* numbered in first-occurrence order, and how
    many distinct keys there are (dict equality decides "distinct";
    *distinct* is ``dict.fromkeys(keys)`` when the caller has it)."""
    if distinct is None:
        distinct = dict.fromkeys(keys)
    n = len(distinct)
    # the two ends need no numbering pass: one key, or every key new
    if n <= 1:
        return np.zeros(len(keys), dtype=np.int64), n
    if n == len(keys):
        return np.arange(n, dtype=np.int64), n
    numbering = {key: code for code, key in enumerate(distinct)}
    codes = np.fromiter(
        map(numbering.__getitem__, keys), dtype=np.int64, count=len(keys)
    )
    return codes, n


def _cell_codes(vector: Vector, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense codes of *vector*'s cells at *rows* (null is one more code)
    and the number of codes.

    Text is coded by its dictionary codes; numeric cells by bit pattern
    (``-0.0`` is not ``0.0`` to ``str()`` or sign tests); any other
    object — an array, a number in a mixed column — by identity, which
    never merges two different values (``1``, ``1.0`` and ``True`` are
    one dict key but render differently).  An array is coded by the
    codes of its elements, in order."""
    if vector.elements is not None:
        taken = compact(gather(vector, rows))
        elements, _ = _cell_codes(taken.elements, np.arange(len(taken.elements)))
        elements = elements.tolist()
        return first_occurrence_codes([
            None if null else tuple(elements[start:end])
            for (start, end), null in zip(
                taken.values.tolist(), taken.nulls.tolist()
            )
        ])
    values = vector.values[rows]
    nulls = vector.nulls[rows]
    has_null = bool(nulls.any())
    if has_null:
        values = values[~nulls]
    if vector.dictionary is not None:
        codes, first = first_occurrence_ranks(values, len(vector.dictionary))
        n = len(first)
    elif values.dtype == object:
        codes, n = first_occurrence_codes(list(map(id, values.tolist())))
    else:
        if values.dtype.kind == "f":
            values = values.view(f"i{values.itemsize}")
        codes, n = first_occurrence_codes(values.tolist())
    if not has_null:
        return codes, n
    full = np.full(len(rows), n, dtype=np.int64)
    full[~nulls] = codes
    return full, n + 1


def _distinct_calls(
    fn: Callable[..., Any],
    vectors: Sequence[Vector],
    rows: np.ndarray,
    dtype: Any,
) -> tuple[np.ndarray, np.ndarray]:
    """``fn`` over each distinct tuple of input cells at *rows*, in order
    of first occurrence: the results and each row's index into them."""
    codes, n = np.zeros(len(rows), dtype=np.int64), 1
    constant = []
    for vector in vectors:
        part, k = _cell_codes(vector, rows)
        constant.append(k == 1)
        if k == 1:
            continue
        if n == 1:
            codes, n = part, k
        else:
            codes, first = first_occurrence_ranks(codes * k + part, n * k)
            n = len(first)
    # any row of a tuple stands for all of them
    first = np.empty(n, dtype=np.int64)
    first[codes] = rows
    columns = []
    for vector, same in zip(vectors, constant):
        picked = rows[:1] if same else first
        if vector.dictionary is not None:
            items = vector.dictionary[vector.values[picked]].tolist()
        elif vector.elements is not None:
            items = python_cells(gather(vector, picked))
        else:
            items = vector.values[picked]
            # numeric cells stay numpy scalars: a kernel sees the stored value
            items = items.tolist() if items.dtype == object else list(items)
        for j in np.flatnonzero(vector.nulls[picked]):
            items[j] = None
        columns.append(items * n if same else items)
    return np.fromiter(map(fn, *columns), dtype=dtype, count=n), codes


def per_distinct(
    fn: Callable[..., Any],
    vectors: Sequence[Vector],
    rows: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``out[i] = fn(*cells of row i)`` for each position *i* in *rows*,
    calling *fn* once per distinct tuple of input cells.

    A cell is the stored value (a numpy scalar in numeric vectors, a
    ``str`` for text), or None under null.  Two cells share a call only
    when no kernel can tell them apart: equal text (one dictionary
    entry: an entry no row at *rows* uses is never evaluated), numeric
    cells with the same bit pattern, and any other object only with
    itself.  Rows sharing a tuple share the one result object — arrays
    are values inside the engine and are copied at its boundary, never
    mutated in place.  Tuples are evaluated in order of first occurrence,
    so the first failing row raises.
    """
    if len(rows) == 0:
        return out
    table, codes = _distinct_calls(fn, vectors, rows, out.dtype)
    out[rows] = table[codes]
    return out


def per_distinct_cells(
    fn: Callable[..., Any],
    vectors: Sequence[Vector],
    rows: np.ndarray,
    nulls: np.ndarray,
) -> Vector:
    """:func:`per_distinct` for a kernel returning cells: a text vector
    when every result is a ``str`` (its dictionary is the distinct
    results, so no row is factorised), else an object vector.  A None
    result is NULL; rows outside *rows* are NULL under *nulls*."""
    n = len(nulls)
    if len(rows) == 0:
        return Vector(np.zeros(n, dtype=np.int32), nulls, _object_array([]))
    table, codes = _distinct_calls(fn, vectors, rows, object)
    results = table.tolist()
    missing = np.equal(table, None)
    if None in results:
        nulls = nulls.copy()
        nulls[rows[missing[codes]]] = True
    kinds = set(map(type, results))
    if kinds <= {str, type(None)}:
        words = text_vector(results, missing)
        full = np.zeros(n, dtype=np.int32)
        full[rows] = words.values[codes]
        return Vector(full, nulls, words.dictionary)
    if kinds <= {list, type(None)}:
        positions = np.full(n, -1, dtype=np.int64)
        positions[rows] = codes
        return gather(array_vector(results), positions, missing_null=True)
    out = np.empty(n, dtype=object)
    out[rows] = table[codes]
    return Vector(out, nulls)


# ---------------------------------------------------------------------------
# the assignment rule: a value into a storage class
# ---------------------------------------------------------------------------

#: declared SQL type name -> storage class: the one table CREATE TABLE,
#: CAST and the parser read (a name ending in ``[]`` is an ``array``)
STORAGE_CLASSES = {
    **dict.fromkeys(("int", "integer", "bigint", "smallint"), "int"),
    **dict.fromkeys(("serial", "bigserial"), "serial"),
    **dict.fromkeys(
        ("float", "real", "numeric", "decimal", "double", "double precision"),
        "float",
    ),
    **dict.fromkeys(("text", "varchar", "char", "date", "timestamp"), "text"),
    **dict.fromkeys(("boolean", "bool"), "bool"),
}


def normalise_type(type_name: str) -> str:
    """Map a declared SQL type to the engine's storage class."""
    base = type_name.strip().lower()
    storage = "array" if base.endswith("[]") else STORAGE_CLASSES.get(base)
    if storage is None:
        raise CatalogError(f"unsupported type {type_name!r}", sqlstate="42704")
    return storage


def pg_text(value: Any) -> Any:
    """Render one SQL value as PostgreSQL's text cast would.

    Every value→text coercion in the engine (``||``, ``CAST .. AS TEXT``,
    assignment to a text column, ``LIKE`` operands, string functions)
    routes through here so integers stored in float64-backed vectors
    print as ``'1'`` rather than ``'1.0'``.  Returns None for SQL NULL.
    """
    if value is None:
        return None
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        as_float = float(value)
        if as_float.is_integer() and abs(as_float) < 1e16:
            return str(int(as_float))
        return repr(as_float)
    if isinstance(value, list):
        parts = ["NULL" if v is None else pg_text(v) for v in value]
        return "{" + ",".join(parts) + "}"
    return str(value)


def cell_text(cell: Any) -> Any:
    """:func:`pg_text` of a stored cell, as of ``Vector.item`` of its row
    (a numpy float that is integral prints as an integer at any size)."""
    return cell if type(cell) is str else pg_text(to_python(cell))


def _invalid(cell: Any, what: str) -> SQLExecutionError:
    return SQLExecutionError(
        f"cannot interpret {cell!r} as {what}", sqlstate="22P02"
    )


def _to_float(cell: Any, what: str = "a number") -> float:
    """The ``float`` rule: a number as it is, text through ``float()``."""
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise _invalid(cell, what) from None


def _out_of_range() -> SQLExecutionError:
    return SQLExecutionError("integer out of range", sqlstate="22003")


def _to_int(cell: Any) -> float:
    """The ``int`` rule: text must be an integral, finite number; a
    finite number rounds half to even (``np.rint``, PostgreSQL's float8 →
    int4: the engine's numbers are float64), an infinite or NaN one is
    out of range."""
    value = _to_float(cell, "an integer")
    if value.is_integer():
        return value
    if isinstance(cell, str):
        raise _invalid(cell, "an integer")
    if not math.isfinite(value):
        raise _out_of_range()
    return float(np.rint(value))


#: PostgreSQL's boolean input spellings (trimmed, any case)
_BOOL_SPELLINGS = {
    **dict.fromkeys(("t", "true", "y", "yes", "on", "1"), True),
    **dict.fromkeys(("f", "false", "n", "no", "off", "0"), False),
}


def _to_bool(cell: Any) -> bool:
    """The ``bool`` rule: a PostgreSQL spelling, or a number (true when
    nonzero)."""
    if isinstance(cell, str):
        spelled = _BOOL_SPELLINGS.get(cell.strip().lower())
        if spelled is not None:
            return spelled
    elif isinstance(cell, (int, float, np.number, np.bool_)):
        return bool(cell != 0)
    raise _invalid(cell, "a boolean")


#: one token of an array literal: a brace, a comma, a quoted element
#: (backslash escapes) or a bare one (inner blanks kept, outer trimmed)
_ARRAY_TOKEN = re.compile(
    r'\s*(?:([{}])|(,)|"((?:[^"\\]|\\.)*)"|([^{},"\s](?:[^{},"]*[^{},"\s])?))\s*',
    re.S,
)


def _array_literal(text: str) -> list:
    """PostgreSQL's array input: ``{1,2}``, ``{"a,b",NULL}``, nested
    ``{{1},{2}}``.  Bare elements are numbers when every one reads as a
    number and none is quoted, else text; bare ``NULL`` is NULL.
    Anything else is 22P02, ``malformed array literal``."""
    malformed = SQLExecutionError(
        f"malformed array literal: {text!r}", sqlstate="22P02"
    )
    stack: list[list] = []
    root: Optional[list] = None
    bare: list[tuple[list, int]] = []
    quoted, prev, pos = False, "", 0
    while pos < len(text):
        match = _ARRAY_TOKEN.match(text, pos)
        if match is None or (root is not None and not stack):
            raise malformed
        pos = match.end()
        brace, comma, string, word = match.groups()
        level = stack[-1] if stack else []
        if brace == "{":
            # a level holds sub-arrays or elements, never both
            if prev not in ("", "{", ",") or (level and prev == "," and type(level[-1]) is not list):
                raise malformed
            new: list = []
            if stack:
                stack[-1].append(new)
            else:
                root = new
            stack.append(new)
        elif brace == "}":
            if not stack or prev == ",":
                raise malformed
            stack.pop()
        elif not stack or (
            prev not in ("v", "}") if comma
            else prev not in ("{", ",") or (level and type(level[-1]) is list)
        ):
            raise malformed
        elif string is not None:
            stack[-1].append(re.sub(r"\\(.)", r"\1", string, flags=re.S))
            quoted = True
        elif word is not None:
            null = word.upper() == "NULL"
            if not null:
                bare.append((stack[-1], len(stack[-1])))
            stack[-1].append(None if null else word)
        prev = brace or comma or "v"
    if root is None or stack:
        raise malformed
    if not quoted:
        try:
            numbers = [float(owner[i]) for owner, i in bare]
        except ValueError:
            return root
        for (owner, i), number in zip(bare, numbers):
            owner[i] = number
    return root


def _to_array(cell: Any) -> list:
    """The ``array`` rule: a list as it is (storing copies its elements
    into the column's element vector), or text through PostgreSQL's
    array literal (:func:`_array_literal`)."""
    if isinstance(cell, list):
        return cell
    if isinstance(cell, str):
        return _array_literal(cell)
    raise _invalid(cell, "an array")


#: storage class -> the assignment rule for one non-NULL cell: the one
#: conversion INSERT, UPDATE, COPY, CAST and arithmetic on text share;
#: a cell it cannot convert raises 22P02 (invalid_text_representation)
CELL_RULES: dict[str, Callable[[Any], Any]] = {
    "int": _to_int,
    "serial": _to_int,
    "float": _to_float,
    "bool": _to_bool,
    "text": cell_text,
    "array": _to_array,
}


def assign(vector: Vector, storage: str) -> Vector:
    """*vector*'s cells converted to *storage* by :data:`CELL_RULES`:
    numbers and booleans in whole-array passes, any other cell once per
    distinct value (``CAST``, arithmetic on text)."""
    nulls = vector.nulls.copy()
    rows = np.flatnonzero(~nulls)
    rule = CELL_RULES[storage]
    if storage == "array" and vector.elements is not None:
        return vector
    if storage in ("text", "array"):
        return per_distinct_cells(rule, [vector], rows, nulls)
    if not _numeric(vector):
        n = len(vector)
        out = np.zeros(n, bool) if storage == "bool" else np.full(n, np.nan)
        return Vector(per_distinct(rule, [vector], rows, out), nulls)
    values = vector.values.astype(np.float64)
    if storage == "bool":
        return Vector((values != 0) & ~nulls, nulls)
    if storage == "float":
        return Vector(values, nulls)
    if not (np.isfinite(values) | nulls).all():
        raise _out_of_range()
    return Vector(np.rint(values), nulls)


# ---------------------------------------------------------------------------
# element-wise operations with SQL semantics
# ---------------------------------------------------------------------------


def _numeric(vector: Vector) -> bool:
    """Whether *vector* holds numbers or booleans (not text codes or
    array entries)."""
    return (
        vector.dictionary is None
        and vector.elements is None
        and vector.values.dtype.kind in "fiub"
    )


def _as_float(vector: Vector, context: str) -> np.ndarray:
    """*vector* as float64 for the operator named *context*: text cells
    through the ``float`` assignment rule, once per distinct cell."""
    if _numeric(vector):
        return vector.values.astype(np.float64, copy=False)
    try:
        return assign(vector, "float").values
    except SQLExecutionError as exc:
        raise SQLExecutionError(
            f"{context}: {exc}", sqlstate=exc.sqlstate
        ) from None


def arithmetic(op: str, left: Vector, right: Vector) -> Vector:
    """``+ - * / %`` with null propagation; ``||`` concatenates text/arrays."""
    nulls = left.nulls | right.nulls
    if op == "||":
        if left.elements is not None or right.elements is not None:
            return _concat_arrays(left, right, nulls)

        def concat(a: Any, b: Any) -> str:
            return cell_text(a) + cell_text(b)

        return per_distinct_cells(
            concat, [left, right], np.flatnonzero(~nulls), nulls.copy()
        )
    a = _as_float(left, op)
    b = _as_float(right, op)
    with np.errstate(invalid="ignore", divide="ignore"):
        if op == "+":
            values = a + b
        elif op == "-":
            values = a - b
        elif op == "*":
            values = a * b
        elif op == "/":
            values = a / b
            nulls = nulls | (b == 0)
        elif op == "%":
            values = np.mod(a, b)
            nulls = nulls | (b == 0)
        else:
            raise SQLExecutionError(f"unknown arithmetic operator {op!r}")
    return Vector(np.where(nulls, np.nan, values), nulls)


def _concat_arrays(left: Vector, right: Vector, nulls: np.ndarray) -> Vector:
    """``||`` with an array operand: each row's runs of elements end to
    end (a scalar operand is a one-element array), as one take of both
    operands' elements; NULL when either operand is."""
    n = len(nulls)
    runs = []
    for side in (left, right):
        if side.elements is None:  # a scalar: one element a row
            side = array_column(np.ones(n, dtype=np.int64), side.nulls, side)
        lengths = np.where(nulls, 0, array_lengths(side))
        runs.append((side.values[:, 0], lengths, side.elements))
    (left_starts, left_lengths, left_elements), (right_starts, right_lengths,
                                                 right_elements) = runs
    index = _run_index(
        np.column_stack(
            (left_starts, right_starts + len(left_elements))
        ).reshape(-1),
        np.column_stack((left_lengths, right_lengths)).reshape(-1),
    )
    return array_column(
        left_lengths + right_lengths, nulls.copy(),
        gather(concat_vectors([left_elements, right_elements]), index),
    )


_COMPARators: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compare(op: str, left: Vector, right: Vector) -> Vector:
    """SQL comparison: null operands yield null (unknown)."""
    nulls = left.nulls | right.nulls
    out = np.zeros(len(left), dtype=bool)
    func = _COMPARators.get(op)
    if func is None:
        raise SQLExecutionError(f"unknown comparison operator {op!r}")
    if left.dictionary is not None and right.dictionary is not None:
        a, b = _text_keys(left, right, op in ("=", "<>"))
        out = np.where(nulls, False, func(a, b))
        return Vector(out, nulls)
    if left.elements is not None or right.elements is not None:
        # arrays compare as Python lists, once per distinct pair of rows
        def lists(a: Any, b: Any) -> bool:
            a, b = to_python(a), to_python(b)  # never numpy's broadcasting
            try:
                return bool(func(a, b))
            except TypeError:
                return bool(func(str(a), str(b)))

        per_distinct(lists, [left, right], np.flatnonzero(~nulls), out)
        return Vector(out, nulls)
    if left.dictionary is not None or right.dictionary is not None:
        # text against numbers or mixed cells: compared as objects
        left, right = Vector(cells(left), left.nulls), Vector(cells(right), right.nulls)
    if _numeric(left) and _numeric(right):
        with np.errstate(invalid="ignore"):
            out = func(
                left.values.astype(np.float64, copy=False),
                right.values.astype(np.float64, copy=False),
            )
        out = np.where(nulls, False, out)
    else:
        try:
            # numpy applies Python rich comparison per element in a C loop,
            # much faster than an interpreted row loop
            with np.errstate(invalid="ignore"):
                raw = func(left.values, right.values)
            out = np.asarray(raw, dtype=bool)
            out = np.where(nulls, False, out)
        except TypeError:

            def mixed(a: Any, b: Any) -> bool:
                try:
                    return bool(func(a, b))
                except TypeError:
                    # mixed types (e.g. text vs numeric): compare as text
                    return bool(func(str(a), str(b)))

            per_distinct(mixed, [left, right], np.flatnonzero(~nulls), out)
    return Vector(out, nulls)


def _text_keys(
    left: Vector, right: Vector, equality: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Integer keys of two text vectors that compare as their strings:
    for ``=``/``<>`` the right dictionary remapped into the left one
    (-1 where absent), else ranks over both dictionaries' k entries."""
    if not len(left.dictionary) or not len(right.dictionary):
        # an empty dictionary: that side is NULL on every row
        zeros = np.zeros(len(left), dtype=np.int64)
        return zeros, zeros
    if left.dictionary is right.dictionary:
        if equality:
            return left.values, right.values
        ranks = dictionary_ranks(left.dictionary)
        return ranks[left.values], ranks[right.values]
    remap = find_codes(left.dictionary, right.dictionary.tolist())
    if equality:
        return left.values, remap[right.values]
    k = len(left.dictionary)
    absent = np.flatnonzero(remap < 0)
    remap[absent] = k + np.arange(len(absent))
    union = np.concatenate([left.dictionary, right.dictionary[absent]])
    ranks = dictionary_ranks(union)
    return ranks[left.values], ranks[remap][right.values]


def logical_and(left: Vector, right: Vector) -> Vector:
    """Three-valued AND."""
    lv = left.values.astype(bool, copy=False)
    rv = right.values.astype(bool, copy=False)
    false_l = ~lv & ~left.nulls
    false_r = ~rv & ~right.nulls
    result_false = false_l | false_r
    nulls = (left.nulls | right.nulls) & ~result_false
    values = lv & rv & ~nulls
    return Vector(values, nulls)


def logical_or(left: Vector, right: Vector) -> Vector:
    """Three-valued OR."""
    lv = left.values.astype(bool, copy=False)
    rv = right.values.astype(bool, copy=False)
    true_l = lv & ~left.nulls
    true_r = rv & ~right.nulls
    result_true = true_l | true_r
    nulls = (left.nulls | right.nulls) & ~result_true
    values = result_true
    return Vector(values, nulls)


def logical_not(operand: Vector) -> Vector:
    values = ~operand.values.astype(bool, copy=False)
    return Vector(np.where(operand.nulls, False, values), operand.nulls.copy())


def truthy_rows(predicate: Vector) -> np.ndarray:
    """Row positions where the predicate is TRUE (not false, not null)."""
    values = predicate.values.astype(bool, copy=False)
    return np.flatnonzero(values & ~predicate.nulls)
