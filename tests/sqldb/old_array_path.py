"""The object-list array kernels that int64 offsets over one element
vector replaced, kept as the oracle of ``test_array_columns_oracle.py``.

An array column used to be an object array holding one Python list per
row (None under NULL), its elements already what ``to_python`` returns.
Each kernel below is the old one written as the row loop it computed
(the old versions ran it once per distinct input tuple, which changes
no value): ``array_agg`` and ``count(DISTINCT)`` from
``functions.compute_aggregate``, ``array_fill`` / ``array_length`` /
``array_position`` / ``||`` from ``functions`` and ``vector.arithmetic``,
``unnest`` from ``executor._expand_unnest``.  Inputs are object vectors:
arrays as lists, every other column as the engine stores it.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

from repro.errors import SQLExecutionError
from repro.sqldb.vector import Vector, cell_text, cells, from_values, to_python

_INT64_LOW, _INT64_HIGH = -(2.0 ** 63), 2.0 ** 63


def python_list(values: np.ndarray) -> list:
    """``[to_python(v) for v in values]``: the elements a cell is built of."""
    items = values.tolist()
    if values.dtype.kind == "f":
        return [
            int(x) if x.is_integer() and _INT64_LOW <= x < _INT64_HIGH else x
            for x in items
        ]
    if values.dtype == object:
        return list(map(to_python, items))
    return items


def _cell(vector: Vector, i: int) -> Any:
    """The cell a per-distinct kernel saw: the stored value (a numpy
    scalar in numeric vectors, a ``str`` for text), None under NULL."""
    if vector.nulls[i]:
        return None
    if vector.dictionary is not None:
        return vector.dictionary[vector.values[i]]
    return vector.values[i]


def _objects(cells_: list, nulls: np.ndarray) -> Vector:
    values = np.empty(len(cells_), dtype=object)
    for i, cell in enumerate(cells_):
        values[i] = cell
    return Vector(values, nulls)


def array_agg(arg: Vector, codes: np.ndarray, n_groups: int) -> Vector:
    out = np.empty(n_groups, dtype=object)
    order = np.argsort(codes, kind="stable")
    boundaries = np.searchsorted(
        codes[order], np.arange(n_groups + 1), side="left"
    ).tolist()
    items = python_list(cells(arg)[order])
    for k in np.flatnonzero(arg.nulls[order]):
        items[k] = None
    for g in range(n_groups):
        out[g] = items[boundaries[g]:boundaries[g + 1]]
    return Vector(out, np.zeros(n_groups, dtype=bool))


def count_distinct(arg: Vector, codes: np.ndarray, n_groups: int) -> Vector:
    seen: set = set()
    counts = np.zeros(n_groups, dtype=np.float64)
    for i in np.flatnonzero(~arg.nulls):
        key = (int(codes[i]), arg.values[i])
        if key not in seen:
            seen.add(key)
            counts[int(codes[i])] += 1
    return Vector(counts, np.zeros(n_groups, dtype=bool))


def array_fill(value: Vector, count: Vector) -> Vector:
    nulls = count.nulls.copy()
    out = [None] * len(value)
    for i in np.flatnonzero(~nulls):
        out[i] = [to_python(_cell(value, i))] * max(int(_cell(count, i)), 0)
    return _objects(out, nulls)


def array_length(arr: Vector) -> Vector:
    out = np.full(len(arr), np.nan)
    for i in np.flatnonzero(~arr.nulls):
        cell = _cell(arr, i)
        if not isinstance(cell, list):
            raise SQLExecutionError("array_length argument is not an array")
        out[i] = len(cell)
    return Vector(out, arr.nulls.copy())


def array_position(arr: Vector, element: Vector) -> Vector:
    out = np.full(len(arr), np.nan)
    for i in np.flatnonzero(~(arr.nulls | element.nulls)):
        try:
            out[i] = _cell(arr, i).index(to_python(_cell(element, i))) + 1
        except ValueError:
            pass
    return Vector(out, np.isnan(out))


def concat(left: Vector, right: Vector) -> Vector:
    nulls = left.nulls | right.nulls
    out = [None] * len(left)
    for i in np.flatnonzero(~nulls):
        a, b = _cell(left, i), _cell(right, i)
        if isinstance(a, list) or isinstance(b, list):
            a_list = a if isinstance(a, list) else [to_python(a)]
            b_list = b if isinstance(b, list) else [to_python(b)]
            out[i] = a_list + b_list
        else:
            out[i] = cell_text(a) + cell_text(b)
    return _objects(out, nulls)


def unnest(
    length: int, columns: dict[str, Vector], unnest_keys: list[str]
) -> tuple[int, dict[str, list]]:
    """The expanded row count and each column's cells."""
    lead = columns[unnest_keys[0]]
    counts = np.zeros(length, dtype=np.int64)
    for i in np.flatnonzero(~lead.nulls):
        cell = lead.values[i]
        if not isinstance(cell, list):
            raise SQLExecutionError("unnest argument is not an array")
        counts[i] = len(cell)
    total = int(counts.sum())
    repeats = np.repeat(np.arange(length), counts)
    out: dict[str, list] = {}
    for key, vec in columns.items():
        if key in unnest_keys:
            flat = list(itertools.chain.from_iterable(vec.values[counts > 0]))
            out[key] = from_values(flat).tolist()
            if len(out[key]) != total:
                raise SQLExecutionError("unnest arrays have mismatched lengths")
        else:
            out[key] = [
                None if vec.nulls[i] else to_python(_cell(vec, i))
                for i in repeats
            ]
    return total, out
