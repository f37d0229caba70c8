"""Scalar and aggregate SQL function implementations.

Scalar functions consume/produce :class:`~repro.sqldb.vector.Vector`;
aggregates consume a vector plus per-row group codes and produce one output
row per group.  The set covers everything the transpiler emits (§5 of the
paper): ``coalesce``, ``regexp_replace``, ``least``/``greatest``,
``floor``/``ceil``, ``array_fill``/``array_length``/``array_position``,
``unnest`` (handled by the executor), plus aggregates ``count``, ``sum``,
``avg``, ``min``, ``max``, ``stddev_pop``/``stddev_samp``, ``array_agg``.
The ``LIKE`` operator lives here too.  Array kernels are arithmetic on an
array vector's entries plus one take of its elements; every kernel whose
work is Python per value runs once per distinct input tuple
(:func:`~repro.sqldb.vector.per_distinct`).
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

import numpy as np

from repro.errors import SQLBindError, SQLExecutionError
from repro.sqldb import hashing
from repro.sqldb.vector import (
    Vector,
    _as_float,
    align,
    array_column,
    array_lengths,
    array_runs,
    cell_text,
    cells,
    choose,
    compact,
    compare,
    dictionary_ranks,
    gather,
    per_distinct,
    per_distinct_cells,
)

__all__ = [
    "AGGREGATE_NAMES",
    "SCALAR_FUNCTIONS",
    "compute_aggregate",
    "is_aggregate",
    "like",
]


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------


def _fn_coalesce(args: list[Vector]) -> Vector:
    if not args:
        raise SQLExecutionError("coalesce requires at least one argument")
    if any(arg.elements is not None for arg in args):
        # the first non-NULL argument of each row, -1 where all are NULL
        present = ~np.vstack([arg.nulls for arg in args])
        which = np.where(present.any(axis=0), present.argmax(axis=0), -1)
        return choose(args, which)
    args = align(args)
    result = args[0].copy()
    for candidate in args[1:]:
        still_null = result.nulls
        if not still_null.any():
            break
        fill = still_null & ~candidate.nulls
        if not fill.any():
            continue
        if result.dictionary is not None or (
            result.values.dtype == candidate.values.dtype
            and result.values.dtype != object
        ):
            result.values[fill] = candidate.values[fill]
        else:
            merged = result.values.astype(object)
            merged[fill] = candidate.values[fill]
            result = Vector(merged, result.nulls)
        result.nulls = result.nulls & ~fill
    return result


def _fn_regexp_replace(args: list[Vector]) -> Vector:
    if len(args) != 3:
        raise SQLExecutionError("regexp_replace(text, pattern, replacement)")
    nulls = args[0].nulls | args[1].nulls | args[2].nulls

    def replace(text: Any, pattern: Any, replacement: Any) -> str:
        return re.compile(cell_text(pattern)).sub(
            cell_text(replacement), cell_text(text), count=1
        )

    return per_distinct_cells(replace, args, np.flatnonzero(~nulls), nulls)


def _extremum(args: list[Vector], pick: Callable) -> Vector:
    if not args:
        raise SQLExecutionError("least/greatest require arguments")
    length = len(args[0])
    numeric = all(
        a.dictionary is None and a.elements is None
        and a.values.dtype.kind in ("f", "i", "u")
        for a in args
    )
    if numeric:
        # fmin/fmax skip NaN (NULL) pairwise: an all-NULL row stays NaN
        values = np.full(length, np.nan)
        for a in args:
            candidate = np.where(a.nulls, np.nan, a.values.astype(np.float64))
            values = pick(values, candidate)
        nulls = np.isnan(values)
        return Vector(np.where(nulls, np.nan, values), nulls)
    reducer = min if pick is np.fmin else max

    def extremum(*cells: Any) -> Any:
        candidates = [cell for cell in cells if cell is not None]
        try:
            return reducer(candidates) if candidates else None
        except TypeError:
            raise SQLExecutionError(
                f"{'least' if reducer is min else 'greatest'} argument "
                f"types cannot be matched", sqlstate="42804",
            ) from None

    return per_distinct_cells(
        extremum, args, np.arange(length),
        np.logical_and.reduce([a.nulls for a in args]),
    )


def _fn_least(args: list[Vector]) -> Vector:
    return _extremum(args, np.fmin)


def _fn_greatest(args: list[Vector]) -> Vector:
    return _extremum(args, np.fmax)


def _numeric_unary(args: list[Vector], func: Callable, name: str) -> Vector:
    if len(args) != 1:
        raise SQLExecutionError(f"{name} takes one argument")
    arg = args[0]
    values = _as_float(arg, name)
    with np.errstate(all="ignore"):
        out = func(values)
    nulls = arg.nulls | ~np.isfinite(out)
    return Vector(np.where(nulls, np.nan, out), nulls)


def _fn_round(args: list[Vector]) -> Vector:
    if len(args) == 1:
        return _numeric_unary(args, np.round, "round")
    if len(args) == 2:
        digits = int(args[1].values[0])
        return _numeric_unary(args[:1], lambda v: np.round(v, digits), "round")
    raise SQLExecutionError("round takes one or two arguments")


def _fn_array_fill(args: list[Vector]) -> Vector:
    """``array_fill(value, count)`` — array of *count* copies of *value*.

    PostgreSQL's form takes the count wrapped in an array literal; the
    transpiler emits the scalar-count variant for simplicity.  The
    elements are one take of *value*, each row repeated *count* times.
    """
    if len(args) != 2:
        raise SQLExecutionError("array_fill(value, count)")
    value, count = args
    nulls = count.nulls.copy()
    counts = np.trunc(np.nan_to_num(_as_float(count, "array_fill")))
    counts = np.where(nulls, 0, np.maximum(counts, 0)).astype(np.int64)
    elements = gather(value, np.repeat(np.arange(len(value)), counts))
    return array_column(counts, nulls, elements)


def _array_argument(arr: Vector, name: str, nulls: np.ndarray) -> None:
    """Refuse a non-array argument with a value on a row that counts."""
    if arr.elements is None and not nulls.all():
        raise SQLExecutionError(f"{name} argument is not an array")


def _fn_array_length(args: list[Vector]) -> Vector:
    if len(args) not in (1, 2):
        raise SQLExecutionError("array_length(array[, dim])")
    arr = args[0]
    _array_argument(arr, "array_length", arr.nulls)
    if arr.elements is None:
        return Vector(np.full(len(arr), np.nan), arr.nulls.copy())
    lengths = array_lengths(arr).astype(np.float64)
    return Vector(np.where(arr.nulls, np.nan, lengths), arr.nulls.copy())


def _fn_array_position(args: list[Vector]) -> Vector:
    """1-based index of the first element equal to the wanted value (null
    when absent): the wanted value repeated along each row's run, one
    ``=`` over all elements, and the first hit of each row."""
    if len(args) != 2:
        raise SQLExecutionError("array_position(array, element)")
    arr, element = args
    nulls = arr.nulls | element.nulls
    _array_argument(arr, "array_position", nulls)
    out = np.full(len(arr), np.nan)
    if arr.elements is None:
        return Vector(out, nulls)
    arr = compact(arr)
    lengths = array_lengths(arr)
    owner = np.repeat(np.arange(len(arr)), lengths)
    equal = compare("=", arr.elements, gather(element, owner))
    hits = np.flatnonzero(equal.values & ~equal.nulls & ~nulls[owner])
    rows, first = np.unique(owner[hits], return_index=True)
    out[rows] = hits[first] - array_runs(arr)[0][rows] + 1
    return Vector(out, np.isnan(out))


def _string_unary(
    args: list[Vector], func: Callable[[str], Any], name: str, dtype=object
) -> Vector:
    if len(args) != 1:
        raise SQLExecutionError(f"{name} takes one argument")
    arg = args[0]

    def kernel(cell: Any) -> Any:
        return func(cell_text(cell))

    rows = np.flatnonzero(~arg.nulls)
    if dtype is object:
        return per_distinct_cells(kernel, [arg], rows, arg.nulls.copy())
    out = np.full(len(arg), np.nan, dtype=dtype)
    return Vector(per_distinct(kernel, [arg], rows, out), arg.nulls.copy())


def _like_to_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


def like(value: Vector, pattern: Vector) -> Vector:
    """``value LIKE pattern`` (``%`` any run, ``_`` any one character)."""

    def matches(subject: Any, like_pattern: Any) -> bool:
        regex = _like_to_regex(cell_text(like_pattern))
        return regex.fullmatch(cell_text(subject)) is not None

    nulls = value.nulls | pattern.nulls
    out = np.zeros(len(nulls), dtype=bool)
    per_distinct(matches, [value, pattern], np.flatnonzero(~nulls), out)
    return Vector(out, nulls)


def _fn_nullif(args: list[Vector]) -> Vector:
    if len(args) != 2:
        raise SQLExecutionError("nullif(a, b)")
    from repro.sqldb.vector import compare

    equal = compare("=", args[0], args[1])
    result = args[0].copy()
    hit = equal.values & ~equal.nulls
    result.nulls = result.nulls | hit
    return result


def _fn_char_length(args: list[Vector]) -> Vector:
    return _string_unary(args, len, "length", dtype=np.float64)


SCALAR_FUNCTIONS: dict[str, Callable[[list[Vector]], Vector]] = {
    "coalesce": _fn_coalesce,
    "regexp_replace": _fn_regexp_replace,
    "least": _fn_least,
    "greatest": _fn_greatest,
    "floor": lambda args: _numeric_unary(args, np.floor, "floor"),
    "ceil": lambda args: _numeric_unary(args, np.ceil, "ceil"),
    "ceiling": lambda args: _numeric_unary(args, np.ceil, "ceiling"),
    "abs": lambda args: _numeric_unary(args, np.abs, "abs"),
    "sqrt": lambda args: _numeric_unary(args, np.sqrt, "sqrt"),
    "ln": lambda args: _numeric_unary(args, np.log, "ln"),
    "exp": lambda args: _numeric_unary(args, np.exp, "exp"),
    "tanh": lambda args: _numeric_unary(args, np.tanh, "tanh"),
    "round": _fn_round,
    "array_fill": _fn_array_fill,
    "array_length": _fn_array_length,
    "array_position": _fn_array_position,
    "upper": lambda args: _string_unary(args, str.upper, "upper"),
    "lower": lambda args: _string_unary(args, str.lower, "lower"),
    "trim": lambda args: _string_unary(args, str.strip, "trim"),
    "length": _fn_char_length,
    "char_length": _fn_char_length,
    "nullif": _fn_nullif,
}


# ---------------------------------------------------------------------------
# aggregate functions
# ---------------------------------------------------------------------------

AGGREGATE_NAMES = {
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "stddev_pop",
    "stddev_samp",
    "stddev",
    "var_pop",
    "array_agg",
}


def is_aggregate(name: str) -> bool:
    return name in AGGREGATE_NAMES


def _group_sums(values: np.ndarray, codes: np.ndarray, n_groups: int) -> np.ndarray:
    return np.bincount(codes, weights=values, minlength=n_groups)


def compute_aggregate(
    name: str,
    arg: Vector | None,
    codes: np.ndarray,
    n_groups: int,
    distinct: bool = False,
) -> Vector:
    """Evaluate one aggregate over pre-computed group codes.

    ``arg`` is None for ``count(*)``.  Null inputs are skipped by every
    aggregate except ``count(*)`` (SQL semantics).
    """
    if name == "count" and arg is None:
        counts = np.bincount(codes, minlength=n_groups).astype(np.float64)
        return Vector(counts, np.zeros(n_groups, dtype=bool))
    if arg is None:
        raise SQLExecutionError(f"aggregate {name} requires an argument")

    keep = ~arg.nulls
    if distinct:
        if name != "count":
            raise SQLExecutionError("DISTINCT is only supported inside count()")
        # a group's distinct values are the GROUP BY groups of its
        # (group, value) pairs: values by SQL equality (-0.0 is 0.0, text
        # by its codes), and each pair's first row names its group
        rows = np.flatnonzero(keep)
        group = Vector(codes[rows].astype(np.float64), np.zeros(len(rows), bool))
        _, first = hashing.group_codes([group, gather(arg, rows)])
        counts = np.bincount(
            codes[rows][first], minlength=n_groups
        ).astype(np.float64)
        return Vector(counts, np.zeros(n_groups, dtype=bool))

    if name == "count":
        counts = np.bincount(codes[keep], minlength=n_groups).astype(np.float64)
        return Vector(counts, np.zeros(n_groups, dtype=bool))

    if name == "array_agg":
        # the rows in group order (stable: row order within a group) are
        # the elements, and the group sizes the lengths
        counts = np.bincount(codes, minlength=n_groups)
        elements = gather(arg, np.argsort(codes, kind="stable"))
        return array_column(counts, np.zeros(n_groups, dtype=bool), elements)

    if name in ("min", "max") and arg.dictionary is not None:
        # the extreme rank per group: text compares by its dictionary's
        # ranks, and the winning rank names the winning code
        ranks = dictionary_ranks(arg.dictionary)
        kept_codes = codes[keep]
        if name == "min":
            best = np.full(n_groups, len(ranks), dtype=np.int64)
            np.minimum.at(best, kept_codes, ranks[arg.values[keep]])
            nulls = best == len(ranks)
        else:
            best = np.full(n_groups, -1, dtype=np.int64)
            np.maximum.at(best, kept_codes, ranks[arg.values[keep]])
            nulls = best < 0
        by_rank = np.zeros(len(ranks) + 1, dtype=np.int32)
        by_rank[ranks] = np.arange(len(ranks), dtype=np.int32)
        return Vector(by_rank[np.where(nulls, 0, best)], nulls, arg.dictionary)

    if name in ("min", "max") and (
        arg.values.dtype == object or arg.elements is not None
    ):
        # Python comparison of the cells; the winning row is gathered
        values = cells(arg)
        best = np.full(n_groups, -1, dtype=np.int64)
        better = (lambda a, b: a < b) if name == "min" else (lambda a, b: a > b)
        for i in np.flatnonzero(keep).tolist():
            g = int(codes[i])
            if best[g] < 0 or better(values[i], values[best[g]]):
                best[g] = i
        return gather(arg, best, missing_null=True)

    values = _as_float(arg, name)
    kept_codes = codes[keep]
    kept_values = values[keep]
    counts = np.bincount(kept_codes, minlength=n_groups).astype(np.float64)
    empty = counts == 0

    if name == "sum":
        sums = _group_sums(kept_values, kept_codes, n_groups)
        return Vector(np.where(empty, np.nan, sums), empty)
    if name == "avg":
        sums = _group_sums(kept_values, kept_codes, n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = sums / counts
        return Vector(np.where(empty, np.nan, means), empty)
    if name == "min" or name == "max":
        fill = math.inf if name == "min" else -math.inf
        out = np.full(n_groups, fill)
        reducer = np.minimum if name == "min" else np.maximum
        getattr(reducer, "at")(out, kept_codes, kept_values)
        nulls = empty | ~np.isfinite(out)
        return Vector(np.where(nulls, np.nan, out), nulls)
    if name in ("stddev_pop", "stddev_samp", "stddev", "var_pop"):
        sums = _group_sums(kept_values, kept_codes, n_groups)
        squares = _group_sums(kept_values * kept_values, kept_codes, n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = sums / counts
            variance = squares / counts - means * means
        variance = np.maximum(variance, 0.0)
        if name in ("stddev_samp", "stddev"):
            # unbiased: n/(n-1) correction; undefined for single-row groups
            with np.errstate(invalid="ignore", divide="ignore"):
                variance = variance * counts / (counts - 1.0)
            undefined = counts < 2
        else:
            undefined = empty
        result = variance if name == "var_pop" else np.sqrt(variance)
        nulls = undefined | empty
        return Vector(np.where(nulls, np.nan, result), nulls)
    raise SQLBindError(f"unknown aggregate function {name!r}")
