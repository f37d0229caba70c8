"""Scalar and aggregate SQL function implementations.

Scalar functions consume/produce :class:`~repro.sqldb.vector.Vector`;
aggregates consume a vector plus per-row group codes and produce one output
row per group.  The set covers everything the transpiler emits (§5 of the
paper): ``coalesce``, ``regexp_replace``, ``least``/``greatest``,
``floor``/``ceil``, ``array_fill``/``array_length``/``array_position``,
``unnest`` (handled by the executor), plus aggregates ``count``, ``sum``,
``avg``, ``min``, ``max``, ``stddev_pop``/``stddev_samp``, ``array_agg``.
The ``LIKE`` operator lives here too.  Every kernel whose
work is Python per value runs once per distinct input tuple
(:func:`~repro.sqldb.vector.per_distinct`).
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

import numpy as np

from repro.errors import SQLBindError, SQLExecutionError
from repro.sqldb.vector import (
    Vector,
    _as_float,
    align,
    cell_text,
    cells,
    dictionary_ranks,
    per_distinct,
    per_distinct_cells,
    python_list,
    to_python,
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
    numeric = all(
        a.dictionary is None and a.values.dtype.kind in ("f", "i", "u")
        for a in args
    )
    length = len(args[0])
    if numeric:
        stacked = np.vstack([a.values.astype(np.float64) for a in args])
        null_stack = np.vstack([a.nulls for a in args])
        masked = np.where(null_stack, np.nan, stacked)
        with np.errstate(all="ignore"):
            values = pick(masked, axis=0)
        nulls = np.isnan(values)
        return Vector(np.where(nulls, np.nan, values), nulls)
    reducer = min if pick is np.nanmin else max

    def extremum(*cells: Any) -> Any:
        candidates = [cell for cell in cells if cell is not None]
        return reducer(candidates) if candidates else None

    return per_distinct_cells(
        extremum, args, np.arange(length),
        np.logical_and.reduce([a.nulls for a in args]),
    )


def _fn_least(args: list[Vector]) -> Vector:
    return _extremum(args, np.nanmin)


def _fn_greatest(args: list[Vector]) -> Vector:
    return _extremum(args, np.nanmax)


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
    transpiler emits the scalar-count variant for simplicity.
    """
    if len(args) != 2:
        raise SQLExecutionError("array_fill(value, count)")
    value, count = args
    nulls = count.nulls.copy()

    def fill(cell: Any, n: Any) -> list:
        return [to_python(cell)] * max(int(n), 0)

    out = np.empty(len(value), dtype=object)
    per_distinct(fill, args, np.flatnonzero(~nulls), out)
    return Vector(out, nulls)


def _fn_array_length(args: list[Vector]) -> Vector:
    if len(args) not in (1, 2):
        raise SQLExecutionError("array_length(array[, dim])")
    arr = args[0]

    def length(value: Any) -> int:
        if not isinstance(value, list):
            raise SQLExecutionError("array_length argument is not an array")
        return len(value)

    out = np.full(len(arr), np.nan)
    per_distinct(length, [arr], np.flatnonzero(~arr.nulls), out)
    return Vector(out, arr.nulls.copy())


def _fn_array_position(args: list[Vector]) -> Vector:
    """1-based index of an element inside an array (null when absent)."""
    if len(args) != 2:
        raise SQLExecutionError("array_position(array, element)")
    arr, element = args

    def position(value: Any, wanted: Any) -> float:
        try:
            return value.index(to_python(wanted)) + 1
        except ValueError:
            return np.nan

    out = np.full(len(arr), np.nan)
    per_distinct(position, args, np.flatnonzero(~(arr.nulls | element.nulls)), out)
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
        seen: set[tuple[int, Any]] = set()
        counts = np.zeros(n_groups, dtype=np.float64)
        for i in np.flatnonzero(keep):
            key = (int(codes[i]), arg.values[i])
            if key not in seen:
                seen.add(key)
                counts[int(codes[i])] += 1
        return Vector(counts, np.zeros(n_groups, dtype=bool))

    if name == "count":
        counts = np.bincount(codes[keep], minlength=n_groups).astype(np.float64)
        return Vector(counts, np.zeros(n_groups, dtype=bool))

    if name == "array_agg":
        out = np.empty(n_groups, dtype=object)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        boundaries = np.searchsorted(
            sorted_codes, np.arange(n_groups + 1), side="left"
        )
        # elements are what a fetched cell would be: Python values, and
        # integral floats as int (to_python's rule)
        items = python_list(cells(arg)[order])
        for k in np.flatnonzero(arg.nulls[order]):
            items[k] = None
        bounds = boundaries.tolist()
        for g in range(n_groups):
            out[g] = items[bounds[g]:bounds[g + 1]]
        return Vector(out, np.zeros(n_groups, dtype=bool))

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

    if name in ("min", "max") and arg.values.dtype == object:
        out = np.empty(n_groups, dtype=object)
        nulls = np.ones(n_groups, dtype=bool)
        better = (lambda a, b: a < b) if name == "min" else (lambda a, b: a > b)
        for i in np.flatnonzero(keep):
            g = int(codes[i])
            value = arg.values[i]
            if nulls[g] or better(value, out[g]):
                out[g] = value
                nulls[g] = False
        return Vector(out, nulls)

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
