"""Scalar and aggregate SQL function implementations.

Scalar functions consume/produce :class:`~repro.sqldb.vector.Vector`;
aggregates consume a vector plus per-row group codes and produce one output
row per group.  The set covers everything the transpiler emits (§5 of the
paper): ``coalesce``, ``regexp_replace``, ``least``/``greatest``,
``floor``/``ceil``, ``array_fill``/``array_length``/``array_position``,
``unnest`` (handled by the executor), plus aggregates ``count``, ``sum``,
``avg``, ``min``, ``max``, ``stddev_pop``/``stddev_samp``, ``array_agg``.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

import numpy as np

from repro.errors import SQLBindError, SQLExecutionError
from repro.sqldb.vector import Vector, from_values

__all__ = [
    "AGGREGATE_NAMES",
    "SCALAR_FUNCTIONS",
    "compute_aggregate",
    "is_aggregate",
    "pg_text",
]


# ---------------------------------------------------------------------------
# value -> text coercion
# ---------------------------------------------------------------------------


def pg_text(value: Any) -> Any:
    """Render one SQL value as PostgreSQL's text cast would.

    Every value→text coercion in the engine (``||``, ``CAST .. AS TEXT``,
    ``LIKE`` operands, string functions) routes through here so integers
    stored in float64-backed vectors print as ``'1'`` rather than ``'1.0'``.
    Returns None for SQL NULL.
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


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------


def _fn_coalesce(args: list[Vector]) -> Vector:
    if not args:
        raise SQLExecutionError("coalesce requires at least one argument")
    result = args[0].copy()
    for candidate in args[1:]:
        still_null = result.nulls
        if not still_null.any():
            break
        fill = still_null & ~candidate.nulls
        if not fill.any():
            continue
        if result.values.dtype == candidate.values.dtype and result.values.dtype != object:
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
    text, pattern, replacement = args
    out = np.empty(len(text), dtype=object)
    nulls = text.nulls | pattern.nulls | replacement.nulls
    cache: dict[str, re.Pattern] = {}
    for i in np.flatnonzero(~nulls):
        pat = pg_text(pattern.item(i))
        compiled = cache.get(pat)
        if compiled is None:
            compiled = re.compile(pat)
            cache[pat] = compiled
        out[i] = compiled.sub(
            pg_text(replacement.item(i)), pg_text(text.item(i)), count=1
        )
    return Vector(out, nulls)


def _extremum(args: list[Vector], pick: Callable) -> Vector:
    if not args:
        raise SQLExecutionError("least/greatest require arguments")
    numeric = all(a.values.dtype.kind in ("f", "i", "u") for a in args)
    length = len(args[0])
    if numeric:
        stacked = np.vstack([a.values.astype(np.float64) for a in args])
        null_stack = np.vstack([a.nulls for a in args])
        masked = np.where(null_stack, np.nan, stacked)
        with np.errstate(all="ignore"):
            values = pick(masked, axis=0)
        nulls = np.isnan(values)
        return Vector(np.where(nulls, np.nan, values), nulls)
    out = np.empty(length, dtype=object)
    nulls = np.zeros(length, dtype=bool)
    reducer = min if pick is np.nanmin else max
    for i in range(length):
        candidates = [a.values[i] for a in args if not a.nulls[i]]
        if candidates:
            out[i] = reducer(candidates)
        else:
            nulls[i] = True
    return Vector(out, nulls)


def _fn_least(args: list[Vector]) -> Vector:
    return _extremum(args, np.nanmin)


def _fn_greatest(args: list[Vector]) -> Vector:
    return _extremum(args, np.nanmax)


def _numeric_unary(args: list[Vector], func: Callable, name: str) -> Vector:
    if len(args) != 1:
        raise SQLExecutionError(f"{name} takes one argument")
    arg = args[0]
    values = arg.values.astype(np.float64, copy=False)
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
    out = np.empty(len(value), dtype=object)
    nulls = count.nulls.copy()
    counts = count.values
    fill_values = value.values
    fill_nulls = value.nulls
    cache: dict[tuple, list] = {}
    for i in np.flatnonzero(~nulls):
        fill = None if fill_nulls[i] else value.item(i)
        key = (fill, int(counts[i]))
        prototype = cache.get(key)
        if prototype is None:
            prototype = [fill] * max(key[1], 0)
            cache[key] = prototype
        out[i] = list(prototype)
    return Vector(out, nulls)


def _fn_array_length(args: list[Vector]) -> Vector:
    if len(args) not in (1, 2):
        raise SQLExecutionError("array_length(array[, dim])")
    arr = args[0]
    out = np.empty(len(arr), dtype=np.float64)
    nulls = arr.nulls.copy()
    for i in np.flatnonzero(~nulls):
        value = arr.values[i]
        if not isinstance(value, list):
            raise SQLExecutionError("array_length argument is not an array")
        out[i] = len(value)
    return Vector(np.where(nulls, np.nan, out), nulls)


def _fn_array_position(args: list[Vector]) -> Vector:
    """1-based index of an element inside an array (null when absent)."""
    if len(args) != 2:
        raise SQLExecutionError("array_position(array, element)")
    arr, element = args
    out = np.full(len(arr), np.nan)
    nulls = arr.nulls | element.nulls
    for i in np.flatnonzero(~nulls):
        value = arr.values[i]
        try:
            out[i] = value.index(element.item(i)) + 1
        except ValueError:
            nulls[i] = True
    return Vector(out, nulls)


def _string_unary(args: list[Vector], func: Callable[[str], Any], name: str) -> Vector:
    if len(args) != 1:
        raise SQLExecutionError(f"{name} takes one argument")
    arg = args[0]
    out = np.empty(len(arg), dtype=object)
    for i in np.flatnonzero(~arg.nulls):
        out[i] = func(pg_text(arg.item(i)))
    return Vector(out, arg.nulls.copy())


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
    vec = _string_unary(args, len, "length")
    values = np.array(
        [float(v) if v is not None else np.nan for v in vec.values], dtype=np.float64
    )
    return Vector(values, vec.nulls)


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
        has_null = arg.nulls.any()
        values = arg.values[order]
        nulls = arg.nulls[order] if has_null else None
        for g in range(n_groups):
            lo, hi = int(boundaries[g]), int(boundaries[g + 1])
            # tolist() on either branch: elements are Python scalars,
            # never numpy ones
            bucket = values[lo:hi].tolist()
            if has_null:
                for k in np.flatnonzero(nulls[lo:hi]):
                    bucket[k] = None
            out[g] = bucket
        return Vector(out, np.zeros(n_groups, dtype=bool))

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

    values = arg.values.astype(np.float64, copy=False)
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
