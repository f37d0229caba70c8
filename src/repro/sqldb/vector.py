"""Column vector model of the SQL engine.

A :class:`Vector` is a pair of numpy arrays: ``values`` and a boolean
``nulls`` mask.  Numeric vectors store float64 (ints are widened), booleans
store bool, and everything else (text, arrays) stores object.  All engine
operators exchange vectors, which keeps SQL three-valued logic explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.errors import SQLExecutionError

__all__ = ["Vector", "from_values", "constant", "gather", "concat_vectors"]


@dataclass
class Vector:
    """A column of SQL values with an explicit null mask."""

    values: np.ndarray
    nulls: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != len(self.nulls):
            raise SQLExecutionError("vector values/nulls length mismatch")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_bool(self) -> bool:
        return self.values.dtype.kind == "b"

    def copy(self) -> "Vector":
        return Vector(self.values.copy(), self.nulls.copy())

    def item(self, i: int) -> Any:
        """Python value at row *i* (None when null)."""
        if self.nulls[i]:
            return None
        value = self.values[i]
        if isinstance(value, np.floating):
            as_float = float(value)
            return int(as_float) if as_float.is_integer() else as_float
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.bool_):
            return bool(value)
        return value

    def tolist(self) -> list:
        return [self.item(i) for i in range(len(self))]


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
    values = np.empty(len(items), dtype=object)
    for i, v in enumerate(items):
        values[i] = v
    return Vector(values, nulls)


def constant(value: Any, length: int) -> Vector:
    """A vector repeating one value."""
    if value is None:
        return Vector(np.zeros(length), np.ones(length, dtype=bool))
    nulls = np.zeros(length, dtype=bool)
    if isinstance(value, bool):
        return Vector(np.full(length, value, dtype=bool), nulls)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Vector(np.full(length, float(value)), nulls)
    values = np.empty(length, dtype=object)
    values[:] = [value] * length
    return Vector(values, nulls)


def gather(vector: Vector, positions: np.ndarray, missing_null: bool = False) -> Vector:
    """Reorder/duplicate rows by position; -1 yields null when allowed."""
    if missing_null:
        hole = positions < 0
        if len(vector) == 0:
            # outer join against an empty side: all positions are holes
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
        return Vector(values, nulls)
    return Vector(vector.values[positions], vector.nulls[positions])


def concat_vectors(parts: list[Vector]) -> Vector:
    """Stack vectors vertically, reconciling dtypes."""
    if not parts:
        return from_values([])
    kinds = {p.values.dtype.kind for p in parts}
    if kinds <= {"f", "i", "u"}:
        values = np.concatenate(
            [p.values.astype(np.float64, copy=False) for p in parts]
        )
    elif kinds == {"b"}:
        values = np.concatenate([p.values for p in parts])
    else:
        values = np.concatenate(
            [p.values.astype(object, copy=False) for p in parts]
        )
    nulls = np.concatenate([p.nulls for p in parts])
    return Vector(values, nulls)


# ---------------------------------------------------------------------------
# element-wise operations with SQL semantics
# ---------------------------------------------------------------------------


def _as_float(vector: Vector, context: str) -> np.ndarray:
    if vector.values.dtype.kind in ("f", "i", "u"):
        return vector.values.astype(np.float64, copy=False)
    if vector.values.dtype.kind == "b":
        return vector.values.astype(np.float64)
    out = np.empty(len(vector), dtype=np.float64)
    for i, value in enumerate(vector.values):
        if vector.nulls[i]:
            out[i] = np.nan
            continue
        try:
            out[i] = float(value)
        except (TypeError, ValueError):
            raise SQLExecutionError(
                f"{context}: cannot interpret {value!r} as a number"
            ) from None
    return out


def arithmetic(op: str, left: Vector, right: Vector) -> Vector:
    """``+ - * / %`` with null propagation; ``||`` concatenates text/arrays."""
    nulls = left.nulls | right.nulls
    if op == "||":
        # lazy import: functions imports this module at load time
        from repro.sqldb.functions import pg_text

        out = np.empty(len(left), dtype=object)
        for i in np.flatnonzero(~nulls):
            a, b = left.values[i], right.values[i]
            if isinstance(a, list) or isinstance(b, list):
                a_list = a if isinstance(a, list) else [a]
                b_list = b if isinstance(b, list) else [b]
                out[i] = a_list + b_list
            else:
                out[i] = pg_text(left.item(i)) + pg_text(right.item(i))
        return Vector(out, nulls.copy())
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
    numeric = (
        left.values.dtype.kind in ("f", "i", "u", "b")
        and right.values.dtype.kind in ("f", "i", "u", "b")
    )
    if numeric:
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
            for i in np.flatnonzero(~nulls):
                a, b = left.values[i], right.values[i]
                try:
                    out[i] = bool(func(a, b))
                except TypeError:
                    # mixed types (e.g. text vs numeric): compare as text
                    out[i] = bool(func(str(a), str(b)))
    return Vector(out, nulls)


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
