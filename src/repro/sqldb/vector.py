"""Column vector model of the SQL engine.

A :class:`Vector` is a pair of numpy arrays: ``values`` and a boolean
``nulls`` mask.  Numeric vectors store float64 (ints are widened), booleans
store bool, and everything else (text, arrays) stores object.  All engine
operators exchange vectors, which keeps SQL three-valued logic explicit.

Scalar kernels whose work is Python per value (text functions, arrays,
mixed-type fallbacks) go through :func:`per_distinct`, which calls the
kernel once per distinct input tuple and gathers the results to rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import SQLExecutionError

__all__ = [
    "Vector",
    "from_values",
    "constant",
    "gather",
    "concat_vectors",
    "first_occurrence_codes",
    "per_distinct",
    "python_cells",
    "python_list",
    "read_only",
    "to_python",
    "to_rows",
]


#: integral floats in [-2**63, 2**63) surface as ``int`` (like psycopg2's
#: INT columns); beyond it they stay the float they are (an int64 cast
#: would wrap 1e19 to -2**63).  The one cell rule of ``to_python``,
#: ``python_list`` and ``python_cells``.
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


def python_list(values: np.ndarray) -> list:
    """``[to_python(v) for v in values]``, at ``tolist`` speed where the
    dtype allows: the elements an array cell is built of."""
    items = values.tolist()
    if values.dtype.kind == "f":
        return [
            int(x) if x.is_integer() and _INT64_LOW <= x < _INT64_HIGH else x
            for x in items
        ]
    if values.dtype == object:
        return list(map(to_python, items))
    return items


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
        return to_python(self.values[i])

    def tolist(self) -> list:
        return [self.item(i) for i in range(len(self))]


def python_cells(vector: Vector) -> np.ndarray | list:
    """The cells of one result column as Python values (None under NULL):
    what a fetched row holds in that column, by ``to_python``'s rule.
    Array cells are copied: the caller gets its own lists, never the ones
    stored (or shared between rows) inside the engine."""
    values = vector.values
    if values.dtype.kind == "f":
        as_object = values.astype(object)
        integral = (
            (np.floor(values) == values)
            & (values >= _INT64_LOW)
            & (values < _INT64_HIGH)
        )
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


def read_only(vector: Vector) -> Vector:
    """A read-only view of *vector*: what a ``Result`` hands out, so no
    caller can write the arrays behind it."""
    values, nulls = vector.values.view(), vector.nulls.view()
    values.flags.writeable = nulls.flags.writeable = False
    return Vector(values, nulls)


def to_rows(vectors: Sequence[Vector]) -> list[tuple]:
    """Row tuples of Python values over equally long result columns: the
    one conversion behind every ``Result.rows``, in-process or fetched
    over the wire."""
    return list(zip(*map(python_cells, vectors))) if vectors else []


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


def _object_codes(cells: list) -> tuple[np.ndarray, int]:
    """Codes of object cells: text by value, anything else by identity.

    Value keys are safe within text only: ``1``, ``1.0`` and ``True`` are
    one dict key but render differently, and ``-0.0 == 0.0``.  When every
    distinct key is a ``str``, every cell is one (only a string equals a
    string), so the type check runs over the distinct keys alone — and not
    at all when no two cells were equal, since then nothing was merged.
    Any other cell — an array, a number in a mixed column — keys by
    identity, which never merges two different values.
    """
    try:
        distinct = dict.fromkeys(cells)
    except TypeError:  # an array cell is unhashable
        distinct = None
    if distinct is not None and (
        len(distinct) == len(cells) or set(map(type, distinct)) <= {str}
    ):
        return first_occurrence_codes(cells, distinct)
    return first_occurrence_codes(list(map(id, cells)))


def _cell_codes(vector: Vector, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense codes of *vector*'s cells at *rows* (null is one more code)
    and the number of codes."""
    values = vector.values[rows]
    nulls = vector.nulls[rows]
    has_null = bool(nulls.any())
    if has_null:
        values = values[~nulls]
    if values.dtype == object:
        codes, n = _object_codes(values.tolist())
    else:
        # floats by bit pattern: -0.0 is not 0.0 to str() or sign tests
        if values.dtype.kind == "f":
            values = values.view(f"i{values.itemsize}")
        codes, n = first_occurrence_codes(values.tolist())
    if not has_null:
        return codes, n
    full = np.full(len(rows), n, dtype=np.int64)
    full[~nulls] = codes
    return full, n + 1


def per_distinct(
    fn: Callable[..., Any],
    vectors: Sequence[Vector],
    rows: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``out[i] = fn(*cells of row i)`` for each position *i* in *rows*,
    calling *fn* once per distinct tuple of input cells.

    A cell is the stored value (a numpy scalar in numeric vectors), or None
    under null.  Two cells share a call only when no kernel can tell them
    apart: equal text, numeric cells with the same bit pattern, and any
    other object only with itself.  Rows sharing a tuple share the one
    result object — arrays are values inside the engine and are copied at
    its boundary, never mutated in place.  Tuples are evaluated in order
    of first occurrence, so the first failing row raises.
    """
    if len(rows) == 0:
        return out
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
            codes, n = first_occurrence_codes((codes * k + part).tolist())
    # any row of a tuple stands for all of them
    first = np.empty(n, dtype=np.int64)
    first[codes] = rows
    columns = []
    for vector, same in zip(vectors, constant):
        picked = rows[:1] if same else first
        cells = vector.values[picked]
        # numeric cells stay numpy scalars: a kernel sees the stored value
        cells = cells.tolist() if cells.dtype == object else list(cells)
        for j in np.flatnonzero(vector.nulls[picked]):
            cells[j] = None
        columns.append(cells * n if same else cells)
    table = np.fromiter(map(fn, *columns), dtype=out.dtype, count=n)
    out[rows] = table[codes]
    return out


# ---------------------------------------------------------------------------
# element-wise operations with SQL semantics
# ---------------------------------------------------------------------------


def _as_float(vector: Vector, context: str) -> np.ndarray:
    if vector.values.dtype.kind in ("f", "i", "u"):
        return vector.values.astype(np.float64, copy=False)
    if vector.values.dtype.kind == "b":
        return vector.values.astype(np.float64)

    def number(value: Any) -> float:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise SQLExecutionError(
                f"{context}: cannot interpret {value!r} as a number"
            ) from None

    rows = np.flatnonzero(~vector.nulls)
    out = np.full(len(vector), np.nan)
    try:
        return per_distinct(float, [vector], rows, out)
    except (TypeError, ValueError):
        # again through the wrapper, which names the first bad value
        return per_distinct(number, [vector], rows, out)


def arithmetic(op: str, left: Vector, right: Vector) -> Vector:
    """``+ - * / %`` with null propagation; ``||`` concatenates text/arrays."""
    nulls = left.nulls | right.nulls
    if op == "||":
        # lazy import: functions imports this module at load time
        from repro.sqldb.functions import cell_text

        def concat(a: Any, b: Any) -> Any:
            if isinstance(a, list) or isinstance(b, list):
                # array elements are Python values, never numpy scalars
                a_list = a if isinstance(a, list) else [to_python(a)]
                b_list = b if isinstance(b, list) else [to_python(b)]
                return a_list + b_list
            return cell_text(a) + cell_text(b)

        out = np.empty(len(left), dtype=object)
        per_distinct(concat, [left, right], np.flatnonzero(~nulls), out)
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

            def mixed(a: Any, b: Any) -> bool:
                try:
                    return bool(func(a, b))
                except TypeError:
                    # mixed types (e.g. text vs numeric): compare as text
                    return bool(func(str(a), str(b)))

            per_distinct(mixed, [left, right], np.flatnonzero(~nulls), out)
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
