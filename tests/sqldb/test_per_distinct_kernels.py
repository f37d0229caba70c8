"""Per-distinct scalar kernels against the per-row loops they replaced.

Every scalar kernel whose work is Python per value (text functions,
``||``, ``LIKE``, ``CAST``, the object paths of arithmetic, comparison and
``least``/``greatest``) runs once per distinct input tuple through
:func:`repro.sqldb.vector.per_distinct`; the array functions are
whole-column passes over array vectors (offsets plus one element vector),
fed here as such and compared with the loops on the lists they stand for
(``test_array_columns_oracle.py`` compares them with the per-distinct
object-list kernels they replaced).  The oracles below are the
row-at-a-time loops those kernels used to be, kept verbatim (only the
statement-level plumbing — ``batch.length``, the compiled operands — is
replaced by plain arguments).  One deliberate change: the old
``array_fill`` loop memoised on ``(fill, count)``, and ``1``, ``1.0`` and
``True`` are one dict key, so a column holding both ``1.0`` and ``True``
got ``[1.0, 1.0]`` for the ``True`` row.  Its oracle is the loop without
that cache; ``test_array_fill_keeps_each_fill_type`` pins the fix.
The other deliberate change is ``CAST``, now the one assignment rule
(:func:`repro.sqldb.vector.assign`): a cell the rule rejects — text that
is no number, text that is no integer for ``int``, text outside
PostgreSQL's boolean spellings, an array for a number or boolean — now
raises 22P02 where the loop raised a bare ``ValueError``/``TypeError``,
rounded or read false.  A column holding such a cell is compared with
that error (named by its first such cell), every other column with the
loop; ``test_assignment_matrix.py`` pins the answers against PostgreSQL's.
And ``least``/``greatest`` over values of two types (a number and text)
raise 42804 where the loop raised a bare ``TypeError``.

Text is stored as dictionary codes, so every kernel is also fed coded
text columns (with dictionary entries no row uses).  The oracles see the
same cells as object columns, and a coded result is compared by its
decoded cells.

The hypothesis depth follows ``--fuzz-rounds`` at ten examples per
round: 30 in tier-1 (three rounds), 250 in CI's smoke lane
(``--fuzz-rounds 25``).
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLExecutionError
from repro.sqldb import Database, functions, hashing, vector
from repro.sqldb.functions import _like_to_regex
from repro.sqldb.vector import Vector, pg_text

pytestmark = [
    pytest.mark.fuzz,
    # least/greatest over all-null numeric rows: numpy warns, SQL says null
    pytest.mark.filterwarnings("ignore:All-NaN slice encountered"),
]

# -- the per-row loops the kernels replaced (reference oracle) ---------------


def old_regexp_replace(args):
    text, pattern, replacement = args
    out = np.empty(len(text), dtype=object)
    nulls = text.nulls | pattern.nulls | replacement.nulls
    cache = {}
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


def old_extremum(args, pick):
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


def old_array_fill(args):
    value, count = args
    out = np.empty(len(value), dtype=object)
    nulls = count.nulls.copy()
    counts = count.values
    fill_nulls = value.nulls
    for i in np.flatnonzero(~nulls):
        fill = None if fill_nulls[i] else value.item(i)
        out[i] = [fill] * max(int(counts[i]), 0)
    return Vector(out, nulls)


def old_array_length(args):
    arr = args[0]
    out = np.empty(len(arr), dtype=np.float64)
    nulls = arr.nulls.copy()
    for i in np.flatnonzero(~nulls):
        value = arr.values[i]
        if not isinstance(value, list):
            raise SQLExecutionError(
                "array_length argument is not an array"
            )
        out[i] = len(value)
    return Vector(np.where(nulls, np.nan, out), nulls)


def old_array_position(args):
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


def old_string_unary(args, func):
    arg = args[0]
    out = np.empty(len(arg), dtype=object)
    for i in np.flatnonzero(~arg.nulls):
        out[i] = func(pg_text(arg.item(i)))
    return Vector(out, arg.nulls.copy())


def old_char_length(args):
    vec = old_string_unary(args, len)
    values = np.array(
        [float(v) if v is not None else np.nan for v in vec.values], dtype=np.float64
    )
    return Vector(values, vec.nulls)


def old_concat(left, right):
    nulls = left.nulls | right.nulls
    out = np.empty(len(left), dtype=object)
    for i in np.flatnonzero(~nulls):
        a, b = left.values[i], right.values[i]
        if isinstance(a, list) or isinstance(b, list):
            # the non-array operand as its Python value (to_python)
            a_list = a if isinstance(a, list) else [left.item(i)]
            b_list = b if isinstance(b, list) else [right.item(i)]
            out[i] = a_list + b_list
        else:
            out[i] = pg_text(left.item(i)) + pg_text(right.item(i))
    return Vector(out, nulls.copy())


def old_as_float(vector_, context):
    if vector_.values.dtype.kind in ("f", "i", "u"):
        return vector_.values.astype(np.float64, copy=False)
    if vector_.values.dtype.kind == "b":
        return vector_.values.astype(np.float64)
    out = np.empty(len(vector_), dtype=np.float64)
    for i, value in enumerate(vector_.values):
        if vector_.nulls[i]:
            out[i] = np.nan
            continue
        try:
            out[i] = float(value)
        except (TypeError, ValueError):
            raise SQLExecutionError(
                f"{context}: cannot interpret {value!r} as a number"
            ) from None
    return out


def old_compare(op, left, right):
    nulls = left.nulls | right.nulls
    out = np.zeros(len(left), dtype=bool)
    func = vector._COMPARators[op]
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
                    out[i] = bool(func(str(a), str(b)))
    return Vector(out, nulls)


def old_like(value, pattern):
    nulls = value.nulls | pattern.nulls
    out = np.zeros(len(value), dtype=bool)
    cache = {}
    for i in np.flatnonzero(~nulls):
        raw = pg_text(pattern.item(i))
        compiled = cache.setdefault(raw, _like_to_regex(raw))
        subject = pg_text(value.item(i))
        out[i] = compiled.fullmatch(subject) is not None
    return Vector(out, nulls)


def old_cast(value, target):
    if target == "int":
        if value.values.dtype.kind in ("f", "i", "u", "b"):
            out = np.rint(value.values.astype(np.float64))
        else:
            out = np.array(
                [
                    float(v) if not value.nulls[i] else np.nan
                    for i, v in enumerate(value.values)
                ]
            )
            out = np.rint(out)
        return Vector(out, value.nulls.copy())
    if target == "float":
        if value.values.dtype.kind in ("f", "i", "u", "b"):
            return Vector(value.values.astype(np.float64), value.nulls.copy())
        out = np.array(
            [
                float(v) if not value.nulls[i] else np.nan
                for i, v in enumerate(value.values)
            ]
        )
        return Vector(out, value.nulls.copy())
    if target == "text":
        out = np.empty(len(value), dtype=object)
        for i in np.flatnonzero(~value.nulls):
            out[i] = pg_text(value.item(i))
        return Vector(out, value.nulls.copy())
    out = np.zeros(len(value), dtype=bool)
    nulls = value.nulls.copy()
    for i in np.flatnonzero(~nulls):
        raw = value.values[i]
        if isinstance(raw, (bool, np.bool_)):
            out[i] = bool(raw)
        elif isinstance(raw, (int, float, np.integer, np.floating)):
            out[i] = raw != 0
        else:
            text = str(raw).strip().lower()
            out[i] = text in ("t", "true", "1", "yes", "on")
    return Vector(out, nulls)


def old_factorize_values(values, nulls):
    codes = np.full(len(values), -2, dtype=np.int64)
    present = ~nulls
    if not present.any():
        return codes
    subset = values[present]
    if subset.dtype == object:
        mapping = {}
        inverse = np.empty(len(subset), dtype=np.int64)
        get = mapping.get
        for i, value in enumerate(subset):
            code = get(value)
            if code is None:
                code = len(mapping)
                mapping[value] = code
            inverse[i] = code
        codes[present] = inverse
        return codes
    _, inverse = np.unique(subset, return_inverse=True)
    codes[present] = inverse.astype(np.int64)
    return codes


# -- kernels: (rewritten, oracle, argument kinds) ----------------------------

SCALAR = functions.SCALAR_FUNCTIONS

KERNELS = {
    "regexp_replace": (
        SCALAR["regexp_replace"], old_regexp_replace, ("any", "any", "any")
    ),
    "array_fill": (SCALAR["array_fill"], old_array_fill, ("any", "count")),
    "array_length": (SCALAR["array_length"], old_array_length, ("array",)),
    "array_position": (
        SCALAR["array_position"], old_array_position, ("array", "any")
    ),
    "least": (SCALAR["least"], lambda a: old_extremum(a, np.nanmin), ("any",) * 3),
    "greatest": (
        SCALAR["greatest"], lambda a: old_extremum(a, np.nanmax), ("any", "any")
    ),
    "upper": (SCALAR["upper"], lambda a: old_string_unary(a, str.upper), ("any",)),
    "lower": (SCALAR["lower"], lambda a: old_string_unary(a, str.lower), ("any",)),
    "trim": (SCALAR["trim"], lambda a: old_string_unary(a, str.strip), ("any",)),
    "length": (SCALAR["length"], old_char_length, ("any",)),
    "||": (
        lambda a: vector.arithmetic("||", *a),
        lambda a: old_concat(*a),
        ("any", "any"),
    ),
    "as_float": (
        lambda a: vector._as_float(a[0], "+"),
        lambda a: old_as_float(a[0], "+"),
        ("any",),
    ),
    "like": (
        lambda a: functions.like(*a), lambda a: old_like(*a), ("any", "any")
    ),
}
for _op in vector._COMPARators:
    KERNELS[f"compare {_op}"] = (
        lambda a, op=_op: vector.compare(op, *a),
        lambda a, op=_op: old_compare(op, *a),
        ("any", "any"),
    )
for _target in ("int", "float", "text", "bool"):
    KERNELS[f"cast {_target}"] = (
        lambda a, t=_target: vector.assign(a[0], vector.normalise_type(t)),
        lambda a, t=_target: old_cast(a[0], t),
        ("any",),
    )

# -- adversarial columns -------------------------------------------------------

SHARED = [1, 2]
#: factories, so each draw may be a fresh object: equal-but-distinct
#: strings and lists next to shared ones
OBJECT_CELLS = [
    lambda: None,
    lambda: 1,
    lambda: 1.0,
    lambda: True,
    lambda: False,
    lambda: 0,
    lambda: 0.0,
    lambda: -0.0,
    lambda: math.nan,
    lambda: 10**17,
    lambda: 2.5,
    lambda: np.float64(1e16),
    lambda: "a",
    lambda: "".join(["a", "b"]),
    lambda: "ab",
    lambda: " Ab ",
    lambda: "%",
    lambda: "_b",
    lambda: "1",
    lambda: "true",
]
#: cells that are one dict key but differ in type or sign
COLLIDING_CELLS = [
    lambda: None,
    lambda: 1,
    lambda: 1.0,
    lambda: True,
    lambda: np.float64(1.0),
    lambda: 0,
    lambda: 0.0,
    lambda: -0.0,
    lambda: False,
]
FLOAT_CELLS = [None, 0.0, -0.0, 1.0, 2.5, -3.0, math.nan, 1e16, 1e17]
ARRAY_CELLS = [
    lambda: None,
    lambda: SHARED,
    lambda: [1, 2],
    lambda: [],
    lambda: [2.5, 1],
    lambda: [True, "a"],
]


def _object_vector(cells):
    values = np.empty(len(cells), dtype=object)
    for i, cell in enumerate(cells):
        values[i] = cell
    return Vector(values, np.array([c is None for c in cells], dtype=bool))


def _float_vector(cells):
    nulls = np.array([c is None for c in cells], dtype=bool)
    values = np.array([np.nan if c is None else c for c in cells], dtype=float)
    return Vector(values, nulls)


def _column(kind, n):
    if kind == "count":
        return st.lists(
            st.sampled_from([None, 0.0, 1.0, 2.0, 3.0, -1.0]), min_size=n, max_size=n
        ).map(_float_vector)
    if kind == "array":
        return st.lists(st.sampled_from(ARRAY_CELLS), min_size=n, max_size=n).map(
            lambda made: vector.array_vector([make() for make in made])
        )
    objects, colliding = (
        st.lists(st.sampled_from(pool), min_size=n, max_size=n).map(
            lambda made: _object_vector([make() for make in made])
        )
        for pool in (OBJECT_CELLS, COLLIDING_CELLS)
    )
    floats = st.lists(st.sampled_from(FLOAT_CELLS), min_size=n, max_size=n).map(
        _float_vector
    )
    bools = st.lists(st.sampled_from([None, True, False]), min_size=n, max_size=n)
    bools = bools.map(
        lambda cells: Vector(
            np.array([bool(c) for c in cells]),
            np.array([c is None for c in cells], dtype=bool),
        )
    )
    texts = st.lists(
        st.sampled_from(TEXT_CELLS), min_size=n, max_size=n
    ).map(_text_vector)
    return st.one_of(objects, colliding, floats, bools, texts)


#: text cells: equal-but-distinct strings, unicode, '' next to NULL
TEXT_CELLS = [
    None, "a", "ab", "".join(["a", "b"]), " Ab ", "%", "_b", "1", "true",
    "", "é", "日本", "2.5",
]


def _text_vector(cells):
    """A coded text column whose dictionary also holds unused entries."""
    unused = ["unused", "zz"]
    stored = vector.from_values(unused + cells)
    return vector.gather(stored, np.arange(len(unused), len(unused) + len(cells)))


def _as_objects(column):
    """The column an oracle reads: text decoded to one ``str`` per cell,
    arrays to one list per cell (the object storage they replaced)."""
    if not (column.is_text or column.is_array):
        return column
    return _object_vector(
        [None if null else cell
         for cell, null in zip(column.tolist(), column.nulls)]
    )


# -- comparing outcomes ---------------------------------------------------------


def _same_cell(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_cell, a, b))
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    return a == b


def _outcome(kernel, args):
    try:
        result = kernel(args)
    except Exception as exc:  # the oracle's error must be the kernel's too
        return ("raised", type(exc), str(exc))
    if isinstance(result, Vector):
        return _as_objects(result).values, result.nulls
    return result, None


def _assert_same(new, old):
    if isinstance(old[0], str) or isinstance(new[0], str):  # "raised"
        assert new == old
        return
    (new_values, new_nulls), (old_values, old_nulls) = new, old
    assert new_values.dtype == old_values.dtype
    if old_nulls is not None:
        assert new_nulls.tolist() == old_nulls.tolist()
    assert len(new_values) == len(old_values)
    for a, b in zip(new_values.tolist(), old_values.tolist()):
        assert _same_cell(a, b), (a, b)


def _examples(request) -> int:
    rounds = request.config.getoption("--fuzz-rounds")
    return 10 * (rounds if rounds is not None else 3)


#: what the assignment rule calls a value it cannot convert, by CAST target
_REJECTED_AS = {"int": "an integer", "float": "a number", "bool": "a boolean"}


def _rejection(cell, target):
    """The error the assignment rule raises for one non-NULL *cell* in a
    CAST to *target* (``int``, ``float`` or ``bool``), or None."""
    invalid = f"cannot interpret {cell!r} as {_REJECTED_AS[target]}"
    if isinstance(cell, str):
        if target == "bool":
            valid = cell.strip().lower() in (
                "t", "true", "y", "yes", "on", "1",
                "f", "false", "n", "no", "off", "0",
            )
            return None if valid else invalid
        try:
            number = float(cell)
        except ValueError:
            return invalid
        return invalid if target == "int" and not number.is_integer() else None
    if not isinstance(cell, (int, float, np.number, np.bool_)):
        return invalid
    if target == "int" and not math.isfinite(float(cell)):
        return "integer out of range"
    return None


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_matches_its_row_loop(name, request):
    new, old, kinds = KERNELS[name]
    target = name[len("cast "):] if name.startswith("cast ") else None

    @settings(max_examples=_examples(request), deadline=None)
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(min_value=0, max_value=10))
        args = [data.draw(_column(kind, n)) for kind in kinds]
        old_args = [_as_objects(arg) for arg in args]
        if target in _REJECTED_AS:
            present = _as_objects(args[0])
            rejected = [
                _rejection(cell, target)
                for cell, null in zip(present.values, present.nulls)
                if not null and _rejection(cell, target)
            ]
            if rejected:
                assert _outcome(new, args) == (
                    "raised", SQLExecutionError, rejected[0],
                )
                return
        got, want = _outcome(new, args), _outcome(old, old_args)
        if (
            name in ("least", "greatest")
            and isinstance(want[0], str)
            and issubclass(want[1], TypeError)
        ):
            # values of two types: 42804, where the loop raised a bare
            # TypeError naming the operands in the order it met them
            assert got[:2] == ("raised", SQLExecutionError), got
            assert "cannot be matched" in got[2], got
            return
        _assert_same(got, want)

    check()


def test_factorize_values_keeps_its_codes(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(
        made=st.lists(st.sampled_from(OBJECT_CELLS), max_size=12),
        numeric=st.lists(st.sampled_from(FLOAT_CELLS), max_size=12),
    )
    def check(made, numeric):
        objects = _object_vector([make() for make in made])
        for column in (objects, _float_vector(numeric)):
            args = (column.values, column.nulls)
            new = _outcome(lambda a: hashing._factorize_values(Vector(*a)), args)
            old = _outcome(lambda a: old_factorize_values(*a), args)
            if isinstance(old[0], str):  # lists are unhashable either way
                assert new == old
            else:
                # integral numbers are coded value - min now: the same
                # groups in the same order, so densified they are equal
                codes = new[0]
                present = codes >= 0
                dense = codes.copy()
                if present.any():
                    dense[present] = np.unique(
                        codes[present], return_inverse=True
                    )[1].reshape(-1)
                assert dense.tolist() == old[0].tolist()

    check()


# -- targeted properties --------------------------------------------------------


def test_array_fill_keeps_each_fill_type():
    """``1.0`` and ``True`` are one dict key; the old kernel's memo handed
    the ``True`` row the ``1.0`` row's array."""
    fills = _object_vector([1.0, True, 1])
    counts = _float_vector([2.0, 2.0, 2.0])
    out = SCALAR["array_fill"]([fills, counts]).tolist()
    assert [[type(x) for x in cell] for cell in out] == [
        [float, float], [bool, bool], [int, int]
    ]


def test_signed_zero_and_numeric_types_are_not_merged():
    left = _object_vector([0.0, -0.0, 1, 1.0, True])
    right = _object_vector(["a"] * 5)
    # mixed types fall back to comparing text, where each of these differs
    out = vector.compare("<", left, right)
    expected = [str(v) < "a" for v in [0.0, -0.0, 1, 1.0, True]]
    assert out.values.tolist() == expected
    as_float = vector._as_float(left, "+")
    assert as_float.tolist() == [0.0, -0.0, 1.0, 1.0, 1.0]
    assert np.signbit(as_float).tolist() == [False, True, False, False, False]
    assert vector.arithmetic("||", left, right).tolist() == [
        "0a", "0a", "1a", "1a", "truea"
    ]


N_ROWS = 20_000
WORDS = ["alpha", "beta", "gamma", "delta"]


@pytest.fixture
def counted(monkeypatch):
    """Call counts of ``pg_text`` and ``re.compile`` while a kernel runs."""
    calls = {"pg_text": 0, "compile": 0}
    real_pg_text, real_compile = vector.pg_text, re.compile

    def counting_pg_text(value):
        calls["pg_text"] += 1
        return real_pg_text(value)

    def counting_compile(*args, **kwargs):
        calls["compile"] += 1
        return real_compile(*args, **kwargs)

    monkeypatch.setattr(vector, "pg_text", counting_pg_text)
    monkeypatch.setattr(re, "compile", counting_compile)
    return calls


def _words_vector():
    """Four distinct values, each row its own ``str`` object."""
    cells = [(WORDS[i % 4] + " ")[:-1] for i in range(N_ROWS)]
    assert len(set(map(id, cells))) == N_ROWS
    return vector.from_values(cells)


@pytest.mark.parametrize(
    "name, kernel, text_args",
    [
        ("upper", lambda v: SCALAR["upper"]([v]), 1),
        ("length", lambda v: SCALAR["length"]([v]), 1),
        (
            "regexp_replace",
            lambda v: SCALAR["regexp_replace"](
                [v, vector.constant("a", N_ROWS), vector.constant("A", N_ROWS)]
            ),
            3,
        ),
        ("||", lambda v: vector.arithmetic("||", v, vector.constant("!", N_ROWS)), 2),
        ("like", lambda v: functions.like(v, vector.constant("%ta", N_ROWS)), 2),
        ("cast text", lambda v: vector.assign(v, "text"), 1),
    ],
)
def test_python_work_is_once_per_distinct_value(counted, name, kernel, text_args):
    result = kernel(_words_vector())
    assert len(result) == N_ROWS
    assert counted["pg_text"] <= len(WORDS) * text_args
    assert counted["compile"] <= len(WORDS)


def test_sql_text_kernels_run_per_distinct_value(counted):
    db = Database()
    db.execute("CREATE TABLE t (s text)")
    db.catalog.table("t").append_columns(
        {"s": [WORDS[i % 4] for i in range(N_ROWS)]}, N_ROWS
    )
    counted.update(pg_text=0, compile=0)
    out = db.execute(
        "SELECT regexp_replace(s, 'a', 'A') AS r, upper(s) AS u, "
        "s || '!' AS c, CAST(s AS text) AS t FROM t WHERE s LIKE '%ta'"
    )
    assert len(out.rows) == N_ROWS // 2
    assert out.rows[0] == ("betA", "BETA", "beta!", "beta")
    # four distinct values, each through at most eight text arguments
    assert counted["pg_text"] <= len(WORDS) * 8
    assert counted["compile"] <= 2 * len(WORDS)


# -- arrays are values at the engine boundary ------------------------------------


def test_fetched_arrays_are_the_callers_own():
    db = Database()
    db.run_script(
        "CREATE TABLE t (x int);"
        "INSERT INTO t VALUES (1), (2), (3);"
        "CREATE MATERIALIZED VIEW mv AS SELECT x, array_fill(0, 3) AS a FROM t"
    )
    rows = db.execute("SELECT a FROM mv ORDER BY x").rows
    rows[0][0].append(99)
    assert rows[1][0] == [0, 0, 0]
    assert db.execute("SELECT a FROM mv ORDER BY x").rows == [([0, 0, 0],)] * 3


def test_inserted_arrays_are_copied_in():
    db = Database()
    db.execute("CREATE TABLE t (a int[])")
    cell = [1, 2]
    db.execute("INSERT INTO t VALUES (?)", (cell,))
    cell.append(3)
    assert db.execute("SELECT a FROM t").rows == [([1, 2],)]
