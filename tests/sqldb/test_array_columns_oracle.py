"""Array kernels over int64 offsets plus one element vector, against the
object-list kernels they replaced (``old_array_path``).

Random array columns — NULL arrays, NULL elements, empty arrays, numbers
(``-0.0``, NaN, fractions), text, booleans, arrays of arrays and
mixed-type elements, compact or a row take of a longer column — go
through every array kernel as array vectors,
and through the old kernel as the object column of lists they stand
for.  The results must be the same cells, compared by type and by bit
pattern for floats: ``array_agg``, ``unnest``, ``array_fill``, ``||``,
``array_length``, ``array_position``, ``count(DISTINCT)``, the row takes
behind filters, joins, CASE and UNION ALL (``gather``, ``choose``,
``concat_vectors``), the fetch (``python_cells``) and the wire codec.

``count(DISTINCT)`` compares values by SQL equality now, so NaN counts
once where the old loop counted each NaN row (every cell was a distinct
NaN object); the drawn columns hold no NaN for it.

The hypothesis depth follows ``--fuzz-rounds`` at ten examples per
round: 30 in tier-1 (three rounds), 250 in CI's smoke lane
(``--fuzz-rounds 25``).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLExecutionError
from repro.sqldb import colcodec, functions, vector
from repro.sqldb.executor import _expand_unnest
from repro.sqldb.vector import Vector, array_vector, from_values

from tests.sqldb import old_array_path as old

pytestmark = pytest.mark.fuzz

SCALAR = functions.SCALAR_FUNCTIONS

ELEMENTS = {
    "numbers": st.sampled_from([None, 0.0, -0.0, 1.0, 2.5, -3.0, 1e16, 7.0]),
    "nan": st.sampled_from([None, 1.0, math.nan]),
    "text": st.sampled_from([None, "a", "b", "", "é", "a b"]),
    "bools": st.sampled_from([None, True, False]),
    "nested": st.none() | st.lists(st.sampled_from([None, 1.0, 2.0]), max_size=2),
    "mixed": st.sampled_from([None, 1.0, "a", True, 2.5]),
}


def _cells(kind, n):
    arrays = st.none() | st.lists(ELEMENTS[kind], max_size=4)
    return st.lists(arrays, min_size=n, max_size=n)


def _arrays(kind, n):
    """Array vectors of *n* rows, compact or not: a row take of a longer
    column shares its elements, in another order."""
    return st.tuples(_cells(kind, n + 2), st.permutations(range(n + 2))).map(
        lambda drawn: vector.gather(
            array_vector(drawn[0]), np.array(drawn[1][:n], dtype=np.int64)
        )
    )


def _scalars(n, nan=True):
    pools = [
        [None, 0.0, -0.0, 1.0, 2.5] + ([math.nan] if nan else []),
        [None, "a", "b", "é"],
        [None, True, False],
        [None, 1.0, "a", True],  # mixed: an object column
    ]
    return st.sampled_from(pools).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    ).map(from_values)


def _as_lists(column: Vector) -> Vector:
    """The object column of lists an array column stands for."""
    if not column.is_array:
        return column
    values = np.empty(len(column), dtype=object)
    for i, cell in enumerate(column.tolist()):
        values[i] = cell
    return Vector(values, column.nulls.copy())


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    return a == b


def _assert_cells(got: list, want: list) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert _same(a, b), (a, b)


def _outcome(run):
    try:
        result = run()
    except SQLExecutionError as exc:
        return ("raised", str(exc))
    if isinstance(result, Vector):
        cells = [
            None if null else cell
            for cell, null in zip(
                result.tolist() if result.is_array or not (
                    result.values.dtype == object
                ) else result.values.tolist(),
                result.nulls,
            )
        ]
        return cells, result.nulls.tolist()
    return result


def _assert_same(got, want) -> None:
    if got[0] == "raised" or want[0] == "raised":
        assert got == want
        return
    _assert_cells(got[0], want[0])
    assert got[1] == want[1]


def _examples(request) -> int:
    rounds = request.config.getoption("--fuzz-rounds")
    return 10 * (rounds if rounds is not None else 3)


KINDS = st.sampled_from(sorted(ELEMENTS))


def _check(request, body):
    @settings(max_examples=_examples(request), deadline=None)
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(0, 8))
        body(data, n)

    check()


def test_array_agg(request):
    def body(data, n):
        arg = data.draw(st.one_of(_scalars(n), KINDS.flatmap(
            lambda kind: _arrays(kind, n))))
        groups = data.draw(st.integers(1, 3))
        codes = np.array(
            data.draw(st.lists(st.integers(0, groups - 1), min_size=n,
                               max_size=n)), dtype=np.int64)
        _assert_same(
            _outcome(lambda: functions.compute_aggregate(
                "array_agg", arg, codes, groups)),
            _outcome(lambda: old.array_agg(_as_lists(arg), codes, groups)),
        )

    _check(request, body)


def test_count_distinct(request):
    def body(data, n):
        arg = data.draw(_scalars(n, nan=False))
        groups = data.draw(st.integers(1, 3))
        codes = np.array(
            data.draw(st.lists(st.integers(0, groups - 1), min_size=n,
                               max_size=n)), dtype=np.int64)
        _assert_same(
            _outcome(lambda: functions.compute_aggregate(
                "count", arg, codes, groups, distinct=True)),
            _outcome(lambda: old.count_distinct(arg, codes, groups)),
        )

    _check(request, body)


def test_unnest(request):
    def body(data, n):
        kind = data.draw(KINDS)
        arrays = data.draw(_arrays(kind, n))
        other = data.draw(_scalars(n))
        columns = {"u": arrays, "k": other}
        try:
            batch = _expand_unnest(n, columns, ["u"])
            got = (batch.length, {k: v.tolist() for k, v in batch.columns.items()})
        except SQLExecutionError as exc:
            got = ("raised", str(exc))
        try:
            want = old.unnest(n, {"u": _as_lists(arrays), "k": other}, ["u"])
        except SQLExecutionError as exc:
            want = ("raised", str(exc))
        if want[0] == "raised":
            assert got == want
            return
        assert got[0] == want[0]
        for key in columns:
            _assert_cells(got[1][key], want[1][key])

    _check(request, body)


def test_array_fill(request):
    def body(data, n):
        value = data.draw(st.one_of(_scalars(n), KINDS.flatmap(
            lambda kind: _arrays(kind, n))))
        count = from_values(data.draw(st.lists(
            st.sampled_from([None, 0.0, 1.0, 2.0, 3.0, -1.0]),
            min_size=n, max_size=n)))
        if count.nulls.all():
            count = Vector(np.full(n, np.nan), count.nulls)
        _assert_same(
            _outcome(lambda: SCALAR["array_fill"]([value, count])),
            _outcome(lambda: old.array_fill(_as_lists(value), count)),
        )

    _check(request, body)


def test_concat(request):
    def body(data, n):
        kinds = [data.draw(KINDS), data.draw(KINDS)]
        left = data.draw(_arrays(kinds[0], n))
        right = data.draw(st.one_of(_arrays(kinds[1], n), _scalars(n)))
        if not right.is_array:
            kinds[1] = "scalar"
        if data.draw(st.booleans()):
            left, right = right, left
        got = _outcome(lambda: vector.arithmetic("||", left, right))
        if kinds.count("nested") == 1 and got[0] == "raised":
            # arrays of arrays with elements: PostgreSQL's 42804, where
            # the old kernel built a list mixing lists and scalars
            assert "cannot be matched" in got[1]
            return
        _assert_same(
            got, _outcome(lambda: old.concat(_as_lists(left), _as_lists(right)))
        )

    _check(request, body)


def test_array_length_and_position(request):
    def body(data, n):
        arr = data.draw(KINDS.flatmap(lambda kind: _arrays(kind, n)))
        wanted = data.draw(_scalars(n))
        _assert_same(
            _outcome(lambda: SCALAR["array_length"]([arr])),
            _outcome(lambda: old.array_length(_as_lists(arr))),
        )
        _assert_same(
            _outcome(lambda: SCALAR["array_position"]([arr, wanted])),
            _outcome(lambda: old.array_position(_as_lists(arr), wanted)),
        )

    _check(request, body)


def test_row_takes_and_the_codec(request):
    """gather (filters, joins; -1 is an outer join's NULL row), choose
    (CASE, coalesce), concat (UNION ALL, appends), the fetch and the
    wire codec keep every row's cells."""

    def body(data, n):
        kind = data.draw(KINDS)
        arrays, others = data.draw(_arrays(kind, n)), data.draw(_arrays(kind, n))
        fetched, other_cells = arrays.tolist(), others.tolist()
        lists = [cell for cell in fetched if cell is not None]
        assert len({id(cell) for cell in lists}) == len(lists)
        positions = np.array(data.draw(st.lists(
            st.integers(-1, n - 1) if n else st.just(-1), max_size=10)),
            dtype=np.int64)
        _assert_cells(
            vector.gather(arrays, positions, missing_null=True).tolist(),
            [None if p < 0 else fetched[p] for p in positions.tolist()],
        )
        which = np.array(data.draw(st.lists(
            st.integers(-1, 1), min_size=n, max_size=n)), dtype=np.int64)
        _assert_cells(vector.choose([arrays, others], which).tolist(), [
            None if w < 0 else (fetched, other_cells)[w][i]
            for i, w in enumerate(which.tolist())
        ])
        _assert_cells(
            vector.concat_vectors([arrays, others]).tolist(),
            fetched + other_cells,
        )
        headers, buffers = colcodec.encode([arrays])
        [back] = colcodec.decode(
            json.loads(json.dumps(headers)), n, b"".join(buffers))
        _assert_cells(back.tolist(), fetched)

    _check(request, body)


def test_equal_length_rows_fetch_like_ragged_ones(request):
    """The fetch's one-list-per-distinct-run path (arrays of one length)
    against slicing one list of every element."""

    def body(data, n):
        width = data.draw(st.integers(1, 4))
        kind = data.draw(st.sampled_from(["numbers", "text", "bools"]))
        element = ELEMENTS[kind].filter(lambda e: e is not None)
        cells = data.draw(st.lists(
            st.lists(element, min_size=width, max_size=width),
            min_size=n, max_size=n))
        arrays = array_vector(cells)
        # one row of another length: the ragged path slices every row
        ragged = vector.concat_vectors([arrays, array_vector([[]])])
        _assert_cells(vector.python_cells(arrays), ragged.tolist()[:n])

    _check(request, body)
