"""The direct append and the one-bisect index extension against the
batch-shaped write path they replaced (``old_write_path``), kept as a
hypothesis oracle.

Random INSERT streams — single- and multi-row batches, column subsets
(absent columns fill with NULL, the serial one auto-numbers), NULLs, new
and already-known strings, unique violations in the middle of a batch,
and ``ROLLBACK TO SAVEPOINT`` — run through the engine while the old
functions replay the same row dicts onto a twin table and twin indexes.
After every statement each stored column must equal the twin's (dtype,
values and codes under non-NULL rows, dictionary entries, NULL mask) and
every index field must be the same; a reader session's snapshot taken
before the stream must stay byte-identical through all of it.

The hypothesis depth follows ``--fuzz-rounds`` at ten examples per round.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UniqueViolation
from repro.sqldb import Database
from repro.sqldb.catalog import Table, build_index

from tests.sqldb import old_write_path as old

pytestmark = pytest.mark.fuzz

COLUMNS = ["k", "f", "s", "b", "a", "n"]
INDEXES = [
    ("t_k", ("k",), True),
    ("t_s", ("s",), False),
    ("t_sb", ("s", "b"), False),
]
WORDS = ["", "a", "b", "ab", "é", "日本", "x y", "NA"]

_cell = {
    "k": st.one_of(st.none(), st.integers(-6, 6)),
    "f": st.one_of(st.none(), st.sampled_from([0.0, -1.5, 2.25, 1e6])),
    "s": st.one_of(st.none(), st.sampled_from(WORDS), st.text(max_size=3)),
    "b": st.one_of(st.none(), st.booleans()),
    "a": st.one_of(st.none(), st.lists(st.integers(-3, 3), max_size=3)),
    "n": st.integers(0, 50),
}


@st.composite
def _insert(draw):
    columns = draw(st.sampled_from([
        ("k", "f", "s", "b", "a"), ("k", "s"), ("s", "b", "n"),
        ("k", "f", "s", "b", "a", "n"),
    ]))
    rows = draw(st.lists(
        st.tuples(*(_cell[c] for c in columns)), min_size=1, max_size=4
    ))
    return columns, rows


_step = st.one_of(
    _insert(),
    st.tuples(st.just("savepoint"), st.lists(_insert(), max_size=3)),
)


def _sql(columns, rows):
    values = ", ".join(
        "(" + ", ".join("?" for _ in columns) + ")" for _ in rows
    )
    params = [cell for row in rows for cell in row]
    return f"INSERT INTO t ({', '.join(columns)}) VALUES {values}", params


class _Twin:
    """The oracle: a table and its indexes grown by the old functions."""

    def __init__(self) -> None:
        self.table = Table("t", list(COLUMNS), [
            "int", "float", "text", "bool", "array", "serial",
        ])
        self.indexes = {
            name: build_index(name, self.table, cols, unique)
            for name, cols, unique in INDEXES
        }

    def state(self):
        table = self.table
        return (
            dict(table.columns), table.n_rows, dict(table._next_serial),
            dict(self.indexes),
        )

    def restore(self, state) -> None:
        columns, n_rows, serial, indexes = state
        self.table.columns, self.table.n_rows = dict(columns), n_rows
        self.table._next_serial, self.indexes = dict(serial), dict(indexes)

    def insert(self, columns, rows) -> bool:
        """Replay one INSERT; False (and nothing changed) on a 23505."""
        before = self.state()
        try:
            old.append_rows(self.table, [dict(zip(columns, r)) for r in rows])
            self.indexes = {
                name: old.extend_index(index, self.table)
                if len(index.columns) == 1
                else build_index(name, self.table, index.columns, index.unique)
                for name, index in self.indexes.items()
            }
        except UniqueViolation:
            self.restore(before)
            return False
        return True


def _assert_columns_equal(got, want, name):
    assert got.values.dtype == want.values.dtype or got.is_array, name
    assert got.nulls.dtype == bool and got.nulls.tolist() == want.nulls.tolist()
    present = ~want.nulls
    if want.is_text:
        assert got.is_text, name
        assert got.dictionary.tolist() == want.dictionary.tolist(), name
        assert got.values[present].tolist() == want.values[present].tolist()
        # a code under NULL is any valid index
        assert np.all((got.values >= 0) & (got.values < max(len(got.dictionary), 1)))
    elif want.values.dtype == object:
        # arrays: the old path stored list objects, the engine stores
        # offsets over an element vector; the cells must be equal
        assert got.is_array, name
        assert got.tolist() == want.values.tolist(), name
    else:
        assert got.values.tobytes() == want.values.tobytes(), name


def _assert_index_equal(got, want):
    assert (got.name, got.table, got.columns, got.unique, got.n_rows) == (
        want.name, want.table, want.columns, want.unique, want.n_rows
    )
    assert len(got.key_arrays) == len(want.key_arrays) == len(want.columns)
    for got_keys, want_keys in zip(got.key_arrays, want.key_arrays):
        assert got_keys.dtype == want_keys.dtype
        assert got_keys.tolist() == want_keys.tolist()
    assert got.positions.dtype == want.positions.dtype
    assert got.positions.tolist() == want.positions.tolist()


def _assert_matches(catalog, twin):
    table = catalog.table("t")
    assert table.n_rows == twin.table.n_rows
    assert table._next_serial == twin.table._next_serial
    for name in COLUMNS:
        _assert_columns_equal(table.columns[name], twin.table.columns[name], name)
    for name, *_ in INDEXES:
        _assert_index_equal(catalog.index(name), twin.indexes[name])


def _freeze(catalog):
    """Every array of *catalog*'s table and indexes with a copy of it."""
    table = catalog.table("t")
    arrays = []
    for vec in table.columns.values():
        arrays += [vec.values, vec.nulls]
        if vec.dictionary is not None:
            arrays.append(vec.dictionary)
        if vec.elements is not None:
            arrays += [vec.elements.values, vec.elements.nulls]
    for name in catalog.index_names:
        index = catalog.index(name)
        arrays += [*index.key_arrays, index.positions]
    return [(array, array.copy()) for array in arrays]


def _run(db, twin, catalog, columns, rows):
    sql, params = _sql(columns, rows)
    before = dict(catalog.table("t").columns)
    try:
        db.execute(sql, params)
        raised = False
    except UniqueViolation as exc:
        assert exc.sqlstate == "23505"
        raised = True
        # the statement is undone: the very vectors are back
        after = catalog.table("t").columns
        assert all(after[c] is before[c] for c in before)
    assert twin.insert(columns, rows) is not raised
    _assert_matches(catalog, twin)


def test_inserts_match_the_batch_shaped_path(request):
    rounds = request.config.getoption("--fuzz-rounds")

    @settings(max_examples=10 * (rounds if rounds is not None else 3),
              deadline=None)
    @given(st.lists(_step, min_size=1, max_size=10))
    def check(steps):
        db = Database()
        db.execute(
            "CREATE TABLE t (k int, f float, s text, b bool, a int[], "
            "n serial)"
        )
        for name, cols, unique in INDEXES:
            db.execute(
                f"CREATE {'UNIQUE ' if unique else ''}INDEX {name} ON t "
                f"({', '.join(cols)})"
            )
        twin = _Twin()
        reader = db.session()
        # the reader's snapshot: its clone shares every array written so far
        db.execute("INSERT INTO t (k, s) VALUES (100, 'seed')", session=reader)
        twin.insert(("k", "s"), [(100, "seed")])
        db.execute("BEGIN", session=reader)
        frozen = _freeze(reader.txn.catalog)
        for step in steps:
            if step[0] == "savepoint":
                db.execute("BEGIN")
                db.execute("SAVEPOINT sp")
                fork = db._default_session.txn.catalog
                saved = twin.state()
                for columns, rows in step[1]:
                    _run(db, twin, fork, columns, rows)
                db.execute("ROLLBACK TO SAVEPOINT sp")
                twin.restore(saved)
                _assert_matches(fork, twin)
                db.execute("COMMIT")
            else:
                _run(db, twin, db.catalog, *step)
        for array, copy in frozen:
            assert array.dtype == copy.dtype
            assert array.tobytes() == copy.tobytes()
        assert db.execute("SELECT k, s FROM t", session=reader).rows == [
            (100, "seed")
        ]
        db.execute("ROLLBACK", session=reader)
        db.close()

    check()
