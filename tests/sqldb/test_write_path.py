"""The write path: typed O(batch) append, in-place-free UPDATE, and the
copy-on-write contract every writer owes mementos, forks and snapshots.

Three properties, none of them a timing test:

* a column's dtype comes from its *declared* storage class on every write
  path (INSERT and COPY store the same vector for the same data);
* no DML statement round-trips a table-sized column through Python
  (``Vector.tolist`` / ``from_values`` are guarded by size);
* arrays and ``Index`` objects captured before a write are byte-identical
  after it.
"""

import sys

import pytest

from repro.sqldb import Database
from repro.sqldb import vector as vector_module
from repro.sqldb.vector import Vector

#: declared type -> (expected dtype kind, NULL-only cells, mixed cells)
TYPED_CELLS = {
    "int": ("f", [None, None], [None, 3, None, -7]),
    "float": ("f", [None], [1.5, None, 2.0]),
    "serial": ("f", [None], [None, 4]),
    "bool": ("b", [None, None], [None, True, False]),
    "text": ("O", [None], [None, "x", "y"]),
    "int[]": ("O", [None], [[1, 2], None, [3, 4]]),
}


def _copy_cells(db, tmp_path, type_name, cells):
    """Load *cells* into ``c.a`` through the COPY statement (arrays, which
    CSV cannot carry, through COPY's own ``append_columns``)."""
    table = db.catalog.table("c")
    if type_name.endswith("[]"):
        table.append_columns({"a": list(cells), "pad": [1] * len(cells)}, len(cells))
        return
    path = tmp_path / "cells.csv"
    lines = ["a,pad"] + [
        ("" if cell is None else str(cell).lower()) + ",1" for cell in cells
    ]
    path.write_text("\n".join(lines) + "\n")
    db.execute(
        f"COPY c (a, pad) FROM '{path}' WITH "
        "(DELIMITER ',', NULL '', FORMAT CSV, HEADER TRUE)"
    )


@pytest.mark.parametrize("type_name", sorted(TYPED_CELLS))
@pytest.mark.parametrize("mixed", [False, True], ids=["null-only", "mixed"])
def test_insert_and_copy_store_the_same_typed_column(tmp_path, type_name, mixed):
    kind, null_only, mixed_cells = TYPED_CELLS[type_name]
    cells = mixed_cells if mixed else null_only
    db = Database()
    db.execute(f"CREATE TABLE i (a {type_name}, pad int)")
    db.execute(f"CREATE TABLE c (a {type_name}, pad int)")
    assert db.catalog.table("i").columns["a"].values.dtype.kind == kind
    for cell in cells:
        # one row at a time: the dtype must not flip between INSERTs
        db.execute("INSERT INTO i (a, pad) VALUES (?, 1)", (cell,))
        assert db.catalog.table("i").columns["a"].values.dtype.kind == kind
    _copy_cells(db, tmp_path, type_name, cells)
    inserted = db.catalog.table("i").columns["a"]
    copied = db.catalog.table("c").columns["a"]
    assert inserted.values.dtype == copied.values.dtype
    assert inserted.nulls.tolist() == copied.nulls.tolist()
    assert inserted.nulls.tolist() == [cell is None for cell in cells]
    assert inserted.tolist() == copied.tolist() == cells


def test_copy_stores_one_object_per_distinct_text_value(tmp_path):
    """COPY parses a fresh string per cell; a categorical text column keeps
    one object per distinct value instead of one per row."""
    cells = ["red", "blue", None, "red", "blue", "red"] * 50
    db = Database()
    db.execute("CREATE TABLE c (a text, pad int)")
    _copy_cells(db, tmp_path, "text", cells)
    stored = db.catalog.table("c").columns["a"]
    assert stored.tolist() == cells
    present = stored.values[~stored.nulls]
    assert len({id(value) for value in present}) == 2


def _indexed_table(n_rows):
    db = Database()
    db.execute("CREATE TABLE t (k int, grp text, v float)")
    db.catalog.table("t").append_columns(
        {
            "k": list(range(n_rows)),
            "grp": ["g" + str(i % 7) for i in range(n_rows)],
            "v": [i * 0.5 for i in range(n_rows)],
        },
        n_rows,
    )
    db.execute("CREATE UNIQUE INDEX t_k ON t USING btree (k)")
    db.execute("CREATE INDEX t_c ON t USING hash (k, grp)")
    return db


def test_dml_makes_no_table_sized_python_round_trip(monkeypatch):
    n_rows = 5000
    db = _indexed_table(n_rows)

    original_tolist = Vector.tolist
    original_from_values = vector_module.from_values

    def guarded_tolist(self):
        assert len(self) < n_rows, "whole-column Vector.tolist() on a write path"
        return original_tolist(self)

    def guarded_from_values(items):
        items = list(items)
        assert len(items) < n_rows, "whole-column from_values() on a write path"
        return original_from_values(items)

    monkeypatch.setattr(Vector, "tolist", guarded_tolist)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "from_values", None) is original_from_values
        ):
            monkeypatch.setattr(module, "from_values", guarded_from_values)

    db.execute("INSERT INTO t VALUES (?, ?, ?)", (n_rows, "new", 1.0))
    db.execute(
        "INSERT INTO t VALUES (?, 'm', 2.0), (?, 'm', NULL), (NULL, 'm', 3.0)",
        (n_rows + 1, n_rows + 2),
    )
    assert db.execute("UPDATE t SET v = ? WHERE k = ?", (9.5, 17)).rowcount == 1
    assert db.execute("UPDATE t SET k = ? WHERE k = ?", (-1, 18)).rowcount == 1
    assert db.execute("DELETE FROM t WHERE k = ?", (19,)).rowcount == 1
    assert db.execute("SELECT count(*) FROM t").rows == [(n_rows + 3,)]
    assert db.execute("SELECT v FROM t WHERE k = 17").rows == [(9.5,)]
    assert db.execute("SELECT grp FROM t WHERE k = -1").rows == [("g4",)]
    assert db.execute("SELECT count(*) FROM t WHERE k = 19").rows == [(0,)]


def _freeze(catalog):
    """Every array reachable from *catalog*'s tables and indexes: the
    object, and a private copy of its bytes."""
    frozen = []
    for name in catalog.table_names:
        for vec in catalog.table(name).columns.values():
            frozen += [(vec.values, vec.values.copy()), (vec.nulls, vec.nulls.copy())]
    for name in catalog.index_names:
        index = catalog.index(name)
        arrays = (
            list(index.hash_map.values())
            if index.method == "hash"
            else [index.sorted_keys, index.sorted_positions]
        )
        frozen += [(array, array.copy()) for array in arrays]
        if index.method == "hash":
            frozen.append((index.hash_map, dict(index.hash_map)))
    return frozen


def _assert_frozen(frozen):
    for live, copy in frozen:
        if isinstance(live, dict):
            assert live.keys() == copy.keys()
            assert all(live[key] is copy[key] for key in copy)
        else:
            assert live.dtype == copy.dtype
            assert live.tobytes() == copy.tobytes()


WRITES = [
    ("INSERT INTO t VALUES (?, 'w', 1.0)", (10_001,)),
    ("INSERT INTO t VALUES (?, 'w', 1.0), (?, 'w', 2.0)", (10_002, 10_003)),
    ("UPDATE t SET v = v + 1 WHERE grp = 'g3'", ()),
    ("UPDATE t SET k = k + 20000 WHERE k < 5", ()),
    ("DELETE FROM t WHERE k > 40 AND k < 50", ()),
]


def test_writes_leave_captured_snapshots_byte_identical():
    db = _indexed_table(200)

    # a catalog memento across autocommit writes
    memento = db.catalog.snapshot()
    frozen = _freeze(db.catalog)
    indexes_before = dict(memento.indexes)
    for sql, params in WRITES:
        db.execute(sql, params)
    _assert_frozen(frozen)
    assert all(memento.indexes[n] is indexes_before[n] for n in indexes_before)
    db.catalog.restore(memento)
    assert db.execute("SELECT count(*) FROM t").rows == [(200,)]
    _assert_frozen(frozen)

    # an open MVCC snapshot across another session's committed writes
    reader, writer = db.session(), db.session()
    db.execute("BEGIN", session=reader)
    fork = reader.txn.catalog
    frozen = _freeze(fork)
    for sql, params in WRITES:
        db.execute(sql, params, session=writer)
    _assert_frozen(frozen)
    assert db.execute("SELECT count(*) FROM t", session=reader).rows == [(200,)]
    assert db.execute(
        "SELECT grp FROM t WHERE k = 3", session=reader
    ).rows == [("g3",)]
    db.execute("ROLLBACK", session=reader)

    # a savepoint memento across the transaction's own writes
    db.execute("BEGIN")
    db.execute("SAVEPOINT s")
    fork = db._default_session.txn.catalog
    frozen = _freeze(fork)
    columns = dict(fork.table("t").columns)
    indexes = {name: fork.index(name) for name in fork.index_names}
    for sql, params in WRITES:
        # fresh keys: the writer session's rows are committed by now
        db.execute(sql, tuple(p + 1000 for p in params))
    _assert_frozen(frozen)
    db.execute("ROLLBACK TO SAVEPOINT s")
    _assert_frozen(frozen)
    # the very objects are back, not rebuilt look-alikes
    assert all(fork.table("t").columns[c] is columns[c] for c in columns)
    assert all(fork.index(name) is indexes[name] for name in indexes)
    db.execute("COMMIT")
