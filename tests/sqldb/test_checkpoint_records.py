"""Checkpoints, replica snapshots and spill runs are framed records.

A checkpoint and a replica's bootstrap snapshot are one image: the
catalog as JSON records in the WAL's record frame, a table's or
materialised view's columns as binary column buffers in a raw frame
after its record.  These tests pin that
the image brings back every catalog object exactly (cell types, NULLs,
signed zeros, array cells, view text, stale materialised-view snapshots,
indexes, statistics and models), and that a corrupted or hostile image
is rejected with a typed error — never decoded by running code, which
is what the old pickle-based snapshot frame did on a replica.
"""

from __future__ import annotations

import ast as pyast
import base64
import copy
import os
import pickle
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sqldb
from repro.errors import DurabilityError, ProtocolViolation
from repro.sqldb import Database, colcodec, engine
from repro.sqldb.catalog import decode_records
from repro.sqldb.memory import SpillFile
from repro.sqldb.replication import decode_snapshot, encode_snapshot
from repro.sqldb.wal import (
    checkpoint_image,
    decode_checkpoint,
    encode_record,
    read_checkpoint,
)
from repro.sqldb.vector import cells, from_values

ROWS = [
    (1, -0.0, "é", True, [1, 1.0, True, None, "x"]),
    (None, 1e19, None, None, None),
    (2**40, float("inf"), "a'b", False, []),
    (3, 2.5, "é", None, [[1, 2], "nested"]),
    (4, None, "", True, ["é"]),
]


def _build(db: Database) -> None:
    """A catalog holding one of everything a checkpoint must carry."""
    db.execute(
        "CREATE TABLE t (i int, f float, s text, b boolean, a int[], n serial)"
    )
    db.executemany("INSERT INTO t (i, f, s, b, a) VALUES (?, ?, ?, ?, ?)", ROWS)
    db.execute("UPDATE t SET f = f * 2 WHERE i = 3")
    db.execute("DELETE FROM t WHERE i = 4")
    db.execute(
        "CREATE VIEW v AS WITH c AS (SELECT i, s FROM t WHERE i > 1) "
        "SELECT s, count(*) AS k FROM c GROUP BY s -- trailing comment\n"
    )
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS "
        "SELECT s, array_fill(0, 3) AS z, i * 1.5 AS g, b FROM t"
    )
    # a snapshot that recomputing could not reproduce: its input is gone
    db.execute("CREATE TABLE u (x int)")
    db.execute("INSERT INTO u VALUES (7), (8)")
    db.execute("CREATE MATERIALIZED VIEW mu AS SELECT x, x > 7 AS big FROM u")
    db.execute("DROP TABLE u")
    db.execute("CREATE UNIQUE INDEX ti ON t (i)")
    db.execute("CREATE INDEX th ON t USING hash (s, b)")
    db.execute("CREATE INDEX ts ON t (s)")
    db.execute("ANALYZE t")
    db.execute("CREATE TABLE pts (x double precision, y int)")
    db.executemany(
        "INSERT INTO pts VALUES (?, ?)",
        [(float(i % 7) / 7.0, int(i % 2)) for i in range(40)],
    )
    db.execute("TRAIN lin USING (SELECT x, y FROM pts) WITH (max_iter = 5)")
    db.execute(
        "TRAIN tree USING (SELECT x, y FROM pts) "
        "WITH (estimator = 'decision_tree', max_depth = 3)"
    )


def _cells(vector) -> tuple:
    # repr tells 1 / 1.0 / True and 0.0 / -0.0 apart, and prints NaN
    return (
        vector.values.dtype.str,
        repr(vector.values.tolist()),
        vector.nulls.tolist(),
    )


def _index(ix) -> tuple:
    return (
        ix.name, ix.table, ix.columns, ix.unique, ix.n_rows,
        [_cells_of(keys) for keys in ix.key_arrays], ix.positions.tolist(),
    )


def _cells_of(values: np.ndarray) -> tuple:
    return values.dtype.str, repr(values.tolist())


def _state(db: Database) -> dict:
    """Everything a checkpoint must bring back, in comparable form."""
    catalog = db.catalog
    views = {}
    for name, view in catalog._views.items():
        snapshot = None
        if view.snapshot is not None:
            names, data, length = view.snapshot
            snapshot = (names, length, [_cells(data[c]) for c in names])
        views[name] = (view.sql, view.query, view.materialized, snapshot)
    return {
        "tables": {
            name: (
                table.column_names, table.column_types, table.n_rows,
                table._next_serial,
                [_cells(table.columns[c]) for c in table.column_names],
            )
            for name, table in catalog._tables.items()
        },
        "views": views,
        "indexes": {n: _index(ix) for n, ix in catalog._indexes.items()},
        "stats": dict(catalog._table_stats),
        "models": dict(catalog._models),
    }


_QUERIES = [
    "SELECT * FROM t ORDER BY ctid",
    "SELECT * FROM v ORDER BY s",
    "SELECT * FROM mv",
    "SELECT * FROM mu",
    "SELECT i FROM t WHERE i = 3",
    "SELECT s FROM t WHERE s = 'é' AND b",
]


def _answers(db: Database) -> list:
    return [repr(db.execute(sql).rows) for sql in _QUERIES]


class TestCheckpointRoundTrip:
    def test_checkpoint_brings_back_every_catalog_object(self, tmp_path):
        wal = str(tmp_path / "db.wal")
        db = Database(wal_path=wal)
        _build(db)
        expected, answers = _state(db), _answers(db)
        db.execute("CHECKPOINT")
        db.close()
        assert os.path.getsize(wal) == len(b"RWAL1\n")  # all in the image
        recovered = Database(wal_path=wal)
        try:
            assert _state(recovered) == expected
            assert _answers(recovered) == answers
            # text comes back coded: equal strings share one code
            column = recovered.catalog.table("t").columns["s"]
            assert column.is_text and column.values[0] == column.values[3]
            assert len(set(column.dictionary.tolist())) == len(column.dictionary)
            # the catalog stays writable after recovery
            recovered.execute("INSERT INTO t (i, s) VALUES (9, 'z')")
            assert recovered.execute(
                "SELECT n FROM t WHERE i = 9"
            ).rows == [(5,)]  # serials are not reused after DELETE
        finally:
            recovered.close()

    def test_replica_snapshot_is_the_checkpoint_image(self, tmp_path):
        db = Database()
        _build(db)
        image, last_txn = db.snapshot_state()
        assert last_txn == db.current_commit_id
        state, decoded_txn = decode_snapshot(encode_snapshot(image))
        assert decoded_txn == last_txn
        replica = Database(read_only=True)
        replica.restore_replica_snapshot(state, decoded_txn)
        assert _state(replica) == _state(db)
        assert _answers(replica) == _answers(db)
        assert replica.last_applied_commit_id == last_txn
        # the image a checkpoint publishes is the same bytes
        wal = str(tmp_path / "db.wal")
        durable = Database(wal_path=wal)
        durable.restore_replica_snapshot(state, decoded_txn)
        durable.close()
        with open(wal + ".ckpt", "rb") as handle:
            records, txn = decode_checkpoint(handle.read(), "ckpt")
        assert txn == last_txn
        assert checkpoint_image(records, txn) == image

    def test_checkpoint_records_are_json(self, tmp_path):
        wal = str(tmp_path / "db.wal")
        db = Database(wal_path=wal)
        _build(db)
        db.execute("CHECKPOINT")
        db.close()
        records, _ = read_checkpoint(wal + ".ckpt")
        kinds = [record["t"] for record in records]
        assert kinds == sorted(
            kinds, key=["table", "view", "stats", "index", "model"].index
        )
        view = next(r for r in records if r.get("name") == "v")
        assert view["sql"].startswith("WITH c AS (SELECT i, s FROM t")
        index = next(r for r in records if r.get("name") == "th")
        assert index == {
            "t": "index", "name": "th", "table": "t", "columns": ["s", "b"],
            "unique": False,
        }

    @pytest.mark.parametrize("method", ["hash", "sorted"])
    def test_index_records_naming_a_method_load_as_the_one_kind(self, method):
        # records written before there was one index kind name its shape
        db = Database()
        _build(db)
        records = [
            {**record, "method": method} if record["t"] == "index" else record
            for record in db.catalog.export_records()
        ]
        catalog = decode_records(records)
        for name in ("ti", "th", "ts"):
            assert _index(catalog.index(name)) == _index(db.catalog.index(name))
        table = catalog.table("t")
        rows = list(zip(*(
            [None if null else cell for cell, null in zip(
                cells(table.columns[c]).tolist(),
                table.columns[c].nulls.tolist(),
            )]
            for c in ("i", "s", "b")
        )))
        for name, parts in (("ti", slice(0, 1)), ("th", slice(1, 3)),
                            ("ts", slice(1, 2))):
            for key in {row[parts] for row in rows if None not in row[parts]}:
                expected = [i for i, row in enumerate(rows) if row[parts] == key]
                got = catalog.index(name).eq_positions(key).tolist()
                assert got == expected, (name, key)


# -- hostile and corrupted input ------------------------------------------------


class _Exploit:
    """Unpickling this calls :func:`_exploit_ran`: the code-execution
    hole a pickled snapshot frame opened on every replica."""

    def __reduce__(self):
        return (_exploit_ran, ())


_EXPLOITED: list[bool] = []


def _exploit_ran() -> dict:
    _EXPLOITED.append(True)
    return {}


def test_pickled_snapshot_frame_is_rejected_without_running_it():
    frame = base64.b64encode(
        zlib.compress(pickle.dumps(_Exploit()))
    ).decode("ascii")
    with pytest.raises(ProtocolViolation) as raised:
        decode_snapshot(frame)
    assert raised.value.sqlstate == "08P01"
    assert _EXPLOITED == []


def test_engine_modules_do_not_import_pickle():
    package = os.path.dirname(repro.sqldb.__file__)
    importers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = pyast.parse(handle.read())
        for node in pyast.walk(tree):
            if isinstance(node, pyast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, pyast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("pickle", "marshal") for m in modules):
                importers.append(name)
    assert importers == []


def test_checkpoint_without_closing_record_is_rejected():
    image = checkpoint_image([{"t": "table"}], 3)
    cut = image[: len(image) - len(encode_record({"t": "checkpoint", "txn": 3}))]
    with pytest.raises(DurabilityError, match="closing record"):
        decode_checkpoint(cut, "ckpt")


def test_old_pickle_checkpoint_is_rejected(tmp_path):
    path = str(tmp_path / "old.ckpt")
    with open(path, "wb") as handle:
        handle.write(b"RCKP1\n" + pickle.dumps({"last_txn": 0}))
    with pytest.raises(DurabilityError, match="not a repro checkpoint"):
        read_checkpoint(path)


def test_malformed_catalog_record_is_durability_error():
    for record in (
        {"t": "table", "name": "x"},
        {"t": "view", "name": "v", "sql": "DROP TABLE t",
         "materialized": False, "snapshot": None},
        {"t": "index", "name": "i", "table": "missing", "columns": ["a"],
         "unique": False, "method": "sorted"},
        # tags outside the codec's whitelist never reach np.dtype
        {"t": "table", "name": "x", "columns": ["a"], "types": ["int"],
         "rows": 1, "serial": {},
         "data": [{"tag": "<M8[s]", "sizes": [8, 0]}], "blob": bytes(8)},
        {"t": "table", "name": "x", "columns": ["a"], "types": ["int"],
         "rows": 1, "serial": {},
         "data": [{"tag": "<i8", "sizes": [8, 0]}], "blob": bytes(8)},
        {"t": "view", "name": "v", "materialized": False, "snapshot": None,
         "sql": "SELECT " + "(" * 3000 + "1" + ")" * 3000},
        {"t": "mystery"},
    ):
        with pytest.raises(DurabilityError):
            decode_records([record])


def test_commit_completes_while_a_snapshot_encodes(monkeypatch):
    db = Database()
    db.execute("CREATE TABLE t (a int)")
    db.execute("INSERT INTO t VALUES (1)")
    encoding, release = threading.Event(), threading.Event()
    real_image = engine.checkpoint_image

    def held_image(records, last_txn):
        encoding.set()
        release.wait(10)
        return real_image(records, last_txn)

    monkeypatch.setattr(engine, "checkpoint_image", held_image)
    out = {}
    snapshotter = threading.Thread(
        target=lambda: out.update(snapshot=db.snapshot_state())
    )
    snapshotter.start()
    try:
        assert encoding.wait(10)
        writer = threading.Thread(
            target=db.execute, args=("INSERT INTO t VALUES (2)",)
        )
        writer.start()
        writer.join(5)
        # the commit went through while the encode was still held
        assert not writer.is_alive()
    finally:
        release.set()
        snapshotter.join(10)
    assert not snapshotter.is_alive()
    image, last = out["snapshot"]
    assert db.current_commit_id == last + 1
    records, _ = decode_checkpoint(image, "snapshot")
    catalog = decode_records(records)
    assert catalog.table("t").columns["a"].values.tolist() == [1.0]


def _columns(*vectors) -> tuple[list, bytes]:
    headers, buffers = colcodec.encode(list(vectors))
    return headers, b"".join(buffers)


_A, _B = from_values([1.0, 2.0]), from_values(["p", None])
_TWO_COLUMNS = _columns(_A, _B)


def _table_record(**changes) -> dict:
    """A well-formed two-column table record, with *changes* applied."""
    headers, blob = _TWO_COLUMNS
    record = {
        "t": "table", "name": "x", "columns": ["a", "b"],
        "types": ["int", "text"], "rows": 2, "serial": {},
        "data": headers, "blob": blob,
    }
    record.update(changes)
    return record


def _view_record(**changes) -> dict:
    headers, blob = _columns(from_values([1, 2]))
    snapshot = {"columns": ["k"], "rows": 2, "data": headers}
    snapshot.update(changes)
    return {
        "t": "view", "name": "mv", "sql": "SELECT 1 AS k",
        "materialized": True, "snapshot": snapshot, "blob": blob,
    }


def test_well_formed_table_and_view_records_decode():
    catalog = decode_records([_table_record(), _view_record()])
    assert catalog.table("x").columns["b"].nulls.tolist() == [False, True]
    assert catalog.resolve("mv").snapshot[2] == 2


def _text_codes(codes: list[int]) -> dict:
    """The table record with column b's codes replaced by *codes*."""
    headers, blob = _TWO_COLUMNS
    a_size = sum(headers[0]["sizes"])
    raw = np.array(codes, dtype="<i4").tobytes()
    return _table_record(
        blob=blob[:a_size] + raw + blob[a_size + len(raw):]
    )


MALFORMED_SHAPES = {
    "more vectors than columns": _table_record(
        data=_TWO_COLUMNS[0] + _columns(_A)[0],
        blob=_TWO_COLUMNS[1] + _columns(_A)[1],
    ),
    "fewer types than columns": _table_record(types=["int"]),
    "more types than columns": _table_record(types=["int", "text", "int"]),
    # a column one row short, its sizes agreeing with its buffers
    "short vector": _table_record(
        data=_columns(from_values([1.0]), _B)[0],
        blob=_columns(from_values([1.0]), _B)[1],
    ),
    # a NULL bitmap reaching past the last row
    "NULL position past the rows": _table_record(
        data=[{"tag": "<i1", "sizes": [2, 2]}, _TWO_COLUMNS[0][1]],
        blob=bytes(4) + _TWO_COLUMNS[1][sum(_TWO_COLUMNS[0][0]["sizes"]):],
    ),
    # a text code below the dictionary
    "negative NULL position": _text_codes([0, -1]),
    "row count not an integer": _table_record(rows=2.0),
    "unknown storage class": _table_record(types=["int", "varchar"]),
    "dtype of another storage class": _table_record(types=["int", "bool"]),
    "short materialised-view vector": _view_record(rows=3),
    "view vectors without names": _view_record(columns=[]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SHAPES))
def test_malformed_record_shape_is_refused_on_disk_and_wire(case):
    record = MALFORMED_SHAPES[case]
    with pytest.raises(DurabilityError, match="malformed catalog record"):
        decode_records([record])
    frame = encode_snapshot(checkpoint_image([record], 0))
    with pytest.raises(ProtocolViolation) as raised:
        decode_snapshot(frame)
    assert raised.value.sqlstate == "08P01"


def test_pickle_format_checkpoint_asks_for_a_rebuild(tmp_path):
    old = b"RCKP1\n" + pickle.dumps({"last_txn": 0})
    path = str(tmp_path / "old.ckpt")
    with open(path, "wb") as handle:
        handle.write(old)
    with pytest.raises(DurabilityError, match="RCKP1.*rebuild the database"):
        read_checkpoint(path)
    frame = base64.b64encode(zlib.compress(old)).decode("ascii")
    with pytest.raises(ProtocolViolation, match="rebuild the database"):
        decode_snapshot(frame)


def _json_array_record(cells: list) -> dict:
    """A one-column ``array`` table record in the older format, where an
    array column of nested or mixed lists, or of the literal text COPY
    and INSERT kept, was written as JSON cells in its header."""
    nulls = np.array([cell is None for cell in cells])
    bitmap = (
        np.packbits(nulls, bitorder="little").tobytes() if nulls.any() else b""
    )
    header = {"tag": "json", "cells": cells, "sizes": [len(bitmap)]}
    return {
        "t": "table", "name": "x", "columns": ["a"], "types": ["array"],
        "rows": len(cells), "serial": {}, "data": [header], "blob": bitmap,
    }


@pytest.mark.parametrize("cells, fetched", [
    ([[1, [2, 3]], None, [], ["p", 1]], [[1, [2, 3]], None, [], ["p", 1]]),
    ([[1, 2], "{3,4}", None, '{"a b",NULL}'],
     [[1, 2], [3, 4], None, ["a b", None]]),
    (["{}", "{{1},{2}}"], [[], [[1], [2]]]),
    ([None, None], [None, None]),
])
def test_older_json_array_columns_load_as_array_columns(cells, fetched):
    column = decode_records([_json_array_record(cells)]).table("x").columns["a"]
    assert column.is_array
    assert column.tolist() == fetched


def test_older_array_text_that_is_no_literal_is_durability_error():
    with pytest.raises(DurabilityError, match="malformed array literal"):
        decode_records([_json_array_record([[1], "abc"])])


def test_json_snapshot_column_of_lists_decodes_as_arrays():
    nested = [[[1], [2, 3]], None, [["q"]]]
    header = {"tag": "json", "cells": nested, "sizes": [1]}
    snapshot = {"columns": ["o"], "rows": 3, "data": [header]}
    record = {
        "t": "view", "name": "mv", "sql": "SELECT 1 AS o",
        "materialized": True, "snapshot": snapshot, "blob": bytes([0b010]),
    }
    (column,) = decode_records([record]).resolve("mv").snapshot[1].values()
    assert column.is_array and column.elements.is_array
    assert column.tolist() == nested


def _examples(request) -> int:
    rounds = request.config.getoption("--fuzz-rounds")
    return 10 * (rounds if rounds is not None else 5)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["t", "name", "columns", "types", "rows", "serial", "data",
             "tag", "sizes", "dict", "count", "elements", "cells", "blob",
             "sql", "materialized", "snapshot", "table", "unique", "method",
             "n_rows", "schema_version"]
        )
        | st.text(max_size=3),
        inner,
        max_size=6,
    ),
    max_leaves=20,
)

_RECORD_TYPES = st.sampled_from(
    ["table", "view", "stats", "index", "model", "checkpoint"]
)


@pytest.mark.fuzz
def test_random_bytes_never_decode_by_accident(request, tmp_path):
    @settings(max_examples=_examples(request), deadline=None)
    @given(blob=st.binary(max_size=200), magic=st.booleans())
    def check(blob, magic):
        data = (b"RCKP3\n" if magic else b"") + blob
        with pytest.raises(DurabilityError):
            decode_checkpoint(data, "fuzz")
        for encoded in (
            base64.b64encode(data).decode("ascii"),
            base64.b64encode(zlib.compress(data)).decode("ascii"),
            data.decode("latin-1"),
        ):
            with pytest.raises(ProtocolViolation):
                decode_snapshot(encoded)
        spill = SpillFile(str(tmp_path / "fuzz.spill"))
        with open(spill.path, "wb") as handle:
            handle.write(blob)
        try:
            list(spill.records())
        except DurabilityError:
            pass
        spill.remove()

    check()


@pytest.mark.fuzz
def test_well_framed_garbage_records_are_typed_errors(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(
        records=st.lists(
            st.fixed_dictionaries({"t": _RECORD_TYPES}, optional={
                **{
                    key: _JSON
                    for key in ("name", "columns", "types", "rows", "serial",
                                "data", "sql", "snapshot", "table", "method")
                },
                # column buffers: a raw frame after the record
                "blob": st.binary(max_size=64),
            }),
            max_size=4,
        ),
        txn=st.integers(min_value=0, max_value=2**40),
    )
    def check(records, txn):
        encoded = encode_snapshot(checkpoint_image(records, txn))
        try:
            decode_snapshot(encoded)
        except ProtocolViolation:
            pass

    check()


def _real_records() -> list[dict]:
    db = Database()
    _build(db)
    image, _ = db.snapshot_state()
    return decode_checkpoint(image, "image")[0]


def _mutated_bytes(blob: bytes):
    """*blob* truncated, extended, or with one byte replaced."""
    mutations = [
        st.integers(0, len(blob)).map(lambda n: blob[:n]),
        st.binary(min_size=1, max_size=8).map(lambda extra: blob + extra),
    ]
    if blob:
        mutations.append(
            st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)).map(
                lambda at: blob[:at[0]] + bytes([at[1]]) + blob[at[0] + 1:]
            )
        )
    return st.one_of(mutations)


@pytest.mark.fuzz
def test_mutated_real_records_are_typed_errors(request):
    """One field of one genuine record — a column header's field, or a
    byte or the length of its column buffers — replaced by arbitrary
    JSON or bytes either still decodes or raises 08P01 — no other
    exception escapes."""
    records = _real_records()

    @settings(max_examples=_examples(request), deadline=None)
    @given(data=st.data())
    def check(data):
        mutated = copy.deepcopy(records)
        record = data.draw(st.sampled_from(mutated))
        key = data.draw(st.sampled_from(sorted(record)))
        value = record[key]
        headers = value["data"] if key == "snapshot" and value else value
        if key == "blob":
            record[key] = data.draw(_mutated_bytes(value))
        elif key in ("data", "snapshot") and headers:
            header = data.draw(st.sampled_from(headers))
            field = data.draw(st.sampled_from(sorted(header)))
            header[field] = data.draw(_JSON)
        else:
            record[key] = data.draw(_JSON)
        try:
            decode_snapshot(encode_snapshot(checkpoint_image(mutated, 1)))
        except ProtocolViolation:
            pass

    check()


def test_sort_spills_run_order_as_row_positions(monkeypatch):
    """A spilled sort run is its order — JSON row positions — and the
    merge rebuilds the keys from the resident columns."""
    written: list = []
    append = SpillFile.append

    def spy(self, payload):
        written.append(payload)
        return append(self, payload)

    monkeypatch.setattr(SpillFile, "append", spy)
    rows = [(i % 17, f"k{i % 5}", None if i % 11 == 0 else i * 0.5)
            for i in range(1200)]
    query = "SELECT a, b, c FROM t ORDER BY b DESC, c NULLS FIRST, a"
    answers = []
    for limit in (None, "128kb"):
        db = Database(query_memory_limit=limit)
        try:
            db.execute("CREATE TABLE t (a int, b text, c float)")
            db.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
            answers.append(db.execute(query).rows)
        finally:
            db.close()
    assert answers[0] == answers[1]
    assert written, "the 128kb budget must spill the sort"
    positions = [p for block in written for p in block]
    assert all(type(p) is int for p in positions)
    assert sorted(positions) == list(range(len(rows)))
