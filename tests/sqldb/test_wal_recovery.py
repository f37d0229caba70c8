"""Write-ahead logging, checkpoints, and crash recovery on open."""

import os
import struct

import pytest

from repro.errors import DurabilityError
from repro.sqldb.engine import Database
from repro.sqldb.wal import (
    _WAL_MAGIC,
    encode_record,
    read_checkpoint,
    read_wal,
    truncate_wal,
)


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "db.wal")


def open_db(wal_path, **kwargs):
    return Database("umbra", wal_path=wal_path, **kwargs)


def all_rows(db, table="t"):
    return sorted(db.execute(f"SELECT * FROM {table}").rows)


class TestBasicRecovery:
    def test_ddl_and_dml_survive_reopen(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int, b text)")
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x')")
        db.execute("INSERT INTO t (a, b) VALUES (?, ?)", (2, "y"))
        db.close()
        db2 = open_db(wal_path)
        assert all_rows(db2) == [(1, "x"), (2, "y")]

    def test_views_survive_reopen(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("INSERT INTO t (a) VALUES (1), (2), (3)")
        db.execute("CREATE VIEW v AS SELECT a FROM t WHERE a > 1")
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT count(*) AS n FROM t")
        db.close()
        db2 = open_db(wal_path)
        assert sorted(db2.execute("SELECT a FROM v").column("a")) == [2, 3]
        assert db2.execute("SELECT n FROM mv").scalar() == 3

    def test_uncommitted_transaction_is_lost(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a) VALUES (1)")
        db.close()  # abandons the open transaction, like a process exit
        db2 = open_db(wal_path)
        assert all_rows(db2) == []

    def test_rolled_back_work_never_reaches_the_log(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a) VALUES (1)")
        db.execute("ROLLBACK")
        db.execute("INSERT INTO t (a) VALUES (2)")
        db.close()
        records, _ = read_wal(wal_path)
        inserted = [r for r in records if "INSERT" in r.get("sql", "")]
        assert len(inserted) == 1
        db2 = open_db(wal_path)
        assert all_rows(db2) == [(2,)]

    def test_savepoint_undone_statements_not_replayed(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a) VALUES (1)")
        db.execute("SAVEPOINT s")
        db.execute("INSERT INTO t (a) VALUES (2)")
        db.execute("ROLLBACK TO s")
        db.execute("INSERT INTO t (a) VALUES (3)")
        db.execute("COMMIT")
        db.close()
        db2 = open_db(wal_path)
        assert all_rows(db2) == [(1,), (3,)]

    def test_executemany_batch_replays(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int, b text)")
        db.executemany(
            "INSERT INTO t (a, b) VALUES (?, ?)",
            [(i, f"row{i}") for i in range(20)],
        )
        db.close()
        db2 = open_db(wal_path)
        assert len(all_rows(db2)) == 20
        records, _ = read_wal(wal_path)
        # the batch is one compressed "many" record, not 20 records
        assert sum(1 for r in records if r["t"] == "many") == 1

    def test_failed_statements_not_logged(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        with pytest.raises(Exception):
            db.execute("INSERT INTO t (a) VALUES ('boom')")
        db.close()
        db2 = open_db(wal_path)
        assert all_rows(db2) == []

    def test_recovery_is_idempotent(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        db.close()
        for _ in range(3):  # reopen repeatedly; no double-apply
            db = open_db(wal_path)
            assert all_rows(db) == [(1,)]
            db.close()

    def test_analyze_survives_reopen(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("INSERT INTO t (a) VALUES (1), (2)")
        db.execute("ANALYZE t")
        db.close()
        db2 = open_db(wal_path)
        assert db2.catalog.table_stats("t") is not None
        assert db2.catalog.table_stats("t").n_rows == 2


class TestCheckpoints:
    def test_checkpoint_truncates_wal(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.executemany("INSERT INTO t (a) VALUES (?)", [(i,) for i in range(50)])
        size_before = os.path.getsize(wal_path)
        db.execute("CHECKPOINT")
        assert os.path.getsize(wal_path) < size_before
        assert os.path.exists(wal_path + ".ckpt")
        db.close()
        db2 = open_db(wal_path)
        assert len(all_rows(db2)) == 50

    def test_recovery_from_checkpoint_plus_tail(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        db.execute("CHECKPOINT")
        db.execute("INSERT INTO t (a) VALUES (2)")
        db.close()
        db2 = open_db(wal_path)
        assert all_rows(db2) == [(1,), (2,)]

    def test_auto_checkpoint_every_n_commits(self, wal_path):
        db = open_db(wal_path, checkpoint_every=3)
        db.execute("CREATE TABLE t (a int)")
        for i in range(5):
            db.execute("INSERT INTO t (a) VALUES (?)", (i,))
        assert os.path.exists(wal_path + ".ckpt")
        db.close()
        db2 = open_db(wal_path)
        assert len(all_rows(db2)) == 5

    def test_checkpoint_inside_transaction_raises(self, wal_path):
        db = open_db(wal_path)
        db.execute("BEGIN")
        with pytest.raises(Exception):
            db.execute("CHECKPOINT")
        db.execute("ROLLBACK")

    def test_checkpoint_without_wal_raises(self):
        db = Database("umbra")
        with pytest.raises(DurabilityError):
            db.execute("CHECKPOINT")

    def test_corrupt_checkpoint_raises(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("CHECKPOINT")
        db.close()
        with open(wal_path + ".ckpt", "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff\xff\xff")
        with pytest.raises(DurabilityError):
            open_db(wal_path)


class TestTornTails:
    """A crash mid-write leaves a torn tail; recovery clips it."""

    def _committed_wal(self, wal_path, n=5):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        for i in range(n):
            db.execute("INSERT INTO t (a) VALUES (?)", (i,))
        db.close()

    def test_truncated_at_every_byte_recovers_a_prefix(self, wal_path):
        self._committed_wal(wal_path, n=4)
        with open(wal_path, "rb") as handle:
            full = handle.read()
        # clip at a spread of byte offsets, beyond the magic
        for cut in range(len(_WAL_MAGIC), len(full), 7):
            with open(wal_path, "wb") as handle:
                handle.write(full[:cut])
            db = open_db(wal_path)
            rows = [r[0] for r in all_rows(db)] if db.catalog.has("t") else []
            # always a prefix of the committed inserts, never a gap
            assert rows == list(range(len(rows)))
            db.close()

    def test_bad_checksum_stops_replay_there(self, wal_path):
        self._committed_wal(wal_path, n=3)
        with open(wal_path, "rb") as handle:
            full = handle.read()
        # corrupt one byte in the last record's payload
        corrupted = bytearray(full)
        corrupted[-2] ^= 0xFF
        with open(wal_path, "wb") as handle:
            handle.write(bytes(corrupted))
        db = open_db(wal_path)
        rows = [r[0] for r in all_rows(db)]
        assert rows == [0, 1]  # the corrupted last insert is dropped
        db.close()

    def test_torn_header_is_clipped(self, wal_path):
        self._committed_wal(wal_path, n=2)
        with open(wal_path, "ab") as handle:
            handle.write(struct.pack("<I", 5000))  # half a header
        db = open_db(wal_path)
        assert [r[0] for r in all_rows(db)] == [0, 1]
        db.close()
        # the torn tail was physically truncated away on recovery
        records, valid = read_wal(wal_path)
        assert valid == os.path.getsize(wal_path)  # nothing invalid remains

    def test_length_past_eof_is_clipped(self, wal_path):
        self._committed_wal(wal_path, n=2)
        payload = encode_record({"t": "auto", "txn": 99, "sql": "x", "i": 0, "p": []})
        with open(wal_path, "ab") as handle:
            handle.write(payload[: len(payload) // 2])
        db = open_db(wal_path)
        assert [r[0] for r in all_rows(db)] == [0, 1]
        db.close()

    def test_bad_magic_raises(self, wal_path):
        with open(wal_path, "wb") as handle:
            handle.write(b"GARBAGE!" * 4)
        with pytest.raises(DurabilityError):
            open_db(wal_path)

    def test_torn_magic_reads_as_empty(self, wal_path):
        with open(wal_path, "wb") as handle:
            handle.write(_WAL_MAGIC[:3])
        db = open_db(wal_path)  # treated as a torn initial write
        assert db.catalog.table_names == []
        db.close()

    def test_missing_wal_file_is_fresh_database(self, wal_path):
        db = open_db(wal_path)
        assert db.catalog.table_names == []
        db.execute("CREATE TABLE t (a int)")
        db.close()


class TestWalFormat:
    def test_read_wal_roundtrip(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a) VALUES (1)")
        db.execute("INSERT INTO t (a) VALUES (2)")
        db.execute("COMMIT")
        db.close()
        records, valid = read_wal(wal_path)
        assert valid == os.path.getsize(wal_path)
        kinds = [r["t"] for r in records]
        assert kinds == ["auto", "begin", "stmt", "stmt", "commit"]
        assert records[1]["txn"] == records[4]["txn"]

    def test_group_commit_is_contiguous(self, wal_path):
        """A committed txn's records are adjacent — buffered until COMMIT."""
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("CREATE TABLE u (a int)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a) VALUES (1)")
        db.execute("COMMIT")
        db.close()
        records, _ = read_wal(wal_path)
        txn_ids = [r["txn"] for r in records]
        # per-transaction records never interleave
        assert txn_ids == sorted(txn_ids)

    def test_truncate_wal_repairs_file(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.close()
        good_size = os.path.getsize(wal_path)
        with open(wal_path, "ab") as handle:
            handle.write(b"\x01")
        records, valid = read_wal(wal_path)
        assert valid == good_size
        truncate_wal(wal_path, valid)
        assert os.path.getsize(wal_path) == good_size

    def test_unserialisable_record_raises(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        with pytest.raises(DurabilityError):
            db._wal.append({"t": "auto", "bad": object()})
        db.close()

    def test_checkpoint_reader_missing_file(self, tmp_path):
        assert read_checkpoint(str(tmp_path / "nope.ckpt")) is None


class TestRecoveryUnderConcurrency:
    """Crash recovery with multiple MVCC sessions in flight.

    The durability point is the flush of a transaction's WAL records at
    COMMIT: a peer session's *open* transaction has written nothing to
    the log yet, so recovery replays exactly the committed sessions —
    the same state a serial replay of the commit order produces.
    """

    def test_committed_peer_survives_open_peer(self, wal_path):
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        a = db.session()
        b = db.session()
        db.begin(session=a)
        db.execute("INSERT INTO t (a) VALUES (1)", session=a)
        db.commit(session=a)
        db.begin(session=b)
        db.execute("INSERT INTO t (a) VALUES (2)", session=b)
        # crash: abandon the database object with b's transaction open
        del db, a, b
        db2 = open_db(wal_path)
        assert all_rows(db2) == [(1,)]
        db2.close()

    def test_crash_after_commit_record_is_durable(self, wal_path):
        # crash between the durable commit record and the in-memory
        # catalog install: the commit must survive recovery even though
        # the crashed process never acknowledged it
        from repro.sqldb.faults import Faults, SimulatedCrash

        faults = Faults()
        db = open_db(wal_path, faults=faults)
        db.execute("CREATE TABLE t (a int)")
        db.execute("CREATE TABLE u (a int)")
        a = db.session()
        b = db.session()
        db.begin(session=b)
        db.execute("INSERT INTO u (a) VALUES (99)", session=b)  # open at crash time
        db.begin(session=a)
        db.execute("INSERT INTO t (a) VALUES (1)", session=a)
        faults.arm("commit.install", "crash")
        with pytest.raises(SimulatedCrash):
            db.commit(session=a)
        del db, a, b
        db2 = open_db(wal_path)
        assert all_rows(db2) == [(1,)]
        assert all_rows(db2, "u") == []  # b never committed
        db2.close()

    def test_autocommit_batch_reaches_commit_install(self, wal_path):
        # every commit passes the crashpoint between "durable" and
        # "acknowledged" — an autocommit executemany batch included
        from repro.sqldb.faults import Faults, SimulatedCrash

        faults = Faults()
        db = open_db(wal_path, faults=faults)
        db.execute("CREATE TABLE t (a int)")
        del faults.trace[:]
        db.executemany("INSERT INTO t (a) VALUES (?)", [(1,), (2,)])
        assert "commit.install" in faults.trace
        faults.arm("commit.install", "crash")
        with pytest.raises(SimulatedCrash):
            db.executemany("INSERT INTO t (a) VALUES (?)", [(3,), (4,)])
        del db
        db2 = open_db(wal_path)
        # the batch record was durable before the crashpoint
        assert all_rows(db2) == [(1,), (2,), (3,), (4,)]
        db2.close()

    def test_serialization_loser_never_reaches_the_wal(self, wal_path):
        from repro.errors import SerializationFailure

        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        a = db.session()
        b = db.session()
        db.begin(session=a)
        db.begin(session=b)
        db.execute("INSERT INTO t (a) VALUES (1)", session=a)
        db.commit(session=a)  # releases t's lock; b's snapshot predates this
        db.execute("INSERT INTO t (a) VALUES (2)", session=b)
        with pytest.raises(SerializationFailure):
            db.commit(session=b)
        db.close()
        records, _ = read_wal(wal_path)
        inserted = [r for r in records if "INSERT" in r.get("sql", "")]
        assert len(inserted) == 1
        assert "VALUES (1)" in inserted[0]["sql"]
        db2 = open_db(wal_path)
        assert all_rows(db2) == [(1,)]
        db2.close()

    def test_wal_order_matches_commit_order(self, wal_path):
        # commit ids are allocated at COMMIT under the install latch, so
        # the log's transaction ids are the commit order even when the
        # sessions began in the opposite order
        db = open_db(wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("CREATE TABLE u (a int)")
        a = db.session()
        b = db.session()
        db.begin(session=a)  # begins first...
        db.begin(session=b)
        db.execute("INSERT INTO t (a) VALUES (1)", session=a)
        db.execute("INSERT INTO u (a) VALUES (2)", session=b)
        db.commit(session=b)  # ...but commits second
        db.commit(session=a)
        assert b.last_commit_id < a.last_commit_id
        db.close()
        records, _ = read_wal(wal_path)
        txn_ids = [r["txn"] for r in records]
        assert txn_ids == sorted(txn_ids)
        db2 = open_db(wal_path)
        assert all_rows(db2, "t") == [(1,)]
        assert all_rows(db2, "u") == [(2,)]
        db2.close()
