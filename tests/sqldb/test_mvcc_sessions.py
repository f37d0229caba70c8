"""Multi-session MVCC: snapshot isolation, first-committer-wins,
per-table locking with deadlock detection, and session-scoped cancel."""

import threading
import time

import pytest

from repro.errors import (
    CatalogError,
    DeadlockDetected,
    SerializationFailure,
    TransactionError,
    TransactionRollback,
)
from repro.sqldb import dbapi
from repro.sqldb.engine import Database


@pytest.fixture
def db():
    database = Database("umbra")
    database.execute("CREATE TABLE t (a int, b text)")
    database.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
    return database


def rows(executor, table="t"):
    return sorted(executor.execute(f"SELECT * FROM {table}").rows)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestSnapshotIsolation:
    def test_uncommitted_writes_are_invisible_to_peers(self, db):
        a, b = db.session(), db.session()
        a.begin()
        a.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        assert rows(a) == [(1, "x"), (2, "y"), (3, "z")]
        # b (autocommit) and the default session still see committed state
        assert rows(b) == [(1, "x"), (2, "y")]
        assert rows(db) == [(1, "x"), (2, "y")]
        a.commit()
        assert rows(b) == [(1, "x"), (2, "y"), (3, "z")]

    def test_open_snapshot_ignores_later_commits(self, db):
        a, b = db.session(), db.session()
        a.begin()
        assert rows(a) == [(1, "x"), (2, "y")]
        b.execute("INSERT INTO t (a, b) VALUES (7, 'q')")
        # a's snapshot was captured at BEGIN: the new row stays invisible
        assert rows(a) == [(1, "x"), (2, "y")]
        a.commit()
        # after commit the session reads committed state again
        assert rows(a) == [(1, "x"), (2, "y"), (7, "q")]

    def test_snapshot_covers_ddl(self, db):
        a, b = db.session(), db.session()
        a.begin()
        b.execute("CREATE TABLE fresh (n int)")
        with pytest.raises(CatalogError):
            a.execute("SELECT * FROM fresh")
        a.rollback()
        assert a.execute("SELECT * FROM fresh").rows == []

    def test_read_only_transactions_commit_without_conflict(self, db):
        a, b = db.session(), db.session()
        a.begin()
        rows(a)
        b.execute("INSERT INTO t (a, b) VALUES (9, 'w')")
        a.commit()  # no writes, no conflict check, no error

    def test_sessions_have_independent_transaction_state(self, db):
        a, b = db.session(), db.session()
        a.begin()
        assert a.in_transaction and not b.in_transaction
        assert not db.in_transaction  # the default session is its own
        b.begin()
        a.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        b.rollback()
        a.commit()
        assert rows(db) == [(1, "x"), (2, "y"), (3, "z")]


class TestFirstCommitterWins:
    def test_write_write_conflict_raises_40001(self, db):
        a, b = db.session(), db.session()
        a.begin()
        b.begin()
        a.execute("INSERT INTO t (a, b) VALUES (11, 'a')")
        a.commit()
        b.execute("INSERT INTO t (a, b) VALUES (12, 'b')")
        with pytest.raises(SerializationFailure) as excinfo:
            b.commit()
        assert excinfo.value.sqlstate == "40001"
        assert isinstance(excinfo.value, TransactionRollback)
        # b's transaction is gone; its write never surfaced
        assert not b.in_transaction
        assert (12, "b") not in rows(db)

    def test_retry_after_40001_succeeds(self, db):
        a, b = db.session(), db.session()
        a.begin()
        b.begin()
        a.execute("INSERT INTO t (a, b) VALUES (20, 'a')")
        a.commit()  # releases t's lock; b's snapshot predates the commit
        b.execute("INSERT INTO t (a, b) VALUES (21, 'b')")
        with pytest.raises(SerializationFailure):
            b.commit()
        # the standard client loop: re-run the transaction from BEGIN
        b.begin()
        b.execute("INSERT INTO t (a, b) VALUES (21, 'b')")
        b.commit()
        assert (20, "a") in rows(db) and (21, "b") in rows(db)

    def test_disjoint_write_sets_do_not_conflict(self, db):
        db.execute("CREATE TABLE u (n int)")
        a, b = db.session(), db.session()
        a.begin()
        b.begin()
        a.execute("INSERT INTO t (a, b) VALUES (30, 'a')")
        b.execute("INSERT INTO u (n) VALUES (1)")
        a.commit()
        b.commit()
        assert (30, "a") in rows(db)
        assert rows(db, "u") == [(1,)]

    def test_drop_conflicts_with_concurrent_insert(self, db):
        a, b = db.session(), db.session()
        a.begin()
        b.execute("DROP TABLE t")
        # a's snapshot still has t, and t's lock is free again — but the
        # committed drop left a version tombstone behind
        a.execute("INSERT INTO t (a, b) VALUES (40, 'a')")
        with pytest.raises(SerializationFailure):
            a.commit()
        with pytest.raises(CatalogError):
            rows(db)

    def test_create_view_checks_referenced_tables(self, db):
        a, b = db.session(), db.session()
        a.begin()
        a.execute("CREATE MATERIALIZED VIEW mv AS SELECT a FROM t")
        b.execute("INSERT INTO t (a, b) VALUES (50, 'n')")
        # t moved under the view's feet: serial replay would materialise
        # different contents, so the commit must not succeed silently
        with pytest.raises(SerializationFailure):
            a.commit()

    def test_commit_order_ids_are_monotonic(self, db):
        a, b = db.session(), db.session()
        a.execute("INSERT INTO t (a, b) VALUES (60, 'a')")
        first = a.last_commit_id
        b.begin()
        b.execute("INSERT INTO t (a, b) VALUES (61, 'b')")
        b.commit()
        assert first is not None and b.last_commit_id > first


class TestLockingAndDeadlock:
    def test_writer_blocks_writer_on_same_table(self, db):
        a, b = db.session(), db.session()
        a.begin()
        a.execute("INSERT INTO t (a, b) VALUES (1, 'l')")
        started = threading.Event()
        done = threading.Event()

        def blocked_insert():
            started.set()
            b.execute("INSERT INTO t (a, b) VALUES (2, 'm')")
            done.set()

        thread = threading.Thread(target=blocked_insert)
        thread.start()
        assert started.wait(5)
        # b cannot proceed while a holds t's lock
        assert not done.wait(0.3)
        a.rollback()
        assert done.wait(10)
        thread.join(timeout=10)
        assert (2, "m") in rows(db)

    def test_deadlock_victim_gets_40p01_and_peer_proceeds(self, db):
        db.execute("CREATE TABLE u (n int)")
        a, b = db.session(), db.session()
        a.begin()
        b.begin()
        a.execute("INSERT INTO t (a, b) VALUES (1, 'a')")  # a holds t
        b.execute("INSERT INTO u (n) VALUES (1)")  # b holds u
        unblocked = threading.Event()

        def a_wants_u():
            a.execute("INSERT INTO u (n) VALUES (2)")  # blocks on b
            unblocked.set()

        thread = threading.Thread(target=a_wants_u)
        thread.start()
        assert wait_until(lambda: a.session_id in db.locks._waiting)
        # b closing the cycle is the victim, deterministically
        with pytest.raises(DeadlockDetected) as excinfo:
            b.execute("INSERT INTO t (a, b) VALUES (2, 'b')")
        assert excinfo.value.sqlstate == "40P01"
        # the victim's locks were released immediately: a unblocks and
        # can commit
        assert unblocked.wait(10)
        thread.join(timeout=10)
        a.commit()
        assert (1, "a") in rows(db)
        # b's transaction is aborted until ROLLBACK
        with pytest.raises(TransactionError) as aborted:
            b.execute("SELECT 1")
        assert aborted.value.sqlstate == "25P02"
        b.rollback()
        assert rows(b, "u") == [(2,)]  # only a's committed row

    def test_commit_of_aborted_transaction_rolls_back_quietly(self, db):
        db.execute("CREATE TABLE u (n int)")
        a, b = db.session(), db.session()
        a.begin()
        b.begin()
        a.execute("INSERT INTO t (a, b) VALUES (1, 'a')")
        b.execute("INSERT INTO u (n) VALUES (1)")
        blocked = threading.Thread(
            target=lambda: a.execute("INSERT INTO u (n) VALUES (2)")
        )
        blocked.start()
        assert wait_until(lambda: a.session_id in db.locks._waiting)
        with pytest.raises(DeadlockDetected):
            b.execute("INSERT INTO t (a, b) VALUES (2, 'b')")
        blocked.join(timeout=10)
        a.commit()
        # PostgreSQL: COMMIT of an aborted transaction reports ROLLBACK
        # instead of raising again
        b.execute("COMMIT")
        assert not b.in_transaction
        assert (1,) not in rows(db, "u")

    def test_autocommit_locks_are_transient(self, db):
        a = db.session()
        a.execute("INSERT INTO t (a, b) VALUES (5, 'a')")
        assert db.locks.held_by(a.session_id) == set()

    def test_transaction_locks_released_on_close(self, db):
        a = db.session()
        a.begin()
        a.execute("INSERT INTO t (a, b) VALUES (5, 'a')")
        assert db.locks.held_by(a.session_id) == {"t"}
        a.close()
        assert db.locks.held_by(a.session_id) == set()
        assert (5, "a") not in rows(db)  # close rolled the txn back


class TestSessionScopedCancel:
    def test_cancel_scopes_to_one_session(self, db):
        a, b = db.session(), db.session()
        with a.statement_guard() as ea, b.statement_guard() as eb:
            db.cancel(b)
            assert eb.is_set() and not ea.is_set()
            db.cancel()  # default session only: a and b untouched
            assert not ea.is_set()
            db.cancel_all()
            assert ea.is_set()

    def test_cancel_one_session_leaves_peer_running(self, tmp_path):
        path = tmp_path / "big.csv"
        with open(path, "w") as handle:
            handle.write("a,b\n")
            for i in range(20_000):
                handle.write(f"{i % 977},{i % 31}\n")
        db = Database("umbra")
        db.execute("CREATE TABLE big (a int, b int)")
        db.execute(f"COPY big FROM '{path}' WITH (FORMAT CSV, HEADER TRUE)")
        a, b = db.session(), db.session()
        outcome = {}

        def run(name, session):
            try:
                outcome[name] = session.execute(
                    "SELECT a, sum(b) FROM big WHERE a % 3 = 0 GROUP BY a"
                )
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                outcome[name] = exc

        threads = [
            threading.Thread(target=run, args=("a", a)),
            threading.Thread(target=run, args=("b", b)),
        ]
        for thread in threads:
            thread.start()
        wait_until(lambda: b.has_active_statements, timeout=5.0)
        db.cancel(b)
        for thread in threads:
            thread.join(timeout=30)
        # a must never be collateral damage of b's cancel
        assert not isinstance(outcome["a"], Exception)
        db.close()


class TestSharedDatabaseConnections:
    def test_connections_share_data_but_not_transactions(self, db):
        c1 = dbapi.connect(database=db)
        c2 = dbapi.connect(database=db)
        c1.begin()
        cur1 = c1.cursor()
        cur1.execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        cur2 = c2.cursor()
        cur2.execute("SELECT * FROM t")
        assert len(cur2.fetchall()) == 2  # c1's insert is uncommitted
        c1.commit()
        cur2.execute("SELECT * FROM t")
        assert len(cur2.fetchall()) == 3
        c1.close()
        c2.close()

    def test_serialization_failure_maps_to_operational_error(self, db):
        c1 = dbapi.connect(database=db)
        c2 = dbapi.connect(database=db)
        c1.begin()
        c2.begin()
        c1.cursor().execute("INSERT INTO t (a, b) VALUES (1, 'p')")
        c1.commit()  # releases t's lock; c2's snapshot predates this commit
        c2.cursor().execute("INSERT INTO t (a, b) VALUES (2, 'q')")
        with pytest.raises(dbapi.OperationalError) as excinfo:
            c2.commit()
        assert excinfo.value.sqlstate == "40001"
        c1.close()
        c2.close()

    def test_closing_shared_connection_keeps_database_alive(self, db):
        conn = dbapi.connect(database=db)
        conn.cursor().execute("INSERT INTO t (a, b) VALUES (8, 'k')")
        conn.close()
        with pytest.raises(dbapi.InterfaceError):
            conn.cursor()
        assert (8, "k") in rows(db)

    def test_owned_connection_shares_default_session(self):
        # connector code reaches through connection.database directly;
        # both paths must observe one transaction state
        conn = dbapi.connect("umbra")
        conn.cursor().execute("CREATE TABLE t (a int)")
        conn.begin()
        assert conn.database.in_transaction
        conn.database.execute("INSERT INTO t (a) VALUES (1)")
        conn.rollback()
        cur = conn.cursor()
        cur.execute("SELECT * FROM t")
        assert cur.fetchall() == []
        conn.close()


class TestCloseUnblocksPeers:
    def test_blocked_peer_unblocks_when_lock_holder_closes(self, db):
        """Regression: Session.close() must release *every* lock the
        session holds — a peer blocked on one of them unblocks instead
        of waiting forever on a session that no longer exists."""
        holder, peer = db.session(), db.session()
        holder.begin()
        holder.execute("INSERT INTO t (a, b) VALUES (5, 'h')")
        assert db.locks.held_by(holder.session_id) == {"t"}

        done = []

        def blocked_write():
            peer.execute("INSERT INTO t (a, b) VALUES (6, 'p')")
            done.append(True)

        thread = threading.Thread(target=blocked_write)
        thread.start()
        assert wait_until(
            lambda: peer.session_id in db.locks._waiting
        )
        holder.close()  # no explicit rollback: close must do it all
        thread.join(timeout=15)
        assert done == [True]
        assert db.locks.held_by(holder.session_id) == set()
        # the holder's uncommitted insert is gone, the peer's landed
        assert (5, "h") not in rows(db)
        assert (6, "p") in rows(db)
        assert holder.session_id not in db._sessions
        peer.close()

    def test_close_is_idempotent_and_forgets_session(self, db):
        session = db.session()
        session.execute("INSERT INTO t (a, b) VALUES (7, 'i')")
        assert session.session_id in db._sessions
        session.close()
        session.close()  # second close is a no-op
        assert session.session_id not in db._sessions
