"""Server lifecycle: queries, transactions, admission control, timeouts,
out-of-band cancel, graceful shutdown, and disconnect hygiene.

These tests run a real :class:`DatabaseServer` on an ephemeral loopback
port and drive it with the real client — the same path a remote pipeline
takes.  The recurring invariant: however a connection ends (goodbye,
abrupt disconnect, idle reap, shutdown), its session is closed, its
transaction rolled back, its locks released, and the engine's session
registry restored."""

import csv
import threading
import time

import pytest

from repro.errors import (
    AdminShutdown,
    QueryCancelled,
    SerializationFailure,
    SQLSyntaxError,
    TooManyConnections,
)
from repro.sqldb.client import is_retryable
from repro.sqldb import client, dbapi
from repro.sqldb.engine import Database
from repro.sqldb.server import DatabaseServer
from tests.sqldb.plans import explain

pytestmark = pytest.mark.server


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def served():
    db = Database("umbra")
    db.execute("CREATE TABLE t (a int, b text)")
    db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
    server = DatabaseServer(db).start()
    yield server, db
    server.shutdown(drain_s=2.0)
    db.close()


def connect(server, **kwargs):
    return client.connect("127.0.0.1", server.port, **kwargs)


class TestQueries:
    def test_select_rows_and_description(self, served):
        server, db = served
        with connect(server) as conn:
            cur = conn.cursor().execute("SELECT a, b FROM t ORDER BY a")
            assert [d[0] for d in cur.description] == ["a", "b"]
            assert cur.fetchall() == [(1, "x"), (2, "y")]

    def test_parameters_round_trip(self, served):
        server, db = served
        with connect(server) as conn:
            cur = conn.cursor().execute(
                "SELECT a, b FROM t WHERE a = %s", (2,)
            )
            assert cur.fetchall() == [(2, "y")]

    def test_script_returns_last_result(self, served):
        server, db = served
        with connect(server) as conn:
            cur = conn.cursor().execute(
                "INSERT INTO t (a, b) VALUES (3, 'z'); "
                "SELECT count(*) FROM t"
            )
            assert cur.fetchone() == (3,)

    def test_executemany_rowcount(self, served):
        server, db = served
        with connect(server) as conn:
            cur = conn.cursor()
            cur.executemany(
                "INSERT INTO t (a, b) VALUES (%s, %s)",
                [(10, "p"), (11, "q"), (12, "r")],
            )
            assert cur.rowcount == 3
        assert db.execute("SELECT count(*) FROM t").scalar() == 5

    def test_statement_error_keeps_session_alive(self, served):
        server, db = served
        with connect(server) as conn:
            cur = conn.cursor()
            with pytest.raises(dbapi.ProgrammingError) as info:
                cur.execute("SELEKT chaos")
            assert isinstance(info.value, SQLSyntaxError)
            assert info.value.sqlstate == "42601"
            # the error-state contract: stale rows are not served
            with pytest.raises(dbapi.InterfaceError):
                cur.fetchall()
            # ...and the very same connection keeps working
            assert cur.execute("SELECT count(*) FROM t").fetchone() == (2,)


class TestTransactions:
    def test_rollback_discards_and_commit_publishes(self, served):
        server, db = served
        with connect(server) as conn:
            conn.begin()
            assert conn.in_transaction
            conn.cursor().execute("INSERT INTO t (a, b) VALUES (9, 'w')")
            conn.rollback()
            assert not conn.in_transaction
            assert db.execute("SELECT count(*) FROM t").scalar() == 2

            conn.begin()
            conn.cursor().execute("INSERT INTO t (a, b) VALUES (9, 'w')")
            conn.commit()
        assert db.execute("SELECT count(*) FROM t").scalar() == 3

    def test_serialization_failure_travels_with_class_and_state(
        self, served
    ):
        server, db = served
        with connect(server) as first, connect(server) as second:
            first.begin()
            second.begin()
            first.cursor().execute("INSERT INTO t (a, b) VALUES (7, 'a')")
            first.commit()
            second.cursor().execute("INSERT INTO t (a, b) VALUES (8, 'b')")
            with pytest.raises(SerializationFailure) as info:
                second.commit()
            assert info.value.sqlstate == "40001"
            assert isinstance(info.value, dbapi.OperationalError)
            assert is_retryable(info.value)

    def test_disconnect_rolls_back_open_transaction(self, served):
        server, db = served
        conn = connect(server)
        conn.begin()
        conn.cursor().execute("INSERT INTO t (a, b) VALUES (5, 'v')")
        conn._sock.close()  # vanish without a goodbye
        assert wait_until(lambda: len(db._sessions) == 1)
        assert db.execute("SELECT count(*) FROM t").scalar() == 2

    def test_disconnect_releases_locks_and_peer_unblocks(self, served):
        """The satellite regression, end to end: a client dies holding a
        table lock; a peer blocked on that lock must unblock, not hang."""
        server, db = served
        holder = connect(server)
        holder.begin()
        holder.cursor().execute("INSERT INTO t (a, b) VALUES (50, 'h')")

        peer = connect(server)
        done = []

        def blocked_write():
            peer.cursor().execute("INSERT INTO t (a, b) VALUES (51, 'p')")
            done.append(True)

        thread = threading.Thread(target=blocked_write)
        thread.start()
        # let the peer actually block on the table lock
        time.sleep(0.2)
        assert not done
        holder._sock.close()  # abrupt death, lock still held
        thread.join(timeout=15)
        assert done == [True]
        assert db.execute(
            "SELECT count(*) FROM t WHERE a = 51"
        ).scalar() == 1
        peer.close()


class TestIndexDdlOverTcp:
    def test_create_index_visible_after_commit_and_replans_peers(self):
        """Index DDL over TCP follows transaction visibility: invisible
        to peers until commit, then peers' cached plans are invalidated
        (index epoch is part of the plan-cache key) and re-planned as
        index scans."""
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int, b text)")
        for i in range(50):
            db.execute("INSERT INTO t (a, b) VALUES (%s, %s)", (i, f"r{i}"))
        sql = "SELECT b FROM t WHERE a = 7"
        with DatabaseServer(db) as server:
            with connect(server) as ddl, connect(server) as peer:
                # the peer caches the scan-based plan first
                assert peer.cursor().execute(sql).fetchall() == [("r7",)]
                assert "IndexScan" not in explain(db, sql)

                ddl.begin()
                ddl.cursor().execute("CREATE UNIQUE INDEX t_a ON t (a)")
                # uncommitted DDL: peers still plan (and run) scans
                assert "IndexScan" not in explain(db, sql)
                assert peer.cursor().execute(sql).fetchall() == [("r7",)]
                ddl.commit()

                # committed: the shared plan cache is stale by epoch, the
                # peer's same statement re-plans into an index probe
                assert "IndexScan(t using t_a, eq)" in explain(db, sql)
                assert peer.cursor().execute(sql).fetchall() == [("r7",)]
                with pytest.raises(dbapi.IntegrityError):
                    peer.cursor().execute(
                        "INSERT INTO t (a, b) VALUES (7, 'dup')"
                    )
        db.close()


class TestAdmissionControl:
    def test_shed_with_retryable_sqlstate(self):
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int)")
        with DatabaseServer(db, max_connections=2) as server:
            first = connect(server)
            second = connect(server)
            with pytest.raises(dbapi.OperationalError) as info:
                connect(server)
            assert isinstance(info.value, TooManyConnections)
            assert info.value.sqlstate == "53300"
            assert is_retryable(info.value)  # clients may simply retry
            assert wait_until(lambda: server.stats["shed"] >= 1)

            # capacity freed -> the next connection is admitted
            first.close()
            assert wait_until(lambda: server.active_connections == 1)
            third = connect(server)
            cur = third.cursor().execute("SELECT count(*) FROM t")
            assert cur.fetchone() == (0,)
            third.close()
            second.close()
        db.close()

    def test_eight_concurrent_clients_sustained(self, served):
        """Acceptance floor: >= 8 concurrent clients, each running real
        statements, all succeeding."""
        server, db = served
        n_clients, n_statements = 8, 10
        results = [None] * n_clients
        barrier = threading.Barrier(n_clients, timeout=30)

        def worker(i):
            with connect(server) as conn:
                barrier.wait()  # all 8 connected simultaneously
                count = 0
                for j in range(n_statements):
                    conn.cursor().execute(
                        "INSERT INTO t (a, b) VALUES (%s, %s)",
                        (100 * (i + 1) + j, f"c{i}"),
                    )
                    cur = conn.cursor().execute(
                        "SELECT count(*) FROM t WHERE b = %s", (f"c{i}",)
                    )
                    count = cur.fetchone()[0]
                results[i] = count

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert results == [n_statements] * n_clients
        assert wait_until(lambda: len(db._sessions) == 1)
        total = db.execute(
            "SELECT count(*) FROM t WHERE a >= 100"
        ).scalar()
        assert total == n_clients * n_statements


@pytest.fixture(scope="module")
def big_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("serverdata") / "big.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a", "b"])
        for i in range(150_000):
            writer.writerow([i % 977, i % 31])
    return path


@pytest.fixture
def busy_server(big_csv):
    """A server over a table big enough that a statement is still in
    flight when a cancel or a timeout arrives."""
    db = Database("umbra")
    db.execute("CREATE TABLE big (a int, b int)")
    db.execute(f"COPY big FROM '{big_csv}' WITH (FORMAT CSV, HEADER TRUE)")
    server = DatabaseServer(db).start()
    yield server, db
    server.shutdown(drain_s=2.0)
    db.close()


SLOW_SQL = "SELECT a, sum(b) FROM big WHERE a % 3 = 0 GROUP BY a"


class TestCancelAndTimeouts:
    def test_out_of_band_cancel(self, busy_server):
        server, db = busy_server
        conn = connect(server)
        outcome = {}

        def run():
            try:
                outcome["rows"] = len(
                    conn.cursor().execute(SLOW_SQL).fetchall()
                )
            except QueryCancelled:
                outcome["cancelled"] = True

        thread = threading.Thread(target=run)
        thread.start()
        assert wait_until(lambda: db._active_cancels or "rows" in outcome)
        conn.cancel()  # out-of-band: second connection, secret key
        thread.join(timeout=60)
        assert not thread.is_alive()
        # cancelled at a checkpoint, or already complete — never hung,
        # never a different error
        assert outcome.keys() <= {"cancelled", "rows"} and outcome
        # the session survived the cancel: the connection still works
        cur = conn.cursor().execute("SELECT count(*) FROM big")
        assert cur.fetchone() == (150_000,)
        conn.close()

    def test_per_connection_statement_timeout(self, busy_server):
        server, db = busy_server
        with connect(server, statement_timeout_ms=20) as conn:
            try:
                conn.cursor().execute(SLOW_SQL)
                completed = True
            except QueryCancelled as exc:
                completed = False
                assert exc.sqlstate == "57014"
            # fast statements still pass, and the session survived
            cur = conn.cursor().execute("SELECT 1")
            assert cur.fetchone() == (1,)
            assert completed or server.stats["statements"] >= 2

    def test_idle_timeout_reaps_connection(self):
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int)")
        with DatabaseServer(db, idle_timeout_s=0.2) as server:
            conn = connect(server)
            conn.begin()
            conn.cursor().execute("INSERT INTO t (a) VALUES (1)")
            assert len(db._sessions) == 2
            time.sleep(0.6)  # exceed the idle budget
            with pytest.raises(dbapi.Error):
                conn.cursor().execute("SELECT 1")
            assert wait_until(lambda: len(db._sessions) == 1)
            # the reaped connection's transaction was rolled back
            assert db.execute("SELECT count(*) FROM t").scalar() == 0
            assert server.stats["idle_closed"] == 1
        db.close()


class TestShutdown:
    def test_graceful_shutdown_rolls_back_open_transactions(self):
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int)")
        server = DatabaseServer(db).start()
        conn = connect(server)
        conn.begin()
        conn.cursor().execute("INSERT INTO t (a) VALUES (1)")
        server.shutdown(drain_s=2.0)
        assert wait_until(lambda: len(db._sessions) == 1)
        assert db.execute("SELECT count(*) FROM t").scalar() == 0
        with pytest.raises(dbapi.Error):
            conn.cursor().execute("SELECT 1")
        db.close()

    def test_draining_refuses_statements_with_57p01(self, served):
        server, db = served
        with connect(server) as conn:
            server._draining = True
            try:
                with pytest.raises(dbapi.OperationalError) as info:
                    conn.cursor().execute("SELECT 1")
                assert isinstance(info.value, AdminShutdown)
                assert info.value.sqlstate == "57P01"
            finally:
                server._draining = False

    def test_draining_sheds_new_connections_with_57p01(self, served):
        server, db = served
        server._draining = True
        try:
            with pytest.raises(dbapi.OperationalError) as info:
                connect(server)
            assert info.value.sqlstate == "57P01"
        finally:
            server._draining = False
        # back to normal once draining ends
        with connect(server) as conn:
            assert conn.cursor().execute("SELECT 1").fetchone() == (1,)

    def test_shutdown_is_prompt_and_joins_the_acceptor(self):
        """``listener.close()`` alone never wakes an acceptor parked in
        ``accept()``: shutdown used to burn its whole 5 s join timeout
        and leave the thread behind."""
        db = Database("umbra")
        server = DatabaseServer(db).start()
        try:
            with connect(server) as conn:
                assert conn.cursor().execute("SELECT 1").fetchone() == (1,)
            started = time.monotonic()
            server.shutdown(drain_s=0.1)
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, f"shutdown took {elapsed:.2f} s"
            assert not server._acceptor.is_alive()
        finally:
            server.shutdown(drain_s=0.1)
            db.close()

    def test_shutdown_cancels_inflight_straggler(self, busy_server):
        server, db = busy_server
        conn = connect(server)
        outcome = {}

        def run():
            try:
                outcome["rows"] = len(
                    conn.cursor().execute(SLOW_SQL).fetchall()
                )
            except (QueryCancelled, dbapi.Error):
                outcome["stopped"] = True

        thread = threading.Thread(target=run)
        thread.start()
        assert wait_until(lambda: db._active_cancels or outcome)
        started = time.monotonic()
        server.shutdown(drain_s=0.2)  # too short: straggler is cancelled
        assert time.monotonic() - started < 30
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome
        # the handler thread may still be unwinding its teardown
        assert wait_until(lambda: len(db._sessions) == 1, timeout=30)

    def test_server_stats_frame(self, served):
        server, db = served
        with connect(server) as conn:
            conn.cursor().execute("SELECT 1")
            stats = conn.server_stats()
        assert stats["type"] == "stats"
        assert "plan_cache" in stats
        assert stats["server"]["accepted"] >= 1
        assert stats["server"]["statements"] >= 1


class TestConnectionFatalStates:
    """A server-initiated goodbye (idle reap 57P05, drain 57P01) must
    surface as the mapped engine error once, then clean
    ``InterfaceError("connection is closed")`` on every later use —
    never a raw socket error or a mid-frame ProtocolViolation."""

    def test_idle_timeout_then_reuse_is_clean(self):
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int)")
        with DatabaseServer(db, idle_timeout_s=0.2) as server:
            conn = connect(server)
            cur = conn.cursor()
            time.sleep(0.6)  # reaped server-side
            with pytest.raises(dbapi.Error) as info:
                cur.execute("SELECT 1")
            assert info.value.sqlstate in ("57P05", "08003")
            assert conn.closed  # abandoned, not left half-dead
            # subsequent execute and fetch both fail cleanly
            with pytest.raises(dbapi.InterfaceError):
                conn.cursor().execute("SELECT 1")
            with pytest.raises(dbapi.InterfaceError):
                conn.run_script("SELECT 1")
        db.close()

    def test_drain_shed_then_reuse_is_clean(self, served):
        server, db = served
        conn = connect(server)
        server._draining = True
        try:
            with pytest.raises(dbapi.OperationalError) as info:
                conn.cursor().execute("SELECT 1")
            assert info.value.sqlstate == "57P01"
        finally:
            server._draining = False
        # the server closed the connection after shedding; the client
        # noticed and all later use is a clean InterfaceError
        assert conn.closed
        with pytest.raises(dbapi.InterfaceError):
            conn.cursor().execute("SELECT 1")

    def test_drain_races_inflight_transaction(self):
        """Drain racing an in-flight transaction: the transaction rolls
        back, its locks release, and a peer blocked on those locks
        unblocks instead of hanging."""
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int, b text)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        server = DatabaseServer(db).start()
        holder = connect(server)
        holder.begin()
        holder.cursor().execute("UPDATE t SET b = 'held' WHERE a = 1")

        blocked_outcome = {}

        def blocked_peer():
            peer = connect(server)
            try:
                peer.begin()
                peer.cursor().execute("UPDATE t SET b = 'peer' WHERE a = 1")
                peer.commit()
                blocked_outcome["committed"] = True
            except (dbapi.Error, OSError) as exc:
                blocked_outcome["error"] = exc
            finally:
                try:
                    peer.close()
                except Exception:
                    pass

        thread = threading.Thread(target=blocked_peer, daemon=True)
        thread.start()
        # let the peer actually block on the row lock
        time.sleep(0.2)
        server.shutdown(drain_s=0.3)
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "blocked peer never unblocked"
        assert blocked_outcome  # it finished, one way or the other
        # every session is gone, the held transaction rolled back and
        # its lock released: an in-process write succeeds immediately
        assert wait_until(lambda: len(db._sessions) == 1, timeout=30)
        final = db.execute("SELECT b FROM t WHERE a = 1").scalar()
        assert final in ("x", "peer")  # never the uncommitted 'held'
        db.execute("UPDATE t SET b = 'after' WHERE a = 1")
        assert db.execute("SELECT b FROM t WHERE a = 1").scalar() == "after"
        with pytest.raises(dbapi.Error):
            holder.cursor().execute("SELECT 1")
        db.close()
