"""The client stack above a connection: retry_backoff, ConnectionPool,
and the connection contract they rely on.

Covers the retry loop's SQLSTATE policy and backoff arithmetic; then,
once per connection kind (an in-process session over a shared
``Database``, a network connection to a loopback ``DatabaseServer``),
the cursor's error-state contract, ``executemany`` atomicity and the
pool's blocking/timeout semantics and checkout validation: a pooled
connection abandoned mid-transaction (or that died) must never be
handed to the next caller as-is.
"""

import threading
import time

import pytest

from repro.core.connectors import RemoteConnector, UmbraConnector
from repro.errors import (
    DeadlockDetected,
    QueryCancelled,
    SerializationFailure,
    SQLError,
    SQLExecutionError,
    TooManyConnections,
)
from repro.sqldb import client, dbapi
from repro.sqldb.client import (
    ConnectionPool,
    RETRYABLE_SQLSTATES,
    is_retryable,
    retry_backoff,
)
from repro.sqldb.engine import Database
from repro.sqldb.server import DatabaseServer


class FixedRandom:
    """rng stub whose random() always returns 0.5 → jitter factor 1.0."""

    def random(self):
        return 0.5


class TestRetryBackoff:
    def test_retryable_sqlstates(self):
        # 53300 joined the set with the network server: an admission-shed
        # connection should simply be retried under backoff.  25006/57P03
        # joined with replication: a write landing on a replica or in a
        # failover window is retried against the (re-probed) primary.
        # 53200/53400 joined with the memory governor: a grant shed under
        # pool pressure or a budget overrun clears once peers finish.
        assert RETRYABLE_SQLSTATES == {
            "40001", "40P01", "57014", "53300", "25006", "57P03",
            "53200", "53400",
        }
        assert is_retryable(SerializationFailure("serialize"))
        assert is_retryable(DeadlockDetected("deadlock"))
        assert is_retryable(QueryCancelled("cancelled"))
        assert is_retryable(TooManyConnections("shed at accept"))
        assert not is_retryable(SQLExecutionError("div by zero"))
        assert not is_retryable(ValueError("not SQL at all"))

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise SerializationFailure("lost the race")
            return "done"

        out = retry_backoff(
            flaky, attempts=5, base_delay=0.0, rng=FixedRandom()
        )
        assert out == "done"
        assert calls["n"] == 3

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise SQLExecutionError("real bug")

        with pytest.raises(SQLExecutionError):
            retry_backoff(broken, attempts=5, base_delay=0.0)
        assert calls["n"] == 1

    def test_last_attempt_failure_propagates(self):
        calls = {"n": 0}

        def always_loses():
            calls["n"] += 1
            raise DeadlockDetected("victim again")

        with pytest.raises(DeadlockDetected):
            retry_backoff(
                always_loses, attempts=3, base_delay=0.0, rng=FixedRandom()
            )
        assert calls["n"] == 3

    def test_on_retry_hook_sees_each_failure(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise SerializationFailure("again")
            return "ok"

        retry_backoff(
            flaky,
            attempts=5,
            base_delay=0.0,
            on_retry=lambda i, exc: seen.append((i, exc.sqlstate)),
        )
        assert seen == [(0, "40001"), (1, "40001")]

    def test_backoff_doubles_and_caps(self, monkeypatch):
        delays = []
        monkeypatch.setattr(
            "repro.sqldb.client.time.sleep", delays.append
        )

        def always_loses():
            raise SerializationFailure("lost")

        with pytest.raises(SerializationFailure):
            retry_backoff(
                always_loses,
                attempts=5,
                base_delay=0.01,
                max_delay=0.04,
                rng=FixedRandom(),
            )
        # 4 sleeps (no sleep after the final attempt), doubling then capped
        assert delays == pytest.approx([0.01, 0.02, 0.04, 0.04])

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            retry_backoff(lambda: None, attempts=0)


@pytest.fixture
def db():
    database = Database("umbra")
    database.execute("CREATE TABLE t (a int)")
    yield database
    database.close()


@pytest.fixture(
    params=["in-process", pytest.param("remote", marks=pytest.mark.server)]
)
def connect(request, db):
    """A zero-argument connect factory onto *db*, one per connection kind."""
    if request.param == "in-process":
        yield lambda: dbapi.connect(database=db)
        return
    server = DatabaseServer(db).start()
    yield lambda: client.connect(*server.address)
    server.shutdown(drain_s=2.0)


def count(db):
    return db.execute("SELECT count(*) FROM t").scalar()


class TestConnectionContract:
    """What the one cursor, the pool and the connectors assume of every
    connection kind."""

    @pytest.fixture
    def cursor(self, connect, db):
        db.execute("INSERT INTO t (a) VALUES (1), (2)")
        connection = connect()
        yield connection.cursor()
        connection.close()

    def test_every_kind_hands_out_the_one_cursor(self, cursor):
        assert type(cursor) is dbapi.Cursor

    def test_fetch_after_failed_execute_raises(self, cursor):
        # a cursor whose last execute raised must not serve the
        # *previous* statement's rows to a later fetch — silently
        # feeding a harness stale results on error is the worst failure
        # mode a driver can have
        assert cursor.execute("SELECT a FROM t ORDER BY a").fetchone() == (1,)
        with pytest.raises(dbapi.ProgrammingError):
            cursor.execute("SELECT nope FROM t")
        with pytest.raises(dbapi.InterfaceError):
            cursor.fetchone()
        with pytest.raises(dbapi.InterfaceError):
            cursor.fetchmany(2)
        with pytest.raises(dbapi.InterfaceError):
            cursor.fetchall()
        assert cursor.description is None
        assert cursor.rowcount == -1

    def test_successful_execute_clears_error_state(self, cursor):
        with pytest.raises(dbapi.ProgrammingError):
            cursor.execute("SELEKT 1")
        rows = cursor.execute("SELECT a FROM t ORDER BY a").fetchall()
        assert rows == [(1,), (2,)]

    def test_failed_executemany_sets_error_state(self, cursor):
        with pytest.raises(SQLError):
            cursor.executemany(
                "INSERT INTO nosuch (a) VALUES (%s)", [(1,), (2,)]
            )
        with pytest.raises(dbapi.InterfaceError):
            cursor.fetchall()

    def test_executemany_is_atomic(self, cursor, db):
        # the third row's arity error undoes the first two
        with pytest.raises(dbapi.Error):
            cursor.executemany(
                "INSERT INTO t (a) VALUES (%s)", [(10,), (11,), (12, 13)]
            )
        assert count(db) == 2
        cursor.executemany("INSERT INTO t (a) VALUES (%s)", [(10,), (11,)])
        assert cursor.rowcount == 2
        assert count(db) == 4

    def test_statement_surface(self, connect, db):
        # run_script / executemany / server_stats: what the connectors
        # build their helpers on; ANALYZE and EXPLAIN are SQL like any other
        with connect() as connection:
            results = connection.run_script(
                "INSERT INTO t (a) VALUES (%s); SELECT count(*) FROM t", (5,)
            )
            assert results[-1].rows == [(1,)]
            assert connection.run_script("ANALYZE t")[0].rowcount == 1
            (plan,) = connection.run_script("EXPLAIN ANALYZE SELECT a FROM t")
            assert plan.columns == ["QUERY PLAN"]
            assert "actual rows=1 calls=1" in plan.rows[0][0]
            stats = connection.server_stats()
            assert set(stats["plan_cache"]) >= {"hits", "misses"}
            assert isinstance(stats["operators"], dict)
            with pytest.raises(dbapi.ProgrammingError):
                connection.run_script("SELECT nope FROM t")


@pytest.mark.parametrize(
    "kind",
    [
        "in-process",
        pytest.param("remote", marks=pytest.mark.server),
        pytest.param("routed", marks=pytest.mark.server),
    ],
)
def test_transaction_control_keeps_the_db_api_rules(kind, db):
    """``commit()`` / ``rollback()`` outside a transaction are no-ops and
    ``begin()`` inside one is 25001 on every connection kind, although the
    network kinds send BEGIN / COMMIT / ROLLBACK as SQL text."""
    server = None
    if kind == "in-process":
        conn = dbapi.connect(database=db)
    else:
        server = DatabaseServer(db).start()
        conn = (
            client.connect(*server.address) if kind == "remote"
            else client.RoutedConnection(client.Topology([server.address]))
        )
    try:
        conn.commit()
        conn.rollback()
        assert not conn.in_transaction
        conn.begin()
        with pytest.raises(dbapi.OperationalError) as info:
            conn.begin()
        assert info.value.sqlstate == "25001"
        assert conn.in_transaction
        conn.cursor().execute("INSERT INTO t (a) VALUES (1)")
        conn.rollback()
        assert not conn.in_transaction and count(db) == 0
        conn.begin()
        conn.cursor().execute("INSERT INTO t (a) VALUES (2)")
        conn.commit()
        assert not conn.in_transaction and count(db) == 1
        conn.commit()
        conn.rollback()
        assert count(db) == 1
    finally:
        conn.close()
        if server is not None:
            server.shutdown(drain_s=2.0)


class TestConnectionPool:
    def test_connections_are_distinct_sessions(self, connect, db):
        pool = ConnectionPool(connect, size=2)
        a, b = pool.acquire(), pool.acquire()
        assert a is not b
        # each its own engine session over the one database: a's open
        # transaction is invisible to b
        a.begin()
        a.cursor().execute("INSERT INTO t (a) VALUES (1)")
        assert b.cursor().execute("SELECT count(*) FROM t").fetchone() == (0,)
        a.commit()
        assert b.cursor().execute("SELECT count(*) FROM t").fetchone() == (1,)
        pool.release(a)
        pool.release(b)
        pool.close()

    def test_released_connection_is_reused(self, connect):
        pool = ConnectionPool(connect, size=2)
        conn = pool.acquire()
        pool.release(conn)
        assert pool.acquire() is conn
        pool.close()

    def test_exhausted_pool_times_out(self, connect):
        pool = ConnectionPool(connect, size=1, timeout=0.2)
        conn = pool.acquire()
        with pytest.raises(dbapi.OperationalError):
            pool.acquire()
        pool.release(conn)
        pool.close()

    def test_waiter_wakes_on_release(self, connect):
        pool = ConnectionPool(connect, size=1, timeout=5.0)
        conn = pool.acquire()
        got = []

        def waiter():
            with pool.connection() as c:
                got.append(c)

        thread = threading.Thread(target=waiter)
        thread.start()
        pool.release(conn)
        thread.join(timeout=10)
        assert got == [conn]
        pool.close()

    def test_abandoned_transaction_is_reset_on_checkout(self, connect):
        # the bugfix: a holder that opened a transaction and bailed must
        # not poison the next checkout with its open txn (stale snapshot,
        # held locks, possibly 25P02-aborted state)
        pool = ConnectionPool(connect, size=1)
        conn = pool.acquire()
        conn.begin()
        conn.cursor().execute("INSERT INTO t (a) VALUES (1)")
        pool.release(conn)  # abandoned mid-transaction

        again = pool.acquire()
        assert again is conn
        assert not again.in_transaction
        assert pool.stats["abandoned_txns_reset"] == 1
        # the abandoned insert was rolled back, and the fresh holder can
        # write without tripping over the old transaction's lock
        cur = again.cursor().execute("SELECT count(*) FROM t")
        assert cur.fetchone() == (0,)
        again.cursor().execute("INSERT INTO t (a) VALUES (2)")
        pool.release(again)
        pool.close()

    def test_dead_connection_is_replaced_on_checkout(self, connect):
        pool = ConnectionPool(connect, size=1)
        conn = pool.acquire()
        pool.release(conn)
        conn.close()  # dies while it sits in the pool

        replacement = pool.acquire()
        assert replacement is not conn
        assert not replacement.closed
        assert pool.stats["dead_sessions_replaced"] == 1
        replacement.cursor().execute("INSERT INTO t (a) VALUES (3)")
        pool.release(replacement)
        pool.close()

    def test_closed_pool_rejects_checkout_and_closes_idle(self, connect):
        pool = ConnectionPool(connect, size=2)
        conn = pool.acquire()
        pool.release(conn)
        pool.close()
        assert conn.closed
        with pytest.raises(dbapi.InterfaceError):
            pool.acquire()
        # releasing after close closes the straggler instead of pooling it
        late = connect()
        pool.release(late)
        assert late.closed

    def test_pool_size_must_be_positive(self, connect):
        with pytest.raises(ValueError):
            ConnectionPool(connect, size=0)

    def test_acquire_racing_close_raises_clean_interface_error(
        self, connect, db
    ):
        # the bugfix: close() landing while acquire() is creating a
        # connection *outside the pool lock* must yield a clean
        # InterfaceError — not a live session handed out of a closed
        # pool, and not a leaked session either
        creating = threading.Event()
        proceed = threading.Event()

        def stalled_connect():
            creating.set()
            assert proceed.wait(timeout=10)
            return connect()

        pool = ConnectionPool(stalled_connect, size=1)
        outcome = {}

        def checkout():
            try:
                outcome["conn"] = pool.acquire()
            except dbapi.InterfaceError as exc:
                outcome["error"] = str(exc)

        thread = threading.Thread(target=checkout)
        thread.start()
        assert creating.wait(timeout=10)  # acquire is mid-creation
        pool.close()
        proceed.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert "error" in outcome and "closed" in outcome["error"]
        # the half-created session was closed, not leaked (only the
        # engine's default session is left once the server noticed), and
        # the slot was handed back
        deadline = time.monotonic() + 10
        while len(db._sessions) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(db._sessions) == 1
        assert pool._n_created == 0

    def test_failed_creation_returns_the_slot(self, connect):
        # a connect() that blows up mid-checkout must give the capacity
        # back: the pool would otherwise leak slots until exhaustion
        state = {"fail": True}

        def flaky_connect():
            if state["fail"]:
                state["fail"] = False
                raise RuntimeError("transient failure talking to engine")
            return connect()

        pool = ConnectionPool(flaky_connect, size=1, timeout=0.5)
        with pytest.raises(RuntimeError):
            pool.acquire()
        assert pool._n_created == 0
        conn = pool.acquire()  # the slot is still usable
        conn.cursor().execute("INSERT INTO t (a) VALUES (1)")
        pool.release(conn)
        pool.close()


class TestConnectorRetry:
    def test_run_retries_serialization_failure(self):
        connector = UmbraConnector()
        connector.run("CREATE TABLE t (a int)")
        db = connector.connection.database

        # a peer session commits a write *between* this session's BEGIN
        # and COMMIT so the scripted transaction loses first-committer-
        # wins exactly once, then succeeds on the retry
        peer = db.session()
        state = {"conflicts": 0}
        original_begin = db._begin

        def begin_with_conflict(session):
            original_begin(session)
            if state["conflicts"] < 1:
                state["conflicts"] += 1
                db.execute("INSERT INTO t (a) VALUES (99)", session=peer)

        db._begin = begin_with_conflict
        try:
            connector.run(
                "BEGIN; INSERT INTO t (a) VALUES (1); COMMIT;"
            )
        finally:
            db._begin = original_begin
        assert connector.retries == 1
        rows = connector.query_rows("SELECT a FROM t ORDER BY a")
        assert rows == [(1,), (99,)]

    def test_run_does_not_retry_inside_explicit_transaction(self):
        connector = UmbraConnector()
        connector.run("CREATE TABLE t (a int)")
        db = connector.connection.database
        connector.run("BEGIN")

        peer = db.session()
        db.execute("INSERT INTO t (a) VALUES (99)", session=peer)

        connector.run("INSERT INTO t (a) VALUES (1)")
        with pytest.raises(SerializationFailure):
            connector.run("COMMIT")
        assert connector.retries == 0

    @pytest.mark.parametrize(
        "kind", ["in-process", pytest.param("remote", marks=pytest.mark.server)]
    )
    def test_pool_helper_shares_the_connector_database(self, kind):
        # every connector kind pools further connections to *its*
        # database (RemoteConnector used to refuse with NotSupportedError)
        served = None
        if kind == "in-process":
            connector = UmbraConnector()
        else:
            served = DatabaseServer(Database("umbra")).start()
            connector = RemoteConnector(*served.address)
        try:
            connector.run("CREATE TABLE t (a int)")
            pool = connector.pool(size=2)
            with pool.connection() as conn:
                assert conn is not connector.connection
                conn.cursor().execute("INSERT INTO t (a) VALUES (7)")
            assert connector.query_rows("SELECT a FROM t") == [(7,)]
            pool.close()
        finally:
            connector.close()
            if served is not None:
                served.shutdown(drain_s=2.0)
                served.database.close()
