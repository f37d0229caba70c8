"""Statement timeouts and cooperative cancellation."""

import csv
import threading
import time

import pytest

from repro.errors import QueryCancelled, SQLExecutionError
from repro.sqldb import dbapi
from repro.sqldb.engine import Database
from repro.sqldb.parser import parse_statement
from repro.sqldb.executor import ExecContext, execute_plan


class TestResolveTimeout:
    def test_argument_wins(self):
        # the session's own timeout (a server hello's) beats the database's
        db = Database("umbra", statement_timeout_ms=60000)
        session = db.session()
        session.statement_timeout_ms = 150
        before = time.monotonic()
        deadline = db._deadline(session)
        assert before + 0.15 <= deadline <= time.monotonic() + 0.15

    def test_unset_means_no_timeout(self):
        db = Database("umbra")
        assert db._deadline(db.session()) is None

    def test_non_positive_disables(self):
        for timeout_ms in (0, -5):
            db = Database("umbra", statement_timeout_ms=timeout_ms)
            assert db._deadline(db.session()) is None
        # a session's 0 switches the database's timeout off
        db = Database("umbra", statement_timeout_ms=60000)
        session = db.session()
        session.statement_timeout_ms = 0
        assert db._deadline(session) is None


class TestStatementTimeout:
    def test_expired_deadline_cancels_select(self):
        db = Database("umbra", statement_timeout_ms=0.0001)
        db.execute("CREATE TABLE t (a int)")  # writes are not affected
        db.execute("INSERT INTO t (a) VALUES (1)")
        with pytest.raises(QueryCancelled) as info:
            db.execute("SELECT * FROM t")
        assert info.value.sqlstate == "57014"

    def test_generous_timeout_does_not_fire(self):
        db = Database("umbra", statement_timeout_ms=60000)
        db.execute("CREATE TABLE t (a int)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        assert db.execute("SELECT a FROM t").column("a") == [1]

    def test_timeout_through_dbapi_maps_to_operational_error(self):
        conn = dbapi.connect("umbra", statement_timeout_ms=0.0001)
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE t (a int)")
        with pytest.raises(dbapi.OperationalError):
            cursor.execute("SELECT * FROM t")
        with pytest.raises(QueryCancelled):  # both hierarchies hold
            cursor.execute("SELECT * FROM t")

    def test_one_deadline_spans_the_lock_wait_and_the_query(self):
        """The deadline is fixed when the call starts: a lock wait that
        ends inside the timeout leaves the rest of the script only what
        is left of it (PostgreSQL's statement_timeout covers lock waits
        too), rather than a fresh timeout per phase."""
        timeout_s = 0.2
        db = Database("umbra", statement_timeout_ms=timeout_s * 1000)
        db.execute("CREATE TABLE t (a int)")
        holder, blocked = db.session(), db.session()
        db.begin(session=holder)
        db.execute("INSERT INTO t (a) VALUES (1)", session=holder)
        outcome = {}

        def script():
            try:
                db.run_script(
                    "INSERT INTO t (a) VALUES (2); SELECT count(*) FROM t",
                    session=blocked,
                )
                outcome["returned"] = True
            except QueryCancelled as exc:
                outcome["sqlstate"] = exc.sqlstate

        thread = threading.Thread(target=script)
        started = time.monotonic()
        thread.start()
        limit = started + 10.0
        while blocked.session_id not in db.locks._waiting:
            assert time.monotonic() < limit, "the INSERT never blocked"
            time.sleep(0.001)
        # while this thread holds the lock manager's condition, the
        # blocked INSERT cannot wake to look at its deadline: it finds
        # the lock free once the holder commits, however late that is
        with db.locks._cond:
            time.sleep(max(0.0, started + 1.5 * timeout_s - time.monotonic()))
            db.commit(session=holder)
        thread.join(timeout=10)
        assert not thread.is_alive()
        # the INSERT waited and committed; the SELECT after it is past the
        # call's deadline
        assert outcome == {"sqlstate": "57014"}
        assert db.execute("SELECT count(*) FROM t").scalar() == 2
        db.close()


    def test_a_write_runs_its_queries_under_the_call_deadline(self):
        """A write's own queries read the call's deadline, and a 57014
        there undoes the statement: a slow matview build, refresh or
        TRAIN cannot hold the exclusive catalog latch past it."""
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int, y int)")
        db.execute("INSERT INTO t VALUES (1, 0), (2, 1)")
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT count(*) AS n FROM t")
        db.statement_timeout_ms = 0.0001
        for sql in (
            "CREATE MATERIALIZED VIEW mv2 AS SELECT a FROM t",
            "INSERT INTO t VALUES (3, 0)",
            "DELETE FROM t WHERE a = 1",
            "TRAIN m USING (SELECT a, y FROM t) WITH (max_iter = 5)",
        ):
            with pytest.raises(QueryCancelled) as info:
                db.execute(sql)
            assert info.value.sqlstate == "57014"
        db.statement_timeout_ms = None
        assert "mv2" not in db.catalog.view_names
        assert db.model_names() == []
        assert db.execute("SELECT a FROM t ORDER BY a").rows == [(1,), (2,)]
        assert db.execute("SELECT n FROM mv").rows == [(2,)]
        db.close()

    def test_recovery_replays_without_a_deadline(self, tmp_path):
        """Replay repeats a committed write to completion: a matview
        refresh used to take the database's timeout, so a durable
        database with a short one could not recover its own WAL."""
        wal_path = str(tmp_path / "db.wal")
        db = Database("umbra", wal_path=wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT count(*) AS n FROM t")
        db.execute("INSERT INTO t (a) VALUES (1)")
        db.close()
        db = Database("umbra", wal_path=wal_path, statement_timeout_ms=0.0001)
        db.statement_timeout_ms = None
        assert db.execute("SELECT n FROM mv").rows == [(1,)]
        db.close()


class TestCancellation:
    def test_preset_cancel_event_stops_execution(self):
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        event = threading.Event()
        event.set()
        plan = db._plan_select(parse_statement("SELECT * FROM t"))
        ctx = ExecContext(db.catalog, db.profile, cancel_event=event)
        with pytest.raises(QueryCancelled):
            execute_plan(plan, ctx)

    def test_cancel_with_no_inflight_statement_is_noop(self):
        db = Database("umbra")
        db.cancel()
        db.execute("CREATE TABLE t (a int)")
        # a later statement is NOT affected by an earlier cancel()
        assert db.execute("SELECT count(*) FROM t").scalar() == 0

    def test_cancel_inflight_statement(self, tmp_path):
        """cancel() from another thread stops a running query at an
        operator boundary."""
        path = tmp_path / "big.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["a", "b"])
            for i in range(200_000):
                writer.writerow([i % 977, i % 31])
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int, b int)")
        db.execute(f"COPY t FROM '{path}' WITH (FORMAT CSV, HEADER TRUE)")

        outcome = {}

        def run_query():
            try:
                outcome["result"] = db.execute(
                    "SELECT a, sum(b) FROM t WHERE a % 3 = 0 GROUP BY a"
                )
            except QueryCancelled:
                outcome["cancelled"] = True

        thread = threading.Thread(target=run_query)
        thread.start()
        # wait for the statement to register its cancel event, then fire
        deadline = time.monotonic() + 10.0
        while not db._active_cancels and time.monotonic() < deadline:
            pass
        db.cancel()
        thread.join(timeout=30)
        assert not thread.is_alive()
        # the query either observed the cancel at an operator
        # boundary, or had already produced its result — never hangs,
        # never errors with anything else
        assert outcome.keys() <= {"cancelled", "result"} and outcome
        db.close()

    @pytest.mark.parametrize("how", ["execute", "executemany"])
    def test_cancel_unblocks_lock_blocked_write(self, how):
        """A write waiting for a peer's table lock is cancellable: it
        raises 57014 while the peer's transaction is still open and
        leaves no lock behind — single statements and batches alike."""
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int)")
        holder, blocked = db.session(), db.session()
        db.begin(session=holder)
        db.execute("INSERT INTO t (a) VALUES (1)", session=holder)
        outcome = {}

        def write():
            try:
                if how == "execute":
                    db.execute("INSERT INTO t (a) VALUES (?)", (2,), session=blocked)
                else:
                    db.executemany("INSERT INTO t (a) VALUES (?)", [(2,)], session=blocked)
                outcome["returned"] = True
            except QueryCancelled as exc:
                outcome["sqlstate"] = exc.sqlstate

        thread = threading.Thread(target=write)
        thread.start()
        deadline = time.monotonic() + 10.0
        while not blocked.has_active_statements and time.monotonic() < deadline:
            time.sleep(0.001)
        db.cancel(session=blocked)
        thread.join(timeout=1.0)
        hung = thread.is_alive()
        still_open = holder.in_transaction
        db.rollback(session=holder)  # unblocks a hung writer so the test can end
        thread.join(timeout=10)
        assert not hung, f"lock-blocked {how} ignored cancel()"
        assert still_open
        assert outcome == {"sqlstate": "57014"}
        assert db.locks.held_by(blocked.session_id) == set()
        db.close()
