"""Statement timeouts and cooperative cancellation."""

import csv
import threading
import time

import pytest

from repro.errors import QueryCancelled, SQLExecutionError
from repro.sqldb import dbapi
from repro.sqldb.engine import TIMEOUT_ENV, Database, resolve_timeout_ms
from repro.sqldb.parser import parse_statement
from repro.sqldb.executor import execute_plan


class TestResolveTimeout:
    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "9999")
        assert resolve_timeout_ms(150) == 150.0

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "2500")
        assert resolve_timeout_ms(None) == 2500.0

    def test_unset_means_no_timeout(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        assert resolve_timeout_ms(None) is None

    def test_non_positive_disables(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        assert resolve_timeout_ms(0) is None
        assert resolve_timeout_ms(-5) is None
        monkeypatch.setenv(TIMEOUT_ENV, "0")
        assert resolve_timeout_ms(None) is None

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "soon")
        with pytest.raises(SQLExecutionError):
            resolve_timeout_ms(None)


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

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "0.0001")
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int)")
        with pytest.raises(QueryCancelled):
            db.execute("SELECT * FROM t")


class TestCancellation:
    def test_preset_cancel_event_stops_execution(self):
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        event = threading.Event()
        event.set()
        plan = db._plan_select(parse_statement("SELECT * FROM t"))
        ctx = db._make_context((), cancel_event=event)
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
        holder.begin()
        holder.execute("INSERT INTO t (a) VALUES (1)")
        outcome = {}

        def write():
            try:
                if how == "execute":
                    blocked.execute("INSERT INTO t (a) VALUES (?)", (2,))
                else:
                    blocked.executemany("INSERT INTO t (a) VALUES (?)", [(2,)])
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
        holder.rollback()  # unblocks a hung writer so the test can end
        thread.join(timeout=10)
        assert not hung, f"lock-blocked {how} ignored cancel()"
        assert still_open
        assert outcome == {"sqlstate": "57014"}
        assert db.locks.held_by(blocked.session_id) == set()
        db.close()
