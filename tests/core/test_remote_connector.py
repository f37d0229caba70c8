"""RemoteConnector: the DBConnector surface over the network client.

The connector is the drop-in point for every harness and benchmark, so
these tests exercise exactly the methods SQLBackend and the harnesses
use — run/query_rows/reset/plan_cache_stats/exec_stats — against a live
server, plus the retry and re-dial behaviour the in-process connectors
already guarantee."""

import threading
import time

import pytest

from repro.core.connectors import RemoteConnector
from repro.errors import CatalogError, QueryCancelled
from repro.sqldb import client
from repro.sqldb.engine import Database
from repro.sqldb.server import DatabaseServer

pytestmark = pytest.mark.server


@pytest.fixture
def served():
    db = Database("umbra")
    server = DatabaseServer(db).start()
    yield server, db
    server.shutdown(drain_s=2.0)
    db.close()


@pytest.fixture
def connector(served):
    server, _ = served
    remote = RemoteConnector(host="127.0.0.1", port=server.port)
    yield remote
    remote.close()


class TestRemoteConnector:
    def test_run_and_query_rows(self, connector):
        connector.run("CREATE TABLE t (a int, b text)")
        connector.run("INSERT INTO t (a, b) VALUES (%s, %s)", (1, "x"))
        connector.run("INSERT INTO t (a, b) VALUES (2, 'y')")
        assert connector.query_rows("SELECT a, b FROM t ORDER BY a") == [
            (1, "x"),
            (2, "y"),
        ]
        result = connector.run("SELECT count(*) FROM t")
        assert result.scalar() == 2
        # timings were recorded per statement, like every connector
        assert len(connector.statement_timings) == 4

    def test_reset_drops_data_and_cached_plans(self, served, connector):
        history = ["CREATE TABLE t (a int)", "INSERT INTO t (a) VALUES (1)"]
        for sql in history:
            connector.run(sql)
        rows = connector.query_rows("SELECT a FROM t")
        connector.reset()
        # the relation is gone server-side...
        with pytest.raises(CatalogError):
            connector.run("SELECT * FROM t")
        # ...and so are the cached plans, exactly like the in-process
        # reconnect-based reset: replaying the identical history parses
        # every statement again (the counters keep counting across it)
        before = connector.plan_cache_stats
        for sql in history:
            connector.run(sql)
        assert connector.query_rows("SELECT a FROM t") == rows == [(1,)]
        after = connector.plan_cache_stats
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"] + 3

    def test_run_retries_serialization_failure(self, served, connector):
        server, db = served
        connector.run("CREATE TABLE t (a int)")

        # same shape as the in-process connector test: a peer commits
        # between this script's BEGIN and COMMIT exactly once, so the
        # transaction loses first-committer-wins, is rolled back by the
        # retry hook, and succeeds on the second attempt
        peer = db.session()
        state = {"conflicts": 0}
        original_begin = db._begin

        def begin_with_conflict(session):
            original_begin(session)
            if state["conflicts"] < 1:
                state["conflicts"] += 1
                peer.execute("INSERT INTO t (a) VALUES (99)")

        db._begin = begin_with_conflict
        try:
            connector.run("BEGIN; INSERT INTO t (a) VALUES (1); COMMIT;")
        finally:
            db._begin = original_begin
            peer.close()
        assert connector.retries == 1
        assert connector.query_rows("SELECT a FROM t ORDER BY a") == [
            (1,),
            (99,),
        ]

    def test_no_retry_inside_explicit_transaction(self, served, connector):
        from repro.errors import SerializationFailure

        server, db = served
        connector.run("CREATE TABLE t (a int)")
        connector.run("BEGIN")
        peer = db.session()
        peer.execute("INSERT INTO t (a) VALUES (99)")
        peer.close()
        connector.run("INSERT INTO t (a) VALUES (1)")
        with pytest.raises(SerializationFailure):
            connector.run("COMMIT")
        assert connector.retries == 0
        # the failed COMMIT already ended the transaction server-side
        assert not connector.connection.in_transaction

    def test_dead_connection_is_redialled(self, connector):
        connector.run("CREATE TABLE t (a int)")
        first = connector.connection
        first.close()
        # next use transparently opens a fresh connection (new session)
        assert connector.query_rows("SELECT count(*) FROM t") == [(0,)]
        assert connector.connection is not first

    def test_exec_stats_and_explain_come_from_the_server(
        self, served, connector
    ):
        server, db = served
        connector.run("CREATE TABLE t (a int)")
        connector.run("INSERT INTO t (a) VALUES (1), (2), (3)")
        plan = connector.explain_analyze("SELECT count(*) FROM t")
        assert plan.strip()
        names = connector.analyze()
        assert "t" in names
        stats = connector.plan_cache_stats
        assert set(stats) >= {"hits", "misses"}

    def test_shed_at_admission_is_retried_while_dialling(self):
        # the bugfix: the dial happens inside the retry loop, so a 53300
        # load-shed at connect ("backoff and reconnect") is retried until
        # the server has a slot instead of propagating on attempt one
        db = Database("umbra")
        server = DatabaseServer(db, max_connections=1).start()
        holder = client.connect(*server.address)
        remote = RemoteConnector(*server.address)
        timer = threading.Timer(0.05, holder.close)
        timer.start()
        try:
            assert remote.run("SELECT 1").scalar() == 1
            assert remote.retries >= 1
        finally:
            timer.join()
            remote.close()
            holder.close()
            server.shutdown(drain_s=2.0)
            db.close()

    def test_retry_after_the_connection_died_redials(self, served, connector):
        # a retryable error whose connection died with it must not be
        # retried on the corpse the first attempt captured
        server, db = served
        connector.run("CREATE TABLE t (a int)")
        first = connector.connection
        real = first.run_script
        state = {"failed": False}

        def dies_once(sql, params=None):
            if not state["failed"]:
                state["failed"] = True
                first.close()
                raise QueryCancelled("cancelled as the session went away")
            return real(sql, params)

        first.run_script = dies_once
        connector.run("INSERT INTO t (a) VALUES (1)")
        assert connector.retries == 1
        assert connector.connection is not first
        assert db.execute("SELECT a FROM t").rows == [(1,)]

    def test_parallel_connectors_multiplex_one_server(self, served):
        server, db = served
        setup = RemoteConnector(host="127.0.0.1", port=server.port)
        setup.run("CREATE TABLE t (a int)")
        results = {}

        def worker(i):
            remote = RemoteConnector(host="127.0.0.1", port=server.port)
            try:
                remote.run("INSERT INTO t (a) VALUES (%s)", (i,))
                results[i] = remote.run(
                    "SELECT count(*) FROM t"
                ).scalar()
            finally:
                remote.close()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert sorted(results) == [0, 1, 2, 3]
        assert setup.run("SELECT count(*) FROM t").scalar() == 4
        setup.close()
