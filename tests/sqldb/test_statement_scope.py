"""One statement scope: every query a statement runs (a SELECT, EXPLAIN
ANALYZE, a matview build, a TRAIN iteration, a DML predicate) reads its
cancel event, the call's deadline and the statement's memory grant from
one place, and runs as the caller's session."""

import pytest

from repro.errors import QueryCancelled
from repro.sqldb import client, dbapi
from repro.sqldb.engine import Database
from repro.sqldb.server import DatabaseServer


@pytest.mark.parametrize(
    "sql",
    [
        "CREATE MATERIALIZED VIEW mv AS SELECT a, sum(y) AS s FROM t GROUP BY a",
        "TRAIN m USING (SELECT a, y FROM t) WITH (max_iter = 5)",
    ],
)
def test_cancel_stops_the_queries_a_write_runs(monkeypatch, sql):
    """The cancel arrives while the write is planning its first query;
    the statement raises 57014 and leaves no view or model behind."""
    db = Database("umbra")
    db.execute("CREATE TABLE t (a int, y int)")
    db.execute("INSERT INTO t VALUES (1, 0), (2, 1), (3, 0), (4, 1)")
    conn = dbapi.connect(database=db)
    plan_select = Database._plan_select

    def cancel_while_running(self, *args):
        conn.cancel()
        return plan_select(self, *args)

    monkeypatch.setattr(Database, "_plan_select", cancel_while_running)
    with pytest.raises(QueryCancelled) as info:
        conn.cursor().execute(sql)
    assert info.value.sqlstate == "57014"
    monkeypatch.undo()
    assert "mv" not in db.catalog.view_names
    assert db.model_names() == []
    # the cancel ended with its statement
    cursor = conn.cursor()
    cursor.execute("SELECT count(*) FROM t")
    assert cursor.fetchone() == (4,)
    conn.close()
    db.close()


SORTED = "SELECT a, b FROM big ORDER BY b, a LIMIT 3"


def test_a_matview_build_sorts_under_the_query_budget(tmp_path):
    """A sort that spills as a SELECT also spills as a matview build: the
    build takes a grant instead of sorting unbounded, and its snapshot is
    the unbounded build's."""
    path = tmp_path / "big.csv"
    path.write_text("".join(f"{i},{(i * 7919) % 6000}\n" for i in range(6000)))
    governed = Database("umbra", memory_limit="4mb", query_memory_limit="64kb")
    unbounded = Database("umbra")
    try:
        for db in (governed, unbounded):
            db.execute("CREATE TABLE big (a int, b int)")
            db.execute(f"COPY big FROM '{path}' WITH (FORMAT CSV)")

        def grants_and_spills():
            stats = governed.memory_stats()
            return stats["grants"], stats["spills"]

        assert grants_and_spills() == (0, 0)  # COPY runs no query
        expected = governed.execute(SORTED).rows
        assert grants_and_spills() == (1, 1)
        for db in (governed, unbounded):
            db.execute(f"CREATE MATERIALIZED VIEW mv AS {SORTED}")
        assert grants_and_spills() == (2, 2)
        assert governed.memory.spill.live_files() == []
        snapshots = [db.catalog.resolve("mv").snapshot for db in (governed, unbounded)]
        (names, data, length), (names_u, data_u, length_u) = snapshots
        assert (names, length) == (names_u, length_u) == (["a", "b"], 3)
        for name in names:
            assert data[name].tolist() == data_u[name].tolist()
        assert governed.execute("SELECT * FROM mv").rows == expected
    finally:
        governed.close()
        unbounded.close()


def _one_row_database() -> Database:
    db = Database("umbra")
    db.execute("CREATE TABLE t (a int)")
    db.execute("INSERT INTO t VALUES (1)")
    return db


def _root_rows(cursor) -> str:
    """The actual row count the EXPLAIN ANALYZE *cursor* just ran reports
    for the plan's root."""
    (root,) = cursor.fetchone()
    return root.split("actual rows=", 1)[1].split()[0]


EXPLAIN = "EXPLAIN ANALYZE SELECT a FROM t"


def test_explain_analyze_runs_as_the_connections_statement():
    db = _one_row_database()
    conn = dbapi.connect(database=db)
    conn.begin()
    cursor = conn.cursor()
    cursor.execute("INSERT INTO t VALUES (2)")
    assert _root_rows(cursor.execute(EXPLAIN)) == "2"
    with dbapi.connect(database=db) as other:
        assert _root_rows(other.cursor().execute(EXPLAIN)) == "1"
    conn.session.statement_timeout_ms = 0.0001
    with pytest.raises(QueryCancelled) as info:
        cursor.execute(EXPLAIN)
    assert info.value.sqlstate == "57014"
    conn.rollback()
    conn.close()
    db.close()


def test_explain_analyze_over_the_wire_runs_as_the_connections_statement():
    db = _one_row_database()
    server = DatabaseServer(db).start()
    try:
        with client.connect("127.0.0.1", server.port) as conn:
            conn.begin()
            cursor = conn.cursor()
            cursor.execute("INSERT INTO t VALUES (2)")
            assert _root_rows(cursor.execute(EXPLAIN)) == "2"
            conn.rollback()
        with client.connect(
            "127.0.0.1", server.port, statement_timeout_ms=0.0001
        ) as conn:
            with pytest.raises(QueryCancelled) as info:
                conn.cursor().execute(EXPLAIN)
            assert info.value.sqlstate == "57014"
    finally:
        server.shutdown(drain_s=2.0)
        db.close()


def _operators(rows) -> list[str]:
    """EXPLAIN ANALYZE's operator lines with the timings cut off."""
    return [line.split("time=")[0] for (line,) in rows if "actual" in line]


def test_explain_analyze_reads_alike_in_process_and_over_the_wire():
    db = _one_row_database()
    db.execute("INSERT INTO t VALUES (2), (2)")
    sql = "EXPLAIN ANALYZE SELECT a, count(*) FROM t WHERE a > ? GROUP BY a"
    server = DatabaseServer(db).start()
    try:
        with client.connect("127.0.0.1", server.port) as remote:
            over_the_wire = remote.cursor().execute(sql, (0,)).fetchall()
        in_process = db.execute(sql, (0,)).rows
        with dbapi.connect(database=db) as conn:
            cursor = conn.cursor().execute(sql, (0,))
            assert cursor.description[0][0] == "QUERY PLAN"
            through_dbapi = cursor.fetchall()
        expected = _operators(in_process)
        assert len(expected) == 4  # Project, Aggregate, Filter, ScanTable
        assert _operators(through_dbapi) == expected
        assert _operators(over_the_wire) == expected
        assert over_the_wire[-2] == ("Rewrites: none",)
    finally:
        server.shutdown(drain_s=2.0)
        db.close()


def test_analyze_over_the_wire_runs_in_the_connections_transaction():
    """ANALYZE ran as the database's default session, which waited for
    the table lock the connection's own transaction holds."""
    db = _one_row_database()
    db.statement_timeout_ms = 2000  # bounds that wait
    server = DatabaseServer(db).start()
    try:
        with client.connect("127.0.0.1", server.port) as conn:
            conn.begin()
            cursor = conn.cursor()
            cursor.execute("INSERT INTO t VALUES (2)")
            assert cursor.execute("ANALYZE t").rowcount == 1
            conn.commit()
        assert db.catalog.table_stats("t").n_rows == 2
    finally:
        server.shutdown(drain_s=2.0)
        db.close()


def test_replays_take_no_grant(tmp_path):
    """WAL recovery and replicated apply repeat what is durable with the
    empty scope: their matview refreshes run without a grant."""
    wal_path = str(tmp_path / "db.wal")
    governed = {"memory_limit": "4mb", "query_memory_limit": "64kb"}
    primary = Database("umbra", wal_path=wal_path, **governed)
    replica = Database("umbra", read_only=True, **governed)
    primary.add_commit_hook(replica.apply_replicated_commit)
    try:
        primary.execute("CREATE TABLE t (a int)")
        primary.execute("CREATE MATERIALIZED VIEW mv AS SELECT count(*) AS n FROM t")
        primary.execute("INSERT INTO t VALUES (1), (2)")
        assert primary.memory_stats()["grants"] == 2  # the build, the refresh
        assert replica.memory_stats()["grants"] == 0
    finally:
        primary.close()
        replica.close()
    recovered = Database("umbra", wal_path=wal_path, **governed)
    try:
        assert recovered.memory_stats()["grants"] == 0
        assert recovered.execute("SELECT n FROM mv").rows == [(2,)]
    finally:
        recovered.close()
