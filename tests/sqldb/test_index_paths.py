"""Index access paths on the one plan path.

Every query plans its index probes (equality, ``IN``, and — with
``ANALYZE`` statistics — selective ranges), so a probe runs wherever a
scan + filter used to: inside open transactions, after a savepoint
rollback, in matview builds and refreshes, and on streaming replicas.
Each scenario runs the same statements against a table with a unique
hash index and a sorted index and against the same table without
indexes, and the probed answers must equal the scanned ones row for row
(a probe returns rows in scan order).
"""

import time

import pytest

from repro.sqldb import Database
from tests.sqldb.plans import explain

pytestmark = pytest.mark.indexes

SETUP = [
    "CREATE TABLE kv (k int, g int, v text)",
    "INSERT INTO kv VALUES "
    + ", ".join(f"({k}, {k % 10}, 'v{k}')" for k in range(60)),
    "INSERT INTO kv VALUES (NULL, NULL, 'none'), (100, NULL, 'hundred')",
]
INDEXES = [
    "CREATE UNIQUE INDEX kv_k ON kv USING hash (k)",
    "CREATE INDEX kv_g ON kv USING btree (g)",
    "ANALYZE",
]

#: (query, the probe an indexed plan must show)
QUERIES = [
    ("SELECT v FROM kv WHERE k = 7", "IndexScan(kv using kv_k, eq)"),
    ("SELECT k, v FROM kv WHERE k IN (30, 1, 1000, 8)", "IndexScan(kv using kv_k, in)"),
    ("SELECT k, v FROM kv WHERE g = 3 AND k > 10", "IndexScan(kv using kv_g, eq)"),
    ("SELECT k FROM kv WHERE g > 8", "IndexScan(kv using kv_g, range)"),
    ("SELECT count(*) FROM kv WHERE g IN (1, 2)", "IndexScan(kv using kv_g, in)"),
]


def _pair():
    plain, indexed = Database(), Database()
    for db in (plain, indexed):
        db.run_script(";".join(SETUP))
    indexed.run_script(";".join(INDEXES))
    return plain, indexed


def _both(plain, indexed, sql):
    plain.execute(sql)
    indexed.execute(sql)


def _assert_same_answers(plain, indexed, read=None):
    """Every query probes on *indexed* and answers as the scan on
    *plain*; *read* (default *indexed*) is where the probed side runs."""
    read = indexed if read is None else read
    for sql, probe in QUERIES:
        assert probe in explain(indexed, sql), sql
        assert read.execute(sql).rows == plain.execute(sql).rows, sql


def _transaction(plain, indexed):
    for sql in (
        "BEGIN",
        "DELETE FROM kv WHERE k = 7",
        "UPDATE kv SET k = 1000 WHERE k = 8",
        "UPDATE kv SET g = 9 WHERE k IN (30, 31)",
        "INSERT INTO kv VALUES (7, 3, 'again')",
    ):
        _both(plain, indexed, sql)
    _assert_same_answers(plain, indexed)
    _both(plain, indexed, "DELETE FROM kv WHERE g = 3")
    _assert_same_answers(plain, indexed)
    _both(plain, indexed, "COMMIT")
    _assert_same_answers(plain, indexed)


def _savepoint(plain, indexed):
    for sql in (
        "BEGIN",
        "UPDATE kv SET g = 2 WHERE k = 1",
        "SAVEPOINT s1",
        "DELETE FROM kv WHERE k IN (1, 30)",
        "UPDATE kv SET k = k + 500 WHERE g = 3",
    ):
        _both(plain, indexed, sql)
    _assert_same_answers(plain, indexed)
    _both(plain, indexed, "ROLLBACK TO SAVEPOINT s1")
    _assert_same_answers(plain, indexed)
    _both(plain, indexed, "COMMIT")
    _assert_same_answers(plain, indexed)


def _matview(plain, indexed):
    views = {
        "mv_k": "SELECT k, v FROM kv WHERE k = 7",
        "mv_g": "SELECT k, v FROM kv WHERE g = 4",
    }
    for name, query in views.items():
        assert "IndexScan" in explain(indexed, query)
        _both(plain, indexed, f"CREATE MATERIALIZED VIEW {name} AS {query}")
    for sql in (
        "INSERT INTO kv VALUES (200, 4, 'late')",
        "DELETE FROM kv WHERE k = 7",
        "INSERT INTO kv VALUES (7, 4, 'back')",
        "DELETE FROM kv WHERE k = 14",
    ):
        _both(plain, indexed, sql)
        for name in views:
            read = f"SELECT k, v FROM {name}"
            assert indexed.execute(read).rows == plain.execute(read).rows
    assert indexed.execute("SELECT v FROM mv_k").rows == [("back",)]
    _assert_same_answers(plain, indexed)


def _replica(plain, indexed):
    from repro.sqldb.replication import Primary, Replica

    primary = Primary(indexed, host="127.0.0.1", port=0).start()
    replica = Replica(primary.address, name="probe-replica").start()
    try:
        for sql in (
            "DELETE FROM kv WHERE k = 7",
            "UPDATE kv SET k = 1000 WHERE k = 8",
            "INSERT INTO kv VALUES (7, 5, 'streamed')",
        ):
            _both(plain, indexed, sql)
        deadline = time.monotonic() + 30.0
        while (
            replica.database.last_applied_commit_id
            < primary.manager.last_commit_id
        ):
            assert time.monotonic() < deadline, "replica never caught up"
            time.sleep(0.005)
        _assert_same_answers(plain, replica.database, read=replica.database)
    finally:
        replica.close()
        primary.kill()


SCENARIOS = {
    "transaction": _transaction,
    "savepoint": _savepoint,
    "matview": _matview,
    "replica": pytest.param(
        _replica, marks=[pytest.mark.server, pytest.mark.replication]
    ),
}


@pytest.mark.parametrize(
    "scenario", list(SCENARIOS.values()), ids=list(SCENARIOS)
)
def test_index_probes_answer_as_the_scan(scenario):
    plain, indexed = _pair()
    try:
        _assert_same_answers(plain, indexed)
        scenario(plain, indexed)
    finally:
        plain.close()
        indexed.close()


def test_default_database_plans_a_point_select_as_a_unique_probe():
    db = Database()
    try:
        db.run_script(
            "CREATE TABLE kv (k int, v int);"
            "CREATE UNIQUE INDEX kv_k ON kv (k);"
            "INSERT INTO kv VALUES (7, 70), (8, 80)"
        )
        sql = "SELECT v FROM kv WHERE k = 7"
        assert explain(db, sql).splitlines() == [
            "Project(v)",
            "  IndexScan(kv using kv_k, eq)",
        ]
        assert db.execute(sql).rows == [(70,)]
    finally:
        db.close()
