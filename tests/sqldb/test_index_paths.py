"""Index access paths on the one plan path.

Every query plans its index probes (equality, ``IN``, and — with
``ANALYZE`` statistics — selective ranges), so a probe runs wherever a
scan + filter used to: inside open transactions, after a savepoint
rollback, in matview builds and refreshes, and on streaming replicas.
Each scenario runs the same statements against a table with two
one-column indexes and a unique composite one and against the same
table without indexes, and the probed answers must equal the scanned ones row for row
(a probe returns rows in scan order).
"""

import time

import pytest

from repro.sqldb import Database, executor
from repro.sqldb.parser import parse_statement
from repro.sqldb.plan import IndexScan
from repro.sqldb.planner import Planner
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
    "CREATE UNIQUE INDEX kv_gk ON kv (g, k)",
    "ANALYZE",
]

#: (query, the probe an indexed plan must show)
QUERIES = [
    ("SELECT v FROM kv WHERE k = 7", "IndexScan(kv using kv_k, eq)"),
    ("SELECT k, v FROM kv WHERE k IN (30, 1, 1000, 8)", "IndexScan(kv using kv_k, in)"),
    ("SELECT k, v FROM kv WHERE g = 3 AND k > 10", "IndexScan(kv using kv_g, eq)"),
    ("SELECT k FROM kv WHERE g > 8", "IndexScan(kv using kv_g, range)"),
    ("SELECT count(*) FROM kv WHERE g IN (1, 2)", "IndexScan(kv using kv_g, in)"),
    ("SELECT k, v FROM kv WHERE g = 3 AND k = 13", "IndexScan(kv using kv_gk, eq)"),
    ("SELECT v FROM kv WHERE k = 100 AND g = 0", "IndexScan(kv using kv_gk, eq)"),
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


def _point_table():
    db = Database()
    db.run_script(
        "CREATE TABLE kv (k int, v int);"
        "CREATE UNIQUE INDEX kv_k ON kv (k);"
        "INSERT INTO kv VALUES (7, 70), (8, 80)"
    )
    return db


POINT_SELECTS = [
    ("SELECT v FROM kv WHERE k = 7", ()),
    ("SELECT v FROM kv WHERE k = ?", (7,)),
]


def _assert_unique_probe(sql, params):
    db = _point_table()
    try:
        assert explain(db, sql, params).splitlines() == [
            "Project(v)",
            "  IndexScan(kv using kv_k, eq)",
        ]
        assert db.execute(sql, params).rows == [(70,)]
    finally:
        db.close()


def test_default_database_plans_a_point_select_as_a_unique_probe():
    _assert_unique_probe(*POINT_SELECTS[0])


def test_default_database_plans_a_parameterised_point_select_as_a_unique_probe():
    _assert_unique_probe(*POINT_SELECTS[1])


@pytest.mark.parametrize("sql, params", POINT_SELECTS, ids=["literal", "parameter"])
def test_a_probe_gathers_only_the_columns_its_consumer_reads(sql, params):
    """``k`` is read by the conjunct the probe absorbed, not by the
    query: the probe gathers ``v`` alone."""
    db = _point_table()
    try:
        plan = db._plan_select(parse_statement(sql))
        (probe,) = _nodes(plan, IndexScan)
        assert list(probe.keys) == ["v"]
        assert list(probe.conjunct_keys) == ["k"]
        assert db.execute(sql, params).rows == [(70,)]
        if params:
            # a value that cannot probe runs the absorbed conjunct instead
            for value, rows in ((None, []), (7.5, []), (8.0, [(80,)])):
                assert db.execute(sql, (value,)).rows == rows
    finally:
        db.close()


def _nodes(plan, kind):
    found = [plan] if isinstance(plan, kind) else []
    for child in plan.children():
        found += _nodes(child, kind)
    return found


#: parameterised probes, the probe their plan must show, and the values
#: bound to them: a hit, a miss, NULL, text against the numeric key, an
#: integral and a fractional float, a boolean
PARAM_QUERIES = [
    ("SELECT v FROM kv WHERE k = ?", "IndexScan(kv using kv_k, eq)"),
    ("SELECT k, v FROM kv WHERE ? = k", "IndexScan(kv using kv_k, eq)"),
    ("SELECT k, v FROM kv WHERE k IN (?, 30)", "IndexScan(kv using kv_k, in)"),
    ("SELECT k, v FROM kv WHERE g = ? AND k > 10", "IndexScan(kv using kv_g, eq)"),
    ("SELECT count(*) FROM kv WHERE g IN (?, 2)", "IndexScan(kv using kv_g, in)"),
    ("SELECT k, v FROM kv WHERE g = 7 AND k = ?", "IndexScan(kv using kv_gk, eq)"),
    ("SELECT k, v FROM kv WHERE k = 17 AND g = ?", "IndexScan(kv using kv_gk, eq)"),
]
BOUND = [7, 1000, None, "7", 7.0, 7.5, True, "v7"]
PARAM_WRITES = [
    ("UPDATE kv SET v = ? WHERE k = ?", ("u7", 7)),
    ("UPDATE kv SET v = ? WHERE k = ?", ("nul", None)),
    ("UPDATE kv SET v = ? WHERE k = ?", ("txt", "8")),
    ("UPDATE kv SET k = ? WHERE k = ?", (500, 9)),
    ("UPDATE kv SET v = v || ? WHERE g IN (?, ?)", ("!", 3, None)),
    ("DELETE FROM kv WHERE k IN (?, ?)", (10, None)),
    ("DELETE FROM kv WHERE k = ?", ("11",)),
    ("DELETE FROM kv WHERE k = ?", (12.0,)),
    ("DELETE FROM kv WHERE g = ? AND k > ?", (4, 40)),
    ("UPDATE kv SET v = ? WHERE g = ? AND k = ?", ("gk", 5, 15)),
    ("UPDATE kv SET v = ? WHERE g = ? AND k = ?", ("nul", None, 100)),
    ("DELETE FROM kv WHERE g = ? AND k = ?", (6, "16")),
    ("DELETE FROM kv WHERE g = ? AND k = ?", (6.0, 26)),
]


def test_parameter_probes_answer_as_the_scan():
    plain, indexed = _pair()
    try:
        for sql, probe in PARAM_QUERIES:
            assert probe in explain(indexed, sql, (0,)), sql
            for value in BOUND:
                assert (
                    indexed.execute(sql, (value,)).rows
                    == plain.execute(sql, (value,)).rows
                ), (sql, value)
        for sql, params in PARAM_WRITES:
            assert (
                indexed.execute(sql, params).rowcount
                == plain.execute(sql, params).rowcount
            ), (sql, params)
            _assert_same_answers(plain, indexed)
    finally:
        plain.close()
        indexed.close()


def test_point_writes_probe_with_a_plan_made_once(monkeypatch):
    """A repeated UPDATE / DELETE by key plans once per cached statement
    and finds its row through the index instead of scanning the table."""
    calls = {"plan": 0, "scan": 0, "probe": 0}
    plan_select = Planner.plan_select
    scan, probe = executor._exec_scan_table, executor._exec_index_scan

    def counting(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(Planner, "plan_select", counting("plan", plan_select))
    monkeypatch.setattr(executor, "_exec_scan_table", counting("scan", scan))
    monkeypatch.setattr(executor, "_exec_index_scan", counting("probe", probe))
    db = _point_table()
    try:
        for k in range(20, 30):
            db.execute("INSERT INTO kv VALUES (?, ?)", (k, k))
        for k in range(20, 25):
            db.execute("UPDATE kv SET v = v + ? WHERE k = ?", (1, k))
        for k in range(25, 30):
            db.execute("DELETE FROM kv WHERE k = ?", (k,))
        assert calls == {"plan": 2, "scan": 0, "probe": 10}
        assert db.execute("SELECT k, v FROM kv WHERE k >= 20").rows == [
            (k, k + 1) for k in range(20, 25)
        ]
    finally:
        db.close()
