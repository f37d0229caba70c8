"""One parameter rule and one cell rule, in-process and over the wire.

``prepared.bind_parameters`` normalises parameters on both sides of the
wire (the client applies it before it sends), so a parameter the wire
or the WAL cannot carry is refused with 22023 everywhere, before
anything runs, instead of travelling as its ``str`` or reaching the WAL
encoder after the row was applied.  Array elements follow the same
int64 bound as scalar cells.
"""

import datetime
from decimal import Decimal

import numpy as np
import pytest

from repro.errors import SQLError
from repro.sqldb import client, dbapi
from repro.sqldb.engine import Database
from repro.sqldb.server import DatabaseServer

pytestmark = pytest.mark.server

PARAMETERS = {
    "set": {1, 2},
    "Decimal": Decimal("1.5"),
    "date": datetime.date(2020, 1, 2),
    "ndarray": np.array([1, 2]),
    "bytes": b"xy",
    "tuple": (1, 2),
    "numpy float": np.float64(1.5),
    "numpy int": np.int64(7),
    "numpy bool": np.bool_(True),
    "nested tuple": ((1, np.int64(2)), "x"),
}


@pytest.fixture(scope="module")
def served():
    db = Database("umbra")
    server = DatabaseServer(db, handshake_timeout_s=2.0).start()
    conn = client.connect("127.0.0.1", server.port)
    yield db, conn
    conn.close()
    server.shutdown(drain_s=2.0)
    db.close()


def _outcome(run, sql, params=None):
    try:
        return "rows", run(sql, params)[-1].rows
    except SQLError as exc:
        return "error", exc.sqlstate


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_a_parameter_binds_alike_in_process_and_over_the_wire(served, name):
    db, conn = served
    sql, params = "SELECT ? AS x", (PARAMETERS[name],)
    in_process = _outcome(db.run_script, sql, params)
    assert _outcome(conn.run_script, sql, params) == in_process
    expected = {
        "tuple": ("rows", [([1, 2],)]),
        "nested tuple": ("rows", [([[1, 2], "x"],)]),
        "numpy float": ("rows", [(1.5,)]),
        "numpy int": ("rows", [(7,)]),
        "numpy bool": ("rows", [(True,)]),
    }
    assert in_process == expected.get(name, ("error", "22023"))


def test_array_elements_beyond_int64_stay_floats_on_both_sides(served):
    db, conn = served
    sql = "SELECT array_agg(x) AS a FROM (SELECT 1e19 AS x UNION ALL SELECT 2.0) s"
    (cell,), = db.run_script(sql)[-1].rows
    assert cell == [1e19, 2]
    assert [type(x) for x in cell] == [float, int]
    assert conn.run_script(sql)[-1].rows == [(cell,)]


def test_a_refused_parameter_leaves_no_row(tmp_path):
    """A Decimal used to pass binding, be applied, then fail in the WAL
    encoder: the same process read the row, recovery dropped it."""
    wal_path = str(tmp_path / "db.wal")
    db = Database("umbra", wal_path=wal_path)
    db.execute("CREATE TABLE t (a float, b int)")
    with pytest.raises(SQLError) as refused:
        db.execute("INSERT INTO t VALUES (?, 1)", (Decimal("1.5"),))
    assert refused.value.sqlstate == "22023"
    assert db.execute("SELECT count(*) FROM t").scalar() == 0
    db.close()
    recovered = Database("umbra", wal_path=wal_path)
    assert recovered.execute("SELECT count(*) FROM t").scalar() == 0
    recovered.close()


WHERE = "SELECT x FROM (SELECT 1 AS x) s WHERE x = ?"


def _failure(run, sql, params):
    try:
        run(sql, params)
    except SQLError as exc:
        return type(exc).__name__, exc.sqlstate, str(exc)
    return None


@pytest.mark.parametrize(
    "params", [(), (1, 2), None], ids=["none given", "two given", "None"]
)
def test_a_wrong_parameter_count_is_one_error_everywhere(served, params):
    """42P02 (PEP 249 ProgrammingError, as psycopg2 reports it) in-process,
    over the wire and with the plan cache off — where the count used to go
    unchecked until execution found the placeholder unbound (22000)."""
    db, conn = served
    uncached = Database("umbra", plan_cache_size=0)
    expected = (
        "SQLBindError",
        "42P02",
        f"statement expects 1 parameter, {len(params or ())} given",
    )
    assert _failure(db.run_script, WHERE, params) == expected
    assert _failure(uncached.run_script, WHERE, params) == expected
    assert _failure(conn.run_script, WHERE, params) == expected
    with pytest.raises(dbapi.ProgrammingError):
        conn.cursor().execute(WHERE, params)
    uncached.close()


@pytest.mark.parametrize(
    "params",
    [({"a": 1},), (), (1, 2), (1,)],
    ids=["dict", "none given", "two given", "one given"],
)
def test_explain_analyze_binds_its_parameters_like_the_select(served, params):
    db, conn = served
    for run in (db.run_script, conn.run_script):
        select = _outcome(run, WHERE, params)
        explained = _outcome(run, "EXPLAIN ANALYZE " + WHERE, params)
        if select[0] == "error":
            assert explained == select
        else:
            assert select == ("rows", [(1,)])
            assert explained[1][0][0].startswith("Project(x)")
    if params == ({"a": 1},):
        assert select == ("error", "22023")
