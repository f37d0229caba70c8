"""A dropped database is freed by reference counting alone.

Nothing the engine builds per database may form a reference cycle: a
``Database`` in a cycle — and every table it holds — lives until the
cyclic collector happens to run, so memory tracks collector timing rather
than what is in use.  Each test turns the collector off, drops the last
reference and expects the weak reference to be dead at once.
"""

import gc
import weakref

import pytest

from repro.core.connectors import PostgresqlConnector
from repro.datasets import generate_healthcare
from repro.inspection import NoBiasIntroducedFor, PipelineInspector
from repro.pipelines import PIPELINE_BUILDERS
from repro.sqldb import Database, dbapi


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_dropped_database_is_freed(no_cyclic_gc):
    db = Database()
    db.execute("CREATE TABLE t (a int, b text)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    db.execute(
        "CREATE MATERIALIZED VIEW v AS "
        "SELECT b, count(*) AS n FROM t GROUP BY b"
    )
    assert len(db.execute("SELECT * FROM v").rows) == 2
    session = db.session()
    db.execute("SELECT a FROM t", session=session)
    session.close()
    ref = weakref.ref(db)
    del db, session
    assert ref() is None


def test_closed_dbapi_connection_frees_its_database(no_cyclic_gc):
    conn = dbapi.connect("postgres")
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE t (a int)")
    cursor.execute("INSERT INTO t VALUES (1)")
    cursor.execute("SELECT a FROM t")
    assert cursor.fetchall() == [(1,)]
    refs = [weakref.ref(conn), weakref.ref(conn.database)]
    conn.close()
    del conn, cursor
    assert [ref() for ref in refs] == [None, None]


def test_connector_after_execute_in_sql_frees_its_database(
    no_cyclic_gc, tmp_path
):
    generate_healthcare(str(tmp_path), n_patients=120, seed=3)
    source = PIPELINE_BUILDERS["healthcare"](str(tmp_path), upto="sklearn")
    connector = PostgresqlConnector()
    result = (
        PipelineInspector.on_pipeline_from_string(source, filename="<hc>")
        .add_check(NoBiasIntroducedFor(["race", "age_group"]))
        .execute_in_sql(
            dbms_connector=connector, mode="VIEW", materialize=True
        )
    )
    assert result.check_to_check_results
    refs = [weakref.ref(connector), weakref.ref(connector.connection.database)]
    del connector, result
    assert [ref() for ref in refs] == [None, None]
