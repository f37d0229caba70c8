"""Tests for DDL statements, COPY, the DB-API adapter and engine profiles."""

import pytest

from repro.errors import CatalogError, SQLError, SQLExecutionError
from repro.sqldb import Database, connect
from repro.sqldb.profile import POSTGRES, UMBRA, profile_by_name


@pytest.fixture
def db():
    return Database("umbra")


class TestCreateTable:
    def test_create_and_describe(self, db):
        db.execute("CREATE TABLE t (a int, b text, c double precision)")
        table = db.catalog.table("t")
        assert table.column_names == ["a", "b", "c"]
        assert table.column_types == ["int", "text", "float"]

    def test_duplicate_table_rejected(self, db):
        db.execute("CREATE TABLE t (a int)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a int)")

    def test_reserved_ctid_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (ctid int)")

    def test_serial_column_autonumbers(self, db):
        db.execute("CREATE TABLE t (index_ serial, v text)")
        db.execute("INSERT INTO t (v) VALUES ('a'), ('b')")
        result = db.execute("SELECT index_, v FROM t ORDER BY index_")
        assert result.rows == [(0, "a"), (1, "b")]

    def test_drop_table(self, db):
        db.execute("CREATE TABLE t (a int)")
        db.execute("DROP TABLE t")
        assert not db.catalog.has("t")

    def test_drop_if_exists_silent(self, db):
        db.execute("DROP TABLE IF EXISTS nothing")

    def test_drop_missing_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE nothing")


class TestInsert:
    def test_nulls_and_negatives(self, db):
        db.execute("CREATE TABLE t (a int, b text)")
        db.execute("INSERT INTO t VALUES (-5, NULL), (NULL, 'x')")
        result = db.execute("SELECT * FROM t")
        assert result.rows == [(-5, None), (None, "x")]

    def test_arity_mismatch(self, db):
        db.execute("CREATE TABLE t (a int, b int)")
        with pytest.raises(SQLExecutionError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_non_literal_rejected(self, db):
        db.execute("CREATE TABLE t (a int)")
        with pytest.raises(SQLExecutionError):
            db.execute("INSERT INTO t VALUES (1 + 1)")


class TestCopy:
    def test_copy_with_null_text(self, db, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,foo\n?,bar\n3,?\n")
        db.execute("CREATE TABLE t (a int, b text)")
        db.execute(
            f"COPY t (\"a\", \"b\") FROM '{path}' WITH "
            "(DELIMITER ',', NULL '?', FORMAT CSV, HEADER TRUE)"
        )
        result = db.execute("SELECT * FROM t ORDER BY ctid")
        assert result.rows == [(1, "foo"), (None, "bar"), (3, None)]

    def test_empty_csv_field_is_null(self, db, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\n\n7\n")
        db.execute("CREATE TABLE t (a int)")
        db.execute(f"COPY t (\"a\") FROM '{path}' WITH (FORMAT CSV, HEADER TRUE)")
        assert db.execute("SELECT count(*) FROM t").scalar() == 1  # blank skipped

    def test_copy_bad_number_raises(self, db, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\nnot-a-number\n")
        db.execute("CREATE TABLE t (a int)")
        with pytest.raises(SQLExecutionError):
            db.execute(f"COPY t (\"a\") FROM '{path}' WITH (FORMAT CSV, HEADER TRUE)")

    def test_ctid_assigned_sequentially(self, db, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\n10\n20\n")
        db.execute("CREATE TABLE t (a int)")
        db.execute(f"COPY t (\"a\") FROM '{path}' WITH (FORMAT CSV, HEADER TRUE)")
        assert db.execute("SELECT ctid FROM t").column("ctid") == [0, 1]


class TestMaterializedViewMaintenance:
    def test_snapshot_refreshes_on_dependent_table_change(self, db):
        db.run_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1);"
            "CREATE MATERIALIZED VIEW m AS SELECT count(*) AS c FROM t"
        )
        assert db.execute("SELECT c FROM m").scalar() == 1
        db.execute("INSERT INTO t VALUES (2)")
        assert db.execute("SELECT c FROM m").scalar() == 2

    def test_unrelated_table_change_does_not_refresh(self, db):
        db.run_script(
            "CREATE TABLE t (a int); CREATE TABLE other (b int);"
            "CREATE MATERIALIZED VIEW m AS SELECT count(*) AS c FROM t"
        )
        view = db.catalog.resolve("m")
        before = view.snapshot
        db.execute("INSERT INTO other VALUES (1)")
        assert db.catalog.resolve("m").snapshot is before

    def test_transitive_view_refresh(self, db):
        db.run_script(
            "CREATE TABLE t (a int);"
            "CREATE VIEW v1 AS SELECT a FROM t;"
            "CREATE MATERIALIZED VIEW m AS SELECT count(*) AS c FROM v1"
        )
        db.execute("INSERT INTO t VALUES (1), (2)")
        assert db.execute("SELECT c FROM m").scalar() == 2


class TestProfiles:
    def test_profile_lookup(self):
        assert profile_by_name("postgres") is POSTGRES
        assert profile_by_name("UMBRA") is UMBRA
        with pytest.raises(ValueError):
            profile_by_name("oracle")

    def test_profiles_agree_on_results(self):
        script = (
            "CREATE TABLE t (a int, g text);"
            "INSERT INTO t VALUES (1,'x'), (2,'x'), (3,'y');"
        )
        query = (
            "WITH s AS (SELECT g, sum(a) AS total FROM t GROUP BY g) "
            "SELECT * FROM s ORDER BY g"
        )
        pg, umbra = Database("postgres"), Database("umbra")
        pg.run_script(script)
        umbra.run_script(script)
        assert pg.execute(query).rows == umbra.execute(query).rows

    def test_explain_shows_barrier_vs_inlined(self):
        script = "CREATE TABLE t (a int, b int);"
        query = "WITH s AS (SELECT a, b FROM t) SELECT a FROM s"
        pg, umbra = Database("postgres"), Database("umbra")
        pg.run_script(script)
        umbra.run_script(script)
        assert "materialized" in pg.explain(query)
        assert "inlined" in umbra.explain(query)

    def test_not_materialized_overrides_pg_default(self):
        pg = Database("postgres")
        pg.execute("CREATE TABLE t (a int, b int)")
        plan = pg.explain(
            "WITH s AS NOT MATERIALIZED (SELECT a, b FROM t) SELECT a FROM s"
        )
        assert "inlined" in plan

    def test_pruning_through_inlined_cte(self):
        umbra = Database("umbra")
        umbra.execute("CREATE TABLE t (a int, b int, c int)")
        plan = umbra.explain("WITH s AS (SELECT a, b, c FROM t) SELECT a FROM s")
        # the shared CTE plan keeps only the needed column
        assert "Project(a)" in plan

    def test_no_pruning_through_barrier(self):
        pg = Database("postgres")
        pg.execute("CREATE TABLE t (a int, b int, c int)")
        plan = pg.explain("WITH s AS (SELECT a, b, c FROM t) SELECT a FROM s")
        assert "Project(a, b, c)" in plan


class TestDbApi:
    def test_cursor_roundtrip(self):
        conn = connect("umbra")
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2)")
        cursor.execute("SELECT a FROM t ORDER BY a")
        assert cursor.fetchone() == (1,)
        assert cursor.fetchall() == [(2,)]
        assert cursor.fetchone() is None

    def test_description(self):
        conn = connect("umbra")
        cursor = conn.cursor()
        cursor.execute("SELECT 1 AS x, 'a' AS y")
        assert [d[0] for d in cursor.description] == ["x", "y"]

    def test_fetchmany(self):
        conn = connect("umbra")
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE t (a int); INSERT INTO t VALUES (1),(2),(3)")
        cursor.execute("SELECT a FROM t")
        assert len(cursor.fetchmany(2)) == 2
        assert len(cursor.fetchmany(2)) == 1

    def test_rowcount(self):
        conn = connect("umbra")
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE t (a int)")
        cursor.execute("INSERT INTO t VALUES (1), (2)")
        assert cursor.rowcount == 2

    def test_parameters_bind(self):
        cursor = connect("umbra").cursor()
        cursor.execute("SELECT %s", (1,))
        assert cursor.fetchall() == [(1,)]

    def test_parameter_count_mismatch(self):
        cursor = connect("umbra").cursor()
        with pytest.raises(SQLError):
            cursor.execute("SELECT ?", (1, 2))

    def test_closed_connection_rejects_cursor(self):
        conn = connect("umbra")
        conn.close()
        with pytest.raises(SQLError):
            conn.cursor()

    def test_context_managers(self):
        with connect("umbra") as conn:
            with conn.cursor() as cursor:
                cursor.execute("SELECT 1")
                assert cursor.fetchall() == [(1,)]
