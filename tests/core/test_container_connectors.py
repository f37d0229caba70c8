"""Unit tests for SQLQueryContainer, connectors, naming, csv sniffing."""

import csv

import pytest

from repro.core.connectors import (
    PostgresqlConnector,
    ProfileConnector,
    UmbraConnector,
)
from repro.core.csv_schema import sniff_csv
from repro.core.naming import NameGenerator, quote_identifier
from repro.core.query_container import SQLQueryContainer
from repro.errors import TranslationError
from repro.sqldb.profile import UMBRA


@pytest.fixture
def connector():
    conn = UmbraConnector()
    conn.run("CREATE TABLE t (a int)")
    conn.run("INSERT INTO t VALUES (1), (2), (3)")
    return conn


class TestNaming:
    def test_quote_identifier(self):
        assert quote_identifier("income-per-year") == '"income-per-year"'

    def test_quote_escapes_quotes(self):
        assert quote_identifier('we"ird') == '"we""ird"'

    def test_sequential_op_ids(self):
        names = NameGenerator()
        assert [names.next_op_id() for _ in range(3)] == [0, 1, 2]

    def test_table_name_shape(self):
        names = NameGenerator()
        assert names.table_name("patients", 51, 0) == "patients_51_mlinid0"

    def test_block_name_shape(self):
        names = NameGenerator()
        assert names.block_name(13, 66) == "block_mlinid13_66"

    def test_ctid_column(self):
        assert NameGenerator.ctid_column("patients_51_mlinid0") == (
            "patients_51_mlinid0_ctid"
        )

    def test_hostile_file_name_sanitised(self):
        names = NameGenerator()
        assert names.table_name("my data (v2)", 1, 0) == "my_data_v2_1_mlinid0"


class TestCsvSniffing:
    def test_types_and_nullability(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2.5,hello\n2,?,world\n")
        schema = sniff_csv(str(path), na_values="?")
        by_name = {c.name: c for c in schema.columns}
        assert by_name["a"].sql_type == "INT"
        assert by_name["b"].sql_type == "DOUBLE PRECISION"
        assert by_name["b"].nullable
        assert by_name["c"].sql_type == "TEXT"

    def test_sample_limit_bounds_the_rows_read(self, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        path.write_text("a\n" + "1\n" * 50 + "text\n")
        assert sniff_csv(str(path)).columns[0].sql_type == "TEXT"
        consumed = []
        reader = csv.reader

        def counting_reader(*args, **kwargs):
            for row in reader(*args, **kwargs):
                consumed.append(row)
                yield row

        monkeypatch.setattr(csv, "reader", counting_reader)
        schema = sniff_csv(str(path), sample_limit=10)
        assert schema.columns[0].sql_type == "INT"
        # the header and the ten sampled rows, nothing past the sample
        assert len(consumed) == 11

    def test_longer_row_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n\n3,4,5\n")
        with pytest.raises(TranslationError, match="line 4 has 3 fields, expected 2"):
            sniff_csv(str(path))

    def test_shorter_row_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,4\n5\n")
        with pytest.raises(TranslationError, match="line 4 has 1 fields, expected 2"):
            sniff_csv(str(path))

    def test_ragged_row_past_the_sample_not_read(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,4\n5\n")
        assert sniff_csv(str(path), sample_limit=2).names == ["a", "b"]

    def test_types_depend_on_distinct_values_only(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,x,\n1,2.5,\n2,x,\n1,2.5,\n")
        schema = sniff_csv(str(path))
        assert [c.sql_type for c in schema.columns] == ["INT", "TEXT", "TEXT"]
        assert [c.nullable for c in schema.columns] == [False, False, True]

    def test_index_column_detected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\n0,7\n1,8\n")
        schema = sniff_csv(str(path))
        assert schema.has_index_column
        assert schema.names == ["index_", "a"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(TranslationError):
            sniff_csv(str(path))


class TestConnectors:
    def test_profiles(self):
        assert PostgresqlConnector().name == "postgres"
        assert UmbraConnector().name == "umbra"

    def test_custom_profile(self):
        conn = ProfileConnector(UMBRA)
        assert conn.name == "umbra"
        assert conn.run("SELECT 1 AS x").scalar() == 1

    def test_reset_clears_state(self, connector):
        connector.reset()
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            connector.run("SELECT * FROM t")

    def test_query_rows(self, connector):
        rows = connector.query_rows("SELECT a FROM t ORDER BY a")
        assert rows == [(1,), (2,), (3,)]

    def test_statement_timings_recorded(self, connector):
        connector.run("SELECT count(*) FROM t")
        heads = [head for head, _ in connector.statement_timings]
        assert any("SELECT count(*)" in head for head in heads)

    def test_run_with_params(self, connector):
        assert connector.run("SELECT a FROM t WHERE a = ?", (2,)).rows == [(2,)]
        assert connector.query_rows("SELECT a FROM t WHERE a > %s", (1,)) == [
            (2,),
            (3,),
        ]


class TestPlanCacheAcrossResets:
    def _replay(self, connector):
        connector.run("CREATE TABLE t (a int)")
        connector.run("INSERT INTO t VALUES (1), (2), (3)")
        return connector.run("SELECT sum(a) FROM t").scalar()

    def test_replay_after_reset_reparses(self):
        connector = UmbraConnector()
        assert self._replay(connector) == 6
        connector.reset()
        empty = {"hits": 0, "misses": 0, "size": 0}
        assert connector.plan_cache_stats == empty
        assert self._replay(connector) == 6
        # every replayed statement was parsed again, none served cached
        reparsed = {"hits": 0, "misses": 3, "size": 3}
        assert connector.plan_cache_stats == reparsed

    def test_divergent_schema_never_serves_stale_plans(self):
        connector = UmbraConnector()
        connector.run("CREATE TABLE t (a int, b text)")
        connector.run("INSERT INTO t VALUES (1, 'x')")
        assert connector.run("SELECT * FROM t").columns == ["a", "b"]
        connector.reset()
        # same number of schema changes, different shape: the cached
        # SELECT * plan must not resurface
        connector.run("CREATE TABLE t (b text, a int)")
        connector.run("INSERT INTO t VALUES ('x', 1)")
        assert connector.run("SELECT * FROM t").columns == ["b", "a"]


class TestContainer:
    def test_cte_mode_wraps_prefix(self, connector):
        container = SQLQueryContainer(connector, mode="CTE")
        container.add_block("b1", "SELECT a * 2 AS d FROM t")
        container.add_block("b2", "SELECT d + 1 AS e FROM b1")
        sql = container.wrap_query("SELECT sum(e) FROM b2")
        assert sql.startswith("WITH b1 AS (")
        assert container.run_query("SELECT sum(e) FROM b2").scalar() == 15

    def test_cte_upto_truncates(self, connector):
        container = SQLQueryContainer(connector, mode="CTE")
        container.add_block("b1", "SELECT a FROM t")
        container.add_block("b2", "SELECT a FROM b1")
        sql = container.wrap_query("SELECT count(*) FROM b1", upto="b1")
        assert "b2" not in sql

    def test_view_mode_creates_eagerly(self, connector):
        container = SQLQueryContainer(connector, mode="VIEW")
        container.add_block("v1", "SELECT a FROM t WHERE a > 1")
        assert "v1" in connector.connection.database.catalog.view_names
        assert container.run_query("SELECT count(*) FROM v1").scalar() == 2

    def test_materialized_views(self, connector):
        container = SQLQueryContainer(connector, mode="VIEW", materialize=True)
        container.add_block("v1", "SELECT a FROM t")
        view = connector.connection.database.catalog.resolve("v1")
        assert view.materialized
        assert view.snapshot is not None

    def test_not_materialized_clause(self, connector):
        container = SQLQueryContainer(
            connector, mode="CTE", cte_not_materialized=True
        )
        container.add_block("b1", "SELECT a FROM t")
        assert "AS NOT MATERIALIZED (" in container.wrap_query("SELECT * FROM b1")

    def test_duplicate_block_rejected(self, connector):
        container = SQLQueryContainer(connector, mode="CTE")
        container.add_block("b1", "SELECT a FROM t")
        with pytest.raises(TranslationError):
            container.add_block("b1", "SELECT a FROM t")

    def test_invalid_mode_rejected(self, connector):
        with pytest.raises(TranslationError):
            SQLQueryContainer(connector, mode="TABLE")

    def test_full_script_cte(self, connector):
        container = SQLQueryContainer(connector, mode="CTE")
        container.add_ddl("CREATE TABLE x (a int)")
        container.add_block("b1", "SELECT a FROM x")
        script = container.full_script()
        assert script.startswith("CREATE TABLE x (a int);")
        assert "WITH b1 AS" in script

    def test_full_script_view(self, connector):
        container = SQLQueryContainer(connector, mode="VIEW")
        container.add_block("v9", "SELECT a FROM t")
        script = container.full_script()
        assert "CREATE VIEW v9 AS" in script
        assert script.rstrip().endswith("SELECT * FROM v9;")
