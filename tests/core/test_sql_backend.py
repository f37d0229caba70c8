"""Integration tests for the SQL backend: transpilation + offloading."""

import numpy as np
import pytest

from repro.core.connectors import PostgresqlConnector, UmbraConnector
from repro.inspection import (
    HistogramForColumns,
    NoBiasIntroducedFor,
    PipelineInspector,
)
from repro.pipelines import (
    adult_simple_source,
    compas_source,
    healthcare_source,
)


def _sql_run(source, mode="CTE", materialize=False, checks=(), connector=None):
    inspector = PipelineInspector.on_pipeline_from_string(source, "<test>")
    for check in checks:
        inspector = inspector.add_check(check)
    return inspector.execute_in_sql(
        dbms_connector=connector or UmbraConnector(),
        mode=mode,
        materialize=materialize,
    )


def _py_run(source, checks=()):
    inspector = PipelineInspector.on_pipeline_from_string(source, "<test>")
    for check in checks:
        inspector = inspector.add_check(check)
    return inspector.execute()


class TestGeneratedSql:
    def test_ddl_and_ctid_exposure(self, data_dir):
        source = healthcare_source(data_dir, upto="pandas")
        result = _sql_run(source)
        sql = result.sql_source
        assert "CREATE TABLE patients_" in sql
        assert "COPY patients_" in sql
        assert "ctid AS \"patients_" in sql  # first CTE exposes the ctid

    def test_one_cte_per_line(self, data_dir):
        source = healthcare_source(data_dir, upto="pandas")
        result = _sql_run(source, mode="CTE")
        container = result.extras["container"]
        # two ctid CTEs + merge + groupby + merge + setitem + projection +
        # selection = 8 table expressions
        assert len(container.blocks) == 8
        names = [b.name for b in container.blocks]
        assert all(
            n.startswith(("patients_", "histories_", "block_mlinid"))
            for n in names
        )

    def test_view_mode_creates_views(self, data_dir):
        source = healthcare_source(data_dir, upto="pandas")
        connector = UmbraConnector()
        result = _sql_run(source, mode="VIEW", connector=connector)
        views = connector.connection.database.catalog.view_names
        assert any(name.startswith("block_mlinid") for name in views)
        assert "CREATE VIEW" in result.sql_source

    def test_materialize_creates_materialized_views(self, data_dir):
        source = healthcare_source(data_dir, upto="pandas")
        result = _sql_run(source, mode="VIEW", materialize=True)
        assert "CREATE MATERIALIZED VIEW" in result.sql_source

    def test_generated_script_is_reexecutable(self, data_dir):
        """The emitted SQL (without execution) must run on a fresh engine."""
        from repro.sqldb import Database

        source = healthcare_source(data_dir, upto="pandas")
        sql = PipelineInspector.on_pipeline_from_string(source, "<t>").to_sql(
            mode="CTE"
        )
        db = Database("umbra")
        results = db.run_script(sql)
        assert results[-1].rowcount > 0

    def test_cte_mode_always_executable_midway(self, data_dir):
        """The container can wrap a query after any prefix (§4)."""
        source = healthcare_source(data_dir, upto="pandas")
        connector = UmbraConnector()
        result = _sql_run(source, mode="CTE", connector=connector)
        container = result.extras["container"]
        for block in container.blocks:
            out = container.run_query(
                f"SELECT count(*) FROM {block.name}", upto=block.name
            )
            assert out.scalar() >= 0


class TestPythonSqlEquivalence:
    @pytest.mark.parametrize("mode", ["CTE", "VIEW"])
    @pytest.mark.parametrize("profile", ["postgres", "umbra"])
    def test_healthcare_histograms_identical(self, data_dir, mode, profile):
        source = healthcare_source(data_dir, upto="pandas")
        checks = [NoBiasIntroducedFor(["race", "age_group"])]
        connector = (
            PostgresqlConnector() if profile == "postgres" else UmbraConnector()
        )
        py = _py_run(source, checks)
        sql = _sql_run(source, mode=mode, checks=checks, connector=connector)
        inspection = HistogramForColumns(["race", "age_group"])
        py_hist = {
            (n.lineno, n.operator_type.name): v
            for n, v in py.histograms_for(inspection).items()
            if v
        }
        sql_hist = {
            (n.lineno, n.operator_type.name): v
            for n, v in sql.histograms_for(inspection).items()
            if v
        }
        assert set(sql_hist) <= set(py_hist)
        assert len(sql_hist) >= 7
        for key, histograms in sql_hist.items():
            assert histograms == py_hist[key], key

    def test_check_verdicts_agree(self, data_dir):
        source = healthcare_source(data_dir, upto="pandas")
        checks = [NoBiasIntroducedFor(["race", "age_group"], threshold=0.25)]
        py = _py_run(source, checks)
        sql = _sql_run(source, checks=checks)
        py_status = next(iter(py.check_to_check_results.values())).status
        sql_status = next(iter(sql.check_to_check_results.values())).status
        assert py_status == sql_status

    @pytest.mark.parametrize(
        "builder", [healthcare_source, compas_source, adult_simple_source]
    )
    def test_end_to_end_scores_bit_identical(self, data_dir, builder):
        source = builder(data_dir, upto="full")
        py_score = _py_run(source).extras["pipeline_globals"]["score"]
        sql_score = _sql_run(source).extras["pipeline_globals"]["score"]
        assert py_score == pytest.approx(sql_score, abs=1e-12)

    def test_features_numerically_identical(self, data_dir):
        source = healthcare_source(data_dir, upto="sklearn")
        py = _py_run(source)
        sql = _sql_run(source)
        py_features = np.asarray(
            py.extras["pipeline_globals"]["features"], dtype=float
        )
        backend = sql.extras["backend"]
        sql_features = backend.materialize_object(
            sql.extras["pipeline_globals"]["features"]
        )
        assert sql_features.shape == py_features.shape
        assert np.allclose(sql_features, py_features)


class TestExtractionBoundary:
    def test_estimator_fit_materializes_real_data(self, data_dir):
        source = adult_simple_source(data_dir, upto="full")
        result = _sql_run(source)
        model = result.extras["pipeline_globals"]["model"]
        # the model must have been trained on full-size data, not the
        # 10-row schema sample
        assert model._root is not None

    def test_sample_rows_bounds_dummies(self, data_dir):
        source = healthcare_source(data_dir, upto="pandas")
        result = _sql_run(source)
        data = result.extras["pipeline_globals"]["data"]
        assert len(data) <= 10  # dummy object: the sample, not the data

    def test_fallback_to_python_for_untracked_frames(self):
        source = """
from repro.frame import DataFrame

data = DataFrame({'a': [1, 2, 3]})
out = data[data['a'] > 1]
"""
        result = _sql_run(source)
        out = result.extras["pipeline_globals"]["out"]
        assert out["a"].tolist() == [2, 3]  # full python fallback result


class TestInspectionInSql:
    def test_histogram_restores_removed_column(self, data_dir):
        source = healthcare_source(data_dir, upto="pandas")
        checks = [NoBiasIntroducedFor(["age_group"])]
        result = _sql_run(source, checks=checks)
        inspection = HistogramForColumns(["age_group"])
        histograms = result.histograms_for(inspection)
        last = [n for n, v in histograms.items() if v]
        # age_group was projected away before the final selection but the
        # ctid join restores it (Listing 5 lines 31-33)
        final = max(last, key=lambda n: n.node_id)
        assert "age_group" in histograms[final]

    def test_histogram_after_groupby_unnests(self, data_dir):
        source = """
import repro.frame as pd

data = pd.read_csv({path!r}, na_values='?')
agg = data.groupby('age_group').agg(m=('income', 'mean'))
""".format(path=f"{data_dir}/patients.csv")
        checks = [NoBiasIntroducedFor(["race"])]
        py = _py_run(source, checks)
        sql = _sql_run(source, checks=checks)
        inspection = HistogramForColumns(["race"])
        py_last = list(py.histograms_for(inspection).values())[-1]
        sql_last = list(sql.histograms_for(inspection).values())[-1]
        assert py_last == sql_last
        assert sum(py_last["race"].values()) > 4  # more tuples than groups

    def test_issued_inspection_queries_logged(self, data_dir):
        source = healthcare_source(data_dir, upto="pandas")
        result = _sql_run(
            source, checks=[NoBiasIntroducedFor(["race"])]
        )
        queries = result.extras["container"].issued_queries
        assert any("GROUP BY" in q for q in queries)


def _two_sources(data_dir):
    """patients and histories merged, then a patients-only selection: no
    GROUP BY in any block, so only histogram statements contain one."""
    return f"""
import repro.frame as pd

patients = pd.read_csv({data_dir + "/patients.csv"!r}, na_values='?')
histories = pd.read_csv({data_dir + "/histories.csv"!r}, na_values='?')
data = patients.merge(histories, on=['ssn'])
data = data[['smoker', 'race', 'county']]
kept = patients[patients['race'] == 'race1']
"""


def _histogram_statements(result):
    return [
        q for q in result.extras["container"].issued_queries if "GROUP BY" in q
    ]


def _plain(key):
    return key.item() if isinstance(key, np.generic) else key


class TestOneInspectionStatement:
    @pytest.mark.parametrize("mode", ["CTE", "VIEW"])
    def test_all_histograms_in_one_statement(self, data_dir, mode):
        columns = ["race", "smoker", "county"]
        result = _sql_run(
            _two_sources(data_dir),
            mode=mode,
            checks=[NoBiasIntroducedFor(columns)],
        )
        assert len(_histogram_statements(result)) == 1
        per_node = result.histograms_for(HistogramForColumns(columns))
        with_histograms = [h for h in per_node.values() if h]
        # read_csv x2, merge, projection, selection: 5 table expressions
        assert len(with_histograms) == 5
        assert sum(len(h) for h in with_histograms) == 2 + 1 + 3 + 3 + 2

    def test_cte_chain_ends_at_the_last_block_an_arm_reads(self, data_dir):
        # smoker lives in histories: the final patients-only selection
        # cannot restore it, so no arm reads the last block
        result = _sql_run(
            _two_sources(data_dir),
            mode="CTE",
            checks=[NoBiasIntroducedFor(["smoker"])],
        )
        (statement,) = _histogram_statements(result)
        names = [b.name for b in result.extras["container"].blocks]
        assert len(names) == 5
        for name in names[:4]:
            assert f"{name} AS (" in statement
        assert names[4] not in statement

    def test_overlapping_histogram_inspections_share_the_statement(
        self, data_dir
    ):
        inspector = PipelineInspector.on_pipeline_from_string(
            _two_sources(data_dir), "<test>"
        )
        result = (
            inspector.add_required_inspection(HistogramForColumns(["race"]))
            .add_check(NoBiasIntroducedFor(["race", "smoker"]))
            .execute_in_sql(dbms_connector=UmbraConnector())
        )
        assert len(_histogram_statements(result)) == 1
        narrow = result.histograms_for(HistogramForColumns(["race"]))
        wide = result.histograms_for(HistogramForColumns(["race", "smoker"]))
        for node, histograms in narrow.items():
            assert set(histograms) <= {"race"}
            assert histograms.get("race") == wide[node].get("race")

    @pytest.mark.parametrize("mode", ["CTE", "VIEW"])
    def test_histograms_equal_the_python_path_key_for_key(
        self, data_dir, mode
    ):
        columns = ["num_children", "smoker", "race"]
        checks = [NoBiasIntroducedFor(columns)]
        source = healthcare_source(data_dir, upto="sklearn")
        inspection = HistogramForColumns(columns)
        py = _py_run(source, checks).histograms_for(inspection)
        sql = _sql_run(
            source, mode=mode, checks=checks, connector=PostgresqlConnector()
        ).histograms_for(inspection)
        py_hist = {(n.lineno, n.operator_type.name): v for n, v in py.items()}
        # the Python path records a ColumnTransformer as one TRANSFORMER
        # node, the SQL path as the CONCATENATION of its branches
        sql_hist = {
            (n.lineno, n.operator_type.name.replace(
                "CONCATENATION", "TRANSFORMER"
            )): v
            for n, v in sql.items()
            if v
        }
        assert len(sql_hist) >= 10
        for key, histograms in sql_hist.items():
            assert histograms == py_hist[key], key
            for column, counts in histograms.items():
                expected = py_hist[key][column]
                assert {k: type(k) for k in counts} == {
                    k: type(_plain(k)) for k in expected
                }, (key, column)
        first = next(iter(sql.values()))  # read_csv(patients.csv)
        # smoker is a histories column: absent there, not an empty dict
        assert set(first) == {"num_children", "race"}
        assert all(type(k) is int for k in first["num_children"])
        assert any(
            None in h["smoker"] for h in sql_hist.values() if "smoker" in h
        )

    def test_column_replaced_by_another_type_keeps_key_types(self, data_dir):
        # num_children is INT at read_csv and BOOLEAN after the assignment:
        # both kinds of key must come back as the Python path has them
        source = f"""
import repro.frame as pd

data = pd.read_csv({data_dir + "/patients.csv"!r}, na_values='?')
data['num_children'] = data['num_children'] > 1
data = data[data['num_children']]
"""
        py, sql = _both_paths(source, ["num_children", "race"])
        assert len(sql) == 3  # read_csv, assignment, selection
        for expected, histograms in zip(py, sql):
            assert histograms == expected
            for column, counts in histograms.items():
                assert {k: type(k) for k in counts} == {
                    k: type(_plain(k)) for k in expected[column]
                }, column
        assert {type(k) for k in sql[0]["num_children"]} == {int}
        assert {type(k) for k in sql[-1]["num_children"]} == {bool}

    def test_more_arms_than_the_interpreter_stack_is_deep(self, data_dir):
        # every column of both tables at 48 nodes: over 500 arms in one
        # statement
        source = f"""
import repro.frame as pd

patients = pd.read_csv({data_dir + "/patients.csv"!r}, na_values='?')
histories = pd.read_csv({data_dir + "/histories.csv"!r}, na_values='?')
data = patients.merge(histories, on=['ssn'])
for _ in range(45):
    data = data[data['income'] >= 0]
"""
        columns = [
            "id", "first_name", "last_name", "race", "county",
            "num_children", "income", "age_group", "ssn", "smoker",
            "complications",
        ]
        py, sql = _both_paths(source, columns, statements=1)
        assert sum(len(histograms) for histograms in sql) > 500
        assert sql == py


def _both_paths(source, columns, statements=None):
    """Per-node histograms of the Python and the SQL path, in node order,
    for the nodes that have SQL histograms."""
    checks = [NoBiasIntroducedFor(columns)]
    inspection = HistogramForColumns(columns)
    py = _py_run(source, checks).histograms_for(inspection)
    result = _sql_run(source, checks=checks, connector=PostgresqlConnector())
    if statements is not None:
        assert len(_histogram_statements(result)) == statements
    sql = result.histograms_for(inspection)
    by_id = {node.node_id: histograms for node, histograms in py.items()}
    nodes = sorted((n for n, h in sql.items() if h), key=lambda n: n.node_id)
    return [by_id[n.node_id] for n in nodes], [sql[n] for n in nodes]


class TestNoInspectionStatement:
    def test_no_table_expression_no_inspection_statement(self):
        source = """
from repro.frame import DataFrame

data = DataFrame({'a': [1, 2, 3]})
out = data[data['a'] > 1]
"""
        connector = UmbraConnector()
        result = _sql_run(
            source, checks=[NoBiasIntroducedFor(["a"])], connector=connector
        )
        assert result.extras["container"].issued_queries == []
        assert connector.statement_timings == []
