"""Text is stored as dictionary codes and arrays as offsets, end to end.

Healthcare and compas at 10^3 rows run through ``execute_in_sql`` in the
paper's best PostgreSQL configuration (VIEW mode, materialised).  Every
stored text column of every table and materialised view must be coded —
int32 codes into a dictionary of distinct strings — with no object array
holding text, every DAG node's histograms must equal the Python path's,
and no stored vector or element vector may hold a Python list: an array
column is int64 offsets over one typed element vector.
"""

import pytest

from repro.core.connectors import PostgresqlConnector
from repro.datasets import generate_compas, generate_healthcare
from repro.inspection import (
    HistogramForColumns,
    NoBiasIntroducedFor,
    PipelineInspector,
)
from repro.pipelines import PIPELINE_BUILDERS
from repro.sqldb.catalog import View

SENSITIVE = {"healthcare": ["race", "age_group"], "compas": ["sex", "race"]}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("keys_as_codes"))
    generate_healthcare(directory, 1000, seed=3)
    generate_compas(directory, 1000, 300, seed=3)
    return directory


def _stored_columns(catalog):
    """``(relation, column, storage class or None, vector)`` of every
    table column and materialised-view snapshot column."""
    for name in catalog.table_names:
        table = catalog.table(name)
        for column, storage in zip(table.column_names, table.column_types):
            yield name, column, storage, table.columns[column]
    for name in catalog.view_names:
        view = catalog.resolve(name)
        if isinstance(view, View) and view.snapshot is not None:
            _, data, _ = view.snapshot
            for column, vector in data.items():
                yield name, column, None, vector


def _histograms(result, inspection):
    return {
        (node.lineno, node.operator_type.name): histograms
        for node, histograms in result.histograms_for(inspection).items()
        if histograms
    }


_RUNS: dict = {}


def _sql_run(data_dir, pipeline):
    """The pipeline's SQL run (VIEW mode, materialised), once per module:
    its catalog and its result."""
    if pipeline not in _RUNS:
        source = PIPELINE_BUILDERS[pipeline](data_dir, upto="sklearn")
        connector = PostgresqlConnector()
        result = (
            PipelineInspector.on_pipeline_from_string(source, f"<{pipeline}>")
            .add_check(NoBiasIntroducedFor(SENSITIVE[pipeline]))
            .execute_in_sql(
                dbms_connector=connector, mode="VIEW", materialize=True
            )
        )
        _RUNS[pipeline] = (connector.connection.database.catalog, result)
    return _RUNS[pipeline]


@pytest.mark.parametrize("pipeline", sorted(SENSITIVE))
def test_text_is_coded_and_histograms_match_python(data_dir, pipeline):
    source = PIPELINE_BUILDERS[pipeline](data_dir, upto="sklearn")
    catalog, sql_result = _sql_run(data_dir, pipeline)
    coded = 0
    for relation, column, storage, vector in _stored_columns(catalog):
        where = (relation, column)
        if storage == "text":
            assert vector.is_text, where
        if vector.is_text:
            coded += 1
            dictionary = vector.dictionary.tolist()
            assert vector.values.dtype == "int32", where
            assert len(set(dictionary)) == len(dictionary), where
            assert all(type(word) is str for word in dictionary), where
        elif vector.values.dtype == object:
            present = vector.values[~vector.nulls].tolist()
            assert not any(type(cell) is str for cell in present), where
    assert coded >= 5

    python_result = (
        PipelineInspector.on_pipeline_from_string(source, f"<{pipeline}>")
        .add_check(NoBiasIntroducedFor(SENSITIVE[pipeline]))
        .execute()
    )
    inspection = HistogramForColumns(SENSITIVE[pipeline])
    sql_histograms = _histograms(sql_result, inspection)
    python_histograms = _histograms(python_result, inspection)
    # the nodes both paths keep histograms for (each also inspects nodes
    # the other keeps none for, as in test_pipeline_matrix)
    shared = sql_histograms.keys() & python_histograms.keys()
    assert len(shared) >= 3
    for key in shared:
        for column, counts in python_histograms[key].items():
            assert sql_histograms[key][column] == counts, (key, column)


def _vectors(vector):
    """*vector* and its element vectors, outermost first."""
    while vector is not None:
        yield vector
        vector = vector.elements


@pytest.mark.parametrize("pipeline", sorted(SENSITIVE))
def test_no_stored_vector_holds_a_list(data_dir, pipeline):
    catalog, _ = _sql_run(data_dir, pipeline)
    arrays = 0
    for relation, column, storage, vector in _stored_columns(catalog):
        arrays += vector.is_array
        if storage == "array":
            assert vector.is_array, (relation, column)
        for part in _vectors(vector):
            if part.is_array:
                assert part.values.dtype == "int64", (relation, column)
            elif part.values.dtype == object:
                present = part.values[~part.nulls].tolist()
                assert list not in set(map(type, present)), (relation, column)
    # the tuple-tracking arrays (array_agg(ctid)) and the one-hot columns
    assert arrays >= 2
