"""Extraction reads the result's typed columns, not its rows.

``SQLBackend.materialize_object`` builds feature matrices from
``Result.vectors``.  The row loop it replaced is kept here as the
oracle: on every input the oracle accepts, the column path's matrix is
bit-identical to it, NaN and signed zeros included — over hypothesis
columns, and over the matrices the paper pipelines actually extract,
in-process and over the wire.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sql_backend
from repro.core.connectors import RemoteConnector, UmbraConnector
from repro.datasets import generate_adult, generate_healthcare
from repro.inspection import PipelineInspector
from repro.pipelines import PIPELINE_BUILDERS
from repro.sqldb.server import DatabaseServer
from repro.sqldb.vector import Vector, to_rows


def old_rows_to_matrix(rows: list[tuple]) -> np.ndarray:
    """Flatten fetched rows (scalars and arrays) into a float matrix —
    the row loop extraction used before it read columns."""
    if not rows:
        return np.zeros((0, 0))
    flat_rows: list[list[float]] = []
    for row in rows:
        flat: list[float] = []
        for cell in row:
            if isinstance(cell, list):
                flat.extend(float(v) for v in cell)
            elif cell is None:
                flat.append(float("nan"))
            elif isinstance(cell, bool):
                flat.append(1.0 if cell else 0.0)
            else:
                flat.append(float(cell))
        flat_rows.append(flat)
    return np.asarray(flat_rows, dtype=np.float64)


def _assert_bit_identical(new: np.ndarray, old: np.ndarray) -> None:
    assert new.dtype == old.dtype == np.float64
    assert new.shape == old.shape
    assert new.view(np.int64).tolist() == old.view(np.int64).tolist()


def _examples(request) -> int:
    rounds = request.config.getoption("--fuzz-rounds")
    return 10 * (rounds if rounds is not None else 5)


_NUMBERS = st.sampled_from(
    [0.0, -0.0, 1.0, -3.0, 0.5, 1e19, -1e19, 2.0**63, float("inf"),
     float("nan"), 2.0**53 + 2]
) | st.floats(allow_nan=True)


@st.composite
def _columns(draw) -> tuple[list[Vector], int]:
    rows = draw(st.integers(0, 10))
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        nulls = np.array(
            draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),
            dtype=bool,
        )
        kind = draw(st.sampled_from(["numbers", "bools", "arrays", "text"]))
        if kind == "numbers":
            values = np.array(
                draw(st.lists(_NUMBERS, min_size=rows, max_size=rows)),
                dtype=np.float64,
            )
            values[nulls] = np.nan
        elif kind == "bools":
            values = np.array(
                draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),
                dtype=bool,
            ) & ~nulls
        else:
            # arrays the oracle can flatten: one width, no NULL rows, and
            # elements float() accepts; rows share list objects
            if kind == "arrays":
                nulls[:] = False
                width = draw(st.integers(0, 3))
                element = st.integers(-5, 5) | st.booleans() | _NUMBERS
                pool = draw(st.lists(
                    st.lists(element, min_size=width, max_size=width),
                    min_size=1, max_size=3,
                ))
            else:
                pool = draw(st.lists(
                    st.sampled_from(["1", "-2.5", "nan", "1e3", "-0"]),
                    min_size=1, max_size=3,
                ))
            values = np.empty(rows, dtype=object)
            for i in range(rows):
                values[i] = (
                    None if nulls[i]
                    else pool[draw(st.integers(0, len(pool) - 1))]
                )
        vectors.append(Vector(values, nulls))
    return vectors, rows


@pytest.mark.fuzz
def test_column_matrix_equals_the_row_loop(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(_columns())
    def check(case):
        vectors, rows = case
        old = old_rows_to_matrix(to_rows(vectors))
        _assert_bit_identical(sql_backend._columns_to_matrix(vectors, rows), old)

    check()


def test_ragged_arrays_are_refused_like_the_row_loop():
    values = np.empty(2, dtype=object)
    values[0], values[1] = [1, 2], [3]
    vectors = [Vector(values, np.zeros(2, dtype=bool))]
    with pytest.raises(ValueError):
        old_rows_to_matrix(to_rows(vectors))
    with pytest.raises(ValueError):
        sql_backend._columns_to_matrix(vectors, 2)


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    generate_healthcare(str(root / "healthcare"), 150, seed=6)
    generate_adult(str(root / "adult"), 300, 80, seed=6)
    return {
        "healthcare": PIPELINE_BUILDERS["healthcare"](str(root / "healthcare")),
        "adult_complex": PIPELINE_BUILDERS["adult_complex"](str(root / "adult")),
    }


@pytest.mark.server
@pytest.mark.parametrize("remote", [False, True], ids=["in-process", "remote"])
@pytest.mark.parametrize("pipeline", ["healthcare", "adult_complex"])
def test_pipeline_matrices_equal_the_row_loop(
    monkeypatch, sources, pipeline, remote
):
    extracted = []
    real = sql_backend._columns_to_matrix

    def spy(vectors, n_rows):
        matrix = real(vectors, n_rows)
        extracted.append((matrix, old_rows_to_matrix(to_rows(vectors))))
        return matrix

    monkeypatch.setattr(sql_backend, "_columns_to_matrix", spy)
    server = DatabaseServer(profile="umbra").start() if remote else None
    connector = (
        RemoteConnector(host="127.0.0.1", port=server.port)
        if remote else UmbraConnector()
    )
    try:
        PipelineInspector.on_pipeline_from_string(
            sources[pipeline], f"<{pipeline}>"
        ).execute_in_sql(dbms_connector=connector, mode="VIEW")
    finally:
        connector.close()
        if server is not None:
            server.shutdown()
    assert extracted, "the pipeline extracted no matrix"
    for new, old in extracted:
        assert new.shape[0] > 0
        _assert_bit_identical(new, old)
