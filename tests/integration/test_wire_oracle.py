"""In-process and remote results are one and the same, cell for cell.

The four paper pipelines run through ``execute_in_sql`` in CTE and VIEW
mode, once on an in-process connector and once over a loopback
:class:`DatabaseServer`.  Every ``Result`` the two runs fetch — blocks,
inspection statements, the final ``SELECT *`` — must agree in columns,
``rowcount`` and every cell as ``(type, value)``, NaN-aware: the wire
ships typed columns and the client builds rows with the engine's own
conversion, so not even ``1`` against ``1.0`` may differ.
"""

from __future__ import annotations

import math

import pytest

from repro.core.connectors import RemoteConnector, UmbraConnector
from repro.datasets import generate_adult, generate_compas, generate_healthcare
from repro.inspection import NoBiasIntroducedFor, PipelineInspector
from repro.pipelines import PIPELINE_BUILDERS
from repro.sqldb import client, dbapi
from repro.sqldb.server import DatabaseServer

pytestmark = pytest.mark.server

SENSITIVE = {
    "healthcare": ["race", "age_group"],
    "compas": ["sex", "race"],
    "adult_simple": ["race"],
    "adult_complex": ["race"],
}


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("wire_oracle")
    generate_healthcare(str(root / "healthcare"), 150, seed=4)
    generate_compas(str(root / "compas"), 200, 60, seed=4)
    generate_adult(str(root / "adult"), 300, 80, seed=4)
    data = {"healthcare": "healthcare", "compas": "compas",
            "adult_simple": "adult", "adult_complex": "adult"}
    return {
        pipeline: PIPELINE_BUILDERS[pipeline](str(root / d), upto="sklearn")
        for pipeline, d in data.items()
    }


@pytest.fixture(scope="module")
def server():
    with DatabaseServer(profile="umbra") as srv:
        yield srv


def _fetched(monkeypatch, connection_class, source, pipeline, connector, mode):
    """Every ``Result`` one ``execute_in_sql`` run fetches, in order."""
    seen = []
    real = connection_class.run_script

    def spy(self, sql, params=None):
        results = real(self, sql, params)
        seen.extend(results)
        return results

    with monkeypatch.context() as patch:
        patch.setattr(connection_class, "run_script", spy)
        PipelineInspector.on_pipeline_from_string(
            source, f"<{pipeline}>"
        ).add_check(NoBiasIntroducedFor(SENSITIVE[pipeline])).execute_in_sql(
            dbms_connector=connector, mode=mode
        )
    return seen


def _typed(value):
    """A cell as (type, value), recursively; NaN compares equal to NaN."""
    if isinstance(value, list):
        return list, [_typed(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return float, "nan"
    return type(value), value


@pytest.mark.parametrize("mode", ["CTE", "VIEW"])
@pytest.mark.parametrize("pipeline", sorted(SENSITIVE))
def test_remote_results_equal_in_process_ones(
    monkeypatch, sources, server, pipeline, mode
):
    local = _fetched(
        monkeypatch, dbapi.Connection, sources[pipeline], pipeline,
        UmbraConnector(), mode,
    )
    connector = RemoteConnector(host="127.0.0.1", port=server.port)
    try:
        remote = _fetched(
            monkeypatch, client.RemoteConnection, sources[pipeline], pipeline,
            connector, mode,
        )
    finally:
        connector.close()
    assert len(local) == len(remote)
    assert sum(len(r.rows) for r in local) > 0
    for mine, theirs in zip(local, remote):
        assert mine.columns == theirs.columns
        assert mine.rowcount == theirs.rowcount
        assert len(mine.rows) == len(theirs.rows)
        for a, b in zip(mine.rows, theirs.rows):
            assert list(map(_typed, a)) == list(map(_typed, b))
