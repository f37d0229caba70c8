"""End-to-end smoke: the healthcare inspection pipeline over the wire.

Starts a real :class:`DatabaseServer` on an ephemeral port and runs the
pipeline through :class:`RemoteConnector` — the paper's psycopg2-shaped
client/server split — then compares against the in-process connector:
check verdicts and histograms must be *identical*, because the remote
path is the same engine behind a socket, not an approximation of it."""

import pytest

from repro.core.connectors import RemoteConnector, UmbraConnector
from repro.datasets import generate_healthcare
from repro.inspection import (
    HistogramForColumns,
    NoBiasIntroducedFor,
    PipelineInspector,
)
from repro.pipelines import PIPELINE_BUILDERS
from repro.sqldb.server import DatabaseServer

pytestmark = pytest.mark.server

SENSITIVE = ["race", "age_group"]


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("server_smoke"))
    generate_healthcare(directory, 150, seed=3)
    return PIPELINE_BUILDERS["healthcare"](directory, upto="sklearn")


@pytest.fixture(scope="module")
def server():
    with DatabaseServer(profile="umbra") as srv:
        yield srv


def _run(source, connector):
    return (
        PipelineInspector.on_pipeline_from_string(source, "<healthcare>")
        .add_check(NoBiasIntroducedFor(SENSITIVE))
        .execute_in_sql(dbms_connector=connector, mode="CTE")
    )


def test_remote_pipeline_matches_in_process(source, server):
    local = _run(source, UmbraConnector())
    remote_connector = RemoteConnector(host="127.0.0.1", port=server.port)
    try:
        remote = _run(source, remote_connector)

        local_check = next(iter(local.check_to_check_results.values()))
        remote_check = next(iter(remote.check_to_check_results.values()))
        assert local_check.status == remote_check.status

        inspection = HistogramForColumns(SENSITIVE)
        local_map = {
            (n.lineno, n.operator_type.name): v
            for n, v in local.histograms_for(inspection).items()
            if v
        }
        compared = 0
        for node, histograms in remote.histograms_for(inspection).items():
            if not histograms:
                continue
            key = (node.lineno, node.operator_type.name)
            assert key in local_map
            # identical to the in-process run, value for value: the
            # wire format must not perturb a single count or label
            assert histograms == local_map[key], key
            compared += 1
        assert compared >= 2, "too few comparable histograms"
    finally:
        remote_connector.close()


def test_remote_rerun_after_reset_reparses_and_matches(source, server):
    connector = RemoteConnector(host="127.0.0.1", port=server.port)
    inspection = HistogramForColumns(SENSITIVE)
    try:
        connector.reset()
        start = connector.plan_cache_stats
        first = _run(source, connector)
        middle = connector.plan_cache_stats
        connector.reset()
        assert connector.plan_cache_stats["size"] == 0
        second = _run(source, connector)
        end = connector.plan_cache_stats
        # the reset emptied the server's plan cache: the replay parses
        # exactly what a first run parses, and nothing is served stale
        for counter in ("hits", "misses"):
            assert end[counter] - middle[counter] == (
                middle[counter] - start[counter]
            )
        assert list(second.histograms_for(inspection).values()) == list(
            first.histograms_for(inspection).values()
        )
    finally:
        connector.close()
