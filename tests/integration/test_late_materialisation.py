"""Late materialisation: every operator emits exactly its plan schema.

``prune_plan`` narrows every node's schema (scans included) to the keys
its consumer reads, and the executor's operators gather only those keys.
These tests probe every dispatched operator's output batch over the
paper's four pipelines, over the differential fuzzer's ``reference`` and
``opt-indexed`` configurations (the latter reaches ``IndexScan`` and
``IndexJoin``), and check the two consequences that are easy to lose:
a hash-join build reserves memory for its live columns only, and a scan
pruned to no column still carries its row count.
"""

import random

import pytest

from repro.core.connectors import PostgresqlConnector, UmbraConnector
from repro.datasets import generate_adult, generate_compas, generate_healthcare
from repro.inspection import NoBiasIntroducedFor, PipelineInspector
from repro.pipelines import PIPELINE_BUILDERS
from repro.sqldb import Database, executor
from repro.sqldb.memory import HASH_ROW_BYTES, vector_bytes
from tests.sqldb.test_fuzz_differential import (
    SEED_CORPUS,
    _configs,
    _generate_query,
    _random_tables,
)

SENSITIVE = {
    "healthcare": ["race", "age_group"],
    "compas": ["sex", "race"],
    "adult_simple": ["race"],
    "adult_complex": ["race"],
}

PIPELINE_CONFIGS = [
    ("postgres", "CTE", False),
    ("postgres", "VIEW", True),
    ("umbra", "VIEW", False),
]


class _Probe:
    """Wraps the executor's operator dispatch and records, per operator
    kind, how many batches ran and which ones left their schema."""

    def __init__(self) -> None:
        self.seen: dict[str, int] = {}
        self.violations: list[tuple] = []
        self.batches: list[tuple] = []

    def wrap(self, dispatch):
        def checked(plan, ctx):
            batch = dispatch(plan, ctx)
            kind = type(plan).__name__
            self.seen[kind] = self.seen.get(kind, 0) + 1
            self.batches.append((kind, batch))
            expected = {out.key for out in plan.schema}
            if set(batch.columns) != expected:
                self.violations.append(
                    (
                        plan.label(),
                        sorted(set(batch.columns) - expected),
                        sorted(expected - set(batch.columns)),
                    )
                )
            return batch

        return checked


@pytest.fixture
def probe(monkeypatch):
    recorder = _Probe()
    monkeypatch.setattr(
        executor,
        "_dispatch_operator",
        recorder.wrap(executor._dispatch_operator),
    )
    return recorder


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("late"))
    generate_healthcare(directory, 120, seed=1)
    generate_compas(directory, 150, 60, seed=1)
    generate_adult(directory, 200, 60, seed=1)
    return directory


@pytest.mark.parametrize("pipeline", list(SENSITIVE))
@pytest.mark.parametrize(
    "profile,mode,materialize",
    PIPELINE_CONFIGS,
    ids=[f"{p}-{m}{'-mat' if t else ''}" for p, m, t in PIPELINE_CONFIGS],
)
def test_pipeline_operators_emit_their_schema(
    probe, data_dir, pipeline, profile, mode, materialize
):
    source = PIPELINE_BUILDERS[pipeline](data_dir, upto="sklearn")
    connector = (
        PostgresqlConnector() if profile == "postgres" else UmbraConnector()
    )
    PipelineInspector.on_pipeline_from_string(
        source, f"<{pipeline}>"
    ).add_check(NoBiasIntroducedFor(SENSITIVE[pipeline])).execute_in_sql(
        dbms_connector=connector, mode=mode, materialize=materialize
    )
    assert probe.seen.get("Join", 0) > 0
    assert probe.violations == []


def test_fuzz_configs_operators_emit_their_schema(probe):
    rng = random.Random(23)
    queries = list(SEED_CORPUS) + [_generate_query(rng) for _ in range(60)]
    for profile in ("postgres", "umbra"):
        t_rows, u_rows, w_rows = _random_tables(random.Random(4207))
        configs = _configs(profile, t_rows, u_rows, w_rows)
        try:
            for name, db in configs:
                if name in ("reference", "opt-indexed"):
                    for sql, _ in queries:
                        db.execute(sql)
        finally:
            for _, db in configs:
                db.close()
    for kind in ("ScanTable", "IndexScan", "IndexJoin", "Join", "Filter"):
        assert probe.seen.get(kind, 0) > 0, kind
    assert probe.violations == []


def test_join_back_reserves_the_build_for_its_live_columns_only():
    """The paper's ctid join-back (Listings 2/3) over a 50-column table
    reading one of them holds ``join.build`` for two columns (the join
    key and the one read), not for the table's full width."""
    rows = 400
    db = Database(query_memory_limit="64mb", collect_exec_stats=True)
    try:
        names = [f"c{i}" for i in range(50)]
        db.execute(
            "CREATE TABLE wide ("
            + ", ".join(f"{name} text" for name in names)
            + ")"
        )
        wide = db.catalog.table("wide")
        wide.append_columns(
            {name: [f"{name}-{r}" for r in range(rows)] for name in names},
            rows,
        )
        db.execute("CREATE TABLE node (src int)")
        db.catalog.table("node").append_columns(
            {"src": list(range(0, rows, 2))}, rows // 2
        )
        db.catalog.bump_version()
        result = db.execute(
            "SELECT w.c7 FROM node n JOIN wide w ON n.src = w.ctid"
        )
        assert len(result.rows) == rows // 2
        (join,) = [
            entry
            for entry in db.last_exec_stats.nodes.values()
            if entry.label.startswith("Join")
        ]
        wide = db.catalog.table("wide")
        live = vector_bytes(wide.ctid) + vector_bytes(wide.columns["c7"])
        assert join.peak_bytes == live + HASH_ROW_BYTES * rows
    finally:
        db.close()


@pytest.mark.parametrize("profile", ["postgres", "umbra"])
def test_scan_pruned_to_no_column_keeps_its_row_count(probe, profile):
    db = Database(profile)
    try:
        db.run_script(
            "CREATE TABLE t (a int, b text);"
            "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (NULL, 'z');"
            "CREATE MATERIALIZED VIEW mv AS SELECT a, b FROM t;"
        )
        probe.batches.clear()
        assert db.execute("SELECT count(*) FROM t").scalar() == 3
        assert db.execute("SELECT count(*) FROM mv").scalar() == 3
        assert db.execute("SELECT 1 AS one FROM mv").rows == [(1,)] * 3
        scans = [
            batch
            for kind, batch in probe.batches
            if kind in ("ScanTable", "ScanSnapshot")
        ]
        assert len(scans) == 3
        assert all(b.length == 3 and not b.columns for b in scans)
        assert probe.violations == []
    finally:
        db.close()
