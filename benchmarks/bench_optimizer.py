"""Statistics-driven optimizer benchmark.

Two parts, both written to ``BENCH_optimizer.json``:

* **pipeline** — the healthcare pipeline (Listing 4, pandas part)
  transpiled to SQL and executed end to end through both profile
  connectors in VIEW mode, rewrite layer off vs on.  The win comes from
  predicate pushdown: the final ``county IN (...)`` filter moves below
  the mean-complications join (it legally stops above the shared,
  refcount-2 inlined CTE, whose body the executor runs once either way).
  Final-table rows are checked identical between the two configurations.
* **micro** — a selective filter + join + group-by over a synthetic
  star shape where the optimizer can push both filters to their scans,
  with and without ``ANALYZE`` (statistics additionally unlock conjunct
  reordering and join build-side selection).  Results are checked
  row-identical before any timing is recorded.

Scale control
-------------
``REPRO_BENCH_OPTIMIZER_SIZES``  comma list of healthcare dataset sizes
(default ``10000,100000``).
``REPRO_BENCH_OPTIMIZER_ROWS``  micro fact-table row count
(default ``200000``).
"""

from __future__ import annotations

import json
import os
import platform
import time

from harness import make_inspector, print_table
from repro.core.connectors import PostgresqlConnector, UmbraConnector
from repro.sqldb import Database

REPEATS = 3
OUT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_optimizer.json")

PIPELINE_BACKENDS = ["postgres-view", "umbra-view"]

MICRO_QUERY = (
    "SELECT region, count(*) AS c, sum(amount) AS total FROM "
    "(SELECT f.amount AS amount, f.status AS status, d.region AS region "
    "FROM fact f JOIN dim d ON f.dim_id = d.id) j "
    "WHERE status = 'ok' AND amount > 990 AND region <> 'r3' "
    "GROUP BY region ORDER BY region"
)


def _pipeline_sizes() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_OPTIMIZER_SIZES", "10000,100000")
    return [int(part) for part in raw.split(",") if part.strip()]


def _micro_rows() -> int:
    return int(os.environ.get("REPRO_BENCH_OPTIMIZER_ROWS", "200000"))


# -- part 1: the healthcare pipeline, end to end ------------------------------


def _pipeline_once(backend: str, size: int, optimize: bool):
    """One end-to-end run; returns (seconds, query_seconds, rows).

    ``seconds`` is the full end-to-end time (CSV COPY included, which
    dominates); ``query_seconds`` isolates the final chain-executing
    SELECT, where pushdown actually acts.
    """
    inspector = make_inspector("healthcare", size, "pandas")
    engine = backend.partition("-")[0]
    connector_cls = (
        PostgresqlConnector if engine == "postgres" else UmbraConnector
    )
    connector = connector_cls(optimize=optimize)
    started = time.perf_counter()
    result = inspector.execute_in_sql(dbms_connector=connector, mode="VIEW")
    seconds = time.perf_counter() - started
    query_seconds = sum(
        elapsed
        for head, elapsed in connector.statement_timings
        if head.startswith("SELECT * FROM block_")
    )
    # the generated script ends in "SELECT * FROM <final block>;"
    final_table = result.sql_source.strip().splitlines()[-1].rstrip(";").split()[-1]
    rows = sorted(
        connector.query_rows(f"SELECT * FROM {final_table}"), key=repr
    )
    return seconds, query_seconds, rows


def run_pipeline_sweep(sizes=None) -> dict:
    sizes = sizes or _pipeline_sizes()
    results = []
    for size in sizes:
        for backend in PIPELINE_BACKENDS:
            reference_rows = None
            off_best = None
            off_query_best = None
            for optimize in (False, True):
                timings = []
                query_timings = []
                rows = None
                for _ in range(REPEATS):
                    seconds, query_seconds, rows = _pipeline_once(
                        backend, size, optimize
                    )
                    timings.append(seconds)
                    query_timings.append(query_seconds)
                if reference_rows is None:
                    reference_rows = rows
                assert rows == reference_rows, (
                    f"optimizer changed the healthcare result at "
                    f"backend={backend} size={size}"
                )
                best = min(timings)
                query_best = min(query_timings)
                if not optimize:
                    off_best = best
                    off_query_best = query_best
                results.append(
                    {
                        "backend": backend,
                        "size": size,
                        "optimize": optimize,
                        "seconds": timings,
                        "seconds_best": best,
                        "query_seconds_best": query_best,
                        "speedup_vs_off": (
                            off_best / best if optimize else None
                        ),
                        "query_speedup_vs_off": (
                            off_query_best / query_best if optimize else None
                        ),
                    }
                )
    return {
        "pipeline": "healthcare",
        "upto": "pandas",
        "mode": "VIEW",
        "repeats": REPEATS,
        "rows_checked": True,
        "results": results,
    }


# -- part 2: controlled pushdown microbenchmark -------------------------------


def _make_micro_database(profile: str, rows: int, optimize: bool) -> Database:
    db = Database(profile, optimize=optimize)
    db.execute("CREATE TABLE dim (id int, region text)")
    db.execute(
        "CREATE TABLE fact (dim_id int, amount double precision, status text)"
    )
    n_dim = 1000
    db.catalog.table("dim").append_columns(
        {
            "id": list(range(n_dim)),
            "region": [f"r{i % 10}" for i in range(n_dim)],
        },
        n_dim,
    )
    db.catalog.table("fact").append_columns(
        {
            "dim_id": [i % n_dim for i in range(rows)],
            "amount": [float((i * 7) % 1000) for i in range(rows)],
            "status": ["ok" if i % 10 < 3 else "skip" for i in range(rows)],
        },
        rows,
    )
    db.catalog.bump_version()
    if optimize:
        db.execute("ANALYZE")  # unlock the statistics-gated rewrites too
    return db


def _time_micro(db: Database) -> tuple[list[float], list[tuple]]:
    db.execute(MICRO_QUERY)  # warm the plan cache
    timings = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = db.execute(MICRO_QUERY)
        timings.append(time.perf_counter() - started)
    return timings, result.rows


def run_micro_sweep(rows=None) -> dict:
    rows = rows or _micro_rows()
    results = []
    for profile in ("postgres", "umbra"):
        reference_rows = None
        off_best = None
        for optimize in (False, True):
            db = _make_micro_database(profile, rows, optimize)
            try:
                timings, out_rows = _time_micro(db)
            finally:
                db.close()
            if reference_rows is None:
                reference_rows = out_rows
            assert out_rows == reference_rows, (
                f"optimizer changed the micro result at profile={profile}"
            )
            best = min(timings)
            if not optimize:
                off_best = best
            results.append(
                {
                    "profile": profile,
                    "optimize": optimize,
                    "analyzed": optimize,
                    "seconds": timings,
                    "seconds_best": best,
                    "speedup_vs_off": off_best / best if optimize else None,
                }
            )
    return {
        "query": MICRO_QUERY,
        "fact_rows": rows,
        "repeats": REPEATS,
        "determinism_checked": True,
        "results": results,
    }


# -- report -------------------------------------------------------------------


def run_sweep(sizes=None, micro_rows=None) -> dict:
    return {
        "benchmark": "bench_optimizer",
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "pipeline": run_pipeline_sweep(sizes),
        "micro": run_micro_sweep(micro_rows),
    }


def write_report(report: dict, path: str = OUT_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def _pipeline_rows(report: dict) -> list[list]:
    return [
        [
            entry["backend"],
            entry["size"],
            "on" if entry["optimize"] else "off",
            entry["seconds_best"],
            f"{entry['speedup_vs_off']:.2f}x"
            if entry["speedup_vs_off"]
            else "-",
            entry["query_seconds_best"],
            f"{entry['query_speedup_vs_off']:.2f}x"
            if entry["query_speedup_vs_off"]
            else "-",
        ]
        for entry in report["pipeline"]["results"]
    ]


def _micro_rows_table(report: dict) -> list[list]:
    return [
        [
            entry["profile"],
            "on" if entry["optimize"] else "off",
            entry["seconds_best"],
            f"{entry['speedup_vs_off']:.2f}x"
            if entry["speedup_vs_off"]
            else "-",
        ]
        for entry in report["micro"]["results"]
    ]


def _print_report(report: dict) -> None:
    print_table(
        "Healthcare pipeline (pandas part, VIEW mode), end-to-end runtime (s)",
        [
            "backend",
            "tuples",
            "optimizer",
            "best (s)",
            "speedup",
            "query (s)",
            "qspeedup",
        ],
        _pipeline_rows(report),
    )
    print_table(
        f"Pushdown micro (fact_rows={report['micro']['fact_rows']}), "
        "runtime (s)",
        ["profile", "optimizer", "best (s)", "speedup"],
        _micro_rows_table(report),
    )
    print(f"wrote {OUT_PATH}")


def test_optimizer_bench_smoke():
    """Cheap correctness gate: tiny sweep, result equality must hold."""
    report = run_sweep(sizes=[1000], micro_rows=5000)
    assert report["pipeline"]["rows_checked"]
    assert report["micro"]["determinism_checked"]
    assert len(report["pipeline"]["results"]) == 2 * len(PIPELINE_BACKENDS)
    assert len(report["micro"]["results"]) == 4


def test_report_optimizer(capsys):
    report = run_sweep()
    write_report(report)
    with capsys.disabled():
        _print_report(report)


def main() -> None:
    report = run_sweep()
    write_report(report)
    _print_report(report)


if __name__ == "__main__":
    main()
