"""Secondary-index benchmark: access paths on the healthcare shape.

Measures what the index layer buys on the two query classes it serves,
over a synthetic healthcare schema (patients → encounters →
observations):

* **point** — single-row lookups by primary key and by foreign key
  (``IndexScan`` eq probes vs full scans),
* **filter** — selective single-table predicates (eq probe on a
  low-cardinality column, range probe on a sorted index).

Both configurations run with ANALYZE'd statistics; the only difference
is whether indexes exist, so the delta is the access path itself.
Every timed query is first checked row-identical between the two
databases, and plans are warmed so the numbers measure execution (the
steady state under the plan cache), not parsing.

Results go to ``BENCH_indexes.json``.

Scale control
-------------
``REPRO_BENCH_INDEXES_PATIENTS``  patient count (default ``50000``);
encounters/observations scale at 3x/6x that.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time

from harness import print_table
from repro.sqldb import Database

REPEATS = 3
OUT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_indexes.json")

N_COUNTIES = 400
N_CODES = 200

INDEX_DDL = [
    "CREATE UNIQUE INDEX patients_id ON patients (id)",
    "CREATE INDEX patients_county ON patients (county)",
    "CREATE INDEX patients_age ON patients (age)",
    "CREATE INDEX observations_encounter ON observations (encounter_id)",
]


def _n_patients() -> int:
    return int(os.environ.get("REPRO_BENCH_INDEXES_PATIENTS", "50000"))


def _make_database(n_patients: int, indexed: bool) -> Database:
    rng = random.Random(1117)
    db = Database()
    db.execute("CREATE TABLE patients (id int, county text, age int)")
    db.execute(
        "CREATE TABLE encounters (id int, patient_id int, kind text)"
    )
    db.execute(
        "CREATE TABLE observations "
        "(id int, encounter_id int, code text, value double precision)"
    )

    n_enc = 3 * n_patients
    n_obs = 6 * n_patients
    db.catalog.table("patients").append_columns(
        {
            "id": list(range(n_patients)),
            "county": [f"county{rng.randrange(N_COUNTIES)}" for _ in range(n_patients)],
            "age": [rng.randrange(100) for _ in range(n_patients)],
        },
        n_patients,
    )
    db.catalog.table("encounters").append_columns(
        {
            "id": list(range(n_enc)),
            "patient_id": [rng.randrange(n_patients) for _ in range(n_enc)],
            "kind": [rng.choice(["wellness", "urgent", "inpatient"]) for _ in range(n_enc)],
        },
        n_enc,
    )
    db.catalog.table("observations").append_columns(
        {
            "id": list(range(n_obs)),
            "encounter_id": [rng.randrange(n_enc) for _ in range(n_obs)],
            "code": [f"code{rng.randrange(N_CODES)}" for _ in range(n_obs)],
            "value": [rng.random() * 200.0 for _ in range(n_obs)],
        },
        n_obs,
    )
    db.catalog.bump_version()
    if indexed:
        for ddl in INDEX_DDL:
            db.execute(ddl)
    db.execute("ANALYZE")
    return db


def _queries(n_patients: int) -> list[dict]:
    """Named query groups; each group is timed as one unit (all of its
    statements, back to back)."""
    n_enc = 3 * n_patients
    point_ids = [(i * 7919) % n_patients for i in range(20)]
    point_encs = [(i * 104729) % n_enc for i in range(20)]
    return [
        {
            "name": "point-lookup-unique",
            "kind": "point",
            "sql": [
                f"SELECT age FROM patients WHERE id = {i}"
                for i in point_ids
            ],
        },
        {
            "name": "point-lookup-fk",
            "kind": "point",
            "sql": [
                "SELECT code, value FROM observations "
                f"WHERE encounter_id = {i}"
                for i in point_encs
            ],
        },
        {
            "name": "selective-filter-eq",
            "kind": "filter",
            "sql": [
                "SELECT count(*), sum(age) FROM patients "
                f"WHERE county = 'county{c}'"
                for c in (3, 77, 201, 399)
            ],
        },
        {
            "name": "selective-filter-range",
            "kind": "filter",
            "sql": [
                "SELECT count(*) FROM patients WHERE age < 3",
                "SELECT count(*) FROM patients WHERE age BETWEEN 97 AND 99",
            ],
        },
    ]


def _run_group(db: Database, group: dict) -> tuple[float, list]:
    """Best-of-REPEATS wall time for the whole group, plus its rows."""
    rows = [db.execute(sql).rows for sql in group["sql"]]  # warm plans
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for sql in group["sql"]:
            db.execute(sql)
        best = min(best, time.perf_counter() - started)
    return best, rows


def run_sweep(n_patients=None) -> dict:
    n_patients = n_patients or _n_patients()
    plain = _make_database(n_patients, indexed=False)
    indexed = _make_database(n_patients, indexed=True)
    results = []
    try:
        for group in _queries(n_patients):
            base_seconds, base_rows = _run_group(plain, group)
            idx_seconds, idx_rows = _run_group(indexed, group)
            assert base_rows == idx_rows, (
                f"indexes changed the result of group {group['name']}"
            )
            plans = [
                sum(
                    line.count("Index")
                    for line in indexed.execute("EXPLAIN " + sql).column(
                        "QUERY PLAN"
                    )
                )
                for sql in group["sql"]
            ]
            results.append(
                {
                    "group": group["name"],
                    "kind": group["kind"],
                    "statements": len(group["sql"]),
                    "seconds_noindex": base_seconds,
                    "seconds_indexed": idx_seconds,
                    "speedup": base_seconds / idx_seconds,
                    "index_nodes_in_plans": sum(plans),
                    "rows_checked": True,
                }
            )
    finally:
        plain.close()
        indexed.close()
    return {
        "benchmark": "bench_indexes",
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "n_patients": n_patients,
        "repeats": REPEATS,
        "results": results,
    }


def write_report(report: dict, path: str = OUT_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def _print_report(report: dict) -> None:
    print_table(
        f"Secondary indexes (patients={report['n_patients']}), "
        "group runtime (s)",
        ["group", "kind", "stmts", "no index (s)", "indexed (s)", "speedup"],
        [
            [
                entry["group"],
                entry["kind"],
                entry["statements"],
                entry["seconds_noindex"],
                entry["seconds_indexed"],
                f"{entry['speedup']:.1f}x",
            ]
            for entry in report["results"]
        ],
    )
    print(f"wrote {OUT_PATH}")


def test_indexes_bench_smoke():
    """Cheap correctness gate: tiny sweep, result equality must hold."""
    report = run_sweep(n_patients=2000)
    assert all(entry["rows_checked"] for entry in report["results"])
    # every group actually planned at least one index node when indexed
    assert all(
        entry["index_nodes_in_plans"] > 0 for entry in report["results"]
    )


def test_report_indexes(capsys):
    report = run_sweep()
    write_report(report)
    with capsys.disabled():
        _print_report(report)
    point = [e for e in report["results"] if e["kind"] == "point"]
    assert max(e["speedup"] for e in point) >= 10.0


def main() -> None:
    report = run_sweep()
    write_report(report)
    _print_report(report)


if __name__ == "__main__":
    main()
