"""Plan cache — repeated statement execution, cold vs. warm.

A statement text repeated against an unchanged schema is a cache hit:
lexing, parsing, binding and planning are skipped entirely.  This bench
measures that saving on a representative analytical workload over a
small table, where per-statement preparation dominates execution.
"""

import time

from repro.sqldb import Database

from harness import print_table

REPEATS = 30

#: analytic statements heavy on expressions (parse/plan bound on small data)
WORKLOAD = [
    (
        "SELECT g, count(*) AS c, count(n) FILTER (WHERE n > 25) AS big, "
        "count(n) FILTER (WHERE n <= 25) AS small, "
        "sum(n) AS total, sum(n) FILTER (WHERE n % 2 = 0) AS even_total, "
        "min(n) AS lo, max(n) AS hi, avg(n) AS mean, "
        "max(n) - min(n) AS spread, avg(n * n) - avg(n) * avg(n) AS var "
        "FROM t WHERE n IS NOT NULL GROUP BY g ORDER BY g NULLS LAST"
    ),
    (
        "SELECT CASE WHEN n < 5 THEN 'xs' WHEN n < 10 THEN 's' "
        "WHEN n < 20 THEN 'm' WHEN n < 30 THEN 'l' WHEN n < 40 THEN 'xl' "
        "ELSE 'xxl' END AS bucket, count(*) AS c, sum(n) AS total, "
        "avg(n) AS mean, min(n) AS lo, max(n) AS hi "
        "FROM t GROUP BY CASE WHEN n < 5 THEN 'xs' WHEN n < 10 THEN 's' "
        "WHEN n < 20 THEN 'm' WHEN n < 30 THEN 'l' WHEN n < 40 THEN 'xl' "
        "ELSE 'xxl' END ORDER BY bucket"
    ),
    (
        "WITH stats AS (SELECT g, avg(n) AS mean, min(n) AS lo, "
        "max(n) AS hi, count(*) AS c FROM t GROUP BY g) "
        "SELECT t.g, t.n - stats.mean AS centered, "
        "(t.n - stats.lo) / (stats.hi - stats.lo + 1) AS scaled, "
        "stats.c AS group_size FROM t "
        "INNER JOIN stats ON t.g = stats.g "
        "ORDER BY t.g, t.n NULLS FIRST"
    ),
    (
        "SELECT g || '-' || (n / 10) AS cohort, count(*) AS c, "
        "sum(CASE WHEN n % 3 = 0 THEN 1 ELSE 0 END) AS div3, "
        "sum(CASE WHEN n % 5 = 0 THEN 1 ELSE 0 END) AS div5 "
        "FROM t WHERE n IS NOT NULL GROUP BY g || '-' || (n / 10) "
        "ORDER BY cohort"
    ),
    (
        "SELECT g, n, row_number() OVER (PARTITION BY g ORDER BY n) AS rank "
        "FROM t WHERE n IS NOT NULL AND n > 2 AND n < 48 "
        "AND g IN ('g0', 'g1', 'g2', 'g3', 'g4') ORDER BY g, n"
    ),
]


def _make_db(plan_cache_size: int) -> Database:
    db = Database("postgres", plan_cache_size=plan_cache_size)
    db.execute("CREATE TABLE t (g text, n int)")
    rows = ", ".join(
        f"('g{i % 5}', {(i * 37) % 50 if i % 11 else 'NULL'})"
        for i in range(32)
    )
    db.execute(f"INSERT INTO t VALUES {rows}")
    return db


def _run_workload(db: Database, repeats: int) -> list:
    results = []
    for _ in range(repeats):
        for sql in WORKLOAD:
            results.append(db.execute(sql).rows)
    return results


def _timed(db: Database, repeats: int) -> tuple[float, list]:
    started = time.perf_counter()
    results = _run_workload(db, repeats)
    return time.perf_counter() - started, results


def measure() -> dict:
    cold_db = _make_db(plan_cache_size=0)
    warm_db = _make_db(plan_cache_size=128)
    _run_workload(warm_db, 1)  # prime the cache
    cold_seconds, cold_results = _timed(cold_db, REPEATS)
    warm_seconds, warm_results = _timed(warm_db, REPEATS)
    return {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "identical": cold_results == warm_results,
        "stats": warm_db.plan_cache.stats,
    }


def test_warm_bench(benchmark):
    db = _make_db(plan_cache_size=128)
    _run_workload(db, 1)
    benchmark.pedantic(lambda: _run_workload(db, 1), rounds=10, iterations=1)


def test_cold_bench(benchmark):
    db = _make_db(plan_cache_size=0)
    benchmark.pedantic(lambda: _run_workload(db, 1), rounds=10, iterations=1)


def test_report_plan_cache(capsys):
    outcome = measure()
    assert outcome["identical"], "cold and warm runs must return the same rows"
    assert outcome["speedup"] >= 2.0, (
        f"warm runs expected >=2x faster, got {outcome['speedup']:.2f}x"
    )
    with capsys.disabled():
        print_table(
            "Plan cache: repeated statement execution (s)",
            ["statements", "cold (s)", "warm (s)", "speedup", "hit rate"],
            [
                [
                    len(WORKLOAD) * REPEATS,
                    outcome["cold_seconds"],
                    outcome["warm_seconds"],
                    f"{outcome['speedup']:.1f}x",
                    "{hits}/{hits_and_misses}".format(
                        hits=outcome["stats"]["hits"],
                        hits_and_misses=outcome["stats"]["hits"]
                        + outcome["stats"]["misses"],
                    ),
                ]
            ],
        )
