"""Multi-session concurrency benchmark: MVCC throughput and fairness.

Three parts, all written to ``BENCH_concurrency.json``:

* **writes** — committed-transaction throughput as the number of
  concurrent sessions grows (each session runs short randomized
  INSERT transactions against a few shared tables through the
  client-side retry loop).  Reports commits/s plus the serialization-
  failure and deadlock retry rates — the cost of optimistic
  first-committer-wins under rising contention.
* **reads** — read-only throughput vs session count over one shared
  table.  Snapshot reads take no table locks, so this should scale with
  threads until the GIL flattens it; it is the no-regression check that
  the lock manager stays off the read path.
* **fairness** — a writer racing a saturated stream of readers on the
  catalog latch.  Reports the writer's acquisition latency; under the
  old readers-preference latch this number diverged (starvation), under
  the writer-preference latch it stays near one reader hold time.

Scale control
-------------
``REPRO_BENCH_CONCURRENCY_TXNS``  transactions per session per
configuration (default ``30``).
"""

from __future__ import annotations

import json
import os
import platform
import random
import threading
import time

from harness import print_table
from repro.sqldb.client import retry_backoff
from repro.sqldb.engine import Database

OUT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_concurrency.json")

SESSION_COUNTS = (1, 2, 4, 8)
TABLES = ("alpha", "beta", "gamma")


def _txns_per_session() -> int:
    return int(os.environ.get("REPRO_BENCH_CONCURRENCY_TXNS", "30"))


def _make_db() -> Database:
    db = Database("umbra")
    for name in TABLES:
        db.execute(f"CREATE TABLE {name} (tag text, val int)")
    return db


# -- writes: commit throughput and retry rates vs session count ---------------


def run_write_sweep(txns: int) -> dict:
    results = []
    for n_sessions in SESSION_COUNTS:
        db = _make_db()
        retries = {"40001": 0, "40P01": 0, "57014": 0}
        mutex = threading.Lock()
        barrier = threading.Barrier(n_sessions + 1)

        def worker(wid: int) -> None:
            rng = random.Random(wid)
            session = db.session()
            barrier.wait()
            try:
                for t in range(txns):
                    tables = rng.sample(TABLES, k=rng.choice((1, 1, 2)))

                    def attempt() -> None:
                        session.begin()
                        for i, table in enumerate(tables):
                            session.execute(
                                f"INSERT INTO {table} (tag, val) "
                                f"VALUES ('w{wid}t{t}', {i})"
                            )
                        session.commit()

                    def on_retry(_i, exc) -> None:
                        with mutex:
                            retries[exc.sqlstate] += 1
                        db.rollback(session=session)

                    retry_backoff(
                        attempt,
                        attempts=20,
                        base_delay=0.001,
                        max_delay=0.05,
                        rng=rng,
                        on_retry=on_retry,
                    )
            finally:
                session.close()

        threads = [
            threading.Thread(target=worker, args=(wid,))
            for wid in range(n_sessions)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        commits = n_sessions * txns
        total_retries = sum(retries.values())
        db.close()
        results.append(
            {
                "sessions": n_sessions,
                "commits": commits,
                "seconds": elapsed,
                "commits_per_s": commits / elapsed,
                "retries": dict(retries),
                "retry_rate": total_retries / commits,
            }
        )
    return {"txns_per_session": txns, "results": results}


# -- reads: snapshot SELECT throughput vs session count -----------------------


def run_read_sweep(txns: int) -> dict:
    db = _make_db()
    db.executemany(
        "INSERT INTO alpha (tag, val) VALUES (?, ?)",
        [(f"t{i % 17}", i % 251) for i in range(2000)],
    )
    query = (
        "SELECT tag, count(*) AS c, sum(val) AS s FROM alpha "
        "GROUP BY tag ORDER BY tag"
    )
    results = []
    for n_sessions in SESSION_COUNTS:
        barrier = threading.Barrier(n_sessions + 1)

        def worker() -> None:
            session = db.session()
            barrier.wait()
            try:
                for _ in range(txns):
                    session.execute(query)
            finally:
                session.close()

        threads = [
            threading.Thread(target=worker) for _ in range(n_sessions)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        queries = n_sessions * txns
        results.append(
            {
                "sessions": n_sessions,
                "queries": queries,
                "seconds": elapsed,
                "queries_per_s": queries / elapsed,
            }
        )
    db.close()
    return {"query": query, "queries_per_session": txns, "results": results}


# -- fairness: writer latency under a saturated reader stream -----------------


def run_fairness_probe(n_probes: int = 10) -> dict:
    db = _make_db()
    db.executemany(
        "INSERT INTO alpha (tag, val) VALUES (?, ?)",
        [(f"t{i % 17}", i) for i in range(500)],
    )
    stop = threading.Event()

    def reader_stream() -> None:
        session = db.session()
        try:
            while not stop.is_set():
                session.execute("SELECT count(*) FROM alpha")
        finally:
            session.close()

    readers = [
        threading.Thread(target=reader_stream, daemon=True) for _ in range(4)
    ]
    for thread in readers:
        thread.start()
    time.sleep(0.1)  # saturate the read side before probing

    latencies = []
    writer = db.session()
    try:
        for i in range(n_probes):
            started = time.perf_counter()
            writer.execute(f"INSERT INTO beta (tag, val) VALUES ('p', {i})")
            latencies.append(time.perf_counter() - started)
            time.sleep(0.01)
    finally:
        writer.close()
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
        db.close()
    latencies.sort()
    return {
        "readers": len(readers),
        "probes": n_probes,
        "writer_latency_median_s": latencies[len(latencies) // 2],
        "writer_latency_max_s": latencies[-1],
        "starved": latencies[-1] > 5.0,
    }


# -- report -------------------------------------------------------------------


def run_sweep(txns: int | None = None) -> dict:
    txns = txns or _txns_per_session()
    return {
        "benchmark": "bench_concurrency",
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "writes": run_write_sweep(txns),
        "reads": run_read_sweep(txns),
        "fairness": run_fairness_probe(),
    }


def write_report(report: dict, path: str = OUT_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def main() -> None:
    report = run_sweep()
    write_report(report)
    print_table(
        f"write transactions, {report['writes']['txns_per_session']} per session",
        ["sessions", "commits/s", "retry rate", "40001", "40P01"],
        [
            [
                r["sessions"],
                r["commits_per_s"],
                r["retry_rate"],
                r["retries"]["40001"],
                r["retries"]["40P01"],
            ]
            for r in report["writes"]["results"]
        ],
    )
    print_table(
        "snapshot reads (no table locks)",
        ["sessions", "queries/s"],
        [
            [r["sessions"], r["queries_per_s"]]
            for r in report["reads"]["results"]
        ],
    )
    fair = report["fairness"]
    print_table(
        f"writer vs {fair['readers']} streaming readers (latch fairness)",
        ["median s", "max s", "starved"],
        [[
            fair["writer_latency_median_s"],
            fair["writer_latency_max_s"],
            fair["starved"],
        ]],
    )
    print(f"\nwrote {OUT_PATH}")


if __name__ == "__main__":
    main()
