"""Figure 11 — runtime vs number of inspected columns (NYC taxi).

One selection (``passenger_count > 1``) over the taxi data while the
number of inspected sensitive columns grows from 1 to 5.  The paper's
shape: the PostgreSQL CTE mode grows linearly with the column count (each
inspection query re-runs the whole chain), the VIEW mode grows more slowly
(holistic optimisation), Umbra's modes coincide.  Here every histogram is
an arm of one statement that runs the chain once, so a column adds arms,
not chain executions (DESIGN.md §6).
"""

import pytest

from harness import bench_sizes, print_table, run_once

COLUMNS = [
    "passenger_count",
    "trip_distance",
    "PULocationID",
    "DOLocationID",
    "payment_type",
]
BACKENDS = ["python", "postgres-cte", "postgres-view", "umbra-cte", "umbra-view"]


def _taxi_size() -> int:
    return max(bench_sizes()[-1], 1000)


@pytest.mark.parametrize("n_columns", [1, 3, 5])
@pytest.mark.parametrize("backend", BACKENDS)
def test_fig11_benchmark(benchmark, n_columns, backend):
    size = _taxi_size()

    def run():
        run_once(
            "taxi", size, "pandas", backend,
            with_inspection=True, sensitive=COLUMNS[:n_columns],
        )

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_report_fig11(capsys):
    size = _taxi_size()
    rows = []
    for n_columns in range(1, len(COLUMNS) + 1):
        row = [n_columns]
        for backend in BACKENDS:
            outcome = run_once(
                "taxi", size, "pandas", backend,
                with_inspection=True, sensitive=COLUMNS[:n_columns],
            )
            row.append(outcome.seconds)
        rows.append(row)
    with capsys.disabled():
        print_table(
            f"Figure 11: runtime vs #inspected columns, taxi, {size} tuples (s)",
            ["#columns"] + BACKENDS,
            rows,
        )
