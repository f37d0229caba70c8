"""TRAIN-statement benchmark: in-SQL training vs the numpy trainers.

Times the three TRAIN estimators against their ``repro.learn``
counterparts on the same synthetic data:

* **logistic** — full-batch gradient descent, one aggregate query per
  iteration (``tol = 0`` pins the iteration count so the per-iteration
  query time is well defined),
* **linear** — the same loop with the squared-error gradient,
* **tree** — JoinBoost-style growth, one ``GROUP BY`` histogram query
  per (node, feature).

Every timed run is first checked *differential*: the SQL-trained
coefficients must match numpy to 1e-6 (trees must be structurally
identical).  The headline numbers are the per-iteration aggregate-query
time and the end-to-end slowdown of pushing training into SQL.

Results go to ``BENCH_train.json``.

Scale control
-------------
``REPRO_BENCH_TRAIN_ROWS``  training-set size (default ``4000``).
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from harness import print_table
from repro.learn import (
    DecisionTreeClassifier,
    LinearRegression,
    LogisticRegression,
)
from repro.sqldb import Database

REPEATS = 3
OUT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_train.json")

N_FEATURES = 4
LINEAR_ITERS = 30
TREE_DEPTH = 4


def _n_rows() -> int:
    return int(os.environ.get("REPRO_BENCH_TRAIN_ROWS", "4000"))


def _make_data(n_rows: int):
    """Bounded features (gradient descent stays stable at lr 0.5/0.05)
    plus a learnable 0/1 label."""
    rng = np.random.default_rng(90125)
    X = rng.uniform(-1.0, 1.0, (n_rows, N_FEATURES))
    z = 1.4 * X[:, 0] - 1.1 * X[:, 1] + 0.7 * X[:, 2] - 0.3 * X[:, 3]
    y = (z + rng.normal(0.0, 0.5, n_rows) > 0.1).astype(float)
    return X, y


def _make_database(X, y) -> Database:
    db = Database(optimize=True)
    columns = ", ".join(f"f{j} double precision" for j in range(N_FEATURES))
    db.execute(f"CREATE TABLE train_data ({columns}, label double precision)")
    db.catalog.table("train_data").append_columns(
        {
            **{f"f{j}": X[:, j].tolist() for j in range(N_FEATURES)},
            "label": y.tolist(),
        },
        len(y),
    )
    db.catalog.bump_version()
    db.analyze()
    return db


_SELECT = "SELECT " + ", ".join(f"f{j}" for j in range(N_FEATURES)) + (
    ", label FROM train_data"
)

_WORKLOADS = [
    {
        "name": "logistic-gd",
        "train": (
            f"TRAIN bm USING ({_SELECT}) WITH (estimator = "
            f"'logistic_regression', max_iter = {LINEAR_ITERS}, lr = 0.5, "
            "tol = 0.0)"
        ),
        "numpy": lambda X, y: LogisticRegression(
            max_iter=LINEAR_ITERS, learning_rate=0.5, tol=0.0
        ).fit(X, y),
    },
    {
        "name": "linear-gd",
        "train": (
            f"TRAIN bm USING ({_SELECT}) WITH (estimator = "
            f"'linear_regression', max_iter = {LINEAR_ITERS}, lr = 0.05, "
            "tol = 0.0)"
        ),
        "numpy": lambda X, y: LinearRegression(
            max_iter=LINEAR_ITERS, learning_rate=0.05, tol=0.0
        ).fit(X, y),
    },
    {
        "name": "tree-growth",
        "train": (
            f"TRAIN bm USING ({_SELECT}) WITH (estimator = 'decision_tree', "
            f"max_depth = {TREE_DEPTH})"
        ),
        "numpy": lambda X, y: DecisionTreeClassifier(
            max_depth=TREE_DEPTH
        ).fit(X, y),
    },
]


def _time_train(db: Database, sql: str) -> tuple[float, object]:
    """Best-of-REPEATS wall time for one TRAIN (retraining replaces the
    model, so every repeat does the full loop); returns the final model."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        db.execute(sql)
        best = min(best, time.perf_counter() - started)
    return best, db.model("bm")


def _check_parity(workload: str, model, reference) -> float:
    """Max |coef diff| vs numpy (0.0 for a structurally equal tree)."""
    if model.estimator == "decision_tree":
        assert model.tree == reference.to_tuples(), (
            f"{workload}: SQL tree diverged from the numpy tree"
        )
        return 0.0
    diff = float(
        np.max(
            np.abs(np.asarray(model.coef) - reference.coef_),
            initial=abs(model.intercept - reference.intercept_),
        )
    )
    assert diff <= 1e-6, f"{workload}: coefficient drift {diff:.3e} > 1e-6"
    return diff


def run_sweep(n_rows=None) -> dict:
    n_rows = n_rows or _n_rows()
    X, y = _make_data(n_rows)
    db = _make_database(X, y)
    results = []
    try:
        for workload in _WORKLOADS:
            numpy_best = float("inf")
            for _ in range(REPEATS):
                started = time.perf_counter()
                reference = workload["numpy"](X, y)
                numpy_best = min(numpy_best, time.perf_counter() - started)
            sql_best, model = _time_train(db, workload["train"])
            drift = _check_parity(workload["name"], model, reference)
            # n_iter counts GD iterations (linear) or nodes grown (tree);
            # either way it is the number of query round-trips per feature
            # block, so seconds/n_iter is the per-iteration query cost
            results.append(
                {
                    "workload": workload["name"],
                    "rows": n_rows,
                    "features": N_FEATURES,
                    "iterations": model.n_iter,
                    "sql_seconds_best": sql_best,
                    "iteration_seconds_best": sql_best / model.n_iter,
                    "numpy_seconds_best": numpy_best,
                    "slowdown_vs_numpy": sql_best / numpy_best,
                    "coef_max_abs_diff": drift,
                }
            )
    finally:
        db.close()
    return {
        "benchmark": "bench_train",
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "n_rows": n_rows,
        "repeats": REPEATS,
        "results": results,
    }


def write_report(report: dict, path: str = OUT_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def _print_report(report: dict) -> None:
    print_table(
        f"TRAIN vs numpy (rows={report['n_rows']})",
        [
            "workload",
            "iters",
            "sql (s)",
            "s/iter",
            "numpy (s)",
            "slowdown",
        ],
        [
            [
                entry["workload"],
                entry["iterations"],
                entry["sql_seconds_best"],
                entry["iteration_seconds_best"],
                entry["numpy_seconds_best"],
                f"{entry['slowdown_vs_numpy']:.0f}x",
            ]
            for entry in report["results"]
        ],
    )
    print(f"wrote {OUT_PATH}")


def test_train_bench_smoke():
    """Cheap correctness gate: tiny sweep, parity must hold throughout."""
    report = run_sweep(n_rows=300)
    assert len(report["results"]) == len(_WORKLOADS)
    assert all(e["coef_max_abs_diff"] <= 1e-6 for e in report["results"])


def test_report_train(capsys):
    report = run_sweep()
    write_report(report)
    with capsys.disabled():
        _print_report(report)
    assert all(e["iterations"] > 0 for e in report["results"])


def main() -> None:
    report = run_sweep()
    write_report(report)
    _print_report(report)


if __name__ == "__main__":
    main()
