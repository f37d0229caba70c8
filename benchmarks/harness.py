"""Shared benchmark harness for the paper's tables and figures.

Every bench module uses this to (a) generate/cache datasets at the
requested scale, (b) run a pipeline under one of the six measured
configurations, and (c) print paper-style result tables.

Scale control
-------------
``REPRO_BENCH_SIZES``  comma list of dataset sizes (default ``100,1000``;
the paper sweeps 10^2..10^6 — set ``100,1000,10000,100000,1000000`` to
reproduce the full sweep).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.connectors import PostgresqlConnector, UmbraConnector
from repro.datasets import (
    ensure_adult,
    ensure_compas,
    ensure_healthcare,
    ensure_taxi,
)
from repro.inspection import NoBiasIntroducedFor, PipelineInspector
from repro.pipelines import PIPELINE_BUILDERS

__all__ = [
    "ALL_BACKENDS",
    "BACKENDS_NO_PYTHON",
    "SENSITIVE_COLUMNS",
    "bench_sizes",
    "dataset_dir_for",
    "make_inspector",
    "print_table",
    "run_once",
]

#: measured configurations, in the paper's presentation order
ALL_BACKENDS = [
    "python",
    "postgres-cte",
    "postgres-view",
    "postgres-view-mat",
    "umbra-cte",
    "umbra-view",
]
BACKENDS_NO_PYTHON = ALL_BACKENDS[1:]

#: sensitive columns inspected per pipeline (the paper's choices)
SENSITIVE_COLUMNS = {
    "healthcare": ["race", "age_group"],
    "compas": ["sex", "race"],
    "adult_simple": ["race"],
    "adult_complex": ["race"],
    "taxi": ["passenger_count"],
}

_DEFAULT_SIZES = "100,1000"


def bench_sizes() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_SIZES", _DEFAULT_SIZES)
    return [int(part) for part in raw.split(",") if part.strip()]


def dataset_dir_for(pipeline: str, size: int, seed: int = 0) -> str:
    """Ensure the pipeline's dataset exists at *size* rows; return its dir."""
    if pipeline == "healthcare":
        paths = ensure_healthcare(size, seed)
        return os.path.dirname(paths["patients"])
    if pipeline == "compas":
        paths = ensure_compas(size, max(size // 4, 10), seed)
        return os.path.dirname(paths["train"])
    if pipeline in ("adult_simple", "adult_complex"):
        paths = ensure_adult(size, max(size // 4, 10), seed)
        return os.path.dirname(paths["train"])
    if pipeline == "taxi":
        return os.path.dirname(ensure_taxi(size, seed))
    raise ValueError(f"unknown pipeline {pipeline!r}")


def make_inspector(
    pipeline: str,
    size: int,
    upto: str,
    with_inspection: bool = False,
    sensitive: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> PipelineInspector:
    directory = dataset_dir_for(pipeline, size, seed)
    source = PIPELINE_BUILDERS[pipeline](directory, upto=upto)
    inspector = PipelineInspector.on_pipeline_from_string(
        source, filename=f"<{pipeline}>"
    )
    if with_inspection:
        columns = list(sensitive or SENSITIVE_COLUMNS[pipeline])
        inspector = inspector.add_check(NoBiasIntroducedFor(columns))
    return inspector


def _execute(inspector: PipelineInspector, backend: str):
    if backend == "python":
        return inspector.execute()
    engine, _, variant = backend.partition("-")
    connector = (
        PostgresqlConnector() if engine == "postgres" else UmbraConnector()
    )
    mode = "CTE" if variant.startswith("cte") else "VIEW"
    materialize = variant.endswith("mat")
    return inspector.execute_in_sql(
        dbms_connector=connector, mode=mode, materialize=materialize
    )


@dataclass
class RunOutcome:
    seconds: float
    result: Any = None


def run_once(
    pipeline: str,
    size: int,
    upto: str,
    backend: str,
    with_inspection: bool = False,
    sensitive: Optional[Sequence[str]] = None,
    keep_result: bool = False,
) -> RunOutcome:
    """One timed end-to-end run of a pipeline configuration."""
    inspector = make_inspector(
        pipeline, size, upto, with_inspection, sensitive
    )
    started = time.perf_counter()
    result = _execute(inspector, backend)
    elapsed = time.perf_counter() - started
    return RunOutcome(elapsed, result if keep_result else None)


def print_table(
    title: str,
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> None:
    """Print an aligned, paper-style results table."""
    rendered = [
        [f"{v:.3f}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [
        max(len(header[j]), *(len(r[j]) for r in rendered)) if rendered else len(header[j])
        for j in range(len(header))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(f"\n== {title}")
    print(line)
    print("-" * len(line))
    for row in rendered:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
