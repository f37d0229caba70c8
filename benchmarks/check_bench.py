"""Benchmark regression gate: fresh BENCH_*.json vs committed baselines.

Compares every timing field of the working-tree benchmark reports against
the last committed version of the same file (``git show HEAD:<path>``)
and fails when a timing regressed by more than the threshold (default
20%).  Structure drift is tolerated: only paths present in both reports
are compared, so adding a benchmark group never trips the gate.

Run standalone::

    python benchmarks/check_bench.py [--threshold 0.2] [BENCH_foo.json ...]

or as an opt-in pytest gate (wired through ``conftest.py``)::

    pytest benchmarks/check_bench.py --check-bench

Timings on shared machines are noisy — the 20% bar plus best-of-repeats
in the benchmarks themselves keeps false alarms rare, but a genuine 2x
regression (say, an access path silently stops firing) is caught even
when the suite's correctness tests all still pass.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_THRESHOLD = 0.20

#: JSON keys holding seconds-scale timings (lower is better)
TIMING_KEYS = frozenset(
    {
        "seconds_best",
        "query_seconds_best",
        "seconds_noindex",
        "seconds_indexed",
        "p50_s",
        "p95_s",
        "sql_seconds_best",
        "iteration_seconds_best",
        "failover_seconds",
        "replay_seconds_best",
        "from_checkpoint_seconds_best",
    }
)


def committed_baseline(path: str) -> dict | None:
    """The last committed content of *path*, or None if never committed."""
    relative = os.path.relpath(path, os.path.dirname(BENCH_DIR))
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:{relative}"],
            cwd=os.path.dirname(BENCH_DIR),
            capture_output=True,
            check=True,
        ).stdout
    except (subprocess.CalledProcessError, OSError):
        return None
    try:
        return json.loads(blob)
    except json.JSONDecodeError:
        return None


def _walk_pairs(baseline, current, path=""):
    """Yield ``(json_path, old, new)`` for timing keys present in both."""
    if isinstance(baseline, dict) and isinstance(current, dict):
        for key in baseline.keys() & current.keys():
            here = f"{path}.{key}" if path else key
            if key in TIMING_KEYS:
                old, new = baseline[key], current[key]
                if isinstance(old, (int, float)) and isinstance(
                    new, (int, float)
                ):
                    yield here, float(old), float(new)
            else:
                yield from _walk_pairs(baseline[key], current[key], here)
    elif isinstance(baseline, list) and isinstance(current, list):
        for position, (old, new) in enumerate(zip(baseline, current)):
            yield from _walk_pairs(old, new, f"{path}[{position}]")


def find_regressions(
    baseline: dict, current: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[tuple[str, float, float]]:
    """``(path, old_seconds, new_seconds)`` for every tripped timing."""
    return [
        (path, old, new)
        for path, old, new in _walk_pairs(baseline, current)
        if old > 0 and new > old * (1.0 + threshold)
    ]


def check_reports(
    paths: list[str] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    out=sys.stdout,
) -> int:
    """Check each report; returns the total regression count."""
    paths = paths or sorted(glob.glob(os.path.join(BENCH_DIR, "BENCH_*.json")))
    tripped = 0
    for path in paths:
        name = os.path.basename(path)
        baseline = committed_baseline(path)
        if baseline is None:
            print(f"{name}: no committed baseline, skipped", file=out)
            continue
        with open(path) as handle:
            current = json.load(handle)
        regressions = find_regressions(baseline, current, threshold)
        if not regressions:
            print(f"{name}: ok", file=out)
            continue
        tripped += len(regressions)
        print(f"{name}: {len(regressions)} regression(s)", file=out)
        for json_path, old, new in regressions:
            print(
                f"  {json_path}: {old:.6f}s -> {new:.6f}s "
                f"(+{(new / old - 1.0) * 100.0:.0f}%)",
                file=out,
            )
    return tripped


def test_no_bench_regressions(request):
    """Opt-in gate: compare fresh reports against committed baselines."""
    if not request.config.getoption("--check-bench"):
        pytest.skip("pass --check-bench to enable the regression gate")
    tripped = check_reports()
    assert tripped == 0, f"{tripped} benchmark timing regression(s) > 20%"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="BENCH_*.json files")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed slowdown fraction before failing (default 0.20)",
    )
    args = parser.parse_args(argv)
    tripped = check_reports(args.paths or None, args.threshold)
    return 1 if tripped else 0


if __name__ == "__main__":
    sys.exit(main())
