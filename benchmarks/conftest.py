"""Make the harness importable from the bench modules."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--check-bench",
        action="store_true",
        default=False,
        help=(
            "enable the benchmark regression gate (check_bench.py): "
            "fails when a fresh BENCH_*.json timing is >20% slower than "
            "its committed baseline"
        ),
    )
