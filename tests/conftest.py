"""Shared pytest configuration.

``--fuzz-rounds N`` raises the number of generated queries per
differential-fuzz test (see ``tests/sqldb/test_fuzz_differential.py``).
``--fault-rounds N`` raises the number of randomized workloads per
crash-recovery property test (see ``tests/sqldb/test_faults.py``).
``--stress-rounds N`` raises the number of randomized concurrent rounds
per MVCC chaos-stress test (see ``tests/sqldb/test_stress_concurrency.py``).
``--memory-rounds N`` raises the number of randomized queries per
memory-governor spill-differential test (see
``tests/sqldb/test_memory.py``).
The defaults keep these suites inside the tier-1 time budget; CI's
long-run job passes a few hundred rounds.
"""

import glob
import os
import tempfile

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-rounds",
        action="store",
        type=int,
        default=None,
        help="generated queries per differential-fuzz test "
        "(default: a small tier-1 budget)",
    )
    parser.addoption(
        "--fault-rounds",
        action="store",
        type=int,
        default=None,
        help="randomized workloads per crash-recovery property test "
        "(default: a small tier-1 budget)",
    )
    parser.addoption(
        "--stress-rounds",
        action="store",
        type=int,
        default=None,
        help="randomized concurrent rounds per MVCC chaos-stress test "
        "(default: a small tier-1 budget)",
    )
    parser.addoption(
        "--memory-rounds",
        action="store",
        type=int,
        default=None,
        help="randomized queries per memory-governor spill-differential "
        "test (default: a small tier-1 budget)",
    )


def _spill_artifacts() -> list[str]:
    """Spill directories/files currently parked in the system temp dir."""
    pattern = os.path.join(tempfile.gettempdir(), "repro-spill-*")
    found: list[str] = []
    for path in glob.glob(pattern):
        found.append(path)
        if os.path.isdir(path):
            found.extend(
                os.path.join(path, name) for name in sorted(os.listdir(path))
            )
    return found


@pytest.fixture(autouse=True)
def _no_spill_leaks():
    """Fail any test that leaves memory-governor spill artifacts behind.

    Spill files must be reclaimed when the owning grant ends — including
    on cancellation and error paths — and spill directories when the
    broker closes.  Pre-existing artifacts (from a crashed earlier run)
    are tolerated but new ones are a leak.
    """
    before = set(_spill_artifacts())
    yield
    leaked = [path for path in _spill_artifacts() if path not in before]
    assert not leaked, f"test leaked spill artifacts: {leaked}"
