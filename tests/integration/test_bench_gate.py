"""The benchmark regression gate must read the keys the benches write."""

import importlib.util
import os

_CHECK_BENCH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "check_bench.py"
)


def _load_check_bench():
    spec = importlib.util.spec_from_file_location("check_bench", _CHECK_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_server_latency_keys_are_gated():
    """``bench_server`` writes ``p50_s``/``p95_s``; a 2x p50 regression
    trips the gate, the unchanged p95 does not."""
    check_bench = _load_check_bench()
    baseline = {"latency": {"p50_s": 0.001, "p95_s": 0.002}}
    current = {"latency": {"p50_s": 0.002, "p95_s": 0.002}}
    assert check_bench.find_regressions(baseline, current) == [
        ("latency.p50_s", 0.001, 0.002)
    ]


def test_recovery_keys_are_gated():
    """``bench_durability`` writes ``replay_seconds_best`` and
    ``from_checkpoint_seconds_best``; a 2x replay regression trips the
    gate, the unchanged checkpoint load does not."""
    check_bench = _load_check_bench()
    baseline = {
        "recovery": {
            "replay_seconds_best": 0.2,
            "from_checkpoint_seconds_best": 0.01,
        }
    }
    current = {
        "recovery": {
            "replay_seconds_best": 0.4,
            "from_checkpoint_seconds_best": 0.01,
        }
    }
    assert check_bench.find_regressions(baseline, current) == [
        ("recovery.replay_seconds_best", 0.2, 0.4)
    ]
