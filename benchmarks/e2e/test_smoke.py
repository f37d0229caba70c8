"""Smoke test of the benchmark itself (run as ``pytest benchmarks/e2e -q``;
outside tier-1's ``testpaths``).  Drives ``run.py --quick`` and checks the
report's shape, not its numbers."""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(*arguments):
    return subprocess.run(
        RUN + list(arguments), capture_output=True, text=True, cwd=ROOT
    )


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def results():
    done = run("--quick", "--traced", "--seed", "5")
    assert done.returncode == 0, done.stdout + done.stderr
    with open(os.path.join(HERE, "out", "results.json")) as handle:
        return json.load(handle)


def test_every_named_metric_is_reported(contract, results):
    assert results["claim"] is None
    assert set(results["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, entry in results["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 1, name
        for group in ("end_to_end", "per_layer"):
            for metric in contract[group]:
                cell = entry[group][metric["name"]]
                assert cell["unit"] == metric["unit"], (name, metric["name"])
                assert math.isfinite(cell["value"]), (name, metric["name"])
        for metric in contract["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0
        assert entry["per_layer"]["trace.coverage"]["value"] >= 0.90, name


def test_layers_separate_the_workloads(results):
    layers = {name: e["per_layer"] for name, e in results["workloads"].items()}
    for name, metrics in layers.items():
        wire = metrics["sqldb.protocol.frames"]["value"]
        assert (wire > 0) == (name == "remote_small"), name
        python = metrics["paper.speedup_vs_python_x"]["value"]
        assert (python > 0) == (name == "inspect_matview_1e4"), name
        recovery = metrics["oltp.recovery_cpu_s"]["value"]
        assert (recovery > 0) == (name == "oltp_autocommit"), name
    oltp = layers["oltp_autocommit"]
    assert (
        oltp["sqldb.catalog.append_us_per_row_last_decile"]["value"]
        > oltp["sqldb.catalog.append_us_per_row_first_decile"]["value"]
    )


@pytest.mark.parametrize("workload", ["inspect_matview_1e4", "oltp_autocommit"])
def test_a_wrong_output_fails_the_run(workload):
    """One corrupted histogram / one dropped acknowledged row must turn the
    run red and name the first divergence."""
    done = run("--workload", workload, "--quick", "--corrupt-check")
    assert done.returncode != 0
    assert json.loads(done.stdout.strip().rsplit("\n", 1)[-1])["correct"] is False
    assert "first failure" in done.stderr


def test_changed_inputs_are_refused(monkeypatch, tmp_path, capsys):
    """Generators that no longer reproduce pins.json stop the run before any
    result is printed."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import run as runner
    import workloads

    monkeypatch.setattr(workloads, "PIN_SEED", workloads.PIN_SEED + 1)
    with pytest.raises(SystemExit):
        runner.verify_pins(workloads, str(tmp_path / "pins"))
    assert "pin mismatch" in capsys.readouterr().err
