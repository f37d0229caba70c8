"""The repo's one benchmark: end-to-end metrics per workload, per-layer trace.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one workload in this process; the last line of stdout is the JSON
        result (``--trace 0``: end-to-end metrics, ``--trace 1``: per-layer)
    python3 benchmarks/e2e/run.py --seed N [--traced] [--quick]
        every workload, each in its own subprocess (so peak RSS is per
        workload); prints every metric and writes out/results.json
    python3 benchmarks/e2e/run.py --selfcheck
        the untraced set twice; fails unless set B is within every bound of A

Metric names, units, bounds and workload names are read from
``BENCHMARK.json``; see README.md for what each workload stresses.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, process_time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
SETUP_ROUNDS = 5
MIN_SAMPLES = 5
MIN_TRACED_SAMPLES = 3


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one workload, in this process ------------------------------------------------


def verify_pins(workloads, scratch: str) -> None:
    with open(os.path.join(HERE, "pins.json")) as handle:
        pinned = json.load(handle)["pins"]
    actual = workloads.compute_pins(scratch)
    if actual == pinned:
        return
    for group, value in actual.items():
        items = value.items() if isinstance(value, dict) else [("", value)]
        for key, digest in items:
            was = pinned[group][key] if key else pinned[group]
            if digest != was:
                print(f"pin mismatch: {group} {key} is {digest}, pinned {was}",
                      file=sys.stderr)
    sys.exit(
        "the generated inputs differ from benchmarks/e2e/pins.json: the load "
        "changed, so no result is reported (see README.md, 'Input pinning')"
    )


def setup_round(workload) -> list[tuple]:
    with workload.timed():
        workload.start()
    return workload.take_segments()


def measure(workload, seconds: float, min_samples: int, rounds: int, recorder):
    """Run iterations until the clock budget and the sample floor are met,
    and a set-up round at each *rounds*-th of the budget (the workload
    arrives started: that was the first round).

    A traced run alternates a recorded iteration, the workload's twin
    iteration and a plain one, so overhead, wire tax and the Python baseline
    come out of one process."""
    plain: list[list] = []
    traced: list[list] = []
    twins: list[list] = []
    setups: list[list] = []
    began = perf_counter()
    while len(plain) < min_samples or perf_counter() < began + seconds:
        due = (len(setups) + 1) * seconds / rounds
        if len(setups) + 1 < rounds and perf_counter() - began > due:
            workload.stop()
            setups.append(setup_round(workload))
        if recorder is not None:
            gc.collect()
            traced.append(workload.iteration(recorder))
            gc.collect()
            twin = workload.twin_iteration(recorder)
            if twin is not None:
                twins.append(twin)
        gc.collect()
        plain.append(workload.iteration(None))
    return plain, traced, twins, setups


CPU, WALL = 0, 1


def quiet(samples, clock: int = CPU) -> list[float]:
    """Per segment, the least time it took in any sample.

    The sandbox's noise only ever adds time, for seconds at a stretch
    (README.md, "Clock and estimator"): the same code runs 1.0x, 1.3x or 1.5x
    slower depending on what the host's other tenants do.  A run's samples
    are spread over the whole run, and each segment is a few milliseconds
    long, so its minimum is almost always taken in a quiet moment; a mean or
    a median of whole iterations is not."""
    return [
        min(sample[i][clock] for sample in samples if i < len(sample))
        for i in range(max(map(len, samples)))
    ]


def end_to_end(workload, setups, plain) -> dict[str, float]:
    segments = quiet(plain)
    return {
        "setup_s": sum(quiet(setups)),
        "op_cpu_ms": workload.op_seconds(segments) * 1e3,
        "ops_per_cpu_s": workload.ops_per_iteration / sum(segments),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, summary, twin, plain, traced, twins, setup):
    """Every per-layer metric, per traced iteration (0 where a layer does
    not run on this workload); *twin* sums the twin iterations' spans."""
    n = workload.traced_iterations
    twin_n = max(workload.twin_iterations, 1)
    wall = workload.traced_wall
    counters = workload.counters

    def layer(name):
        return summary.layer_self(name) / n

    def own(span):
        return summary.self_by_name.get(span, 0.0) / n

    def inclusive(*names):
        return sum(summary.inclusive_s.get(name, 0.0) for name in names) / n

    def counted(span, key, on_main=None):
        return summary.count(span, key, on_main) / n

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    runs = ("DBConnector.run", "RemoteConnector.run")
    frontend = sum(
        layer(name) for name in
        ("sqldb.lexer", "sqldb.parser", "sqldb.planner", "sqldb.optimizer")
    )
    metrics = {
        "inspection.self_s": layer("inspection"),
        "inspection.checks_s": layer("inspection.checks"),
        "inspection.python_tracker_s":
            twin.layer_self("inspection.python_tracker") / twin_n,
        "python.read_csv_s": twin.layer_self("frame.read_csv") / twin_n,
        "frame.read_csv_s": layer("frame.read_csv"),
        "core.sql_backend.self_s": layer("core.sql_backend"),
        "core.sql_backend.blocks": counters.get("blocks", 0) / n,
        "core.sql_backend.inspection_queries":
            counters.get("inspection_queries", 0) / n,
        "core.sql_backend.sql_bytes": sum(counted(r, "sql_bytes") for r in runs),
        "core.connectors.self_s": layer("core.connectors"),
        "core.connectors.run_s": inclusive(*runs),
        "core.connectors.retries": counters.get("retries", 0) / n,
        "sqldb.lexer.self_s": layer("sqldb.lexer"),
        "sqldb.lexer.tokens": counted("lexer:tokenize", "tokens"),
        "sqldb.parser.self_s": layer("sqldb.parser"),
        "sqldb.parser.statements": counted("parser:parse_script", "statements"),
        "sqldb.planner.self_s": layer("sqldb.planner"),
        "sqldb.optimizer.self_s": layer("sqldb.optimizer"),
        "sqldb.frontend.share": ratio(frontend * n, wall),
        "sqldb.engine.self_s": layer("sqldb.engine"),
        "sqldb.engine.plan_cache_hit_ratio": ratio(
            counters.get("plan_cache_hits", 0),
            counters.get("plan_cache_hits", 0)
            + counters.get("plan_cache_misses", 0),
        ),
        "sqldb.dbapi.self_s": layer("sqldb.dbapi"),
        "sqldb.executor.self_s": layer("sqldb.executor"),
        "result_fetch.s": layer("result_fetch"),
        "result_fetch.rows": counted("engine:_batch_to_result", "rows"),
    }
    for kind in spans.OPERATOR_KINDS:
        for suffix in ("_s", "_rows"):
            metrics[f"sqldb.executor.{kind}{suffix}"] = counted(
                "executor:execute_plan", kind + suffix
            )
    metrics["sqldb.executor.rows_scanned_per_result_row"] = ratio(
        counted("executor:execute_plan", "scan_rows"),
        counted("executor:execute_plan", "result_rows"),
    )

    copy_s = counters.get("copy_s", 0.0) / n
    appends = summary.by_name.get("Table.append_rows", [])

    def append_us_per_row(last: bool) -> float:
        # spans are kept in time order, so within one traced pass the first
        # and last tenth of the inserts see the smallest and largest table
        costs = []
        for group in by_iteration(appends):
            tenth = max(len(group) // 10, 1)
            chunk = group[-tenth:] if last else group[:tenth]
            rows = sum(span[8]["rows"] for span in chunk)
            costs.append(sum(span[7] - span[6] for span in chunk) * 1e6 / rows)
        return statistics.mean(costs) if costs else 0.0

    wal_bytes = counters.get("wal_bytes", 0)
    metrics.update({
        "sqldb.catalog.copy_s": copy_s,
        "sqldb.catalog.copy_rows_per_s":
            ratio(counted("Table.append_columns", "rows"), copy_s),
        "sqldb.catalog.matview_store_s": counters.get("matview_store_s", 0.0) / n,
        "sqldb.catalog.append_s": inclusive("Table.append_rows"),
        "sqldb.catalog.append_rows": counted("Table.append_rows", "rows"),
        "sqldb.catalog.index_refresh_s": inclusive("Catalog.refresh_indexes"),
        "sqldb.catalog.index_refresh_count":
            summary.calls.get("Catalog.refresh_indexes", 0) / n,
        "sqldb.catalog.snapshot_s": inclusive("Catalog.snapshot"),
        "sqldb.catalog.append_us_per_row_first_decile": append_us_per_row(False),
        "sqldb.catalog.append_us_per_row_last_decile": append_us_per_row(True),
        "sqldb.wal.append_s": inclusive("WriteAheadLog.append"),
        "sqldb.wal.sync_s": inclusive("WriteAheadLog.commit_sync"),
        "sqldb.wal.read_s": twin.inclusive_s.get("wal:read_wal", 0.0) / twin_n,
        "sqldb.wal.replay_s": (
            twin.inclusive_s.get("Database.__init__", 0.0) / twin_n
            if "wal:read_wal" in twin.calls else 0.0
        ),
        "sqldb.wal.bytes": wal_bytes / n,
        "sqldb.wal.bytes_per_commit":
            ratio(wal_bytes, counters.get("wal_commits", 0)),
        "sqldb.protocol.encode_s": own("protocol:encode_frame"),
        "sqldb.protocol.decode_s": own("protocol:recv_frame"),
        "sqldb.protocol.frames": summary.calls.get("protocol:encode_frame", 0) / n,
        "sqldb.protocol.bytes_out":
            counted("protocol:encode_frame", "bytes", on_main=True),
        "sqldb.protocol.bytes_in":
            counted("protocol:encode_frame", "bytes", on_main=False),
        "sqldb.server.dispatch_s": layer("sqldb.server"),
        "sqldb.client.self_s": layer("sqldb.client"),
        "sqldb.client.wait_s": summary.self_s.get((spans.WAIT, True), 0.0) / n,
    })
    plain_op = workload.op_seconds(quiet(plain))
    twin_s = {workload.twin: sum(quiet(twins))} if twins else {}
    metrics.update({
        "wire.tax_x": plain_op / twin_s["sql"] if "sql" in twin_s else 0.0,
        "python.op_cpu_ms": twin_s.get("python", 0.0) * 1e3,
        "paper.speedup_vs_python_x": twin_s.get("python", 0.0) / plain_op,
        "oltp.recovery_cpu_s": twin_s.get("recovery", 0.0),
    })
    for pipeline in ("healthcare", "compas", "adult_simple", "adult_complex"):
        times = getattr(workload, "pipeline_times", {}).get(pipeline)
        metrics[f"pipeline.{pipeline}.p50_s"] = (
            statistics.median(times) if times else 0.0
        )
    metrics["oltp.stmt_cpu_p99_ms"] = (
        statistics.quantiles(
            [segment[CPU] for sample in plain for segment in sample], n=100
        )[98] * 1e3
        if workload.ops_per_iteration > 1 else 0.0
    )
    wall_op = workload.op_seconds(quiet(plain, WALL))
    metrics.update({
        "wall.op_ms": wall_op * 1e3,
        "wall.over_cpu_x": wall_op / plain_op,
        "trace.coverage": summary.main_thread_self() / wall,
        "trace.overhead_x": workload.op_seconds(quiet(traced)) / plain_op,
        "trace.spans": summary.n_spans / n,
        **setup,
    })
    return metrics


def by_iteration(spans_of_one_name):
    groups: dict[int, list] = {}
    for span in spans_of_one_name:
        groups.setdefault(span[3], []).append(span)
    return groups.values()


def use_source_tree() -> None:
    """Make ``repro`` importable from this checkout's ``src/``."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"no program to measure: {ROOT}/src/repro is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def run_workload(args, contract) -> int:
    use_source_tree()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    # whatever the program itself puts in a temp dir stays in the checkout
    tempfile.tempdir = workdir
    try:
        return _run_workload(args, contract, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, contract, workdir: str) -> int:
    started = process_time()
    import workloads

    import_s = process_time() - started
    traced = bool(args.trace)
    quick = args.quick
    verify_pins(workloads, os.path.join(workdir, "pins"))
    workload = workloads.build(args.workload, args.seed, quick)
    recorder = None
    if traced:
        recorder = spans.Recorder()
        spans.install(recorder)

    start = process_time()
    workload.prepare(os.path.join(workdir, "inputs"))
    datagen_s = process_time() - start
    try:
        setups = [setup_round(workload)]
        workload.reference(args.corrupt_check)
        floor = 2 if quick else MIN_TRACED_SAMPLES if traced else MIN_SAMPLES
        plain, traced_samples, twins, later = measure(
            workload, args.seconds, floor, 1 if quick else SETUP_ROUNDS, recorder
        )
        setups += later
        workload.finish()
    finally:
        workload.stop()

    if traced:
        summary = spans.Summary(recorder)
        twin_summary = spans.Summary(recorder, twin=True)
        silent = spans.missing_calls(summary, workload.expected_calls)
        silent += spans.missing_calls(twin_summary, workload.expected_twin_calls)
        if silent:
            sys.exit(f"traced pass: no call recorded for {', '.join(silent)}")
        values = per_layer(
            workload, summary, twin_summary, plain, traced_samples, twins,
            {"setup.import_s": import_s, "setup.datagen_s": datagen_s},
        )
        spans.write_trace(
            recorder, os.path.join(OUT, f"trace_{args.workload}.json")
        )
        if values["trace.coverage"] < 0.90:
            sys.exit(
                f"traced pass: trace.coverage {values['trace.coverage']:.3f} "
                "is below 0.90: the wrappers miss part of the operation"
            )
        listed = contract["per_layer"]
    else:
        values = end_to_end(workload, setups, plain)
        listed = contract["end_to_end"]

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(plain)} samples of {workload.ops_per_iteration} operations, "
        f"{len(setups)} set-up rounds, "
        f"{workload.attempted} attempted, {workload.failed} failed"
    )
    metrics = {}
    for entry in listed:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<48} {entry['unit']:<8} {value:.6g}")
    if workload.failed:
        print(f"first failure: {workload.first_failure}", file=sys.stderr)
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 1 if workload.failed else 0


# -- every workload, one subprocess each ----------------------------------------------


def run_child(name: str, args, trace: int) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"workload {name} (trace {trace}) exited {done.returncode}")
    return json.loads(done.stdout.strip().rsplit("\n", 1)[-1])


def run_set(args, contract, traced: bool) -> dict:
    names = [w["name"] for w in contract["workloads"]]
    results: dict[str, dict] = {}
    for name in names:
        result = run_child(name, args, 0)
        entry = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": result["metrics"],
        }
        if traced:
            entry["per_layer"] = run_child(name, args, 1)["metrics"]
        results[name] = entry
        print(f"{name}: {entry['failed']} of {entry['attempted']} failed")
        for group in ("end_to_end", "per_layer"):
            for metric, cell in entry.get(group, {}).items():
                print(f"  {metric:<48} {cell['unit']:<8} {cell['value']:.6g}")
    return results


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def full_set(args, contract) -> int:
    results = run_set(args, contract, args.traced)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.json"), "w") as handle:
        json.dump({
            "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
            "machine": machine(), "claim": None,
            "workloads": results,
        }, handle, indent=1)
    return 0


def selfcheck(args, contract) -> int:
    """Two untraced sets of the same code must agree within the bounds."""
    first = run_set(args, contract, traced=False)
    second = run_set(args, contract, traced=False)
    failures = 0
    print(f"\n{'workload':<22} {'metric':<14} {'A':>12} {'B':>12} "
          f"{'B worse by':>11} {'bound':>6}")
    for name in first:
        if first[name]["failed"] or second[name]["failed"]:
            failures += 1
        for entry in contract["end_to_end"]:
            a = first[name]["end_to_end"][entry["name"]]["value"]
            b = second[name]["end_to_end"][entry["name"]]["value"]
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            verdict = "" if worse <= entry["bound"] else "  OUT OF BOUND"
            failures += bool(verdict)
            print(f"{name:<22} {entry['name']:<14} {a:>12.6g} {b:>12.6g} "
                  f"{worse:>+10.1%} {entry['bound']:>6.0%}{verdict}")
    return 1 if failures else 0


def write_pins() -> int:
    use_source_tree()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pins-", dir=OUT)
    document = {
        "seed": workloads.PIN_SEED,
        "rows": workloads.PIN_ROWS,
        "statements": workloads.PIN_STATEMENTS,
        "pins": workloads.compute_pins(scratch),
        "recorded_on": machine(),
    }
    with open(os.path.join(HERE, "pins.json"), "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="full set: add the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="10^3 rows, 400 statements, 2 samples: smoke only")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--corrupt-check", action="store_true",
                        help="damage the oracle; the run must exit non-zero")
    parser.add_argument("--write-pins", action="store_true",
                        help="re-record pins.json after a deliberate load change")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else contract["run_seconds"]
    if args.write_pins:
        return write_pins()
    if args.workload:
        return run_workload(args, contract)
    if args.selfcheck:
        return selfcheck(args, contract)
    return full_set(args, contract)


if __name__ == "__main__":
    sys.exit(main())
