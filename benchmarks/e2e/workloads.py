"""The four workloads: their inputs, the operation each times, and its check.

Every workload is a closed loop with one client.  ``prepare`` generates the
inputs from the seed into a fresh directory; ``start`` starts the program and
runs one untimed warm-up operation (the runner times it as set-up);
``iteration`` runs the operations of one sample and checks their outputs; the
runner owns the clock budget.  Timed regions are cut into short *segments*
at marks (every SQL statement), so that the runner can take each segment from
the quietest moment the machine offered (README.md, "Clock and estimator").
Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter, process_time

from repro.core.connectors import (
    PostgresqlConnector,
    RemoteConnector,
    UmbraConnector,
)
from repro.datasets import generate_adult, generate_compas, generate_healthcare
from repro.inspection import (
    HistogramForColumns,
    NoBiasIntroducedFor,
    PipelineInspector,
)
from repro.pipelines import PIPELINE_BUILDERS
from repro.sqldb import dbapi
from repro.sqldb.engine import Database
from repro.sqldb.server import DatabaseServer

#: the paper's sensitive columns per pipeline
SENSITIVE = {
    "healthcare": ["race", "age_group"],
    "compas": ["sex", "race"],
    "adult_simple": ["race"],
    "adult_complex": ["race"],
}
#: the paper's original dataset sizes (Table 2)
PAPER_ROWS = {
    "healthcare": 889,
    "compas": 2167,
    "adult_simple": 9771,
    "adult_complex": 9771,
}

#: wrapper keys (see spans._targets) that must record calls when a
#: pipeline runs through the SQL engine, in-process or served
_SQL_CALLS = {
    "PipelineInspector.execute_in_sql", "NoBiasIntroducedFor.evaluate",
    "SQLBackend.hooks", "lexer:tokenize", "parser:parse_script",
    "Planner.plan_select", "optimizer:prune_plan", "executor:execute_plan",
    "engine:_batch_to_result", "Database.run_script", "Table.append_columns",
    "io:read_csv",
}
_WRITE_CALLS = {
    "Table.append_rows", "Catalog.refresh_indexes", "lexer:tokenize",
    "parser:parse_script",
}


# -- inputs ---------------------------------------------------------------------


def generate_pipeline_inputs(
    directory: str, rows: dict[str, int], seed: int
) -> dict[str, str]:
    """Write the CSVs each pipeline in *rows* reads; pipeline -> data dir."""
    dirs: dict[str, str] = {}
    for pipeline, n in rows.items():
        dataset = "adult" if pipeline.startswith("adult") else pipeline
        target = os.path.join(directory, f"{dataset}_{n}")
        dirs[pipeline] = target
        if os.path.isdir(target):
            continue  # adult_simple and adult_complex share one dataset
        if dataset == "healthcare":
            generate_healthcare(target, n, seed)
        elif dataset == "compas":
            generate_compas(target, n, max(n // 4, 10), seed)
        else:
            generate_adult(target, n, max(n // 4, 10), seed)
    return dirs


def oltp_stream(seed: int, statements: int) -> tuple[list[tuple], dict]:
    """The autocommit statement stream and the table it must leave behind.

    60% INSERT, 15% UPDATE by key, 5% DELETE by key, 20% point SELECT on
    the unique key — exactly, in every block of 20 statements, so the table
    grows along the same curve under every seed (write cost depends on the
    table size); the seed orders each block and draws keys and values.
    Returns ``(ops, shadow)``: each op is ``(sql, params, expected rows or
    None)``, ``shadow`` maps key -> ``(v, note)``."""
    rng = random.Random(seed)
    shadow: dict[int, tuple[int, str]] = {}
    live: list[int] = []
    ops: list[tuple] = []
    next_key = 0
    block = ["insert"] * 12 + ["update"] * 3 + ["delete"] + ["select"] * 4
    while len(ops) < statements:
        rng.shuffle(block)
        for kind in block[: statements - len(ops)]:
            if kind == "insert" or not live:
                key, next_key = next_key, next_key + 1
                row = (rng.randrange(10**6), f"note-{rng.randrange(1000)}")
                live.append(key)
                shadow[key] = row
                ops.append((
                    "INSERT INTO kv (k, v, note) VALUES (%s, %s, %s)",
                    (key, *row), None,
                ))
            elif kind == "update":
                key = rng.choice(live)
                value = rng.randrange(10**6)
                shadow[key] = (value, shadow[key][1])
                ops.append((
                    "UPDATE kv SET v = %s WHERE k = %s", (value, key), None,
                ))
            elif kind == "delete":
                slot = rng.randrange(len(live))
                key = live[slot]
                live[slot] = live[-1]
                live.pop()
                del shadow[key]
                ops.append(("DELETE FROM kv WHERE k = %s", (key,), None))
            else:
                key = rng.choice(live)
                ops.append((
                    "SELECT v, note FROM kv WHERE k = %s", (key,),
                    [shadow[key]],
                ))
    return ops, shadow


OLTP_DDL = (
    "CREATE TABLE kv (k int, v int, note text)",
    "CREATE UNIQUE INDEX kv_k ON kv USING btree (k)",
)


# -- input pinning ----------------------------------------------------------------

#: every run regenerates this small probe and compares it with pins.json, so
#: an edit to repro.datasets / repro.pipelines cannot quietly change the load
PIN_SEED = 20230328
PIN_ROWS = 500
PIN_STATEMENTS = 400


def _sha256_dir(directory: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def compute_pins(scratch: str) -> dict:
    rows = {pipeline: PIN_ROWS for pipeline in SENSITIVE}
    dirs = generate_pipeline_inputs(scratch, rows, PIN_SEED)
    ops, _ = oltp_stream(PIN_SEED, PIN_STATEMENTS)
    pins = {
        "csv": {
            os.path.basename(d).split("_")[0]: _sha256_dir(d)
            for d in sorted(set(dirs.values()))
        },
        "pipelines": {
            pipeline: hashlib.sha256(
                PIPELINE_BUILDERS[pipeline]("DATA", upto="sklearn").encode()
            ).hexdigest()
            for pipeline in SENSITIVE
        },
        "oltp_stream": hashlib.sha256(json.dumps(ops).encode()).hexdigest(),
    }
    shutil.rmtree(scratch)
    return pins


# -- the workload interface ---------------------------------------------------------


#: ``(CPU seconds of this process, wall seconds)`` of one segment.  The
#: end-to-end metrics use the CPU seconds, which leaves out the time the
#: hypervisor gave the vCPU to someone else (README.md, "Clock and
#: estimator").  The workloads never sleep or block, so on a quiet machine the
#: two agree; ``wall.over_cpu_x`` reports their ratio.
Timing = tuple[float, float]


def now() -> Timing:
    return process_time(), perf_counter()


class Workload:
    #: spans wrapper keys that must record at least one call when traced,
    #: in the iterations and in the twin iterations
    expected_calls: set[str] = set()
    expected_twin_calls: set[str] = set()
    #: operations in one iteration
    ops_per_iteration = 1
    #: what ``twin_iteration`` runs: "sql", "python", "recovery" or None
    twin: str | None = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None
        #: seconds of the timed regions that ran under the recorder
        self.traced_wall = 0.0
        self.traced_iterations = 0
        self.twin_iterations = 0
        #: per-layer counters read from the program's public counters
        self.counters: dict[str, float] = {}
        #: the segments of the timed regions since the caller last emptied it
        self.segments: list[Timing] = []
        self._last: Timing | None = None

    def prepare(self, directory: str) -> None:
        """Generate the inputs; the program sees only these."""
        raise NotImplementedError

    def start(self) -> None:
        """Set-up: start the program and run one warm-up operation."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop what ``start`` started."""

    def reference(self, corrupt: bool) -> None:
        """Compute what the outputs are checked against (``corrupt``
        damages it on purpose, to prove the check fails the run)."""

    def iteration(self, recorder) -> list[Timing]:
        """Run one sample; returns the segments of its timed regions, the
        same number in the same order every time."""
        raise NotImplementedError

    def op_seconds(self, segments: list[float]) -> float:
        """The time of one operation, given the time of each segment of an
        iteration."""
        return sum(segments)

    def twin_iteration(self, recorder) -> list[Timing] | None:
        """Traced pass only: the comparison a per-layer metric needs (the
        remote iteration without the wire, the SQL iteration in Python, the
        recovery of a pass's WAL); None where there is none."""

    def finish(self) -> None:
        """Checks that run once, after the last iteration."""

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message

    def bump(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def take_segments(self) -> list[Timing]:
        """The segments timed since the last call."""
        segments, self.segments = self.segments, []
        return segments

    def mark(self) -> None:
        """Inside a timed region: end one segment and begin the next."""
        if self._last is not None:
            moment = now()
            self.segments.append(
                (moment[0] - self._last[0], moment[1] - self._last[1])
            )
            self._last = moment

    @contextmanager
    def timed(self, recorder=None, twin: bool = False):
        """A timed region; spans are recorded only here.  Its time goes to
        ``segments``, cut at every ``mark()``, and to ``took``.  A region
        inside another one only adds marks.  Spans of a twin iteration carry
        a negative iteration number, which keeps them out of the layer sums."""
        nested = self._last is not None
        if nested:
            self.mark()
        else:
            self._last = now()
        first = len(self.segments)
        if recorder is not None:
            recorder.iteration = (
                -1 - self.twin_iterations if twin else self.traced_iterations
            )
        try:
            yield
        finally:
            self.mark()
            if not nested:
                self._last = None
            region = self.segments[first:]
            self.took = (sum(s[0] for s in region), sum(s[1] for s in region))
            if recorder is not None:
                recorder.iteration = None
                if not twin:
                    self.traced_wall += self.took[1]


# -- pipeline workloads -------------------------------------------------------------


def node_histograms(result, pipeline: str) -> dict:
    inspection = HistogramForColumns(SENSITIVE[pipeline])
    return {
        (node.lineno, node.operator_type.name): histograms
        for node, histograms in result.histograms_for(inspection).items()
        if histograms
    }


def check_verdict(result) -> str:
    return next(iter(result.check_to_check_results.values())).status.name


class PipelineWorkload(Workload):
    """Runs each pipeline once per iteration with ``NoBiasIntroducedFor``;
    the iteration is the operation.

    ``how`` selects the path: ``"sql"`` (fresh in-process connector per run)
    or ``"remote"`` (one ``RemoteConnector`` to a ``DatabaseServer`` hosted
    in a thread of this process).  The oracle is the Python path
    (``PipelineInspector.execute()``): per DAG node, the histogram of every
    sensitive column must be equal (the paper's criterion).  ``twin`` names
    the path the traced pass runs next to each iteration: ``"sql"`` (the
    remote iteration without the wire) or ``"python"`` (the paper's
    baseline)."""

    def __init__(
        self,
        seed: int,
        rows: dict[str, int],
        how: str = "sql",
        profile: str = "postgres",
        mode: str = "CTE",
        materialize: bool = False,
        twin: str | None = None,
    ) -> None:
        super().__init__(seed)
        self.rows = rows
        self.how = how
        self.profile = profile
        self.mode = mode
        self.materialize = materialize
        self.twin = twin
        self.pipeline_times: dict[str, list[float]] = {p: [] for p in rows}
        self.server = None
        if how == "remote":
            # the served database outlives the runs and is reset, not rebuilt
            self.expected_calls = _SQL_CALLS | {
                "RemoteConnector.run", "RemoteConnector.reset",
                "RemoteConnection.run_script", "Database.reset_storage",
                "protocol:encode_frame", "protocol:recv_frame",
                "protocol:_recv_exact", "_ClientHandler._handle_request",
            }
        else:
            self.expected_calls = _SQL_CALLS | {
                "DBConnector.run", "DBConnector.reset", "Database.__init__",
            }
        if twin == "python":
            self.expected_twin_calls = {
                "PipelineInspector.execute", "PythonBackend.hooks",
                "io:read_csv", "NoBiasIntroducedFor.evaluate",
            }

    def prepare(self, directory: str) -> None:
        data_dirs = generate_pipeline_inputs(directory, self.rows, self.seed)
        self.sources = {
            pipeline: PIPELINE_BUILDERS[pipeline](data_dir, upto="sklearn")
            for pipeline, data_dir in data_dirs.items()
        }

    def start(self) -> None:
        if self.how == "remote":
            self.database = Database(self.profile)
            self.server = DatabaseServer(self.database).start()
            self.connector = RemoteConnector(*self.server.address)
        for pipeline in self.rows:
            self._run(pipeline, self.how, traced=False)

    def stop(self) -> None:
        if self.server is None:
            return
        self.connector.close()
        address = self.server.address
        stopper = threading.Thread(target=self.server.shutdown)
        stopper.start()
        # shutdown() closes the listener, which does not wake the acceptor
        # thread blocked in accept(); it would wait out a 5 s join instead.
        # A throwaway connection wakes it.
        while stopper.is_alive():
            try:
                socket.create_connection(address, timeout=1).close()
            except OSError:
                pass
            stopper.join(0.02)
        self.server = None

    def _inspector(self, pipeline: str) -> PipelineInspector:
        return PipelineInspector.on_pipeline_from_string(
            self.sources[pipeline], filename=f"<{pipeline}>"
        ).add_check(NoBiasIntroducedFor(SENSITIVE[pipeline]))

    def _marking(self, connector):
        """*connector*, ending a segment before each script it sends."""
        send = connector.run

        def run(*args, **kwargs):
            self.mark()
            return send(*args, **kwargs)

        connector.run = run
        return connector

    def _run(self, pipeline: str, how: str, traced: bool):
        """One pipeline run; returns ``(result, connector or None)``."""
        inspector = self._inspector(pipeline)
        if how == "python":
            return inspector.execute(), None
        if how == "remote":
            # per-operator stats are collected only under the recorder, so
            # plain iterations of a traced run stay comparable with --trace 0
            self.database.collect_exec_stats = traced
            connector = self.connector
            if "run" not in vars(connector):
                self._marking(connector)
        else:
            connector_type = (
                PostgresqlConnector if self.profile == "postgres"
                else UmbraConnector
            )
            connector = self._marking(connector_type(collect_exec_stats=traced))
        result = inspector.execute_in_sql(
            dbms_connector=connector,
            mode=self.mode,
            materialize=self.materialize,
        )
        return result, connector

    def reference(self, corrupt: bool) -> None:
        self.expected = {}
        for pipeline in self.rows:
            result, _ = self._run(pipeline, "python", traced=False)
            self.expected[pipeline] = (
                check_verdict(result), node_histograms(result, pipeline)
            )
        if corrupt:
            histograms = self.expected[next(iter(self.rows))][1]
            counts = next(iter(next(iter(histograms.values())).values()))
            counts[next(iter(counts))] += 1

    def _check(self, pipeline: str, result) -> None:
        verdict, expected = self.expected[pipeline]
        if check_verdict(result) != verdict:
            return self.fail(
                f"{pipeline}: check verdict differs from the Python path's "
                f"({verdict})"
            )
        compared = 0
        for key, histograms in node_histograms(result, pipeline).items():
            for column, counts in histograms.items():
                if column not in expected.get(key, {}):
                    continue
                compared += 1
                if counts != expected[key][column]:
                    return self.fail(
                        f"{pipeline}: histogram of {column!r} at node "
                        f"(line {key[0]}, {key[1]}) is {counts}, the Python "
                        f"path gives {expected[key][column]}"
                    )
        if compared < 2:
            self.fail(f"{pipeline}: only {compared} comparable histograms")

    def _program_counters(self, connector) -> dict[str, int]:
        database = (
            self.database if self.how == "remote"
            else connector.connection.database
        )
        stats = database.plan_cache.stats
        return {
            "retries": connector.retries,
            "plan_cache_hits": stats["hits"],
            "plan_cache_misses": stats["misses"],
        }

    def _collect(self, result, connector, before: dict[str, int]) -> None:
        """Read the program's own counters after one traced SQL run."""
        container = result.extras["container"]
        self.bump("blocks", len(container.blocks))
        self.bump("inspection_queries", len(container.issued_queries))
        for head, seconds in connector.statement_timings:
            if head.startswith("COPY"):
                self.bump("copy_s", seconds)
            elif head.startswith("CREATE MATERIALIZED VIEW"):
                self.bump("matview_store_s", seconds)
        for key, value in self._program_counters(connector).items():
            self.bump(key, value - before.get(key, 0))

    def iteration(self, recorder) -> list[Timing]:
        traced = recorder is not None
        for pipeline in self.rows:
            self.attempted += 1
            # the served database and its connector outlive the run, a
            # fresh in-process connector starts every counter at zero
            before = (
                self._program_counters(self.connector)
                if self.how == "remote" else {}
            )
            try:
                with self.timed(recorder):
                    result, connector = self._run(pipeline, self.how, traced)
            except Exception as exc:  # a failed run is counted, not fatal
                self.fail(f"{pipeline}: {type(exc).__name__}: {exc}")
                continue
            if not traced:
                self.pipeline_times[pipeline].append(self.took[0])
            else:
                self._collect(result, connector, before)
            self._check(pipeline, result)
        if traced:
            self.traced_iterations += 1
        return self.take_segments()

    def twin_iteration(self, recorder) -> list[Timing] | None:
        """The iteration's pipelines on the twin path: in-process, same
        profile and mode (the base of ``wire.tax_x``), or in Python (the base
        of ``paper.speedup_vs_python_x``, recorded for its own layers)."""
        if self.twin is None:
            return None
        for pipeline in self.rows:
            with self.timed(recorder if self.twin == "python" else None, twin=True):
                self._run(pipeline, self.twin, traced=False)
        self.twin_iterations += 1
        return self.take_segments()


# -- OLTP workloads -----------------------------------------------------------------


def table_contents(database: Database) -> dict:
    rows = database.execute("SELECT k, v, note FROM kv").rows
    return {k: (v, note) for k, v, note in rows}


class OltpWorkload(Workload):
    """Autocommit statements through an in-process ``dbapi`` session on a
    durable ``Database`` (``wal_sync="off"``: the stated flush policy).

    One iteration is one pass: a fresh database, the whole seeded stream.
    Each statement is an operation and a segment.  After the last pass the
    database is reopened from its WAL and compared with the generator's
    shadow dict; the traced pass does that after every pass, as the twin."""

    expected_calls = _WRITE_CALLS | {
        "Cursor.execute", "Cursor.fetchall", "Database.run_script",
        "Catalog.snapshot", "WriteAheadLog.append", "WriteAheadLog.commit_sync",
        "Planner.plan_select", "executor:execute_plan",
        "engine:_batch_to_result",
    }
    expected_twin_calls = _WRITE_CALLS | {"Database.__init__", "wal:read_wal"}
    twin = "recovery"

    def __init__(self, seed: int, statements: int) -> None:
        super().__init__(seed)
        self.ops_per_iteration = statements
        self.passes = 0

    def op_seconds(self, segments: list[float]) -> float:
        return statistics.median(segments)

    def prepare(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory)
        self.ops, self.shadow = oltp_stream(self.seed, self.ops_per_iteration)

    def start(self) -> None:
        self._pass(None, self.ops[: max(50, len(self.ops) // 5)])

    def reference(self, corrupt: bool) -> None:
        if corrupt:
            del self.shadow[next(iter(self.shadow))]

    def _pass(self, recorder, ops: list[tuple]) -> None:
        self.wal_path = os.path.join(self.directory, f"pass{self.passes}.wal")
        self.passes += 1
        database = Database(
            "postgres", wal_path=self.wal_path, wal_sync="off",
            collect_exec_stats=recorder is not None,
        )
        connection = dbapi.connect(database=database)
        cursor = connection.cursor()
        for statement in OLTP_DDL:
            cursor.execute(statement)
        wrong: list[str] = []
        errors: list[str] = []
        with self.timed(recorder):
            for index, (sql, params, expected) in enumerate(ops):
                if index:
                    self.mark()
                try:
                    cursor.execute(sql, params)
                    rows = cursor.fetchall() if expected is not None else None
                except Exception as exc:  # a failed statement is counted
                    errors.append(f"{sql} {params}: {type(exc).__name__}: {exc}")
                    rows = expected
                if rows != expected:
                    wrong.append(f"{sql} {params} returned {rows}, not {expected}")
        for message in errors + wrong:
            self.fail(message)
        if recorder is not None:
            stats = database.plan_cache.stats
            self.bump("plan_cache_hits", stats["hits"])
            self.bump("plan_cache_misses", stats["misses"])
            self.bump("wal_bytes", os.path.getsize(self.wal_path))
            self.bump(
                "wal_commits",
                len(OLTP_DDL) + sum(1 for op in ops if op[2] is None),
            )
        connection.close()
        database.close()

    def iteration(self, recorder) -> list[Timing]:
        self.attempted += len(self.ops)
        self._pass(recorder, self.ops)
        if recorder is not None:
            self.traced_iterations += 1
        return self.take_segments()

    def _recover(self, recorder=None) -> None:
        """Reopen the last pass's WAL; an acknowledged commit that is missing
        fails the attempt."""
        self.attempted += 1
        with self.timed(recorder, twin=True):
            database = Database("postgres", wal_path=self.wal_path, wal_sync="off")
        recovered = table_contents(database)
        database.close()
        if recovered == self.shadow:
            return
        for key in sorted(set(recovered) | set(self.shadow)):
            if recovered.get(key) != self.shadow.get(key):
                return self.fail(
                    f"after recovery row k={key} is {recovered.get(key)}, "
                    f"the acknowledged value is {self.shadow.get(key)}"
                )

    def twin_iteration(self, recorder) -> list[Timing]:
        self._recover(recorder)
        self.twin_iterations += 1
        return self.take_segments()

    def finish(self) -> None:
        self._recover()


# -- the catalogue ------------------------------------------------------------------


def build(name: str, seed: int, quick: bool) -> Workload:
    """The workload called *name*; ``quick`` shrinks it for the smoke test."""
    def rows(n: int, pipelines=("healthcare", "compas")) -> dict[str, int]:
        return {pipeline: 1000 if quick else n for pipeline in pipelines}

    if name == "inspect_default_2e3":
        return PipelineWorkload(seed, rows(2000))
    if name == "inspect_matview_1e4":
        return PipelineWorkload(
            seed, rows(10_000), mode="VIEW", materialize=True, twin="python"
        )
    if name == "remote_small":
        paper = {p: min(n, 1000) if quick else n for p, n in PAPER_ROWS.items()}
        return PipelineWorkload(
            seed, paper, how="remote", profile="umbra", mode="VIEW", twin="sql"
        )
    if name == "oltp_autocommit":
        return OltpWorkload(seed, 400 if quick else 1500)
    raise ValueError(f"unknown workload {name!r}")
