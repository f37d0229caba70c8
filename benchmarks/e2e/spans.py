"""In-memory span recorder and the benchmark-side wrappers around each layer.

The traced pass measures the layers from outside: every entry of
``_targets()`` names a function of one layer, and :func:`install` replaces that
name with a timing wrapper at every ``repro`` module that bound it.  Nothing
in ``src/`` knows about tracing.  A span is ``(id, parent, thread, iteration,
layer, name, start, end, counts)``; a layer's self time is its spans'
duration minus the part their child spans cover.

Wrappers record only while ``Recorder.iteration`` is set, so one traced run
interleaves traced and plain iterations and reads the tracing overhead off
their ratio.  A workload's twin iterations record under negative numbers and
are summed apart.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: layer of the socket-wait spans: the client blocked on the server (main
#: thread) or a server handler idle between requests (any other thread)
WAIT = "wait"

#: plan-node class -> operator metric prefix (anything else: "other")
_OPERATOR_KIND = {
    "ScanTable": "scan",
    "IndexScan": "scan",
    "ScanSnapshot": "scan",
    "Filter": "filter",
    "Project": "project",
    "Join": "join",
    "IndexJoin": "join",
    "Aggregate": "aggregate",
    "Sort": "sort",
    "Distinct": "distinct",
    "Window": "window",
}
OPERATOR_KINDS = (
    "scan", "filter", "project", "join", "aggregate", "sort", "distinct",
    "window", "other",
)


class Recorder:
    """Finished spans plus the switch the wrappers consult."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: index of the traced iteration in progress (negative: a twin
        #: iteration); None = do not record
        self.iteration: int | None = None
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def _wrap(recorder: Recorder, fn, layer: str, name: str, count):
    # a wrapped function that re-enters itself (execute_plan and
    # Planner.plan_select recurse; a ColumnTransformer hook re-enters the
    # hook of its parts) stays one span: the nested call runs unrecorded
    guard = threading.local()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iteration = recorder.iteration
        if iteration is None or getattr(guard, "active", False):
            return fn(*args, **kwargs)
        guard.active = True
        stack = recorder.stack()
        span_id = next(recorder._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        counts = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            end = perf_counter()
            if count is not None:
                counts = count(args, result)
            return result
        except BaseException:
            end = perf_counter()
            raise
        finally:
            stack.pop()
            guard.active = False
            recorder.spans.append(
                (span_id, parent, threading.get_ident(), iteration, layer,
                 name, start, end, counts)
            )

    return wrapper


# -- what each wrapper counts besides time -------------------------------------


def _count_run(args, result):
    return {"sql_bytes": len(args[1])}


def _count_len(key):
    return lambda args, result: {key: len(result)}


def _count_plan(args, result):
    """Exclusive seconds and rows per operator kind of one executed plan.

    ``ExecStats`` times are inclusive of the children; walking the plan
    turns them into self times.  A shared CTE plan is charged to the first
    reference reached, like the executor's own per-statement cache."""
    plan, ctx = args[0], args[1]
    counts = {"result_rows": result.length}
    stats = ctx.stats
    if stats is None:
        return counts
    nodes = stats.nodes
    seen: set[int] = set()

    def visit(node) -> float:
        if id(node) in seen:
            return 0.0
        seen.add(id(node))
        below = sum(visit(child) for child in node.children())
        entry = nodes.get(id(node))
        if entry is None:
            return below
        kind = _OPERATOR_KIND.get(type(node).__name__, "other")
        counts[kind + "_s"] = counts.get(kind + "_s", 0.0) + entry.seconds - below
        counts[kind + "_rows"] = counts.get(kind + "_rows", 0) + entry.rows
        return entry.seconds

    visit(plan)
    return counts


def _hook_names() -> list[str]:
    from repro.inspection.backend import InspectionBackend

    return [
        name
        for name, value in vars(InspectionBackend).items()
        if callable(value) and not name.startswith("_") and name != "suppress"
    ]


def _targets() -> list[tuple]:
    """``(module, qualified name, layer, count, key)`` per wrapped function.

    ``key`` groups wrappers whose calls are checked together (the backend
    hooks: a pipeline need not use every one)."""
    targets: list[tuple] = []

    def add(module, names, layer, count=None, key=None):
        for name in names.split():
            if "." not in name:  # module-level function: say which module
                name = f"{module.rsplit('.', 1)[1]}:{name}"
            targets.append((module, name, layer, count, key or name))

    add("repro.inspection.inspector",
        "PipelineInspector.execute_in_sql PipelineInspector.execute",
        "inspection")
    add("repro.inspection.checks", "NoBiasIntroducedFor.evaluate",
        "inspection.checks")
    add("repro.frame.io", "read_csv", "frame.read_csv")
    from repro.core.sql_backend import SQLBackend
    from repro.inspection.tracker import PythonBackend

    for hook in _hook_names():
        if hook in vars(SQLBackend):
            add("repro.core.sql_backend", f"SQLBackend.{hook}",
                "core.sql_backend", key="SQLBackend.hooks")
        if hook in vars(PythonBackend):
            add("repro.inspection.tracker", f"PythonBackend.{hook}",
                "inspection.python_tracker", key="PythonBackend.hooks")
    add("repro.core.connectors", "DBConnector.run RemoteConnector.run",
        "core.connectors", _count_run)
    add("repro.core.connectors", "DBConnector.reset RemoteConnector.reset",
        "core.connectors")
    add("repro.sqldb.lexer", "tokenize", "sqldb.lexer", _count_len("tokens"))
    add("repro.sqldb.parser", "parse_script", "sqldb.parser",
        _count_len("statements"))
    add("repro.sqldb.parser", "parse_statement", "sqldb.parser")
    add("repro.sqldb.planner", "Planner.plan_select", "sqldb.planner")
    add("repro.sqldb.optimizer",
        "prune_plan prune_shared_plans fold_select optimize_select_plan",
        "sqldb.optimizer")
    add("repro.sqldb.executor", "execute_plan", "sqldb.executor", _count_plan)
    add("repro.sqldb.engine", "_batch_to_result", "result_fetch",
        lambda args, result: {"rows": result.rowcount})
    add("repro.sqldb.engine",
        "Database.__init__ Database.run_script Database.execute "
        "Database.executemany Database.reset_storage Database.close",
        "sqldb.engine")
    add("repro.sqldb.dbapi", "Cursor.execute Cursor.fetchall connect",
        "sqldb.dbapi")
    add("repro.sqldb.catalog", "Table.append_rows", "sqldb.catalog",
        lambda args, result: {"rows": len(args[1])})
    add("repro.sqldb.catalog", "Table.append_columns", "sqldb.catalog",
        lambda args, result: {"rows": args[2]})
    add("repro.sqldb.catalog", "Catalog.refresh_indexes Catalog.snapshot",
        "sqldb.catalog")
    add("repro.sqldb.wal",
        "WriteAheadLog.append WriteAheadLog.commit_sync read_wal",
        "sqldb.wal")
    add("repro.sqldb.protocol", "encode_frame", "sqldb.protocol",
        _count_len("bytes"))
    add("repro.sqldb.protocol", "recv_frame", "sqldb.protocol")
    add("repro.sqldb.protocol", "_recv_exact", WAIT)
    add("repro.sqldb.server", "_ClientHandler._handle_request", "sqldb.server")
    add("repro.sqldb.client",
        "RemoteConnection.run_script RemoteConnection.reset connect",
        "sqldb.client")
    return targets


def install(recorder: Recorder) -> None:
    """Replace every target with its wrapper, wherever ``repro`` bound it.

    A missing name raises: a renamed layer entry point must fail the traced
    pass loudly, not report a silent zero."""
    for module_name, qualified, layer, count, _key in _targets():
        module = importlib.import_module(module_name)
        if ":" not in qualified:
            owner, _, attribute = qualified.rpartition(".")
            holder = getattr(module, owner)
            wrapper = _wrap(
                recorder, holder.__dict__[attribute], layer, qualified, count
            )
            setattr(holder, attribute, wrapper)
            continue
        attribute = qualified.partition(":")[2]
        original = module.__dict__[attribute]
        wrapper = _wrap(recorder, original, layer, qualified, count)
        for name, other in list(sys.modules.items()):
            if name.startswith("repro") and getattr(other, attribute, None) is original:
                setattr(other, attribute, wrapper)


# -- turning spans into per-layer numbers --------------------------------------


class Summary:
    """Per-layer totals over the traced iterations of one run, or, with
    *twin*, over its twin iterations (negative iteration numbers)."""

    def __init__(self, recorder: Recorder, twin: bool = False) -> None:
        spans = [span for span in recorder.spans if (span[3] < 0) == twin]
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            covered[span[1]] += span[7] - span[6]
        #: (layer, on main thread) -> self seconds
        self.self_s: dict[tuple[str, bool], float] = defaultdict(float)
        #: span name -> calls, inclusive seconds, self seconds, the spans
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        #: (span name, count key, on main thread) -> total
        self.counts: dict[tuple[str, str, bool], float] = defaultdict(float)
        self.n_spans = len(spans)
        for span in spans:
            span_id, _parent, thread, _it, layer, name, start, end, counts = span
            on_main = thread == recorder.main_thread
            duration = end - start
            own = duration - covered.get(span_id, 0.0)
            self.self_s[(layer, on_main)] += own
            self.self_by_name[name] += own
            self.calls[name] += 1
            self.inclusive_s[name] += duration
            self.by_name[name].append(span)
            for key, value in (counts or {}).items():
                self.counts[(name, key, on_main)] += value

    def layer_self(self, layer: str) -> float:
        """Self seconds of *layer* on every thread."""
        return self.self_s.get((layer, True), 0.0) + self.self_s.get(
            (layer, False), 0.0
        )

    def main_thread_self(self) -> float:
        """Self seconds of every span on the load generator's thread: the
        share of the iteration wall time the trace accounts for."""
        return sum(v for (_, on_main), v in self.self_s.items() if on_main)

    def count(self, name: str, key: str, on_main: bool | None = None) -> float:
        if on_main is None:
            return self.counts.get((name, key, True), 0) + self.counts.get(
                (name, key, False), 0
            )
        return self.counts.get((name, key, on_main), 0)


def missing_calls(summary: Summary, expected: set[str]) -> list[str]:
    """Expected wrapper keys that recorded no call."""
    called = set()
    for _module, qualified, _layer, _count, key in _targets():
        if summary.calls.get(qualified):
            called.add(key)
    return sorted(expected - called)


def write_trace(recorder: Recorder, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(
            {
                "fields": ["id", "parent", "thread", "iteration", "layer",
                           "name", "start", "end", "counts"],
                "main_thread": recorder.main_thread,
                "spans": recorder.spans,
            },
            handle,
        )
