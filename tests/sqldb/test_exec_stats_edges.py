"""Regression tests for runtime-stats edges: the exact EXPLAIN ANALYZE
output shape and counter accumulation across repeated cursor reuse."""

import re
import time

from repro.sqldb import Database, connect
from repro.sqldb.profile import UMBRA
from repro.sqldb.vector import Vector


def _fill(db, n=60):
    db.execute("CREATE TABLE t (id int, grp text, val int)")
    db.catalog.table("t").append_columns(
        {
            "id": list(range(n)),
            "grp": [("g%d" % (i % 3)) for i in range(n)],
            "val": [i - n // 2 for i in range(n)],
        },
        n,
    )
    db.catalog.bump_version()


_NODE_LINE = re.compile(
    r"^(  )*\w+.*"  # indented operator label
    r"  \(estimated rows=\d+\)"
    r"  \((actual rows=\d+ calls=\d+ time=\d+\.\d{3}ms"
    r"|never executed)\)$"
)


def test_explain_analyze_output_shape():
    db = Database("postgres")
    _fill(db)
    text = db.explain_analyze("SELECT grp, count(*) AS c FROM t GROUP BY grp")
    lines = text.splitlines()
    # trailer: a rewrites summary then the timing footer, in that order
    assert lines[-2] == "Rewrites: none"  # optimizer off on stock profiles
    assert re.fullmatch(r"Execution time: \d+\.\d{3} ms", lines[-1])
    node_lines = lines[:-2]
    assert node_lines, "no plan nodes in EXPLAIN ANALYZE output"
    for line in node_lines:
        assert _NODE_LINE.match(line), f"malformed node line: {line!r}"
    db.close()


def test_explain_analyze_lists_fired_rewrites():
    db = Database("postgres", optimize=True)
    _fill(db)
    db.analyze()
    text = db.explain_analyze(
        "SELECT id FROM t WHERE val > 0 AND grp = 'g1' AND 1 = 1"
    )
    (rewrite_line,) = [
        line for line in text.splitlines() if line.startswith("Rewrites: ")
    ]
    assert "predicate-pushdown" in rewrite_line or "Rewrites: none" != rewrite_line
    assert "remove-trivial-filter" in rewrite_line
    assert "estimated rows=" in text
    db.close()


def test_exec_stats_accumulate_across_cursor_reuse():
    connection = connect(UMBRA, collect_exec_stats=True)
    _fill(connection.database)
    cursor = connection.cursor()
    query = "SELECT grp, count(*) AS c FROM t GROUP BY grp ORDER BY grp"
    calls_seen = []
    for _ in range(3):
        cursor.execute(query)
        assert len(cursor.fetchall()) == 3
        counters = connection.database.operator_counters
        label = next(l for l in counters if "Aggregate" in l)
        calls_seen.append(counters[label]["calls"])
    # cumulative counters grow monotonically; per-execution stats reset
    assert calls_seen == sorted(calls_seen)
    assert calls_seen[0] < calls_seen[-1]
    last = connection.database.last_exec_stats
    assert last is not None
    assert all(entry.calls >= 1 for entry in last.nodes.values())
    connection.close()


def test_explain_analyze_reports_counts():
    db = Database("umbra")
    _fill(db, n=300)
    text = db.explain_analyze("SELECT id FROM t WHERE val > 0")
    # the filter ran once and kept the 149 positive values of -150..149
    assert re.search(r"Filter.*\(actual rows=149 calls=1 time=", text)
    assert re.search(r"^Execution time: \d+\.\d{3} ms$", text, re.M)
    # cumulative counters aggregate by operator label
    assert db.operator_counters
    assert any("Filter" in label for label in db.operator_counters)
    db.close()


def test_output_copy_is_charged_to_the_copied_operator(monkeypatch):
    """The postgres profile copies every operator's output; that copy is
    the producing operator's work, so it lands in that operator's time
    and not in its parent's self time."""
    db = Database("postgres", collect_exec_stats=True)
    _fill(db, n=300)
    delay = 0.05
    copy = Vector.copy

    def slow_copy(self):
        if len(self) == 300:  # only the scan's output is that long
            time.sleep(delay)
        return copy(self)

    monkeypatch.setattr(Vector, "copy", slow_copy)
    db.execute("SELECT id FROM t WHERE val > 100")
    entries = {
        entry.label.split("(")[0]: entry
        for entry in db.last_exec_stats.nodes.values()
    }
    scan, filt = entries["ScanTable"], entries["Filter"]
    # the scan emits id and val (ctid and grp are pruned): two slow copies
    assert scan.seconds >= 2 * delay
    assert filt.seconds - scan.seconds < delay
    db.close()


def test_explain_analyze_serial_database():
    db = Database("postgres")
    _fill(db, n=40)
    text = db.explain_analyze("SELECT grp, count(*) FROM t GROUP BY grp")
    expected = db.execute("SELECT count(DISTINCT grp) FROM t").scalar()
    assert re.search(
        rf"\(actual rows={expected} calls=1 time=\d+\.\d{{3}}ms\)$", text, re.M
    )
    db.close()
