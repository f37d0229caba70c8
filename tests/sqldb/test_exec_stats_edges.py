"""Regression tests for runtime-stats edges: the exact EXPLAIN ANALYZE
output shape and counter accumulation across repeated cursor reuse."""

import re
import time

from repro.sqldb import Database, connect
from repro.sqldb.profile import UMBRA
from repro.sqldb.vector import Vector
from tests.sqldb.plans import explain


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
    text = explain(db, "SELECT grp, count(*) AS c FROM t GROUP BY grp", analyze=True)
    lines = text.splitlines()
    # trailer: a rewrites summary then the timing footer, in that order
    assert lines[-2] == "Rewrites: none"  # nothing to fold, no index
    assert re.fullmatch(r"Execution time: \d+\.\d{3} ms", lines[-1])
    node_lines = lines[:-2]
    assert node_lines, "no plan nodes in EXPLAIN ANALYZE output"
    for line in node_lines:
        assert _NODE_LINE.match(line), f"malformed node line: {line!r}"
    db.close()


def test_explain_analyze_lists_fired_rewrites():
    db = Database("postgres")
    _fill(db)
    db.execute("CREATE INDEX t_grp ON t (grp)")
    text = explain(
        db, "SELECT id FROM t WHERE val > 0 AND grp = 'g1' AND 1 = 1",
        analyze=True,
    )
    (rewrite_line,) = [
        line for line in text.splitlines() if line.startswith("Rewrites: ")
    ]
    assert rewrite_line == "Rewrites: constant-folding x1, index-scan x1"
    assert "IndexScan(t using t_grp, eq)  (estimated rows=" in text
    db.close()


def test_explain_names_the_query_columns():
    db = Database("postgres")
    db.execute("CREATE TABLE t (a int, b int)")
    assert explain(db, "SELECT a FROM t WHERE a = 1").splitlines() == [
        "Project(a)",
        "  Filter((a = 1))",
        "    ScanTable(t)",
    ]
    plan = explain(db, "SELECT x.a FROM t x WHERE x.b > x.a AND b < 3")
    assert "Filter(((x.b > x.a) and (b < 3)))" in plan
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
    text = explain(db, "SELECT id FROM t WHERE val > 0", analyze=True)
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
    text = explain(db, "SELECT grp, count(*) FROM t GROUP BY grp", analyze=True)
    expected = db.execute("SELECT count(DISTINCT grp) FROM t").scalar()
    assert re.search(
        rf"\(actual rows={expected} calls=1 time=\d+\.\d{{3}}ms\)$", text, re.M
    )
    db.close()


def test_row_estimates_are_clamped_to_one_row():
    """A selectivity product never proves a result empty: on an ANALYZEd
    three-row table the filter that returns a row used to print
    ``estimated rows=0`` next to ``actual rows=1``."""
    db = Database("postgres")
    db.run_script(
        "CREATE TABLE t (a int, b text);"
        "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z');"
        "ANALYZE t"
    )
    text = explain(
        db, "SELECT a FROM t WHERE a = 2 AND b = 'y'", analyze=True
    )
    estimates = [int(n) for n in re.findall(r"estimated rows=(\d+)", text)]
    assert estimates and min(estimates) >= 1
    assert "actual rows=1 " in text
    empty = explain(db, "SELECT a FROM t WHERE a = 7 AND b = 'q'", analyze=True)
    assert "estimated rows=0" not in empty
