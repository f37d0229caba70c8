"""The memory governor: accounting, admission, spill execution, faults.

The load-bearing property is *oracle identity*: a query whose operators
are denied their working set and run over partitions instead (join,
aggregation, DISTINCT) or over sorted runs merged through spill files
(sort, window ordering) must return rows byte-identical to the
unbounded one-partition run — same values, same nulls, same Python
value types, same order where SQL pins one.  ``--memory-rounds N``
raises the randomized-differential budget.

The rest is lifecycle: grants released on success, error and
cancellation alike; spill files reclaimed at statement end (the autouse
``_no_spill_leaks`` fixture in conftest audits the temp dir after every
test here too); a saturated global pool queues then sheds with SQLSTATE
53200 (retryable) instead of deadlocking; acked commits never depend on
spilled state.
"""

import os
import random
import threading
import time

import pytest

from repro.sqldb.client import RETRYABLE_SQLSTATES, is_retryable
from repro.errors import (
    ConfigurationLimitExceeded,
    OutOfMemory,
    QueryCancelled,
    SQLExecutionError,
)
from repro.sqldb import Database
from repro.sqldb.faults import POINTS, Faults
from repro.sqldb.memory import MemoryBroker, SpillFile, parse_memory_limit
from tests.sqldb.plans import explain

pytestmark = pytest.mark.memory

#: the memory governor's named allocation points (the ones that deny)
ALLOCATION_POINTS = [p for p, actions in POINTS.items() if "deny" in actions]

#: a per-query budget that forces sorts, join builds, aggregation and
#: distinct hash tables over _ROWS-row tables to spill, while leaving
#: room for the non-degradable allocations (result batches, materialised
#: CTEs, spill working chunks) of every workload query
_LIMIT = "64kb"
_ROWS = 1200


@pytest.fixture
def memory_rounds(request):
    value = request.config.getoption("--memory-rounds")
    return value if value is not None else 15


def _load(db, rows=_ROWS, seed=20260808):
    """big: wide-ish fact table; side: sparse-keyed probe table.

    Key ranges keep join fan-out near one match per row so every
    workload's *result batch* stays within the per-query budget while
    the intermediate hash tables and sort buffers exceed it."""
    rng = random.Random(seed)
    db.execute(
        "CREATE TABLE big "
        "(k integer, g integer, v double precision, s text)"
    )
    db.executemany(
        "INSERT INTO big VALUES (?, ?, ?, ?)",
        [
            (
                rng.randint(0, 600),
                rng.randint(0, 5),
                rng.choice([None, float(rng.randint(-500, 500)) / 4.0]),
                rng.choice([None, "a", "b", "c", "dd", "eee"]),
            )
            for _ in range(rows)
        ],
    )
    db.execute("CREATE TABLE side (k integer, w double precision)")
    db.executemany(
        "INSERT INTO side VALUES (?, ?)",
        [
            (rng.randint(0, 4800), float(rng.randint(-100, 100)))
            for _ in range(rows)
        ],
    )


#: one workload per memory-hungry operator; every query pins its order
_WORKLOAD = [
    "SELECT k, v FROM big ORDER BY v DESC NULLS LAST, k DESC",
    "SELECT b.k, b.v, side.w FROM big b JOIN side ON b.k = side.k "
    "ORDER BY b.k, b.v NULLS FIRST, side.w",
    "SELECT b.k, side.w FROM big b LEFT JOIN side ON b.k = side.k "
    "ORDER BY b.k, side.w NULLS LAST",
    "SELECT s, count(*) AS c, sum(v) AS t, min(v) AS lo, max(k) AS hi "
    "FROM big GROUP BY s ORDER BY s NULLS FIRST",
    "SELECT DISTINCT s, g FROM big ORDER BY s NULLS LAST, g",
    "SELECT k, row_number() OVER (PARTITION BY s ORDER BY v, k) "
    "AS rn FROM big ORDER BY k, rn",
    "SELECT k, v, rank() OVER (PARTITION BY g ORDER BY v DESC, s) AS r "
    "FROM big ORDER BY k, r, v",
    # array keys: x sorts as arrays, y (its arrays hold NULLs) as text
    "SELECT k, array_agg(g) AS x, array_agg(v) AS y FROM big "
    "WHERE k < 200 GROUP BY k ORDER BY x, y DESC, k",
    "WITH c AS (SELECT k, v FROM big WHERE v > 0) "
    "SELECT a.k, a.v, b.v FROM c a JOIN c b ON a.k = b.k "
    "ORDER BY a.k, a.v, b.v",
    "SELECT count(*) AS n, sum(v) AS t FROM big",
]


def _rows(db, sql):
    return db.execute(sql).rows


def _assert_identical(reference, candidate, context):
    assert len(reference) == len(candidate), context
    for i, (want, got) in enumerate(zip(reference, candidate)):
        assert want == got, f"{context}: row {i}: {want!r} != {got!r}"
        for a, b in zip(want, got):
            assert type(a) is type(b), (
                f"{context}: row {i}: type {type(a)} != {type(b)}"
            )


def _assert_quiesced(db):
    """No reserved bytes, no live grants, no spill files left behind."""
    snap = db.memory.snapshot()
    assert snap["reserved_bytes"] == 0, snap
    assert snap["active_grants"] == 0, snap
    assert db.memory.spill.live_files() == []


# -- units --------------------------------------------------------------------


class TestParsing:
    def test_parse_memory_limit_suffixes(self):
        assert parse_memory_limit("512") == 512
        assert parse_memory_limit("64kb") == 64 * 1024
        assert parse_memory_limit("8MB") == 8 * 1024 * 1024
        assert parse_memory_limit("1gb") == 1024**3
        assert parse_memory_limit("1.5kb") == 1536

    def test_parse_memory_limit_rejects_garbage(self):
        for bad in ("", "mb", "-1", "0", "12tb", "lots"):
            with pytest.raises(ValueError):
                parse_memory_limit(bad)

    def test_no_limit_means_no_broker(self):
        db = Database()
        try:
            assert db.memory is None  # unbounded: the zero-overhead path
        finally:
            db.close()

    @pytest.mark.parametrize(
        "argument, attribute",
        [("memory_limit", "limit"), ("query_memory_limit", "query_limit")],
    )
    def test_both_limits_parse_one_way(self, argument, attribute):
        db = Database(**{argument: "2mb"})
        try:
            assert getattr(db.memory, attribute) == 2 * 1024 * 1024
        finally:
            db.close()
        with pytest.raises(SQLExecutionError) as err:
            Database(**{argument: "lots"})
        assert err.value.sqlstate == "22000"

    def test_query_limit_above_global_is_53400(self):
        with pytest.raises(ConfigurationLimitExceeded) as err:
            MemoryBroker(limit=1024, query_limit=2048)
        assert err.value.sqlstate == "53400"

    def test_memory_sqlstates_are_retryable(self):
        assert "53200" in RETRYABLE_SQLSTATES
        assert "53400" in RETRYABLE_SQLSTATES
        assert is_retryable(OutOfMemory("x"))
        assert is_retryable(ConfigurationLimitExceeded("x"))

    def test_fault_injector_rejects_unknown_points(self):
        with pytest.raises(ValueError):
            Faults().arm("join.probe", "deny")


class TestSpillFile:
    def test_roundtrip_and_checksum(self, tmp_path):
        spill = SpillFile(str(tmp_path / "x.spill"))
        payloads = [{"a": 1}, [1, 2, None], "text", [-0.0, 1e19, True, "é"]]
        for payload in payloads:
            assert spill.append(payload) > 0
        spill.finish_writing()
        assert list(spill.records()) == payloads
        spill.remove()
        assert not os.path.exists(spill.path)

    def test_payloads_are_json_only(self, tmp_path):
        from repro.errors import DurabilityError

        spill = SpillFile(str(tmp_path / "json.spill"))
        with pytest.raises(DurabilityError):
            spill.append([b"bytes", 7])
        assert spill.bytes_written == 0

    def test_empty_file_yields_nothing(self, tmp_path):
        spill = SpillFile(str(tmp_path / "empty.spill"))
        assert list(spill.records()) == []

    def test_torn_frame_is_durability_error(self, tmp_path):
        from repro.errors import DurabilityError

        spill = SpillFile(str(tmp_path / "torn.spill"))
        spill.append(list(range(100)))
        spill.finish_writing()
        with open(spill.path, "r+b") as handle:
            handle.truncate(os.path.getsize(spill.path) - 3)
        with pytest.raises(DurabilityError):
            list(spill.records())

    def test_corrupted_payload_is_durability_error(self, tmp_path):
        from repro.errors import DurabilityError

        spill = SpillFile(str(tmp_path / "bad.spill"))
        spill.append(list(range(100)))
        spill.finish_writing()
        with open(spill.path, "r+b") as handle:
            handle.seek(40)
            handle.write(b"\xff\xff")
        with pytest.raises(DurabilityError):
            list(spill.records())


# -- spill-path oracle identity ----------------------------------------------


class TestSpillDifferential:
    def test_limit_driven_spills_match_unbounded(self):
        reference = Database()
        limited = Database(query_memory_limit=_LIMIT)
        try:
            _load(reference)
            _load(limited)
            for sql in _WORKLOAD:
                _assert_identical(
                    _rows(reference, sql), _rows(limited, sql), sql
                )
            stats = limited.memory_stats()
            assert stats["session"]["spilled_bytes"] > 0
            assert stats["session"]["peak_memory_bytes"] > 0
            assert stats["spills"] > 0
            _assert_quiesced(limited)
        finally:
            reference.close()
            limited.close()

    def test_deny_at_every_allocation_point(self):
        """Sweep the registry: a denial at any point either degrades to
        a byte-identical spill plan or shed cleanly with 53200 — never a
        wrong answer, never a leak."""
        reference = Database()
        try:
            _load(reference)
            oracle = {sql: _rows(reference, sql) for sql in _WORKLOAD}
        finally:
            reference.close()
        assert len(ALLOCATION_POINTS) == 13
        for point in ALLOCATION_POINTS:
            faults = Faults().arm(point, "deny", hits=None)
            db = Database(faults=faults)
            try:
                _load(db)
                for sql in _WORKLOAD:
                    try:
                        rows = _rows(db, sql)
                    except OutOfMemory as exc:
                        assert exc.sqlstate == "53200"
                        continue
                    _assert_identical(oracle[sql], rows, f"{point}: {sql}")
                _assert_quiesced(db)
            finally:
                db.close()

    def test_degradable_points_degrade_not_fail(self):
        """The four degradable reserves must *degrade*, not error — and
        the workload then reaches every allocation point in the registry
        (none of the 13 names is dead)."""
        degradable = (
            "sort.buffer",
            "join.build",
            "agg.hashtable",
            "distinct.hashtable",
        )
        faults = Faults()
        for point in degradable:
            faults.arm(point, "deny", hits=None)
        reference = Database()
        db = Database(faults=faults)
        try:
            _load(reference)
            _load(db)
            for sql in _WORKLOAD:
                _assert_identical(_rows(reference, sql), _rows(db, sql), sql)
            assert set(faults.trace) >= set(ALLOCATION_POINTS)
            assert db.memory.spill.total_spilled_bytes > 0
            _assert_quiesced(db)
        finally:
            reference.close()
            db.close()

    def test_array_key_sort_order_is_mode_independent(self):
        """``ORDER BY x, y`` over array keys where only ``y`` holds a
        NULL: ``x`` compares as arrays and ``y`` as text whether the sort
        runs in one run or in merged runs (the external sort used to
        force text on *every* array key once any key needed it)."""
        sql = (
            "SELECT g, array_agg(a) AS x, array_agg(b) AS y FROM t "
            "GROUP BY g ORDER BY x, y"
        )
        orders = []
        for faults in (None, Faults().arm("sort.buffer", "deny", hits=None)):
            db = Database(faults=faults)
            try:
                db.execute("CREATE TABLE t (g integer, a integer, b integer)")
                db.executemany(
                    "INSERT INTO t VALUES (?, ?, ?)",
                    [
                        (1, 9, 1), (1, 1, 2), (2, 10, None), (2, 2, 5),
                        (3, 10, 0), (3, 2, 9), (4, 10, 1), (4, 3, 1),
                    ],
                )
                orders.append([row[0] for row in _rows(db, sql)])
            finally:
                db.close()
        # [9, 1] < [10, 2] as arrays (as text "[10..." sorts first); the
        # x tie between groups 2 and 3 breaks on y as text
        assert orders == [[1, 3, 2, 4], [1, 3, 2, 4]]

    def test_randomized_differential(self, memory_rounds):
        """Random queries over random data: limited == unbounded."""
        rng = random.Random(0xB10E)
        reference = Database()
        limited = Database(query_memory_limit=_LIMIT)
        try:
            _load(reference, seed=rng.randint(0, 1 << 30))
            _load(limited, seed=20260808)
            reference.reset_storage()
            _load(reference, seed=20260808)
            for round_no in range(memory_rounds):
                sql = self._random_query(rng)
                _assert_identical(
                    _rows(reference, sql),
                    _rows(limited, sql),
                    f"round {round_no}: {sql}",
                )
            _assert_quiesced(limited)
        finally:
            reference.close()
            limited.close()

    @staticmethod
    def _random_query(rng):
        dirs = ["ASC", "DESC"]
        nulls = ["NULLS FIRST", "NULLS LAST"]

        def order(col):
            return f"{col} {rng.choice(dirs)} {rng.choice(nulls)}"

        kind = rng.randrange(6)
        if kind == 0:  # multi-key sort with a filter
            return (
                "SELECT k, v FROM big "
                f"WHERE k {rng.choice(['<', '>=', '<>'])} "
                f"{rng.randint(100, 500)} "
                f"ORDER BY {order('v')}, k {rng.choice(dirs)}"
            )
        if kind == 1:  # join + sort
            return (
                "SELECT b.k, b.v, side.w FROM big b "
                f"{rng.choice(['JOIN', 'LEFT JOIN'])} side ON b.k = side.k "
                f"WHERE side.w IS NULL OR side.w > {rng.randint(-80, 40)} "
                f"ORDER BY b.k, {order('b.v')}, side.w"
            )
        if kind == 2:  # grouped aggregation
            having = rng.choice(["", f"HAVING count(*) > {rng.randint(1, 4)} "])
            return (
                "SELECT g, count(*) AS c, sum(v) AS t, max(s) AS m "
                f"FROM big GROUP BY g {having}ORDER BY g"
            )
        if kind == 3:  # distinct
            return (
                "SELECT DISTINCT s, g FROM big "
                f"WHERE k < {rng.randint(300, 600)} "
                f"ORDER BY {order('s')}, g DESC"
            )
        if kind == 4:  # window: partitions + multi-key ordering
            func = rng.choice(["row_number", "rank", "dense_rank"])
            return (
                f"SELECT k, v, {func}() OVER (PARTITION BY "
                f"{rng.choice(['s', 'g', 's, g'])} ORDER BY "
                f"v {rng.choice(dirs)}, k {rng.choice(dirs)}) AS w "
                f"FROM big WHERE k < {rng.randint(300, 600)} "
                "ORDER BY k, w, v"
            )
        return (  # sort on array keys (y's arrays hold NULLs)
            "SELECT k, array_agg(g) AS x, array_agg(v) AS y FROM big "
            f"WHERE k < {rng.randint(100, 200)} GROUP BY k "
            f"ORDER BY {order('x')}, {order('y')}, k"
        )


# -- fault arms ---------------------------------------------------------------


class TestFaultArms:
    def test_fail_arm_surfaces_53200_then_recovers(self):
        faults = Faults().arm("join.build", "fail")
        db = Database(faults=faults)
        try:
            _load(db)
            sql = _WORKLOAD[1]
            with pytest.raises(OutOfMemory) as err:
                db.execute(sql)
            assert err.value.sqlstate == "53200"
            assert is_retryable(err.value)
            assert db.memory_stats()["session"]["memory_shed"] == 1
            # the arm was one-shot: the retry succeeds
            assert len(_rows(db, sql)) > 0
            _assert_quiesced(db)
        finally:
            db.close()

    def test_smaller_budget_pushes_query_onto_spill_path(self):
        """A budget an eighth the size pushes a comfortably-sized query
        over it and onto the spill path, with identical rows."""
        roomy = Database(query_memory_limit="256kb")
        squeezed = Database(query_memory_limit="32kb")
        try:
            _load(roomy, rows=300)
            _load(squeezed, rows=300)
            sql = _WORKLOAD[0]
            _assert_identical(_rows(roomy, sql), _rows(squeezed, sql), sql)
            assert roomy.memory.spill.total_spilled_bytes == 0
            assert squeezed.memory.spill.total_spilled_bytes > 0
        finally:
            roomy.close()
            squeezed.close()

    def test_stall_arm_delays_spill_writes(self):
        faults = (
            Faults()
            .arm("sort.buffer", "deny", hits=None)
            .arm("spill.write", "stall", hits=None, seconds=0.01)
        )
        db = Database(faults=faults)
        try:
            _load(db, rows=60)
            started = time.perf_counter()
            db.execute("SELECT k FROM big ORDER BY v, k")
            assert time.perf_counter() - started >= 0.01
            assert "spill.write" in faults.trace
        finally:
            db.close()


# -- cancellation -------------------------------------------------------------


class TestCancellation:
    def test_statement_timeout_mid_spill(self):
        """A timeout that lands inside spill writes cancels with 57014
        and reclaims every grant byte and temp file."""
        faults = Faults().arm("spill.write", "stall", hits=None, seconds=0.05)
        db = Database(
            query_memory_limit=_LIMIT,
            statement_timeout_ms=20,
            faults=faults,
        )
        try:
            _load(db)
            with pytest.raises(QueryCancelled) as err:
                db.execute(_WORKLOAD[0])
            assert err.value.sqlstate == "57014"
            _assert_quiesced(db)
        finally:
            db.close()

    def test_explicit_cancel_mid_spill(self):
        faults = Faults().arm("spill.write", "stall", hits=None, seconds=0.05)
        db = Database(query_memory_limit=_LIMIT, faults=faults)
        try:
            _load(db)
            timer = threading.Timer(0.02, db.cancel)
            timer.start()
            try:
                with pytest.raises(QueryCancelled):
                    db.execute(_WORKLOAD[0])
            finally:
                timer.cancel()
            _assert_quiesced(db)
        finally:
            db.close()

    def test_cancel_while_waiting_for_grant(self):
        broker = MemoryBroker(limit=1024, query_limit=1024)
        held = broker.begin_query()
        cancel = threading.Event()
        results = []

        def waiter():
            try:
                broker.begin_query(cancel_event=cancel)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                results.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        cancel.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(results) == 1 and isinstance(results[0], QueryCancelled)
        broker.end_query(held)
        assert broker.reserved_total == 0
        broker.close()


# -- admission: queueing, shedding, saturation -------------------------------


class TestAdmission:
    def test_grant_queue_sheds_on_timeout_then_recovers(self):
        broker = MemoryBroker(
            limit=2048, query_limit=1024, grant_timeout_ms=50.0
        )
        first = broker.begin_query()
        second = broker.begin_query()
        with pytest.raises(OutOfMemory) as err:
            broker.begin_query()
        assert err.value.sqlstate == "53200"
        assert "retry" in str(err.value)
        assert broker.stats["shed"] == 1
        assert broker.stats["queued"] == 1
        broker.end_query(first)
        third = broker.begin_query()  # freed budget admits the retry
        broker.end_query(second)
        broker.end_query(third)
        assert broker.reserved_total == 0
        broker.close()

    def test_full_queue_sheds_immediately(self):
        broker = MemoryBroker(
            limit=1024, query_limit=1024, queue_depth=0, grant_timeout_ms=None
        )
        held = broker.begin_query()
        started = time.perf_counter()
        with pytest.raises(OutOfMemory):
            broker.begin_query()
        assert time.perf_counter() - started < 1.0  # shed, not queued
        broker.end_query(held)
        broker.close()

    def test_mid_query_pool_exhaustion_is_53200(self):
        """Pay-as-you-go pool (no per-query carve-out): a require that
        cannot be served sheds the query, it does not deadlock."""
        db = Database(memory_limit="64kb")
        try:
            _load(db)
            hog = db.memory.begin_query()
            assert hog.reserve(60 * 1024, "join.build")
            with pytest.raises(OutOfMemory) as err:
                db.execute(_WORKLOAD[0])
            assert err.value.sqlstate == "53200"
            db.memory.end_query(hog)
            assert len(_rows(db, _WORKLOAD[0])) > 0  # recovered
            _assert_quiesced(db)
        finally:
            db.close()

    def test_eight_client_saturation_recovers(self):
        """memory_limit = 8 x query_memory_limit: twelve workers hammer
        spill-heavy queries; waiters queue, every statement eventually
        succeeds (shed 53200s are retried), and the pool drains to zero."""
        query_limit = parse_memory_limit(_LIMIT)
        db = Database(
            memory_limit=8 * query_limit, query_memory_limit=query_limit
        )
        failures = []
        done = []

        def worker(worker_id):
            session = db.session()
            rng = random.Random(worker_id)
            try:
                for _ in range(4):
                    sql = rng.choice(_WORKLOAD[:5])
                    for attempt in range(20):
                        try:
                            db.execute(sql, session=session)
                            break
                        except OutOfMemory:
                            time.sleep(0.01 * (attempt + 1))
                    else:
                        raise AssertionError(f"never admitted: {sql}")
                done.append(worker_id)
            except BaseException as exc:  # noqa: BLE001
                failures.append((worker_id, exc))

        try:
            _load(db)
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures, failures
            assert len(done) == 12
            snap = db.memory.snapshot()
            assert snap["grants"] >= 48
            _assert_quiesced(db)
        finally:
            db.close()


# -- observability ------------------------------------------------------------


class TestObservability:
    def test_explain_analyze_reports_peak_and_spill(self):
        db = Database(query_memory_limit=_LIMIT)
        try:
            _load(db)
            text = explain(db, _WORKLOAD[0], analyze=True)
            assert "peak_bytes=" in text
            assert "spilled_bytes=" in text
        finally:
            db.close()

    def test_explain_analyze_silent_when_unbounded(self):
        db = Database()
        try:
            _load(db, rows=50)
            text = explain(db, _WORKLOAD[0], analyze=True)
            assert "spilled_bytes=" not in text
        finally:
            db.close()

    def test_memory_stats_shape(self):
        db = Database(query_memory_limit=_LIMIT)
        try:
            _load(db)
            db.execute(_WORKLOAD[0])
            stats = db.memory_stats()
            for key in (
                "limit",
                "query_limit",
                "reserved_bytes",
                "active_grants",
                "grants",
                "queued",
                "shed",
                "spills",
                "peak_reserved_bytes",
                "total_spilled_bytes",
                "session",
            ):
                assert key in stats, key
            assert stats["query_limit"] == parse_memory_limit(_LIMIT)
            session = stats["session"]
            assert session["peak_memory_bytes"] > 0
            assert session["spilled_bytes"] > 0
            assert session["memory_shed"] == 0
        finally:
            db.close()

    def test_unbounded_memory_stats_empty(self):
        db = Database()
        try:
            assert db.memory_stats() == {}
        finally:
            db.close()

    def test_session_shed_counter(self):
        db = Database(faults=Faults().arm("join.build", "fail"))
        try:
            _load(db)
            with pytest.raises(OutOfMemory):
                db.execute(_WORKLOAD[1])
            assert db.memory_stats()["session"]["memory_shed"] == 1
        finally:
            db.close()


@pytest.mark.server
class TestServerReporting:
    def test_stats_frame_carries_memory_section(self):
        from repro.sqldb import client
        from repro.sqldb.server import DatabaseServer

        db = Database(query_memory_limit=_LIMIT)
        _load(db)
        server = DatabaseServer(db).start()
        try:
            conn = client.connect("127.0.0.1", server.port)
            try:
                with conn.cursor() as cursor:
                    cursor.execute(_WORKLOAD[0])
                    assert cursor.fetchall()
                stats = conn.memory_stats()
                assert stats["query_limit"] == parse_memory_limit(_LIMIT)
                assert stats["reserved_bytes"] == 0
                assert stats["grants"] >= 1
                assert stats["session"]["spilled_bytes"] > 0
                assert stats["session"]["peak_memory_bytes"] > 0
            finally:
                conn.close()
        finally:
            server.shutdown()
            db.close()

    def test_stats_frame_omits_memory_when_unbounded(self):
        from repro.sqldb import client
        from repro.sqldb.server import DatabaseServer

        db = Database()
        server = DatabaseServer(db).start()
        try:
            conn = client.connect("127.0.0.1", server.port)
            try:
                assert conn.memory_stats() == {}
            finally:
                conn.close()
        finally:
            server.shutdown()
            db.close()


# -- lifecycle ----------------------------------------------------------------


class TestLifecycle:
    def test_reset_storage_reclaims_spill_files(self):
        db = Database(query_memory_limit=_LIMIT)
        try:
            grant = db.memory.begin_query()
            spill = grant.spill_file("probe")
            spill.append([1, 2, 3])
            spill.finish_writing()
            assert db.memory.spill.live_files()
            db.reset_storage()
            assert db.memory.spill.live_files() == []
            assert not os.path.exists(spill.path)
            db.memory.end_query(grant)  # idempotent on reclaimed files
        finally:
            db.close()

    def test_close_removes_spill_directory(self):
        db = Database(query_memory_limit=_LIMIT)
        _load(db)
        db.execute(_WORKLOAD[0])
        spill_dir = db.memory.spill.directory
        assert spill_dir is not None and os.path.isdir(spill_dir)
        db.close()
        assert not os.path.exists(spill_dir)

    def test_error_paths_release_grants(self):
        db = Database(query_memory_limit=_LIMIT)
        try:
            _load(db)
            for _ in range(3):
                with pytest.raises(Exception):
                    db.execute("SELECT no_such_column FROM big ORDER BY v")
            db.execute(_WORKLOAD[0])
            _assert_quiesced(db)
        finally:
            db.close()

    def test_acked_commit_never_depends_on_spilled_state(self, tmp_path):
        """Spill files carry only intra-query operator state: deleting
        every one of them after a commit loses nothing on recovery."""
        wal = str(tmp_path / "db.wal")
        db = Database(query_memory_limit=_LIMIT, wal_path=wal)
        _load(db)
        total = db.execute("SELECT count(*) FROM big").rows[0][0]
        db.execute(_WORKLOAD[0])  # spills, after the inserts committed
        db.memory.spill.cleanup_all()  # simulate losing every temp file
        db.close()
        recovered = Database(query_memory_limit=_LIMIT, wal_path=wal)
        try:
            assert (
                recovered.execute("SELECT count(*) FROM big").rows[0][0]
                == total
            )
        finally:
            recovered.close()


# -- TRAIN under a budget -----------------------------------------------------


class TestTrainUnderLimit:
    def test_training_matches_unbounded(self):
        reference = Database()
        limited = Database(query_memory_limit="64kb")
        try:
            for db in (reference, limited):
                _load(db, rows=300, seed=5)
                db.execute(
                    "TRAIN m USING (SELECT g, k, v AS label FROM big "
                    "WHERE v IS NOT NULL) "
                    "WITH (estimator = 'linear_regression', max_iter = 5)"
                )
            assert reference.model("m").coef == limited.model("m").coef
            assert (
                reference.model("m").intercept == limited.model("m").intercept
            )
            _assert_quiesced(limited)
        finally:
            reference.close()
            limited.close()
