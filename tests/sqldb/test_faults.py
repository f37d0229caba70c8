"""Crash/fault-injection property tests for the durability layer, and
the unit tests of the one fault injector (:class:`Faults`).

The central property: **crash (or tear a write) at any durability point,
under any workload,
recovery yields the state as of some acknowledged commit boundary —
either the last acked commit, or (when the crash hit mid-commit) that
plus the in-flight transaction.  Never a partial transaction.**

The harness runs a deterministic randomized workload against a durable
database with one durability arm, mirrors every *acknowledged*
statement onto a non-durable oracle database, then "crashes" (abandons
the object), recovers from the WAL path, and compares against the
oracle's acceptable states.  Both crash models are exercised: process
crash (file as flushed) and power loss (file truncated to the last
fsync).

Rounds are budgeted for tier-1 by default; ``--fault-rounds 200`` (or
more) runs the full acceptance sweep.
"""

import os
import random
import sys
import threading
import time

import pytest

from repro.errors import DurabilityError, SQLError
from repro.sqldb.engine import Database
from repro.sqldb.faults import NO_FAULTS, POINTS, Faults, SimulatedCrash
from repro.sqldb.wal import read_checkpoint, read_wal, truncate_wal

pytestmark = pytest.mark.faults

#: every durability arm: a crash at each durability point and a tear at
#: each of the two write points
DURABILITY_ARMS = [
    (point, action)
    for point, actions in POINTS.items()
    if "crash" in actions
    for action in actions
]

#: rounds of the randomized workload property when --fault-rounds is not
#: given (enough to touch every durability arm under both crash models)
DEFAULT_ROUNDS = 26


@pytest.fixture
def fault_rounds(request):
    return request.config.getoption("--fault-rounds") or DEFAULT_ROUNDS


# -- workload generation ------------------------------------------------------


def _gen_ops(rng):
    """A randomized workload: a flat list of ops.

    Schema ops stay in autocommit (the generator tracks live tables so
    every statement is valid); transaction blocks insert and exercise
    savepoints, committing or rolling back at random.
    """
    ops = []
    tables = {"t0"}
    ops.append(("sql", "CREATE TABLE t0 (a int, b text)", ()))
    n_ops = rng.randint(3, 10)
    for _ in range(n_ops):
        kind = rng.random()
        table = rng.choice(sorted(tables))
        if kind < 0.35:  # autocommit insert
            ops.append(
                (
                    "sql",
                    f"INSERT INTO {table} (a, b) VALUES (?, ?)",
                    (rng.randint(0, 99), f"v{rng.randint(0, 9)}"),
                )
            )
        elif kind < 0.5:  # executemany batch
            rows = [
                (rng.randint(0, 99), f"m{j}") for j in range(rng.randint(1, 5))
            ]
            ops.append(
                ("many", f"INSERT INTO {table} (a, b) VALUES (?, ?)", rows)
            )
        elif kind < 0.75:  # transaction block (inserts + savepoints)
            ops.append(("sql", "BEGIN", ()))
            for _ in range(rng.randint(1, 4)):
                roll = rng.random()
                if roll < 0.25:
                    ops.append(("sql", "SAVEPOINT sp", ()))
                    ops.append(
                        (
                            "sql",
                            f"INSERT INTO {table} (a, b) VALUES (?, ?)",
                            (rng.randint(0, 99), "sp"),
                        )
                    )
                    if rng.random() < 0.5:
                        ops.append(("sql", "ROLLBACK TO sp", ()))
                else:
                    ops.append(
                        (
                            "sql",
                            f"INSERT INTO {table} (a, b) VALUES (?, ?)",
                            (rng.randint(0, 99), "tx"),
                        )
                    )
            ops.append(
                ("sql", "COMMIT" if rng.random() < 0.7 else "ROLLBACK", ())
            )
        elif kind < 0.85:  # checkpoint
            ops.append(("checkpoint",))
        elif kind < 0.95 and len(tables) < 3:  # create another table
            name = f"t{len(tables)}"
            tables.add(name)
            ops.append(("sql", f"CREATE TABLE {name} (a int, b text)", ()))
        elif len(tables) > 1:  # drop a non-primary table
            name = sorted(tables)[-1]
            tables.discard(name)
            ops.append(("sql", f"DROP TABLE {name}", ()))
    return ops


def _apply(db, op):
    if op[0] == "sql":
        db.execute(op[1], op[2] or None)
    elif op[0] == "many":
        db.executemany(op[1], op[2])
    else:  # checkpoint — durable databases only; a logical no-op
        if db.durable:
            db.execute("CHECKPOINT")


def _state(db):
    out = []
    for name in db.catalog.table_names:
        result = db.execute(f"SELECT a, b FROM {name}")
        out.append((name, tuple(sorted(result.rows))))
    return tuple(out)


# -- the crash-at-any-point property ------------------------------------------


def _run_round(tmp_path, seed, point, action, model):
    """One randomized workload with *action* armed at *point*; returns
    what fired (empty when the workload never reached the arm)."""
    wal_path = str(tmp_path / f"round{seed}.wal")
    oracle = Database("umbra")
    rng = random.Random(seed)
    faults = Faults().arm(point, action, hits=rng.randint(1, 3))
    db = Database("umbra", wal_path=wal_path, faults=faults)

    committed = _state(oracle)
    crashed_op = None
    for op in _gen_ops(rng):
        try:
            _apply(db, op)
        except SimulatedCrash:
            crashed_op = op
            break
        _apply(oracle, op)  # the statement was acknowledged: mirror it
        if not oracle.in_transaction:
            committed = _state(oracle)

    acceptable = {committed}
    if crashed_op is not None:
        # the crash hit mid-commit; recovery may also surface the state
        # with the in-flight transaction applied
        try:
            _apply(oracle, crashed_op)
        except SQLError:
            pass
        if oracle.in_transaction:
            oracle.execute("COMMIT")
        acceptable.add(_state(oracle))

    synced_size = db._wal.synced_size
    db.close()
    if model == "powerloss" and crashed_op is not None:
        # everything after the last fsync never reached the disk
        truncate_wal(wal_path, synced_size)

    recovered = Database("umbra", wal_path=wal_path)
    got = _state(recovered)
    recovered.close()
    assert got in acceptable, (
        f"seed={seed} arm={point}:{action} model={model}: recovered state "
        f"{got!r} is neither the last acked commit nor the in-flight "
        f"transaction's post-state {acceptable!r}"
    )
    return faults.fired


class TestCrashAtEveryPoint:
    def test_randomized_workloads_recover_consistently(
        self, tmp_path, fault_rounds
    ):
        """The acceptance property: every durability arm x randomized
        workloads x both crash models, recovery is never partial."""
        fired = set()
        for i in range(fault_rounds):
            point, action = DURABILITY_ARMS[i % len(DURABILITY_ARMS)]
            model = ("process", "powerloss")[(i // len(DURABILITY_ARMS)) % 2]
            fired.update(
                _run_round(
                    tmp_path, seed=1000 + i, point=point, action=action,
                    model=model,
                )
            )
        # the sweep must actually exercise the arms, not dodge them
        assert len(fired) >= min(fault_rounds, len(DURABILITY_ARMS)) // 2

    def test_every_crashpoint_fires_on_a_known_workload(self, tmp_path):
        """Deterministic sweep: one insert + checkpoint reaches every
        durability arm (tears included); recovery always yields pre- or
        post-state."""
        for point, action in DURABILITY_ARMS:
            wal_path = str(tmp_path / f"det-{point}-{action}.wal")
            db = Database("umbra", wal_path=wal_path)
            db.execute("CREATE TABLE t (a int)")
            db.execute("INSERT INTO t (a) VALUES (1)")
            db.close()

            faults = Faults().arm(point, action)
            db = Database("umbra", wal_path=wal_path, faults=faults)
            with pytest.raises(SimulatedCrash):
                db.execute("INSERT INTO t (a) VALUES (2)")
                db.execute("CHECKPOINT")
            assert faults.fired == [(point, action)]
            db.close()

            recovered = Database("umbra", wal_path=wal_path)
            rows = sorted(recovered.execute("SELECT a FROM t").column("a"))
            assert rows in ([1], [1, 2]), (point, action, rows)
            recovered.close()

    def test_crash_during_commit_never_yields_partial_txn(self, tmp_path):
        """A multi-statement transaction recovers all-or-nothing even
        when the crash lands between its WAL records."""
        for hits in (1, 2, 3, 4):
            wal_path = str(tmp_path / f"partial-{hits}.wal")
            db = Database("umbra", wal_path=wal_path)
            db.execute("CREATE TABLE t (a int)")
            db.close()

            faults = Faults().arm("wal.append.after", "crash", hits=hits)
            db = Database("umbra", wal_path=wal_path, faults=faults)
            db.execute("BEGIN")
            db.execute("INSERT INTO t (a) VALUES (1)")
            db.execute("INSERT INTO t (a) VALUES (2)")
            with pytest.raises(SimulatedCrash):
                db.execute("COMMIT")
            db.close()

            recovered = Database("umbra", wal_path=wal_path)
            rows = sorted(recovered.execute("SELECT a FROM t").column("a"))
            # crash after the commit record: both rows; earlier: neither
            assert rows in ([], [1, 2]), (hits, rows)
            recovered.close()

    def test_torn_commit_record_discards_whole_txn(self, tmp_path):
        wal_path = str(tmp_path / "torn.wal")
        db = Database("umbra", wal_path=wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.close()

        faults = Faults().arm("wal.append.after", "tear")
        db = Database("umbra", wal_path=wal_path, faults=faults)
        db.execute("BEGIN")
        db.execute("INSERT INTO t (a) VALUES (1)")
        with pytest.raises(SimulatedCrash):
            db.execute("COMMIT")  # the first appended record tears
        db.close()

        recovered = Database("umbra", wal_path=wal_path)
        assert recovered.execute("SELECT count(*) FROM t").scalar() == 0
        recovered.close()

    def test_tear_on_the_second_wal_append(self, tmp_path):
        """``hits=2`` tears the second record (a torn-write arm used to
        fire only when armed with ``hits=1``)."""
        wal_path = str(tmp_path / "tear2.wal")
        faults = Faults().arm("wal.append.after", "tear", hits=2)
        db = Database("umbra", wal_path=wal_path, faults=faults)
        db.execute("CREATE TABLE t (a int)")  # record 1
        with pytest.raises(SimulatedCrash):
            db.execute("INSERT INTO t (a) VALUES (1)")  # record 2 tears
        assert faults.fired == [("wal.append.after", "tear")]
        db.close()

        records, valid_size = read_wal(wal_path)
        assert len(records) == 1 and valid_size < os.path.getsize(wal_path)
        recovered = Database("umbra", wal_path=wal_path)
        assert recovered.execute("SELECT count(*) FROM t").scalar() == 0
        recovered.close()

    def test_tear_on_the_second_checkpoint_snapshot(self, tmp_path):
        wal_path = str(tmp_path / "tear2-ckpt.wal")
        faults = Faults().arm("checkpoint.snapshot.written", "tear", hits=2)
        db = Database("umbra", wal_path=wal_path, faults=faults)
        db.execute("CREATE TABLE t (a int)")
        db.execute("CHECKPOINT")  # snapshot 1
        db.execute("INSERT INTO t (a) VALUES (1)")
        with pytest.raises(SimulatedCrash):
            db.execute("CHECKPOINT")  # snapshot 2 tears
        assert faults.fired == [("checkpoint.snapshot.written", "tear")]
        db.close()

        with pytest.raises(DurabilityError):  # the torn temp file
            read_checkpoint(wal_path + ".ckpt.tmp")
        # snapshot 1 is still the published one; the WAL holds the insert
        recovered = Database("umbra", wal_path=wal_path)
        assert recovered.execute("SELECT a FROM t").column("a") == [1]
        recovered.close()

    def test_crash_between_checkpoint_rename_and_reset(self, tmp_path):
        """The WAL survives a crash right after the checkpoint rename;
        replaying it over the new snapshot must not double-apply."""
        wal_path = str(tmp_path / "ckpt.wal")
        db = Database("umbra", wal_path=wal_path)
        db.execute("CREATE TABLE t (a int)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        db.close()

        faults = Faults().arm("checkpoint.after_rename", "crash")
        db = Database("umbra", wal_path=wal_path, faults=faults)
        with pytest.raises(SimulatedCrash):
            db.execute("CHECKPOINT")
        db.close()

        recovered = Database("umbra", wal_path=wal_path)
        # the insert is in the checkpoint AND still in the un-reset WAL;
        # last_txn filtering keeps it single
        assert recovered.execute("SELECT a FROM t").column("a") == [1]
        recovered.close()


class TestFaultInjector:
    def test_unknown_crashpoint_rejected(self):
        """``arm`` refuses an unknown point, an action the point does not
        take, and ``seconds`` anywhere but on a sleep."""
        faults = Faults()
        for point, action, kwargs in (
            ("wal.bogus", "crash", {}),
            ("wal.fsync.before", "tear", {}),  # only write points tear
            ("sort.buffer", "crash", {}),
            ("wire.c2s", "explode", {}),
            ("spill.write", "stall", {}),  # a sleep needs its seconds
            ("join.build", "deny", {"seconds": 1.0}),
            ("join.build", "deny", {"hits": 0}),
            ("wire.s2c", "drop", {"p": 1.5}),
        ):
            with pytest.raises(ValueError):
                faults.arm(point, action, **kwargs)

    def test_nth_hit_fires(self):
        faults = Faults().arm("join.build", "fail", hits=3)
        decisions = [faults.hit("join.build") for _ in range(4)]
        assert decisions == [None, None, "fail", None]  # then spent
        assert faults.fired == [("join.build", "fail")]
        assert faults.trace == ["join.build"] * 4

    def test_a_crash_ends_the_process(self):
        """After a crash every durability point crashes (a dead process
        writes nothing more); other points carry on."""
        faults = Faults().arm("wal.fsync.before", "crash", hits=2)
        assert faults.hit("wal.fsync.before") is None
        assert faults.hit("wal.fsync.before") == "crash"
        assert faults.hit("wal.append.before") == "crash"
        assert faults.hit("commit.install") == "crash"
        assert faults.hit("sort.buffer") is None
        assert faults.fired == [("wal.fsync.before", "crash")]

    def test_every_pass_arm_fires_every_time(self):
        faults = Faults().arm("join.build", "deny", hits=None)
        assert [faults.hit("join.build") for _ in range(5)] == ["deny"] * 5
        assert faults.hit("sort.buffer") is None
        assert faults.fired == [("join.build", "deny")] * 5

    def test_sleeps_are_served_by_hit(self):
        """A stall sleeps inside ``hit`` and combines with the action
        that fires on the same pass."""
        faults = Faults()
        faults.arm("join.build", "stall", hits=None, seconds=0.01)
        faults.arm("join.build", "fail")
        started = time.perf_counter()
        assert faults.hit("join.build") == "fail"
        assert time.perf_counter() - started >= 0.01
        assert faults.fired == [("join.build", "stall"), ("join.build", "fail")]

    def test_same_seed_same_decisions(self):
        def decisions(seed):
            faults = Faults(seed=seed)
            for action, p in (("drop", 0.2), ("duplicate", 0.2), ("tear", 0.1)):
                faults.arm("wire.c2s", action, hits=None, p=p)
            return [faults.hit("wire.c2s") for _ in range(400)]

        first = decisions(7)
        assert first == decisions(7)
        assert {"drop", "duplicate", "tear", None} == set(first)
        assert first != decisions(8)

    def test_concurrent_hits_fire_once(self):
        faults = Faults().arm("result.batch", "fail", hits=5)
        barrier = threading.Barrier(8)
        seen = []

        def worker():
            barrier.wait()
            seen.extend(faults.hit("result.batch") for _ in range(50))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen.count("fail") == 1
        assert faults.fired == [("result.batch", "fail")]
        assert len(faults.trace) == 8 * 50

    def test_disarm_and_clear(self):
        faults = Faults()
        faults.arm("wal.fsync.before", "crash")
        faults.disarm("wal.fsync.before", "crash")
        assert faults.hit("wal.fsync.before") is None
        faults.arm("wire.c2s", "drop", hits=None)
        faults.arm("wire.c2s", "duplicate", hits=None)
        faults.disarm("wire.c2s", "drop")  # the other arm stays
        assert faults.hit("wire.c2s") == "duplicate"
        faults.arm("wal.fsync.after", "crash")
        faults.clear()
        assert faults.hit("wal.fsync.after") is None
        assert faults.fired == [("wire.c2s", "duplicate")]

    def test_no_faults_is_inert(self):
        with pytest.raises(ValueError):
            NO_FAULTS.arm("wal.fsync.before", "crash")
        assert NO_FAULTS.hit("wal.fsync.before") is None
        assert NO_FAULTS.trace == [] and NO_FAULTS.fired == []
