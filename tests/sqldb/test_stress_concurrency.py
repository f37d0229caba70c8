"""Concurrent MVCC chaos-stress harness.

Randomized multi-threaded workloads (8+ sessions) against one shared
database, validated two ways:

* **serial commit-order replay oracle** — every committed transaction
  records its statements and its engine-assigned commit id
  (:attr:`Session.last_commit_id`); replaying the statements serially in
  commit-id order on a fresh database must reproduce the concurrent
  run's final state exactly.  That is the definition of the snapshot
  scheduler being equivalent to *some* serial order — and of commit ids
  naming that order.
* **crash rounds** — the same workload composed with a crash or a torn
  write at a durability point: the process "dies" mid-workload
  and the WAL is reopened.  Every transaction that was *acknowledged*
  (COMMIT returned) must survive recovery in full; every transaction,
  acked or not, must be all-or-nothing (rows carry per-transaction tags,
  so partial presence is detectable).

Rounds default to a small tier-1 budget; raise with ``--stress-rounds``.
"""

import random
import threading
import time

import pytest

from repro.sqldb.client import is_retryable, retry_backoff
from repro.errors import SQLError
from repro.sqldb.engine import Database
from repro.sqldb.faults import POINTS, Faults, SimulatedCrash

pytestmark = pytest.mark.stress

TABLES = ("alpha", "beta", "gamma")
N_WORKERS = 8
TXNS_PER_WORKER = 4


@pytest.fixture
def rounds(request):
    return request.config.getoption("--stress-rounds") or 2


def _create_tables(db):
    for name in TABLES:
        db.execute(f"CREATE TABLE {name} (tag text, val int)")


def _state(db):
    return {
        name: sorted(db.execute(f"SELECT tag, val FROM {name}").rows)
        for name in TABLES
    }


def _txn_body(rng, tag):
    """A randomized transaction: inserts into 1-2 tables (sequentially,
    so cross-table lock orders — and thus deadlocks — can happen),
    occasionally an ANALYZE (whose write-set is *every* table, a
    serialization-conflict magnet)."""
    body = []
    expected = []
    for i, table in enumerate(rng.sample(TABLES, k=rng.choice((1, 1, 2)))):
        values = []
        for j in range(rng.randint(1, 3)):
            val = i * 10 + j
            values.append(f"('{tag}', {val})")
            expected.append((table, tag, val))
        body.append(
            f"INSERT INTO {table} (tag, val) VALUES {', '.join(values)}"
        )
    if rng.random() < 0.15:
        body.append("ANALYZE")
    return body, expected


class TestSerialReplayOracle:
    def test_concurrent_workload_matches_serial_commit_order_replay(
        self, rounds
    ):
        for round_no in range(rounds):
            self._run_round(seed=1000 + round_no)

    def _run_round(self, seed):
        db = Database("umbra")
        _create_tables(db)
        committed = []  # (commit_id, [sql, ...])
        retried = {"40001": 0, "40P01": 0, "57014": 0}
        failures = []
        mutex = threading.Lock()

        def worker(wid):
            rng = random.Random(seed * 1000 + wid)
            session = db.session()
            try:
                for t in range(TXNS_PER_WORKER):
                    body, _ = _txn_body(rng, f"w{wid}t{t}")

                    def attempt():
                        session.begin()
                        for sql in body:
                            session.execute(sql)
                        session.commit()

                    def on_retry(_i, exc):
                        with mutex:
                            retried[exc.sqlstate] += 1
                        db.rollback(session=session)

                    retry_backoff(
                        attempt,
                        attempts=12,
                        base_delay=0.001,
                        max_delay=0.05,
                        rng=rng,
                        on_retry=on_retry,
                    )
                    with mutex:
                        committed.append((session.last_commit_id, body))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                with mutex:
                    failures.append((wid, exc))
            finally:
                session.close()

        threads = [
            threading.Thread(target=worker, args=(wid,))
            for wid in range(N_WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "stress round hung"
        assert failures == []
        assert len(committed) == N_WORKERS * TXNS_PER_WORKER
        commit_ids = [cid for cid, _ in committed]
        assert len(set(commit_ids)) == len(commit_ids), (
            "commit ids must be unique across sessions"
        )

        concurrent_state = _state(db)
        db.close()

        # the oracle: replay serially, in commit-id order, on a fresh db
        oracle = Database("umbra")
        _create_tables(oracle)
        for _cid, body in sorted(committed, key=lambda item: item[0]):
            for sql in body:
                oracle.execute(sql)
        assert _state(oracle) == concurrent_state
        oracle.close()


class TestCrashDuringConcurrency:
    def test_acked_commits_survive_crash_and_txns_are_atomic(
        self, rounds, tmp_path
    ):
        for round_no in range(rounds):
            self._run_crash_round(
                seed=2000 + round_no,
                wal_path=str(tmp_path / f"round{round_no}.wal"),
            )

    def _run_crash_round(self, seed, wal_path):
        rng0 = random.Random(seed)
        point, action = rng0.choice(
            [
                (point, action)
                for point, actions in POINTS.items()
                if "crash" in actions
                for action in actions
            ]
        )
        faults = Faults()
        db = Database(
            "umbra",
            wal_path=wal_path,
            faults=faults,
            # a safety net, not part of the scenario: if the crash
            # orphans a table lock, blocked peers time out (57014),
            # notice the crash flag and exit instead of hanging
            statement_timeout_ms=2000,
        )
        _create_tables(db)
        # arm only after setup so the crash lands inside the concurrent
        # workload, not the single-threaded CREATEs
        faults.arm(point, action, hits=rng0.randint(4, 30))

        acked = []  # (tag, [(table, tag, val), ...]) — COMMIT returned
        all_tags = {}  # tag -> expected rows, acked or not
        crashed = threading.Event()
        mutex = threading.Lock()
        failures = []

        def worker(wid):
            rng = random.Random(seed * 1000 + wid)
            session = db.session()
            try:
                for t in range(TXNS_PER_WORKER):
                    if crashed.is_set():
                        return
                    tag = f"w{wid}t{t}"
                    body, expected = _txn_body(rng, tag)
                    with mutex:
                        all_tags[tag] = expected
                    attempt = 0
                    while True:
                        if crashed.is_set():
                            return
                        try:
                            session.begin()
                            for sql in body:
                                session.execute(sql)
                            session.commit()
                            with mutex:
                                acked.append((tag, expected))
                            break
                        except SimulatedCrash:
                            crashed.set()
                            db.cancel_all()  # free peers stuck in lock waits
                            return
                        except SQLError as exc:
                            if not is_retryable(exc) or attempt >= 20:
                                raise
                            attempt += 1
                            try:
                                db.rollback(session=session)
                            except SimulatedCrash:
                                crashed.set()
                                db.cancel_all()
                                return
                            time.sleep(0.001 * attempt * rng.random())
            except Exception as exc:  # noqa: BLE001 - surfaced below
                if not crashed.is_set():
                    with mutex:
                        failures.append((wid, exc))

        threads = [
            threading.Thread(target=worker, args=(wid,))
            for wid in range(N_WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "crash round hung"
        assert failures == []

        # abandon the torn database object and recover from the log
        recovered = Database("umbra", wal_path=wal_path)
        state = _state(recovered)
        by_table = {
            name: {} for name in TABLES
        }  # table -> tag -> sorted vals
        for name in TABLES:
            for tag, val in state[name]:
                by_table[name].setdefault(tag, []).append(val)

        def present_rows(expected):
            got = []
            for table, tag, val in expected:
                if val in by_table[table].get(tag, []):
                    got.append((table, tag, val))
            return got

        # durability: an acknowledged COMMIT survives the crash in full
        for tag, expected in acked:
            assert present_rows(expected) == expected, (
                f"acked transaction {tag} lost rows across recovery "
                f"(arm {point}:{action}, fired {faults.fired})"
            )
        # atomicity: every transaction is all-or-nothing after recovery
        for tag, expected in all_tags.items():
            got = present_rows(expected)
            assert got == expected or got == [], (
                f"transaction {tag} recovered partially: {got}"
            )
        recovered.close()
