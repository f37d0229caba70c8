"""Network-chaos property tests for WAL-streaming replication.

Each round drives a primary/replica pair (or a failover trio) through a
:class:`~repro.sqldb.netfaults.FaultProxy` whose seeded
:class:`~repro.sqldb.faults.Faults` is armed at both wire points —
dropped frames, back-to-back duplicates, torn frames, delivery delays,
partitions, link resets, and replica crash-restarts — while a write
workload runs.  Two
properties must hold in every round, under every seed:

* **no acknowledged commit is ever lost**: every value whose INSERT
  returned successfully to the client is present on the primary and,
  once lag drains, on the replica (and after a failover, on the
  promoted node);
* **a replica is always a prefix of its primary**: applied commit ids
  advance in order without gaps, so after convergence the replica's
  rows are byte-identical to the primary's.

Rounds are budgeted for tier-1 by default; chaos CI passes
``--fault-rounds 200`` (or more) for the long soak the acceptance
criteria call for.
"""

import random
import threading
import time
from collections import Counter

import pytest

from repro.core.connectors import MultiEndpointConnector
from repro.sqldb import client, dbapi
from repro.sqldb.engine import Database
from repro.sqldb.faults import Faults
from repro.sqldb.netfaults import FaultProxy
from repro.sqldb.replication import Primary, Replica

pytestmark = [pytest.mark.server, pytest.mark.replication, pytest.mark.faults]

#: rounds per property when --fault-rounds is not given (tier-1 budget)
DEFAULT_ROUNDS = 5


@pytest.fixture
def fault_rounds(request):
    return request.config.getoption("--fault-rounds") or DEFAULT_ROUNDS


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def table_rows(database):
    return database.execute("SELECT a, b FROM t ORDER BY a").rows


WIRE = ("wire.c2s", "wire.s2c")


def wire_faults(seed, seconds=0.001, **probabilities):
    """A seeded injector with every-pass *action* arms at probability
    ``probabilities[action]`` on both wire points."""
    faults = Faults(seed=seed)
    for point in WIRE:
        for action, p in probabilities.items():
            faults.arm(
                point, action, hits=None, p=p,
                seconds=seconds if action == "delay" else None,
            )
    return faults


def set_drop(faults, p):
    """Drop every frame in both directions (``p=None``: a partition) or
    only with probability *p* (healing one)."""
    for point in WIRE:
        faults.arm(point, "drop", hits=None, p=p)


def tally(faults):
    return Counter(action for _, action in faults.fired)


class TestStreamChaos:
    def test_stream_converges_under_faults(self, fault_rounds, tmp_path):
        """Random frame faults + partitions + crash-restarts; the
        replica always converges to the primary's exact rows and every
        acknowledged value survives."""
        for round_no in range(fault_rounds):
            rng = random.Random(0xC4A0 + round_no)
            drop = rng.uniform(0.0, 0.08)
            faults = wire_faults(
                rng.randrange(1 << 30),
                seconds=rng.uniform(0.0005, 0.005),
                drop=drop,
                duplicate=rng.uniform(0.0, 0.08),
                tear=rng.uniform(0.0, 0.04),
                delay=rng.uniform(0.0, 0.3),
            )
            primary = Primary(
                host="127.0.0.1", port=0,
                server_kwargs={
                    # tight keepalives so dropped frames and partitions
                    # are detected within the round's time budget
                    "replication_heartbeat_s": 0.1,
                    "replication_ack_timeout_s": 2.0,
                },
            ).start()
            proxy = FaultProxy(primary.address, faults=faults).start()
            wal = str(tmp_path / f"replica-{round_no}.jsonl")
            replica_kwargs = dict(
                name=f"chaos-{round_no}",
                database_kwargs={"wal_path": wal, "wal_sync": "commit"},
                recv_timeout_s=0.5,
                connect_timeout_s=1.0,
            )
            replica = Replica(proxy.address, **replica_kwargs).start()
            db = primary.database
            acked = []
            try:
                db.execute("CREATE TABLE t (a int, b text)")
                n_commits = rng.randint(15, 40)
                partition_at = (
                    rng.randrange(n_commits) if rng.random() < 0.5 else None
                )
                reset_at = (
                    rng.randrange(n_commits) if rng.random() < 0.4 else None
                )
                crash_at = (
                    rng.randrange(n_commits) if rng.random() < 0.3 else None
                )
                partitioned = False
                for i in range(n_commits):
                    if i == partition_at:
                        set_drop(faults, None)
                        partitioned = True
                    if i == reset_at:
                        proxy.kill_links()
                    if i == crash_at:
                        # crash-restart the replica mid-replay: durable
                        # WAL means it resumes from its applied prefix
                        replica.close()
                        replica = Replica(
                            proxy.address, **replica_kwargs
                        ).start()
                    shape = rng.random()
                    if shape < 0.2:
                        session = db.session()
                        db.execute("BEGIN", session=session)
                        db.execute(
                            f"INSERT INTO t VALUES ({i}, 'txn')",
                            session=session,
                        )
                        db.execute("COMMIT", session=session)
                        acked.append((i, "txn"))
                    elif shape < 0.35:
                        db.executemany(
                            "INSERT INTO t VALUES (?, ?)",
                            [(i, "m0"), (i, "m1")],
                        )
                        acked.extend([(i, "m0"), (i, "m1")])
                    else:
                        db.execute(f"INSERT INTO t VALUES ({i}, 'auto')")
                        acked.append((i, "auto"))
                    if partitioned and rng.random() < 0.5:
                        set_drop(faults, drop)
                        partitioned = False
                set_drop(faults, drop)
                assert wait_until(
                    lambda: replica.database.last_applied_commit_id
                    >= primary.manager.last_commit_id
                ), (
                    f"round {round_no}: replica stuck at "
                    f"{replica.database.last_applied_commit_id} / "
                    f"{primary.manager.last_commit_id} "
                    f"(faults {tally(faults)}, replica {replica.stats})"
                )
                primary_rows = table_rows(db)
                replica_rows = table_rows(replica.database)
                assert replica_rows == primary_rows, (
                    f"round {round_no}: replica diverged "
                    f"(faults {tally(faults)})"
                )
                assert sorted(acked) == sorted(primary_rows)
                # prefix property: the replica never applied past the
                # primary, and its applied watermark is gap-free by
                # construction (apply_replicated_commit enforces order)
                assert (
                    replica.database.last_applied_commit_id
                    <= primary.manager.last_commit_id
                )
            finally:
                replica.close()
                proxy.close()
                primary.kill()
                primary.database.close()

    def test_torn_query_frames_never_misparse(self):
        """Query connections through a tearing proxy either complete or
        fail with a clean connection error — never a wrong result."""
        primary = Primary(host="127.0.0.1", port=0).start()
        faults = wire_faults(11, tear=0.15, drop=0.05)
        proxy = FaultProxy(primary.address, faults=faults).start()
        db = primary.database
        db.execute("CREATE TABLE t (a int, b text)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        ok = errors = 0
        try:
            for _ in range(40):
                try:
                    conn = client.connect(
                        *proxy.address, connect_timeout=1.0
                    )
                    rows = conn.run_script(
                        "SELECT a FROM t ORDER BY a"
                    )[-1].rows
                    assert rows == [(1,), (2,)]
                    ok += 1
                    conn.close()
                except (dbapi.Error, OSError):
                    errors += 1
            assert ok > 0  # some queries survive the chaos
            assert tally(faults)["tear"] + tally(faults)["drop"] > 0
        finally:
            proxy.close()
            primary.kill()
            primary.database.close()


class TestFailoverChaos:
    def test_no_acked_commit_lost_across_failover(self, fault_rounds):
        """Synchronous primary + two replicas; the primary is killed
        mid-workload and the most-caught-up replica promoted.  Every
        write the client saw acknowledged must be on the promoted node;
        the repointed survivor converges to the same rows."""
        for round_no in range(fault_rounds):
            rng = random.Random(0xFA11 + round_no)
            primary = Primary(
                host="127.0.0.1", port=0, synchronous=True
            ).start()
            r1 = Replica(
                primary.address, name=f"fo-a-{round_no}",
                recv_timeout_s=0.5,
            ).start()
            r2 = Replica(
                primary.address, name=f"fo-b-{round_no}",
                recv_timeout_s=0.5,
            ).start()
            endpoints = [primary.address, r1.address, r2.address]
            conn = MultiEndpointConnector(
                endpoints, probe_ttl_s=0.05, attempts=10, max_delay=0.2
            )
            acked = []
            kill_after = rng.randint(3, 12)
            try:
                conn.run("CREATE TABLE t (a int, b text)")
                for i in range(kill_after):
                    conn.run(f"INSERT INTO t VALUES ({i}, 'pre')")
                    acked.append((i, "pre"))

                def promote_most_caught_up():
                    time.sleep(rng.uniform(0.01, 0.1))
                    target = max(
                        (r1, r2),
                        key=lambda r: r.database.last_applied_commit_id,
                    )
                    other = r2 if target is r1 else r1
                    with client.connect(*target.address) as admin:
                        admin.promote()
                    other.repoint(target.address)
                    state["target"], state["other"] = target, other

                state = {}
                primary.kill()
                flipper = threading.Thread(
                    target=promote_most_caught_up, daemon=True
                )
                flipper.start()
                # writes issued into the failover window ride 57P03
                # retries until the promoted node answers
                for i in range(kill_after, kill_after + 5):
                    conn.run(f"INSERT INTO t VALUES ({i}, 'post')")
                    acked.append((i, "post"))
                flipper.join(timeout=10.0)
                target, other = state["target"], state["other"]
                new_primary_rows = table_rows(target.database)
                # no acked commit lost: acked ⊆ new primary (the node
                # may additionally hold commits whose acks were severed
                # mid-flight by the crash — durable-but-unacked is fine)
                assert set(acked) <= set(new_primary_rows), (
                    f"round {round_no}: lost "
                    f"{set(acked) - set(new_primary_rows)}"
                )
                assert wait_until(
                    lambda: other.database.last_applied_commit_id
                    >= target.manager.last_commit_id
                )
                assert table_rows(other.database) == new_primary_rows
            finally:
                conn.close()
                r1.close()
                r2.close()
                primary.kill()
                primary.database.close()

    def test_failover_time_is_bounded(self):
        """Client-visible downtime ≈ promotion delay + one backoff step,
        far under the retry budget's worst case."""
        primary = Primary(host="127.0.0.1", port=0).start()
        replica = Replica(primary.address, name="ttr").start()
        conn = MultiEndpointConnector(
            [primary.address, replica.address],
            probe_ttl_s=0.05, attempts=12, base_delay=0.01, max_delay=0.1,
        )
        try:
            conn.run("CREATE TABLE t (a int, b text)")
            conn.run("INSERT INTO t VALUES (0, 'seed')")
            conn.topology.wait_for_replicas(timeout=10)
            primary.kill()

            def promote_soon():
                time.sleep(0.1)
                with client.connect(*replica.address) as admin:
                    admin.promote()

            threading.Thread(target=promote_soon, daemon=True).start()
            started = time.monotonic()
            conn.run("INSERT INTO t VALUES (1, 'post')")
            downtime = time.monotonic() - started
            assert downtime < 5.0
            assert conn.run("SELECT count(*) FROM t").rows == [(2,)]
        finally:
            conn.close()
            replica.close()
            primary.kill()
            primary.database.close()
