"""WAL-streaming replication: streams, snapshots, lag, promotion,
topology-aware routing, and the synchronous/durability contracts.

Every test runs a real :class:`~repro.sqldb.replication.Primary` and
one or more :class:`~repro.sqldb.replication.Replica` processes-in-
threads on ephemeral loopback ports, connected by the same framed
protocol the query path uses.  The recurring invariants:

* a replica converges to the primary's exact state (same rows) once
  lag drains, whether it bootstrapped from the live stream or from a
  snapshot;
* a replica refuses writes with SQLSTATE 25006 until promoted;
* promotion loses nothing the replica had applied, and the
  multi-endpoint connector's retry loop rides over the failover window
  (57P03) without surfacing an error to the caller;
* ``wal_sync`` policies trade fsyncs for the documented acked-
  durability contract.
"""

import threading
import time

import pytest

from repro.core.connectors import MultiEndpointConnector
from repro.errors import CannotConnectNow, ReadOnlySQLTransaction
from repro.sqldb import client, dbapi
from repro.sqldb.client import ConnectionPool, RETRYABLE_SQLSTATES, Topology
from repro.sqldb.engine import Database
from repro.sqldb.replication import Primary, Replica, ReplicationManager

pytestmark = [pytest.mark.server, pytest.mark.replication]


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def caught_up(primary, replica):
    """True when *replica* has applied every record-bearing commit the
    primary's manager has streamed (robust where ``replica.lag`` is
    stale: the frame carrying the new watermark may not have landed)."""
    return (
        replica.database.last_applied_commit_id
        >= primary.manager.last_commit_id
    )


def rows_of(database, sql="SELECT a, b FROM t ORDER BY a"):
    return database.execute(sql).rows


@pytest.fixture
def primary():
    node = Primary(host="127.0.0.1", port=0).start()
    yield node
    node.kill()
    node.database.close()


def make_replica(primary, **kwargs):
    return Replica(primary.address, **kwargs).start()


class TestStreaming:
    def test_live_stream_applies_commits(self, primary):
        replica = make_replica(primary, name="r-live")
        try:
            db = primary.database
            db.execute("CREATE TABLE t (a int, b text)")
            db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            assert wait_until(lambda: caught_up(primary, replica))
            assert rows_of(replica.database) == rows_of(db)
            assert replica.lag == 0
            # txn framing and executemany travel too
            session = db.session()
            db.execute("BEGIN", session=session)
            db.execute("INSERT INTO t VALUES (3, 'z')", session=session)
            db.execute("COMMIT", session=session)
            db.executemany(
                "INSERT INTO t VALUES (?, ?)", [(4, "p"), (5, "q")]
            )
            assert wait_until(lambda: caught_up(primary, replica))
            assert rows_of(replica.database) == rows_of(db)
        finally:
            replica.close()

    def test_snapshot_bootstrap_for_late_replica(self):
        # the database pre-dates the replication manager, so the
        # manager's retained log starts *after* the data: a fresh
        # replica must bootstrap from a snapshot, not the stream
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int, b text)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        node = Primary(db, host="127.0.0.1", port=0).start()
        replica = make_replica(node, name="r-late")
        primary = node
        try:
            assert wait_until(lambda: caught_up(primary, replica))
            assert replica.stats["snapshots"] >= 1
            assert rows_of(replica.database) == rows_of(db)
            # and the stream continues past the snapshot
            db.execute("INSERT INTO t VALUES (3, 'z')")
            assert wait_until(lambda: caught_up(primary, replica))
            assert rows_of(replica.database) == rows_of(db)
        finally:
            replica.close()
            node.kill()
            db.close()

    def test_replica_reads_are_snapshot_consistent(self, primary):
        db = primary.database
        db.execute("CREATE TABLE t (a int, b text)")
        replica = make_replica(primary, name="r-read")
        try:
            # the prefix the read may land on starts after CREATE TABLE
            assert wait_until(lambda: caught_up(primary, replica))
            for i in range(20):
                db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
            # a replica read never sees a torn commit: the row count is
            # always consistent with some applied prefix
            with client.connect(*replica.address) as conn:
                n = conn.run_script("SELECT count(*) FROM t")[-1].rows[0][0]
            assert 0 <= n <= 20
            assert wait_until(lambda: caught_up(primary, replica))
            assert rows_of(replica.database) == rows_of(db)
        finally:
            replica.close()

    def test_lag_and_status_reporting(self, primary):
        db = primary.database
        db.execute("CREATE TABLE t (a int, b text)")
        replica = make_replica(primary, name="r-status")
        try:
            db.execute("INSERT INTO t VALUES (1, 'x')")
            assert wait_until(lambda: caught_up(primary, replica))
            status = replica.status()
            assert status["role"] == "replica"
            assert status["last_applied"] == primary.manager.last_commit_id
            assert status["lag"] == 0
            # the primary reports its subscriber over the wire
            with client.connect(*primary.address) as conn:
                pstat = conn.replica_status()
            assert pstat["role"] == "primary"
            subs = {s["name"] for s in pstat["subscribers"]}
            assert "r-status" in subs
        finally:
            replica.close()

    def test_replica_rejects_writes_with_25006(self, primary):
        db = primary.database
        db.execute("CREATE TABLE t (a int, b text)")
        replica = make_replica(primary, name="r-ro")
        try:
            assert wait_until(lambda: caught_up(primary, replica))
            with client.connect(*replica.address) as conn:
                with pytest.raises(dbapi.OperationalError) as info:
                    conn.run_script("INSERT INTO t VALUES (9, 'w')")
                assert info.value.sqlstate == "25006"
                assert isinstance(info.value, ReadOnlySQLTransaction)
                # reads still fine on the same connection
                rows = conn.run_script("SELECT count(*) FROM t")[-1].rows
                assert rows == [(0,)]
            assert "25006" in RETRYABLE_SQLSTATES
            assert "57P03" in RETRYABLE_SQLSTATES
        finally:
            replica.close()

    def test_cascading_relay(self, primary):
        """A replica's replica converges (commit hooks re-fire on apply)."""
        db = primary.database
        db.execute("CREATE TABLE t (a int, b text)")
        mid = make_replica(primary, name="r-mid")
        leaf = Replica(mid.address, name="r-leaf").start()
        try:
            db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            assert wait_until(lambda: caught_up(primary, mid))
            assert wait_until(
                lambda: leaf.database.last_applied_commit_id
                >= mid.database.last_applied_commit_id
            )
            assert rows_of(leaf.database) == rows_of(db)
        finally:
            leaf.close()
            mid.close()


class TestPromotion:
    def test_promote_over_the_wire(self, primary):
        db = primary.database
        db.execute("CREATE TABLE t (a int, b text)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        replica = make_replica(primary, name="r-promo")
        try:
            assert wait_until(lambda: caught_up(primary, replica))
            primary.kill()
            with client.connect(*replica.address) as conn:
                out = conn.promote()
                assert out["commit_id"] == replica.database.last_applied_commit_id
                # the promoted node accepts writes on the same connection
                conn.run_script("INSERT INTO t VALUES (2, 'y')")
                rows = conn.run_script("SELECT a FROM t ORDER BY a")[-1].rows
            assert rows == [(1,), (2,)]
            assert replica.status()["role"] == "primary"
        finally:
            replica.close()

    def test_promote_on_primary_is_rejected(self, primary):
        with client.connect(*primary.address) as conn:
            with pytest.raises(dbapi.Error) as info:
                conn.promote()
            assert info.value.sqlstate == "0A000"

    def test_repoint_surviving_replica_to_promoted_node(self, primary):
        db = primary.database
        db.execute("CREATE TABLE t (a int, b text)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        r1 = make_replica(primary, name="r-new-primary")
        r2 = make_replica(primary, name="r-survivor")
        try:
            assert wait_until(lambda: caught_up(primary, r1))
            assert wait_until(lambda: caught_up(primary, r2))
            primary.kill()
            with client.connect(*r1.address) as conn:
                conn.promote()
            r2.repoint(r1.address)
            with client.connect(*r1.address) as conn:
                conn.run_script("INSERT INTO t VALUES (2, 'y')")
            # r1's own manager tracks its post-promotion commits
            assert wait_until(
                lambda: r2.database.last_applied_commit_id
                >= r1.manager.last_commit_id
            )
            assert rows_of(r2.database) == rows_of(r1.database)
            assert rows_of(r2.database) == [(1, "x"), (2, "y")]
        finally:
            r1.close()
            r2.close()


class TestSynchronousReplication:
    def test_commit_waits_for_replica_ack(self):
        node = Primary(host="127.0.0.1", port=0, synchronous=True).start()
        replica = make_replica(node, name="r-sync")
        try:
            db = node.database
            db.execute("CREATE TABLE t (a int, b text)")
            db.execute("INSERT INTO t VALUES (1, 'x')")
            # commit returned => the replica already applied it; no wait
            assert (
                replica.database.last_applied_commit_id
                >= node.manager.last_commit_id
            )
            assert rows_of(replica.database) == [(1, "x")]
        finally:
            replica.close()
            node.kill()
            node.database.close()

    def test_sync_commit_unblocks_on_manager_close(self):
        """With no replica attached, closing the manager releases a
        blocked synchronous commit instead of deadlocking shutdown."""
        node = Primary(
            host="127.0.0.1", port=0, synchronous=True, sync_timeout_s=30.0
        ).start()
        done = threading.Event()

        def writer():
            try:
                node.database.execute("CREATE TABLE t (a int)")
            finally:
                done.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert not done.wait(0.2)  # blocked: nobody acks
        node.manager.close()
        assert done.wait(5.0)
        thread.join(timeout=5.0)
        node.kill()
        node.database.close()


class TestWalSyncPolicies:
    @pytest.mark.parametrize("policy", ["commit", "group", "off"])
    def test_acked_commits_survive_clean_reopen(self, tmp_path, policy):
        path = tmp_path / f"wal-{policy}.jsonl"
        db = Database("umbra", wal_path=str(path), wal_sync=policy,
                      wal_group_every=3)
        db.execute("CREATE TABLE t (a int)")
        for i in range(7):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.close()
        again = Database("umbra", wal_path=str(path))
        assert again.execute("SELECT count(*) FROM t").scalar() == 7
        again.close()

    def test_group_policy_batches_fsyncs(self, tmp_path):
        grouped = Database(
            "umbra", wal_path=str(tmp_path / "g.jsonl"),
            wal_sync="group", wal_group_every=4,
        )
        every = Database(
            "umbra", wal_path=str(tmp_path / "c.jsonl"), wal_sync="commit"
        )
        for db in (grouped, every):
            db.execute("CREATE TABLE t (a int)")
            for i in range(8):
                db.execute(f"INSERT INTO t VALUES ({i})")
        assert grouped._wal.sync_count < every._wal.sync_count
        grouped.close()
        every.close()

    def test_invalid_policy_rejected(self, tmp_path):
        from repro.errors import DurabilityError

        with pytest.raises(DurabilityError):
            Database("umbra", wal_path=str(tmp_path / "x.jsonl"),
                     wal_sync="sometimes")


class TestDurableReplica:
    def test_crash_restart_resumes_without_snapshot(self, primary, tmp_path):
        db = primary.database
        db.execute("CREATE TABLE t (a int, b text)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        wal = str(tmp_path / "replica.jsonl")
        replica = make_replica(
            primary, name="r-durable",
            database_kwargs={"wal_path": wal, "wal_sync": "commit"},
        )
        assert wait_until(lambda: caught_up(primary, replica))
        applied = replica.database.last_applied_commit_id
        replica.close()  # "crash": the node goes away mid-topology
        db.execute("INSERT INTO t VALUES (2, 'y')")
        reborn = make_replica(
            primary, name="r-durable",
            database_kwargs={"wal_path": wal, "wal_sync": "commit"},
        )
        try:
            assert reborn.database.last_applied_commit_id >= applied
            assert wait_until(lambda: caught_up(primary, reborn))
            # resumed from its durable position: no snapshot re-transfer
            assert reborn.stats["snapshots"] == 0
            assert rows_of(reborn.database) == rows_of(db)
        finally:
            reborn.close()


class TestTopologyRouting:
    def test_reads_round_robin_writes_primary(self, primary):
        r1 = make_replica(primary, name="rr-1")
        r2 = make_replica(primary, name="rr-2")
        conn = MultiEndpointConnector(
            [primary.address, r1.address, r2.address], probe_ttl_s=0.2
        )
        try:
            conn.run("CREATE TABLE t (a int, b text)")
            conn.run("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            conn.topology.wait_for_replicas(timeout=10)
            for _ in range(4):
                assert conn.run("SELECT count(*) FROM t").rows == [(2,)]
            assert conn.reads_routed["replica"] == 4
            assert conn.reads_routed["primary"] == 0
            # both replicas served (round robin, not a hot single node)
            served = {
                s["name"]
                for s in primary.manager.subscriber_status()
            }
            assert served == {"rr-1", "rr-2"}
            # the connector's pool hands out further routed connections
            pool = conn.pool(size=1)
            with pool.connection() as pooled:
                assert pooled is not conn.connection
                rows = pooled.run_script("SELECT count(*) FROM t")[-1].rows
            pool.close()
            assert rows == [(2,)]
        finally:
            conn.close()
            r1.close()
            r2.close()

    def test_connector_failover_bounded_by_backoff(self, primary):
        r1 = make_replica(primary, name="fo-1")
        conn = MultiEndpointConnector(
            [primary.address, r1.address], probe_ttl_s=0.1
        )
        try:
            conn.run("CREATE TABLE t (a int, b text)")
            conn.run("INSERT INTO t VALUES (1, 'x')")
            conn.topology.wait_for_replicas(timeout=10)
            primary.kill()

            def promote_soon():
                time.sleep(0.15)
                with client.connect(*r1.address) as admin:
                    admin.promote()

            threading.Thread(target=promote_soon, daemon=True).start()
            started = time.monotonic()
            conn.run("INSERT INTO t VALUES (2, 'y')")  # rides the window
            elapsed = time.monotonic() - started
            assert conn.retries > 0
            assert elapsed < 10.0
            assert conn.run("SELECT a FROM t ORDER BY a").rows == [
                (1,), (2,),
            ]
        finally:
            conn.close()
            r1.close()

    def test_no_primary_raises_57p03(self, primary):
        r1 = make_replica(primary, name="np-1")
        try:
            assert wait_until(lambda: caught_up(primary, r1))
            primary.kill()
            topo = Topology([r1.address], probe_ttl_s=0.0)
            with pytest.raises(CannotConnectNow) as info:
                topo.primary_endpoint()
            assert info.value.sqlstate == "57P03"
            # reads still routable
            assert topo.next_replica_endpoint() == r1.address
        finally:
            r1.close()

    def test_pool_over_a_topology_heals_onto_the_survivor(self, primary):
        # the topology-factory case of the one ConnectionPool (the other
        # connection kinds: tests/core/test_pool_retry.py): checkout
        # validation replaces a dead connection by dialling through the
        # *current* topology
        r1 = make_replica(primary, name="pool-1")
        topo = Topology([primary.address, r1.address], probe_ttl_s=0.2)

        def dial_reader():
            return topo.connect(
                topo.next_replica_endpoint() or topo.primary_endpoint()
            )

        pool = ConnectionPool(dial_reader, size=2)
        try:
            primary.database.execute("CREATE TABLE t (a int)")
            primary.database.execute("INSERT INTO t VALUES (1)")
            assert wait_until(lambda: caught_up(primary, r1))
            def read_count():
                with pool.connection() as conn:
                    return conn.run_script("SELECT count(*) FROM t")[-1].rows

            assert read_count() == [(1,)]
            # kill the server under the idle pooled connection; the
            # next checkout may hand out the not-yet-detected corpse
            # once, after which the pool replaces it and re-routes to
            # the primary (the only live endpoint)
            r1.server.shutdown(drain_s=0.0)
            topo.invalidate()
            try:
                rows = read_count()
            except dbapi.Error:
                rows = read_count()
            assert rows == [(1,)]
            assert pool.stats["dead_sessions_replaced"] == 1
        finally:
            pool.close()
            r1.close()


class TestManagerEdges:
    def test_subscribe_after_close_raises_57p03(self):
        db = Database("umbra")
        manager = ReplicationManager(db)
        manager.close()
        with pytest.raises(CannotConnectNow):
            manager.subscribe("late", start_after=0)
        db.close()

    def test_retention_horizon_forces_snapshot_resync(self, primary):
        # a tiny retained log: a subscriber that falls behind its
        # horizon is told to resync rather than silently skipping
        db = Database("umbra")
        manager = ReplicationManager(db, retain=2)
        db.execute("CREATE TABLE t (a int)")
        sub = manager.subscribe("slow", start_after=0)
        for i in range(6):
            db.execute(f"INSERT INTO t VALUES ({i})")
        from repro.errors import ProtocolViolation

        with pytest.raises(ProtocolViolation):
            manager.next_batch(sub, timeout=0.1)
        manager.close()
        db.close()


class TestReplicaApply:
    def test_dependent_matview_materialised_once_per_commit(self, monkeypatch):
        # engine level, no sockets: the primary's commit hook feeds the
        # replica's applier directly
        primary_db = Database("umbra")
        replica_db = Database("umbra", read_only=True)
        primary_db.add_commit_hook(replica_db.apply_replicated_commit)
        primary_db.execute("CREATE TABLE t (a int)")
        primary_db.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT count(*) AS n FROM t"
        )
        recomputed = []
        original = Database._recompute_snapshot

        def counting(self, view, catalog):
            if self is replica_db:
                recomputed.append(view.name)
            return original(self, view, catalog)

        monkeypatch.setattr(Database, "_recompute_snapshot", counting)
        primary_db.execute("INSERT INTO t VALUES (7)")
        # the record lands on the replica's committed catalog, whose DML
        # epilogue already refreshed the view: no second install pass
        assert recomputed == ["mv"]
        assert (
            replica_db.execute("SELECT n FROM mv").rows
            == primary_db.execute("SELECT n FROM mv").rows
            == [(1,)]
        )

    def test_transactional_ddl_refreshes_matview_like_the_primary(self):
        # a transaction that rewrites a matview's input by DDL only has no
        # DML epilogue to refresh it: the primary refreshes in COMMIT's
        # install step, and the replica must do the same for the framed
        # commit or it diverges for good
        primary_db = Database("umbra")
        replica_db = Database("umbra", read_only=True)
        primary_db.add_commit_hook(replica_db.apply_replicated_commit)
        primary_db.execute("CREATE TABLE t (a int)")
        primary_db.execute("INSERT INTO t VALUES (1)")
        primary_db.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT count(*) AS n FROM t"
        )
        primary_db.run_script(
            "BEGIN; DROP TABLE t; CREATE TABLE t (a int); COMMIT"
        )
        assert (
            replica_db.execute("SELECT n FROM mv").rows
            == primary_db.execute("SELECT n FROM mv").rows
            == [(0,)]
        )
