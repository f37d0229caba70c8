"""WAL-streaming replication: primaries, read replicas, promotion.

The engine already produces everything a replication stream needs: every
commit's redo records are buffered for the WAL and handed — in commit
order, under the write latch — to post-commit hooks
(:meth:`~repro.sqldb.engine.Database.add_commit_hook`).  This module
turns that feed into a physical topology over the existing
length-prefixed JSON protocol:

* :class:`ReplicationManager` attaches to a database and retains a
  bounded in-memory log of ``(commit_id, records)``; the socket server
  (:class:`~repro.sqldb.server.DatabaseServer` with ``replication=``)
  serves ``replicate`` subscriptions from it — a snapshot bootstrap
  (pickled catalog export) when the subscriber starts below the retained
  horizon, then ``wal_batch`` frames in commit order, stop-and-wait
  acknowledged (``replicate_ack``), with ``wal_heartbeat`` keepalives
  while the primary is idle.
* :class:`Replica` owns a read-only :class:`~repro.sqldb.engine.Database`,
  a server for read traffic, and a background stream thread that applies
  batches via :meth:`~repro.sqldb.engine.Database.apply_replicated_commit`
  (idempotent, so at-least-once delivery converges) and reconnects with
  backoff from its last applied position after any fault — torn frame,
  dropped batch, partition, primary restart.
* :class:`Primary` bundles database + manager + server, including a
  ``kill()`` that models a crash (no drain, no goodbye) for failover
  tests.

**Stream robustness.**  Every server→replica frame carries a
per-subscription ``seq``; the replica acks the highest seq applied.  A
duplicated frame (seq ≤ last) is acked and skipped, a gap (seq jump) or
torn frame tears the connection down, and reconnect resumes from
``last_applied`` — so every network fault degenerates to reconnect +
resync, and commit application stays exactly-once because the applier
dedupes on commit id.

**Lag semantics.**  ``primary_commit_id`` on the wire is the newest
*record-bearing* commit id the manager has streamed — not the raw commit
counter, which also ticks for read-only explicit COMMITs that produce no
records and would make lag appear never to drain.  ``Replica.lag`` is
the difference between that and ``last_applied``; zero means the replica
has replayed every replicated commit the primary has produced.

**Synchronous mode.**  ``ReplicationManager(synchronous=True)`` makes
the commit hook block — commit latch held — until *some* subscriber
acknowledges the commit id (or the manager closes).  An acknowledged
commit then provably exists on at least one replica, which is the
invariant the failover chaos suite checks: promote the most-caught-up
replica and no acknowledged write is lost.  The price is writer latency
coupled to replica round-trips, and a partition stalls commits until it
heals; that is the contract synchronous replication buys.

Promotion (:meth:`Replica.promote`, or the ``promote`` wire frame)
stops the stream — the stop-and-wait protocol means there is no
unapplied buffered tail beyond the in-flight frame, which is allowed to
finish — flips the database writable, and the node's own manager (which
recorded every applied commit) starts serving downstream subscribers
from the same history.
"""

from __future__ import annotations

import base64
import pickle
import socket
import threading
import time
import zlib
from collections import deque
from typing import Any, Optional

from repro.errors import (
    CannotConnectNow,
    ProtocolViolation,
    SQLError,
)
from repro.sqldb.engine import Database
from repro.sqldb.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    client_handshake,
    exception_from_wire,
    recv_frame,
    send_frame,
)
from repro.sqldb.server import DatabaseServer

__all__ = [
    "ReplicationManager",
    "Replica",
    "Primary",
    "encode_snapshot",
    "decode_snapshot",
]


def encode_snapshot(state: dict) -> str:
    """Wire encoding of a full-state export: pickle → zlib → base64."""
    return base64.b64encode(
        zlib.compress(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
    ).decode("ascii")


def decode_snapshot(encoded: str) -> dict:
    try:
        return pickle.loads(zlib.decompress(base64.b64decode(encoded)))
    except Exception as exc:
        raise ProtocolViolation(f"undecodable snapshot frame: {exc}") from exc


class _Subscriber:
    """One downstream replica's stream state on the serving side."""

    __slots__ = ("name", "position", "acked", "needs_snapshot")

    def __init__(self, name: str, position: int, needs_snapshot: bool) -> None:
        self.name = name
        #: newest commit id sent to this subscriber
        self.position = position
        #: newest commit id the subscriber acknowledged as applied
        self.acked = position
        self.needs_snapshot = needs_snapshot


class ReplicationManager:
    """Bounded commit-order log of redo records plus subscriber registry.

    Attach one per node: on a primary it feeds downstream subscribers;
    on a replica it records every applied commit so the node can relay
    (cascading replication) and serve its own subscribers immediately
    after promotion.
    """

    def __init__(
        self,
        database: Database,
        *,
        name: str = "node",
        retain: int = 4096,
        synchronous: bool = False,
        sync_timeout_s: Optional[float] = None,
        max_batch_commits: int = 256,
    ) -> None:
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.database = database
        self.name = name
        self.retain = retain
        #: block each commit until a subscriber acknowledges it
        self.synchronous = synchronous
        #: safety valve for the synchronous wait (None = wait forever)
        self.sync_timeout_s = sync_timeout_s
        self.max_batch_commits = max_batch_commits
        self._cond = threading.Condition()
        #: (commit_id, records) in commit order, trimmed at ``retain``
        self._entries: deque[tuple[int, list]] = deque()
        #: commits at or below ``base`` predate the log (or were trimmed):
        #: a subscriber starting below it bootstraps by snapshot
        self.base = database.current_commit_id
        #: newest record-bearing commit id (the lag reference point)
        self.last_commit_id = self.base
        self._max_acked = self.base
        self._subscribers: set[_Subscriber] = set()
        self._closed = False
        self.stats = {"streamed_commits": 0, "trimmed": 0, "sync_waits": 0}
        database.add_commit_hook(self._on_commit)

    # -- commit feed (runs under the database write latch) ------------------

    def _on_commit(self, commit_id: int, records: list[dict]) -> None:
        with self._cond:
            if self._closed:
                return
            self._entries.append((commit_id, records))
            while len(self._entries) > self.retain:
                trimmed_id, _ = self._entries.popleft()
                self.base = trimmed_id
                self.stats["trimmed"] += 1
            self.last_commit_id = commit_id
            self.stats["streamed_commits"] += 1
            self._cond.notify_all()
            if not self.synchronous:
                return
            # synchronous replication: hold the commit (latch and all)
            # until some replica has durably applied it.  A partition
            # stalls writers until it heals — that is the deal.
            self.stats["sync_waits"] += 1
            deadline = (
                None
                if self.sync_timeout_s is None
                else time.monotonic() + self.sync_timeout_s
            )
            while not self._closed and self._max_acked < commit_id:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return  # acked locally only; caller opted into a valve
                self._cond.wait(remaining)

    # -- subscriptions ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def subscribe(self, name: str, start_after: int) -> _Subscriber:
        """Register a downstream subscriber resuming after commit id
        ``start_after``; positions below the retained horizon are flagged
        for snapshot bootstrap."""
        with self._cond:
            if self._closed:
                raise CannotConnectNow(
                    "replication manager is closed; cannot subscribe"
                )
            needs_snapshot = start_after < self.base
            sub = _Subscriber(name, max(start_after, 0), needs_snapshot)
            self._subscribers.add(sub)
            return sub

    def unsubscribe(self, sub: _Subscriber) -> None:
        with self._cond:
            self._subscribers.discard(sub)
            self._cond.notify_all()

    def record_ack(self, sub: _Subscriber, applied: int) -> None:
        with self._cond:
            sub.acked = max(sub.acked, int(applied))
            if sub.acked > self._max_acked:
                self._max_acked = sub.acked
                self._cond.notify_all()

    def snapshot_for(self, sub: _Subscriber) -> tuple[str, int]:
        """Full-state bootstrap for one subscriber; advances its position
        to the snapshot's commit id so the stream resumes right after."""
        state = self.database.snapshot_state()
        last_txn = int(state["last_txn"])
        encoded = encode_snapshot(state)
        with self._cond:
            sub.position = max(sub.position, last_txn)
            sub.acked = max(sub.acked, last_txn)
            sub.needs_snapshot = False
        return encoded, last_txn

    def next_batch(
        self, sub: _Subscriber, timeout: float
    ) -> Optional[tuple[list[dict], int]]:
        """Commits after the subscriber's position (bounded batch), in
        commit order; an empty list after ``timeout`` seconds of primary
        idleness (heartbeat time); ``None`` once the manager closes.

        Raises :class:`~repro.errors.ProtocolViolation` if the
        subscriber's position fell below the retained horizon (the log
        trimmed past it) — the connection tears down and the replica's
        reconnect gets a fresh snapshot."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    return None
                if sub.position < self.base:
                    raise ProtocolViolation(
                        f"subscriber {sub.name!r} fell below the retained "
                        f"horizon (position {sub.position}, base {self.base});"
                        f" resync required"
                    )
                commits = []
                for commit_id, records in self._entries:
                    if commit_id <= sub.position:
                        continue
                    commits.append({"id": commit_id, "records": records})
                    if len(commits) >= self.max_batch_commits:
                        break
                if commits:
                    sub.position = commits[-1]["id"]
                    return commits, self.last_commit_id
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], self.last_commit_id
                self._cond.wait(remaining)

    def subscriber_status(self) -> list[dict]:
        with self._cond:
            return [
                {
                    "name": sub.name,
                    "position": sub.position,
                    "acked": sub.acked,
                    "lag": max(0, self.last_commit_id - sub.acked),
                }
                for sub in self._subscribers
            ]

    def reset(self, commit_id: int) -> None:
        """Restart the log at ``commit_id`` (the node just adopted a
        snapshot: retained history predates its new state)."""
        with self._cond:
            self._entries.clear()
            self.base = commit_id
            self.last_commit_id = commit_id
            self._max_acked = max(self._max_acked, commit_id)
            self._cond.notify_all()

    def close(self) -> None:
        """Detach from the database and release every waiter — blocked
        synchronous commits and parked subscriber pumps all return.
        Call this *before* shutting the server down: a synchronous
        commit blocked in the hook holds the engine write latch."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self.database.remove_commit_hook(self._on_commit)


class Replica:
    """A read-only database continuously replaying a primary's stream.

    Owns three pieces: the replica :class:`Database` (pass ``wal_path``
    in ``database_kwargs`` for a durable replica that recovers its
    applied prefix after a crash), a :class:`DatabaseServer` answering
    read queries (writes get SQLSTATE 25006), and a stream thread that
    subscribes to the primary and applies batches.  The node's own
    :class:`ReplicationManager` records applied commits, so it can serve
    downstream subscribers — immediately relevant after
    :meth:`promote`."""

    def __init__(
        self,
        primary_address: tuple[str, int],
        *,
        name: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: Optional[str] = None,
        database: Optional[Database] = None,
        database_kwargs: Optional[dict] = None,
        server_kwargs: Optional[dict] = None,
        retain: int = 4096,
        connect_timeout_s: float = 5.0,
        recv_timeout_s: float = 10.0,
        reconnect_min_s: float = 0.05,
        reconnect_max_s: float = 1.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.primary_address = (str(primary_address[0]), int(primary_address[1]))
        self.name = name or f"replica-{id(self):x}"
        self.auth_token = auth_token
        self.connect_timeout_s = connect_timeout_s
        self.recv_timeout_s = recv_timeout_s
        self.reconnect_min_s = reconnect_min_s
        self.reconnect_max_s = reconnect_max_s
        self.max_frame_bytes = max_frame_bytes
        if database is None:
            kwargs = dict(database_kwargs or {})
            kwargs.setdefault("read_only", True)
            database = Database(**kwargs)
        self.database = database
        self.database.read_only = True
        # a durable replica that crash-recovered: its replay position is
        # whatever its local WAL rebuilt (every local commit there was a
        # replicated one)
        self.database.last_applied_commit_id = max(
            self.database.last_applied_commit_id,
            self.database.current_commit_id,
        )
        self.manager = ReplicationManager(
            self.database, name=self.name, retain=retain
        )
        self.server = DatabaseServer(
            self.database,
            host=host,
            port=port,
            replication=self.manager,
            **(server_kwargs or {}),
        )
        self.server.promote_hook = self.promote
        self.server.status_hook = self.status
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._sock_mutex = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        #: newest record-bearing primary commit id seen on the stream
        self.primary_commit_id = self.database.last_applied_commit_id
        self.connected = False
        self.promoted = False
        self.stats = {
            "reconnects": 0,
            "snapshots": 0,
            "batches": 0,
            "heartbeats": 0,
            "duplicate_frames": 0,
            "stream_errors": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    @property
    def lag(self) -> int:
        """Record-bearing commits the primary has committed but this
        replica has not applied yet (0 = fully caught up)."""
        return max(
            0, self.primary_commit_id - self.database.last_applied_commit_id
        )

    def start(self) -> "Replica":
        self.server.start()
        self._thread = threading.Thread(
            target=self._stream_loop,
            name=f"repro-sql-replica-{self.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop_stream(self) -> None:
        """Stop pulling from the primary (the read server stays up)."""
        self._stop.set()
        with self._sock_mutex:
            sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    def close(self) -> None:
        """Full teardown: stream, server, manager, database."""
        self.stop_stream()
        self.manager.close()
        self.server.shutdown(drain_s=1.0)
        self.database.close()

    # -- promotion ----------------------------------------------------------

    def promote(self) -> dict:
        """Stop replicating and start accepting writes.

        Stop-and-wait streaming means the in-flight frame (if any) is
        the whole buffered tail; :meth:`stop_stream` joins the stream
        thread, so that frame finishes applying before the flip.  The
        node's manager already holds the applied history and starts
        serving downstream subscribers as the new primary."""
        self.stop_stream()
        self.database.read_only = False
        self.promoted = True
        return {"commit_id": self.database.last_applied_commit_id}

    def repoint(self, primary_address: tuple[str, int]) -> None:
        """Follow a different upstream (re-parenting after a failover).

        Swaps the primary address and kills the current stream socket;
        the stream loop reconnects to the new address and resumes from
        ``last_applied_commit_id`` (the new primary answers with a
        snapshot only if its retained log no longer covers that
        position).  Correct only when the new primary is at least as
        caught up as this replica — promote the most-caught-up node."""
        self.primary_address = (
            str(primary_address[0]), int(primary_address[1])
        )
        with self._sock_mutex:
            sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def status(self) -> dict:
        return {
            "type": "status",
            "role": "replica" if self.database.read_only else "primary",
            "name": self.name,
            "connected": self.connected,
            "promoted": self.promoted,
            "last_applied": self.database.last_applied_commit_id,
            "commit_id": self.database.current_commit_id,
            "last_commit_id": self.manager.last_commit_id,
            "primary_commit_id": self.primary_commit_id,
            "lag": self.lag,
            "subscribers": self.manager.subscriber_status(),
            "stats": dict(self.stats),
        }

    # -- the stream ---------------------------------------------------------

    def _stream_loop(self) -> None:
        backoff = self.reconnect_min_s
        while not self._stop.is_set():
            try:
                self._connect_and_stream()
                backoff = self.reconnect_min_s
            except (OSError, SQLError):
                self.stats["stream_errors"] += 1
            finally:
                self.connected = False
            if self._stop.is_set():
                return
            self.stats["reconnects"] += 1
            self._stop.wait(backoff)
            backoff = min(backoff * 2, self.reconnect_max_s)

    def _connect_and_stream(self) -> None:
        sock = socket.create_connection(
            self.primary_address, timeout=self.connect_timeout_s
        )
        with self._sock_mutex:
            self._sock = sock
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.recv_timeout_s)
            client_handshake(
                sock, self.auth_token, max_bytes=self.max_frame_bytes
            )
            send_frame(
                sock,
                {
                    "type": "replicate",
                    "start_after": self.database.last_applied_commit_id,
                    "name": self.name,
                },
            )
            self.connected = True
            last_seq = 0
            while not self._stop.is_set():
                frame = recv_frame(sock, self.max_frame_bytes)
                if frame is None:
                    raise OSError("primary closed the stream")
                kind = frame["type"]
                if kind == "error":
                    raise exception_from_wire(frame)
                if kind == "snapshot":
                    state = decode_snapshot(frame["state"])
                    self.database.install_replica_snapshot(state)
                    self.manager.reset(self.database.last_applied_commit_id)
                    self.stats["snapshots"] += 1
                elif kind in ("wal_batch", "wal_heartbeat"):
                    seq = int(frame.get("seq", 0))
                    if seq <= last_seq:
                        # duplicated frame: already applied — re-ack so
                        # the primary's stop-and-wait keeps moving
                        self.stats["duplicate_frames"] += 1
                        self._ack(sock, last_seq)
                        continue
                    if seq != last_seq + 1:
                        raise ProtocolViolation(
                            f"replication stream gap: expected seq "
                            f"{last_seq + 1}, got {seq}"
                        )
                    last_seq = seq
                    if kind == "wal_batch":
                        for commit in frame.get("commits", ()):
                            self.database.apply_replicated_commit(
                                int(commit["id"]), commit["records"]
                            )
                        self.stats["batches"] += 1
                    else:
                        self.stats["heartbeats"] += 1
                else:
                    raise ProtocolViolation(
                        f"unexpected stream frame {kind!r}"
                    )
                tip = int(frame.get("primary_commit_id", 0))
                if tip > self.primary_commit_id:
                    self.primary_commit_id = tip
                self._ack(sock, last_seq)
        finally:
            self.connected = False
            with self._sock_mutex:
                self._sock = None
            try:
                sock.close()
            except OSError:
                pass

    def _ack(self, sock: socket.socket, seq: int) -> None:
        send_frame(
            sock,
            {
                "type": "replicate_ack",
                "seq": seq,
                "applied": self.database.last_applied_commit_id,
            },
        )


class Primary:
    """Database + replication manager + server, bundled for topologies.

    ``synchronous=True`` makes every commit wait for a replica ack (see
    :class:`ReplicationManager`); ``kill()`` models a crash — the
    manager unblocks first (a blocked synchronous commit holds the
    write latch), then the server drops every connection without
    drain."""

    def __init__(
        self,
        database: Optional[Database] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        name: str = "primary",
        synchronous: bool = False,
        sync_timeout_s: Optional[float] = None,
        retain: int = 4096,
        database_kwargs: Optional[dict] = None,
        server_kwargs: Optional[dict] = None,
    ) -> None:
        self.name = name
        if database is None:
            database = Database(**(database_kwargs or {}))
        self.database = database
        self.manager = ReplicationManager(
            database,
            name=name,
            retain=retain,
            synchronous=synchronous,
            sync_timeout_s=sync_timeout_s,
        )
        self.server = DatabaseServer(
            database,
            host=host,
            port=port,
            replication=self.manager,
            **(server_kwargs or {}),
        )

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def start(self) -> "Primary":
        self.server.start()
        return self

    def stop(self, drain_s: float = 5.0) -> None:
        self.manager.close()
        self.server.shutdown(drain_s=drain_s)
        self.database.close()

    def kill(self) -> None:
        """Crash, not shutdown: no drain, no checkpoint, connections
        dropped mid-frame.  The database object is left as-is (a durable
        one would recover from its WAL on reopen).

        Connections are severed *before* the manager unblocks waiting
        synchronous commits: a commit that never got its replica ack
        must not slip an acknowledgement frame to the client between
        the unblock and the socket teardown — an acked-but-unreplicated
        commit is exactly the loss the synchronous mode rules out."""
        self.server.kill_connections()
        self.manager.close()
        self.server.shutdown(drain_s=0.0)

    def __enter__(self) -> "Primary":
        if not self.server._started:
            self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
