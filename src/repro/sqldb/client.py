"""PEP 249 client driver for the socket server (the remote psycopg2) —
and everything a client builds on top of a connection.

``connect(host, port)`` opens a TCP connection to a
:class:`~repro.sqldb.server.DatabaseServer`, performs the versioned
handshake and returns a :class:`RemoteConnection` exposing the same
surface as :class:`repro.sqldb.dbapi.Connection` — ``cursor()`` (the one
:class:`~repro.sqldb.dbapi.Cursor`), ``run_script``/``executemany``,
``begin``/``commit``/``rollback`` (sent as SQL), ``server_stats``,
context managers — so code written against the in-process adapter runs
over the wire unchanged.

Server-side errors arrive as typed frames and are re-raised as the same
combined engine/PEP-249 exception classes the in-process adapter raises
(``except SerializationFailure`` and SQLSTATE-based retry loops work
identically).  Losing the connection — EOF, reset, torn frame — raises
:class:`~repro.sqldb.dbapi.InterfaceError` and marks the connection
closed.

``RemoteConnection.cancel()`` is out-of-band and safe from any thread:
it opens a second short-lived connection presenting the secret cancel
key from the handshake, which the server maps to
``Database.cancel(session=...)`` — the running statement observes the
flag at its next cooperative checkpoint and fails with SQLSTATE 57014.

Three mechanisms sit on that connection surface, each once, for
in-process and remote connections alike:

* :func:`retry_backoff` re-runs work that failed with a *retryable*
  SQLSTATE (:data:`RETRYABLE_SQLSTATES`) under exponential backoff with
  jitter — the loop every PostgreSQL client is expected to wrap around
  transactions;
* :class:`ConnectionPool` is a fixed-size pool over any zero-argument
  connect factory, with checkout-time health checks (a dead connection
  is replaced; one abandoned mid-transaction is rolled back);
* :class:`RoutedConnection` is the connection to a replicated server
  group: a :class:`Topology` says who is primary and who serves reads,
  and the connection routes each script accordingly, turning a dead
  endpoint or a moved primary into a retryable SQLSTATE.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence, TypeVar

from repro.errors import CannotConnectNow, ProtocolViolation, SQLError
from repro.sqldb import ast_nodes as _ast
from repro.sqldb import dbapi
from repro.sqldb.engine import Result
from repro.sqldb.parser import parse_script
from repro.sqldb.prepared import bind_parameters
from repro.sqldb.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    client_handshake,
    exception_from_wire,
    recv_frame,
    send_frame,
)
from repro.sqldb.vector import read_only, to_rows

__all__ = [
    "connect",
    "ConnectionPool",
    "RemoteConnection",
    "RETRYABLE_SQLSTATES",
    "RoutedConnection",
    "Topology",
    "is_retryable",
    "retry_backoff",
]

_T = TypeVar("_T")

#: SQLSTATEs whose error frame is the server's goodbye: the connection
#: is torn down right after (idle timeout, drain shutdown).  The client
#: marks itself closed so the *next* execute/fetch raises a clean
#: ``InterfaceError("connection is closed")`` instead of tripping over
#: the dead socket.
CONNECTION_FATAL_SQLSTATES = frozenset(
    {
        "57P05",  # idle_session_timeout
        "57P01",  # admin_shutdown (drain)
    }
)

#: SQLSTATEs a client should retry: serialization_failure (first
#: committer won), deadlock_detected (this transaction was the victim),
#: query_canceled (statement timeout / cooperative cancel),
#: too_many_connections (the network server shed the connection at
#: admission — backoff and reconnect), read_only_sql_transaction (a
#: write landed on a replica of a topology whose primary moved — re-probe
#: and re-route) and cannot_connect_now (no endpoint accepts this yet —
#: a promotion is in flight; backoff until it completes)
#: out_of_memory (53200: the shared memory pool or grant queue shed the
#: query — peers finishing free budget, so a backed-off retry can get a
#: grant) and configuration_limit_exceeded (53400: the statement needs
#: more than its per-query budget for a non-degradable allocation — a
#: retry after the operator raises the limit succeeds)
RETRYABLE_SQLSTATES = frozenset(
    {"40001", "40P01", "57014", "53300", "25006", "57P03", "53200", "53400"}
)


def is_retryable(exc: BaseException) -> bool:
    """True when *exc* carries a SQLSTATE a client retry loop should
    re-run (the engine rolled the transaction back; a fresh attempt can
    succeed)."""
    return getattr(exc, "sqlstate", None) in RETRYABLE_SQLSTATES


def retry_backoff(
    fn: Callable[[], _T],
    attempts: int = 5,
    base_delay: float = 0.005,
    max_delay: float = 0.25,
    rng: Optional[random.Random] = None,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
) -> _T:
    """Run ``fn()``, retrying retryable SQLSTATEs with exponential
    backoff plus jitter.

    The delay before attempt *n* is ``base_delay * 2**(n-1)`` capped at
    ``max_delay``, scaled by a uniform jitter in [0.5, 1.5) so colliding
    sessions desynchronise instead of re-conflicting in lockstep.
    ``on_retry(attempt_index, exc)`` runs before each re-attempt (the
    hook is where callers roll back session state).  Non-retryable
    errors, and the last attempt's failure, propagate unchanged.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    rng = rng if rng is not None else random.Random()
    for attempt in range(attempts):
        try:
            return fn()
        except SQLError as exc:
            if not is_retryable(exc) or attempt == attempts - 1:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            delay = min(base_delay * (2.0 ** attempt), max_delay)
            time.sleep(delay * (0.5 + rng.random()))
    raise AssertionError("unreachable")  # pragma: no cover


def _params(params: Optional[Sequence[Any]]) -> Optional[list]:
    """Parameters as the engine binds them in-process (or refuses them,
    22023, before anything is sent)."""
    return None if params is None else list(bind_parameters(params, None))


class RemoteConnection:
    """One client connection to a :class:`DatabaseServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        auth_token: Optional[str] = None,
        connect_timeout: float = 10.0,
        statement_timeout_ms: Optional[float] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self._max_frame_bytes = max_frame_bytes
        self._mutex = threading.RLock()
        self._closed = False
        self._in_transaction = False
        self.cancel_key: Optional[str] = None
        self.session_id: Optional[int] = None
        self.server_profile: Optional[str] = None
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise dbapi.InterfaceError(
                f"could not connect to {host}:{port}: {exc}"
            ) from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        options = (
            {} if statement_timeout_ms is None
            else {"statement_timeout_ms": statement_timeout_ms}
        )
        try:
            reply = client_handshake(
                self._sock, auth_token, options, max_frame_bytes
            )
        except (ProtocolViolation, OSError) as exc:
            raise self._lost(exc) from exc
        except SQLError as exc:  # the server's typed refusal
            self._lost(exc)
            raise dbapi.map_exception(exc) from exc
        self.cancel_key = reply.get("cancel_key")
        self.session_id = reply.get("session_id")
        self.server_profile = reply.get("profile")
        self._sock.settimeout(None)

    # -- transport ----------------------------------------------------------

    def _lost(self, why: object) -> dbapi.InterfaceError:
        """Drop the socket and mark the connection dead (transport-level
        failure; there is nothing to say goodbye to).  Returns the error
        a caller that was mid-request raises."""
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
        return dbapi.InterfaceError(f"server connection lost: {why}")

    def _recv(self) -> dict:
        """One reply frame, with transport and server errors raised as
        the proper exception classes."""
        try:
            reply = recv_frame(self._sock, self._max_frame_bytes)
        except (ProtocolViolation, OSError) as exc:
            raise self._lost(exc) from exc
        if reply is None:
            raise self._lost("closed by the server")
        if reply["type"] == "error":
            # a failed statement can still change transaction state
            # (e.g. a COMMIT losing first-committer-wins aborts the txn)
            if "in_transaction" in reply:
                self._in_transaction = bool(reply["in_transaction"])
            exc = exception_from_wire(reply)
            if exc.sqlstate in CONNECTION_FATAL_SQLSTATES:
                # the server closes the connection right after this
                # frame; treat it as dead now rather than discovering a
                # broken socket on the next request
                self._lost(exc)
            raise dbapi.map_exception(exc)
        return reply

    def _request(self, message: dict) -> dict:
        with self._mutex:
            if self._closed:
                raise dbapi.InterfaceError("connection is closed")
            try:
                send_frame(self._sock, message)
            except OSError as exc:
                raise self._lost(exc) from exc
            reply = self._recv()
        if "in_transaction" in reply:
            self._in_transaction = bool(reply["in_transaction"])
        return reply

    # -- DB-API surface ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_transaction(self) -> bool:
        return self._in_transaction

    def cursor(self) -> dbapi.Cursor:
        if self._closed:
            raise dbapi.InterfaceError("connection is closed")
        return dbapi.Cursor(self)

    def run_script(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> list[Result]:
        """Execute a ``;``-script server-side; one :class:`Result` each."""
        reply = self._request(
            {
                "type": "query",
                "sql": sql,
                "params": _params(params),
            }
        )
        # rows are built from the decoded columns by the one conversion
        # the engine uses, so they equal an in-process fetch's
        return [
            Result(
                columns=r["columns"],
                rows=to_rows(r["vectors"]),
                rowcount=r["rowcount"],
                statement=r["statement"],
                vectors=list(map(read_only, r["vectors"])),
            )
            for r in reply["results"]
        ]

    def executemany(
        self, sql: str, seq_of_parameters: Sequence[Sequence[Any]]
    ) -> int:
        reply = self._request(
            {
                "type": "executemany",
                "sql": sql,
                "params_seq": list(map(_params, seq_of_parameters)),
            }
        )
        return int(reply.get("rowcount", 0))

    def begin(self) -> None:
        self.run_script("BEGIN")

    def commit(self) -> None:
        """``COMMIT``; a no-op outside a transaction (DB-API)."""
        if self._in_transaction:
            self.run_script("COMMIT")

    def rollback(self) -> None:
        """``ROLLBACK``; a no-op outside a transaction (DB-API)."""
        if self._in_transaction:
            self.run_script("ROLLBACK")

    def reset(self) -> None:
        """Ask the server to drop every relation (test/bench servers)."""
        self._request({"type": "reset"})

    def server_stats(self) -> dict:
        """Plan-cache / operator / server counters of the remote engine."""
        return self._request({"type": "stats"})

    def memory_stats(self) -> dict:
        """The server's memory-broker snapshot plus this connection's
        peak/spilled/shed counters (empty when the server runs without
        a memory governor)."""
        return dict(self.server_stats().get("memory") or {})

    def promote(self) -> dict:
        """Promote the server this connection points at (a streaming
        replica) to primary; returns ``{"commit_id": ...}`` — the commit
        id the node serves writes from.  Raises on a server that has no
        promotion hook (a plain primary)."""
        reply = self._request({"type": "promote"})
        return {"commit_id": int(reply.get("commit_id", 0))}

    def replica_status(self) -> dict:
        """Replication status of the server: role, applied/streamed
        commit positions, per-subscriber lag (primary) or upstream lag
        (replica)."""
        return self._request({"type": "replica_status"})

    def cancel(self) -> None:
        """Out-of-band cancel of this connection's in-flight statement
        (safe from any thread; a no-op if the server is unreachable)."""
        if self.cancel_key is None:
            return
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=5.0
            ) as sock:
                send_frame(
                    sock, {"type": "cancel", "key": self.cancel_key}
                )
                recv_frame(sock, self._max_frame_bytes)
        except (OSError, ProtocolViolation, SQLError):
            pass

    def close(self) -> None:
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            try:
                send_frame(self._sock, {"type": "close"})
                self._sock.settimeout(2.0)
                recv_frame(self._sock, self._max_frame_bytes)
            except (OSError, ProtocolViolation, SQLError):
                pass
            finally:
                try:
                    self._sock.close()
                except OSError:
                    pass

    def __enter__(self) -> "RemoteConnection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def connect(
    host: str = "127.0.0.1",
    port: int = 5433,
    auth_token: Optional[str] = None,
    connect_timeout: float = 10.0,
    statement_timeout_ms: Optional[float] = None,
) -> RemoteConnection:
    """Open a DB-API connection to a running
    :class:`~repro.sqldb.server.DatabaseServer`.

    ``statement_timeout_ms`` becomes this connection's session timeout
    on the server (overriding the server's default; one deadline per
    request); admission rejection raises an error with the *retryable*
    SQLSTATE 53300, which :func:`retry_backoff` re-attempts."""
    return RemoteConnection(
        host,
        port,
        auth_token=auth_token,
        connect_timeout=connect_timeout,
        statement_timeout_ms=statement_timeout_ms,
    )


class ConnectionPool:
    """Fixed-size client-side pool of connections from one factory.

    ``connect`` is any zero-argument callable returning an object with
    the connection surface: ``lambda: dbapi.connect(database=db)`` pools
    concurrent sessions over one in-process database (each its own
    engine session, so checked-out connections run under snapshot
    isolation), a bound :func:`connect` pools network connections, a
    factory that dials through a :class:`Topology` pools connections
    that follow it.

    Checkout validates the connection before handing it out:

    * a connection that died (closed underneath the pool: server crash,
      idle reap, drain) is discarded and replaced through the factory —
      so a pool built before a failover heals itself onto the promoted
      node as its dead connections cycle out;
    * a connection returned — or abandoned — **mid-transaction** is
      rolled back and its locks released, so the next holder never
      inherits a half-open (possibly aborted) transaction.

    ``stats`` counts checkouts, replaced dead connections and reset
    abandoned transactions.
    """

    #: granularity of re-checks while waiting for a free connection
    _WAIT_SLICE = 0.05

    def __init__(
        self,
        connect: Callable[[], Any],
        size: int = 4,
        timeout: Optional[float] = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self._connect = connect
        self.size = size
        self._timeout = timeout
        self._cond = threading.Condition()
        self._idle: list[Any] = []
        self._n_created = 0
        self._closed = False
        self.stats = {
            "checkouts": 0,
            "dead_sessions_replaced": 0,
            "abandoned_txns_reset": 0,
        }

    def acquire(self) -> Any:
        """Check out a validated connection (blocks while the pool is
        exhausted; raises ``InterfaceError`` immediately if the pool is
        closed — including when it closes *while* this call is waiting
        or creating — and ``OperationalError`` after ``timeout`` s)."""
        deadline = (
            None if self._timeout is None
            else time.monotonic() + self._timeout
        )
        conn = None
        with self._cond:
            while True:
                if self._closed:
                    raise dbapi.InterfaceError("connection pool is closed")
                if self._idle:
                    conn = self._idle.pop()
                    break
                if self._n_created < self.size:
                    self._n_created += 1
                    break  # create outside the lock
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise dbapi.OperationalError(
                        "timed out waiting for a pooled connection"
                    )
                self._cond.wait(
                    self._WAIT_SLICE if remaining is None
                    else min(self._WAIT_SLICE, remaining)
                )
        try:
            if conn is None:
                conn = self._connect()
            conn = self._validate(conn)
        except BaseException:
            # the slot this call claimed (or the idle conn it popped) is
            # being discarded: give the capacity back and wake a waiter
            with self._cond:
                self._n_created -= 1
                self._cond.notify()
            if conn is not None:
                conn.close()
            raise
        # close() may have run while this call was creating/validating
        # outside the lock: a closed pool must never hand out a session
        # whose database is being torn down behind it
        with self._cond:
            if self._closed:
                self._n_created -= 1
                conn.close()
                raise dbapi.InterfaceError("connection pool is closed")
        return conn

    def _validate(self, conn: Any) -> Any:
        """Health-check one connection on its way out of the pool."""
        if conn.closed:
            # it died under the pool (explicit close, server shutdown):
            # hand out a fresh one instead
            self.stats["dead_sessions_replaced"] += 1
            conn = self._connect()
        elif conn.in_transaction:
            # the previous holder abandoned an open (possibly aborted)
            # transaction: roll it back so this holder starts clean and
            # never inherits 25P02s or stale snapshot reads
            self.stats["abandoned_txns_reset"] += 1
            conn.rollback()
        self.stats["checkouts"] += 1
        return conn

    def release(self, conn: Any) -> None:
        """Return a connection to the pool (validation happens at the
        *next* checkout, so even a mid-transaction return is safe)."""
        with self._cond:
            if self._closed:
                conn.close()
                return
            self._idle.append(conn)
            self._cond.notify()

    @contextmanager
    def connection(self) -> Iterator[Any]:
        """``with pool.connection() as conn:`` checkout/checkin scope."""
        conn = self.acquire()
        try:
            yield conn
        finally:
            self.release(conn)

    def close(self) -> None:
        """Close every idle pooled connection; further checkouts raise."""
        with self._cond:
            self._closed = True
            idle, self._idle = list(self._idle), []
            self._cond.notify_all()
        for conn in idle:
            conn.close()


class Topology:
    """Live view of a replicated server group: who is primary, who reads.

    Holds an endpoint list (``(host, port)`` pairs) and classifies each
    one by asking ``replica_status`` over a short-lived probe
    connection: role ``primary`` or ``standalone`` makes it the write
    target, ``replica`` joins the read set.  The classification is
    cached for ``probe_ttl_s`` and dropped eagerly on
    :meth:`invalidate` — which :class:`RoutedConnection` calls whenever
    an endpoint errors or a write bounces off a read-only node, so a
    promotion is discovered on the very next attempt instead of a TTL
    later.

    If no endpoint currently claims the primary role (the failover
    window: old primary dead, promotion not yet issued),
    :meth:`primary_endpoint` raises
    :class:`~repro.errors.CannotConnectNow` (SQLSTATE 57P03) — which is
    retryable, so a surrounding :func:`retry_backoff` turns the window
    into bounded client-visible latency rather than an error.  When two
    endpoints both claim primary (a not-yet-fenced old primary beside a
    promoted replica), the first in endpoint order wins and the split is
    counted in ``stats["split_brain_probes"]``.
    """

    def __init__(
        self,
        endpoints: Sequence[tuple[str, int]],
        *,
        auth_token: Optional[str] = None,
        connect_timeout: float = 2.0,
        statement_timeout_ms: Optional[float] = None,
        probe_ttl_s: float = 1.0,
    ) -> None:
        if not endpoints:
            raise ValueError("at least one endpoint is required")
        self.endpoints: list[tuple[str, int]] = [
            (str(host), int(port)) for host, port in endpoints
        ]
        self.auth_token = auth_token
        self.connect_timeout = connect_timeout
        self.statement_timeout_ms = statement_timeout_ms
        self.probe_ttl_s = probe_ttl_s
        self._mutex = threading.RLock()
        self._primary: Optional[tuple[str, int]] = None
        self._replicas: list[tuple[str, int]] = []
        self._probed_at: Optional[float] = None
        self._rr = 0
        self.stats = {
            "probes": 0,
            "unreachable_probes": 0,
            "split_brain_probes": 0,
        }

    def connect(self, endpoint: tuple[str, int]) -> RemoteConnection:
        """Dial *endpoint* with this topology's credentials/timeouts."""
        return connect(
            endpoint[0],
            endpoint[1],
            auth_token=self.auth_token,
            connect_timeout=self.connect_timeout,
            statement_timeout_ms=self.statement_timeout_ms,
        )

    def probe(self) -> dict[tuple[str, int], dict]:
        """Ask every endpoint for its role; reclassify; return statuses."""
        statuses: dict[tuple[str, int], dict] = {}
        primary: Optional[tuple[str, int]] = None
        replicas: list[tuple[str, int]] = []
        n_primaries = 0
        for endpoint in self.endpoints:
            try:
                with self.connect(endpoint) as conn:
                    status = conn.replica_status()
            except (SQLError, OSError):
                self.stats["unreachable_probes"] += 1
                continue
            statuses[endpoint] = status
            role = status.get("role")
            if role in ("primary", "standalone"):
                n_primaries += 1
                if primary is None:
                    primary = endpoint
            elif role == "replica":
                replicas.append(endpoint)
        with self._mutex:
            self.stats["probes"] += 1
            if n_primaries > 1:
                self.stats["split_brain_probes"] += 1
            self._primary = primary
            self._replicas = replicas
            self._probed_at = time.monotonic()
        return statuses

    def _refresh(self) -> None:
        with self._mutex:
            fresh = (
                self._probed_at is not None
                and time.monotonic() - self._probed_at < self.probe_ttl_s
            )
        if not fresh:
            self.probe()

    def invalidate(self) -> None:
        """Drop the cached classification; the next route re-probes."""
        with self._mutex:
            self._probed_at = None

    def primary_endpoint(self) -> tuple[str, int]:
        """The current write target; 57P03 while no endpoint holds it."""
        self._refresh()
        with self._mutex:
            if self._primary is None:
                raise dbapi.map_exception(
                    CannotConnectNow(
                        "no primary among "
                        f"{self.endpoints} (failover in progress?)"
                    )
                )
            return self._primary

    def next_replica_endpoint(self) -> Optional[tuple[str, int]]:
        """Round-robin over the read set; ``None`` when it is empty."""
        self._refresh()
        with self._mutex:
            if not self._replicas:
                return None
            endpoint = self._replicas[self._rr % len(self._replicas)]
            self._rr += 1
            return endpoint

    def wait_for_replicas(
        self, timeout: float = 10.0, poll_s: float = 0.02
    ) -> None:
        """Block until every reachable replica has applied everything
        the primary has streamed (lag drained to zero).  Raises
        ``TimeoutError`` otherwise — used by differential tests and
        benchmarks that compare replica reads against the primary."""
        deadline = time.monotonic() + timeout
        while True:
            statuses = self.probe()
            watermark = 0
            for status in statuses.values():
                if status.get("role") in ("primary", "standalone"):
                    watermark = max(
                        watermark,
                        int(
                            status.get(
                                "last_commit_id",
                                status.get("commit_id", 0),
                            )
                        ),
                    )
            replicas = [
                s for s in statuses.values() if s.get("role") == "replica"
            ]
            if replicas and all(
                int(s.get("last_applied", -1)) >= watermark
                for s in replicas
            ):
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"replicas still behind watermark {watermark} "
                    f"after {timeout}s: {statuses}"
                )
            time.sleep(poll_s)


class RoutedConnection:
    """The connection to a replicated server group: reads fan out,
    writes follow the primary, failover surfaces as a retryable error.

    Carries the surface of :class:`RemoteConnection` over one lazily
    dialled connection per endpoint of a :class:`Topology`.  Scripts
    whose statements are all ``SELECT`` (or plain ``EXPLAIN``) are
    routed round-robin across the replicas (falling back to the primary
    when none are up); any script containing a write — and every script
    while an explicit transaction is open — runs on the primary, as does
    everything that is not a script (``executemany``, transaction
    control, ``reset``, stats).  Three failure shapes are turned into what
    :func:`retry_backoff` already handles:

    * a dead endpoint (``InterfaceError``/``OSError`` while dialling or
      mid-script) is re-raised as :class:`~repro.errors.CannotConnectNow`
      (57P03, retryable) after invalidating the topology cache;
    * a write bounced by a read-only node (25006 — the primary moved
      under us) invalidates the cache so the retry re-probes;
    * the failover window itself (no endpoint claims primary) surfaces
      as 57P03 from :meth:`Topology.primary_endpoint`.

    So client-visible failover downtime is bounded by the backoff
    schedule: the write that was in flight when the primary died keeps
    re-probing until the promoted node answers, then lands there.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._conns: dict[tuple[str, int], RemoteConnection] = {}
        self._read_only_memo: dict[str, bool] = {}
        self._closed = False
        self.reads_routed = {"replica": 0, "primary": 0}

    def _is_read_only_script(self, sql: str) -> bool:
        cached = self._read_only_memo.get(sql)
        if cached is not None:
            return cached
        try:
            statements = parse_script(sql)
        except SQLError:
            verdict = False  # let the primary produce the real error
        else:
            # a plain EXPLAIN only plans, so a replica can answer it
            verdict = bool(statements) and all(
                isinstance(stmt, _ast.Select)
                or (isinstance(stmt, _ast.Explain) and not stmt.analyze)
                for stmt in statements
            )
        if len(self._read_only_memo) > 512:
            self._read_only_memo.clear()
        self._read_only_memo[sql] = verdict
        return verdict

    def _lease(self, endpoint: tuple[str, int]) -> RemoteConnection:
        conn = self._conns.get(endpoint)
        if conn is None or conn.closed:
            conn = self._conns[endpoint] = self.topology.connect(endpoint)
        return conn

    def _drop(self, endpoint: Optional[tuple[str, int]]) -> None:
        conn = self._conns.pop(endpoint, None)
        if conn is not None:
            conn.close()

    def _open_transaction(self) -> Optional[RemoteConnection]:
        """The leased connection holding an open transaction, if any
        (never dials; only the primary's lease is ever handed one)."""
        for conn in self._conns.values():
            if not conn.closed and conn.in_transaction:
                return conn
        return None

    @property
    def primary(self) -> RemoteConnection:
        """The current primary's connection (dialled on first use)."""
        if self._closed:
            raise dbapi.InterfaceError("connection is closed")
        return self._lease(self.topology.primary_endpoint())

    # -- the connection surface -------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_transaction(self) -> bool:
        return self._open_transaction() is not None

    def cursor(self) -> dbapi.Cursor:
        if self._closed:
            raise dbapi.InterfaceError("connection is closed")
        return dbapi.Cursor(self)

    def run_script(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> list[Result]:
        """Execute a script on the endpoint it routes to."""
        pinned = self._open_transaction()
        if pinned is not None:
            # an open transaction pins the script to its connection (no
            # rerouting a txn mid-flight, and no translating its errors:
            # only the caller can retry its transaction from BEGIN)
            return pinned.run_script(sql, params)
        read_only = self._is_read_only_script(sql)
        endpoint: Optional[tuple[str, int]] = None
        try:
            if read_only:
                endpoint = self.topology.next_replica_endpoint()
            target = "replica" if endpoint is not None else "primary"
            if endpoint is None:
                endpoint = self.topology.primary_endpoint()
            results = self._lease(endpoint).run_script(sql, params)
        except (dbapi.InterfaceError, OSError) as exc:
            self._drop(endpoint)
            self.topology.invalidate()
            raise dbapi.map_exception(
                CannotConnectNow(f"endpoint {endpoint} went away: {exc}")
            ) from exc
        except SQLError as exc:
            # 25006/57P03 mean the topology shifted; re-probe before the
            # next attempt instead of waiting out the TTL
            if exc.sqlstate in ("25006", "57P03"):
                self.topology.invalidate()
            raise
        if read_only:
            self.reads_routed[target] += 1
        return results

    def rollback(self) -> None:
        """Roll back whatever transaction is open (never dials: a
        transaction whose connection died went with it)."""
        conn = self._open_transaction()
        if conn is not None:
            try:
                conn.rollback()
            except dbapi.InterfaceError:
                pass

    def __getattr__(self, name: str) -> Any:
        # everything that is not a script follows the primary:
        # executemany, begin/commit, reset, server_stats, ... (dialled on
        # first use)
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.primary, name)

    def close(self) -> None:
        self._closed = True
        for endpoint in list(self._conns):
            self._drop(endpoint)
