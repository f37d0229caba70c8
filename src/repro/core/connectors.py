"""DBMS connectors used by the SQL backend.

Both connectors wrap the in-process engine through its DB-API adapter, the
same call shape the paper measures through psycopg2.  ``PostgresqlConnector``
uses the materialising (disk-based) profile, ``UmbraConnector`` the
pipelined (beyond-main-memory) profile.

This module is also the client side of the engine's multi-session MVCC:

* :func:`retry_backoff` re-runs work that failed with a *retryable*
  SQLSTATE (serialization failure 40001, deadlock 40P01, cancelled
  57014) under exponential backoff with jitter — the loop every
  PostgreSQL client is expected to wrap around transactions;
* :class:`ConnectionPool` is a fixed-size pool of sessions over one
  shared :class:`~repro.sqldb.engine.Database`, with checkout-time
  health checks (a dead session is replaced; a connection abandoned
  mid-transaction is rolled back before reuse).
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence, TypeVar

from repro.errors import CannotConnectNow, SQLError
from repro.sqldb import ast_nodes as _ast
from repro.sqldb import dbapi
from repro.sqldb.engine import Database, Result
from repro.sqldb.parser import parse_script

__all__ = [
    "ConnectionPool",
    "DBConnector",
    "MultiEndpointConnector",
    "PostgresqlConnector",
    "ProfileConnector",
    "RemoteConnectionPool",
    "RemoteConnector",
    "RETRYABLE_SQLSTATES",
    "Topology",
    "UmbraConnector",
    "is_retryable",
    "retry_backoff",
]

_T = TypeVar("_T")

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


class ConnectionPool:
    """Fixed-size client-side pool of sessions over one shared database.

    Every pooled connection is a DB-API :class:`~repro.sqldb.dbapi.Connection`
    opened with ``connect(database=...)`` — its own engine session, so
    checked-out connections run concurrently under snapshot isolation.

    Checkout validates the connection before handing it out:

    * a connection whose session died (closed underneath the pool) is
      discarded and replaced with a fresh session;
    * a connection returned — or abandoned — **mid-transaction** is
      rolled back and its locks released, so the next holder never
      inherits a half-open (possibly aborted) transaction.

    ``stats`` counts checkouts, replaced dead sessions and reset
    abandoned transactions.
    """

    #: granularity of re-checks while waiting for a free connection
    _WAIT_SLICE = 0.05

    def __init__(
        self,
        database: Database,
        size: int = 4,
        timeout: Optional[float] = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self._database = database
        self.size = size
        self._timeout = timeout
        self._cond = threading.Condition()
        self._idle: list[dbapi.Connection] = []
        self._n_created = 0
        self._closed = False
        self.stats = {
            "checkouts": 0,
            "dead_sessions_replaced": 0,
            "abandoned_txns_reset": 0,
        }

    def acquire(self) -> dbapi.Connection:
        """Check out a validated connection (blocks while the pool is
        exhausted; raises ``InterfaceError`` immediately if the pool is
        closed — including when it closes *while* this call is waiting
        or creating — and ``OperationalError`` after ``timeout`` s)."""
        deadline = (
            None if self._timeout is None
            else time.monotonic() + self._timeout
        )
        conn: Optional[dbapi.Connection] = None
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
                conn = dbapi.connect(database=self._database)
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

    def _validate(self, conn: dbapi.Connection) -> dbapi.Connection:
        """Health-check one connection on its way out of the pool."""
        if conn.closed:
            # the session died under the pool (explicit close, shutdown):
            # hand out a fresh session instead
            self.stats["dead_sessions_replaced"] += 1
            conn = dbapi.connect(database=self._database)
        elif conn.in_transaction:
            # the previous holder abandoned an open (possibly aborted)
            # transaction: roll it back so this holder starts clean and
            # never inherits 25P02s or stale snapshot reads
            self.stats["abandoned_txns_reset"] += 1
            conn.rollback()
        self.stats["checkouts"] += 1
        return conn

    def release(self, conn: dbapi.Connection) -> None:
        """Return a connection to the pool (validation happens at the
        *next* checkout, so even a mid-transaction return is safe)."""
        with self._cond:
            if self._closed:
                conn.close()
                return
            self._idle.append(conn)
            self._cond.notify()

    @contextmanager
    def connection(self) -> Iterator[dbapi.Connection]:
        """``with pool.connection() as conn:`` checkout/checkin scope."""
        conn = self.acquire()
        try:
            yield conn
        finally:
            self.release(conn)

    def close(self) -> None:
        """Close every idle pooled session; further checkouts raise."""
        with self._cond:
            self._closed = True
            idle, self._idle = list(self._idle), []
            self._cond.notify_all()
        for conn in idle:
            conn.close()


class DBConnector:
    """A named connection factory with simple execute helpers.

    ``statement_timings`` records (first-line-of-sql, seconds) per executed
    statement — the operation-level breakdown of §6.5 reads it.
    """

    profile_name = "postgres"

    def __init__(self, **database_kwargs: Any) -> None:
        self._connection: Optional[dbapi.Connection] = None
        self.statement_timings: list[tuple[str, float]] = []
        #: times ``run`` re-attempted a script after a retryable SQLSTATE
        self.retries = 0
        #: engine options, handed to every ``Database`` this connector
        #: opens (``repro.sqldb.engine.Database`` declares them)
        self.database_kwargs = database_kwargs

    @property
    def name(self) -> str:
        return self.profile_name

    def _connect(self) -> dbapi.Connection:
        return dbapi.connect(self._profile(), **self.database_kwargs)

    @property
    def connection(self) -> dbapi.Connection:
        if self._connection is None:
            self._connection = self._connect()
        return self._connection

    def _profile(self):
        return self.profile_name

    def reset(self) -> None:
        """Drop all data by reconnecting to a fresh database.

        The statement cache survives the reconnect, so re-running the
        same pipeline replays its DDL and then hits cached plans for
        every inspection query.  For a durable connector the WAL and
        checkpoint files are removed too — reset means "fresh database",
        not "recover the old one".
        """
        previous = self._connection
        if previous is not None:
            previous.close()
        wal_path = self.database_kwargs.get("wal_path")
        if wal_path is not None:
            for path in (wal_path, wal_path + ".ckpt"):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
        self._connection = self._connect()
        if previous is not None:
            self._connection.database.adopt_plan_cache(previous.database)
        self.statement_timings = []

    def run(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> Result:
        """Execute a script, returning the last statement's result.

        ``params`` binds positional placeholders; repeated statement texts
        hit the engine's plan cache, so re-running the same transpiled
        query skips lexing/parsing/planning entirely.

        When the script fails with a retryable SQLSTATE (40001 / 40P01 /
        57014) and the connector is *not* inside an explicit transaction,
        the session is rolled back and the whole script re-run under
        :func:`retry_backoff`; inside an explicit transaction the error
        propagates — only the caller can decide to retry its own
        transaction from ``BEGIN``.
        """
        connection = self.connection
        database = connection.database
        session = connection.session
        started = time.perf_counter()

        def attempt() -> list[Result]:
            return database.run_script(sql, params, session=session)

        def on_retry(attempt_index: int, exc: BaseException) -> None:
            self.retries += 1
            # a failed attempt may have left a half-open transaction
            # (e.g. the script's own BEGIN): clear it before re-running
            database.rollback(session=session)

        if session.in_transaction:
            results = attempt()
        else:
            results = retry_backoff(attempt, on_retry=on_retry)
        elapsed = time.perf_counter() - started
        head = sql.strip().split("\n", 1)[0][:120]
        self.statement_timings.append((head, elapsed))
        return results[-1] if results else Result()

    def pool(self, size: int = 4, timeout: Optional[float] = None) -> ConnectionPool:
        """A :class:`ConnectionPool` of concurrent sessions over this
        connector's database."""
        return ConnectionPool(self.connection.database, size, timeout)

    def query_rows(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> list[tuple]:
        cursor = self.connection.cursor()
        cursor.execute(sql, params)
        return cursor.fetchall()

    def query(self, sql: str) -> Result:
        return self.run(sql)

    @property
    def plan_cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters of the underlying engine's plan cache."""
        return self.connection.database.plan_cache.stats

    @property
    def exec_stats(self) -> dict[str, dict]:
        """Cumulative per-operator runtime counters (rows/calls/seconds),
        populated when the connector was built with ``collect_exec_stats``."""
        return self.connection.database.operator_counters

    def explain_analyze(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> str:
        """Run one SELECT and return its plan with actual row/time stats."""
        return self.connection.database.explain_analyze(sql, params)

    def analyze(self, table: Optional[str] = None) -> list[str]:
        """Collect planner statistics (``ANALYZE``) on one or all tables."""
        return self.connection.database.analyze(table)


class PostgresqlConnector(DBConnector):
    """The paper's disk-based system ("blue elephant")."""

    profile_name = "postgres"


class UmbraConnector(DBConnector):
    """The paper's beyond-main-memory system."""

    profile_name = "umbra"


class RemoteConnector(DBConnector):
    """Connector over the network client — the paper's psycopg2 role.

    Speaks the length-prefixed JSON protocol to a running
    :class:`~repro.sqldb.server.DatabaseServer` instead of embedding an
    engine, while keeping the whole :class:`DBConnector` surface
    (``run``/``reset``/``query_rows``/stats), so every harness,
    benchmark and :class:`~repro.core.sql_backend.SQLBackend` pipeline
    drops onto a served database unchanged.  Retry semantics match the
    in-process connector: scripts that fail with a retryable SQLSTATE
    outside an explicit transaction are rolled back and re-run under
    backoff; a dead connection is transparently re-dialled at the next
    checkout.
    """

    profile_name = "remote"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 5433,
        auth_token: Optional[str] = None,
        statement_timeout_ms: Optional[float] = None,
        connect_timeout: float = 10.0,
    ) -> None:
        super().__init__()
        self.statement_timeout_ms = statement_timeout_ms
        self.host = host
        self.port = port
        self.auth_token = auth_token
        self.connect_timeout = connect_timeout

    def _connect(self):
        from repro.sqldb import client

        return client.connect(
            self.host,
            self.port,
            auth_token=self.auth_token,
            connect_timeout=self.connect_timeout,
            statement_timeout_ms=self.statement_timeout_ms,
        )

    @property
    def connection(self):
        if self._connection is None or self._connection.closed:
            self._connection = self._connect()
        return self._connection

    def reset(self) -> None:
        """Drop all server-side data (the remote twin of the in-process
        reconnect-based reset; the server's plan cache survives, so a
        replayed pipeline still warm-hits)."""
        self.connection.reset()
        self.statement_timings = []

    def close(self) -> None:
        """Close the network connection and its server-side session
        (the next use re-dials)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def run(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> Result:
        """Execute a script server-side, returning the last result.

        Same retry contract as the in-process connector: a retryable
        SQLSTATE outside an explicit transaction rolls the session back
        and re-runs the whole script under backoff."""
        connection = self.connection
        started = time.perf_counter()

        def attempt() -> list[Result]:
            return connection.run_script(sql, params)

        def on_retry(attempt_index: int, exc: BaseException) -> None:
            self.retries += 1
            if not connection.closed:
                connection.rollback()

        if connection.in_transaction:
            results = attempt()
        else:
            results = retry_backoff(attempt, on_retry=on_retry)
        elapsed = time.perf_counter() - started
        head = sql.strip().split("\n", 1)[0][:120]
        self.statement_timings.append((head, elapsed))
        return results[-1] if results else Result()

    def pool(self, size: int = 4, timeout: Optional[float] = None):
        raise dbapi.NotSupportedError(
            "RemoteConnector has no client-side session pool; open "
            "additional RemoteConnectors (the server multiplexes "
            "sessions) or pool on the server side"
        )

    @property
    def plan_cache_stats(self) -> dict[str, int]:
        return self.connection.server_stats()["plan_cache"]

    @property
    def exec_stats(self) -> dict[str, dict]:
        return self.connection.server_stats()["operators"]

    def explain_analyze(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> str:
        return self.connection.explain_analyze(sql, params)

    def analyze(self, table: Optional[str] = None) -> list[str]:
        return self.connection.analyze(table)


class Topology:
    """Live view of a replicated server group: who is primary, who reads.

    Holds an endpoint list (``(host, port)`` pairs) and classifies each
    one by asking ``replica_status`` over a short-lived probe
    connection: role ``primary`` or ``standalone`` makes it the write
    target, ``replica`` joins the read set.  The classification is
    cached for ``probe_ttl_s`` and dropped eagerly on
    :meth:`invalidate` — which routing layers call whenever an endpoint
    errors or a write bounces off a read-only node, so a promotion is
    discovered on the very next attempt instead of a TTL later.

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

    def connect(self, endpoint: tuple[str, int]):
        """Dial *endpoint* with this topology's credentials/timeouts."""
        from repro.sqldb import client

        return client.connect(
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
                conn = self.connect(endpoint)
                try:
                    status = conn.replica_status()
                finally:
                    conn.close()
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
                raise CannotConnectNow(
                    "no primary among "
                    f"{self.endpoints} (failover in progress?)"
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


class MultiEndpointConnector(DBConnector):
    """Topology-aware remote connector: reads fan out, writes follow
    the primary, failover is absorbed by the retry loop.

    The multi-endpoint sibling of :class:`RemoteConnector`.  Scripts
    whose statements are all ``SELECT`` are routed round-robin across
    the replicas (falling back to the primary when none are up); any
    script containing a write — or any script inside an explicit
    transaction — runs on the primary.  Three failure shapes fold into
    the existing :func:`retry_backoff` machinery:

    * a dead endpoint (``InterfaceError``/``OSError`` mid-script) is
      re-raised as :class:`~repro.errors.CannotConnectNow` (57P03,
      retryable) after invalidating the topology cache;
    * a write bounced by a read-only node (25006 — the primary moved
      under us) invalidates the cache so the retry re-probes;
    * the failover window itself (no endpoint claims primary) surfaces
      as 57P03 from :meth:`Topology.primary_endpoint`.

    So client-visible failover downtime is bounded by the backoff
    schedule: the write that was in flight when the primary died keeps
    re-probing until the promoted node answers, then lands there.
    """

    profile_name = "remote-topology"

    def __init__(
        self,
        endpoints: Sequence[tuple[str, int]],
        auth_token: Optional[str] = None,
        statement_timeout_ms: Optional[float] = None,
        connect_timeout: float = 2.0,
        probe_ttl_s: float = 1.0,
        attempts: int = 8,
        base_delay: float = 0.01,
        max_delay: float = 0.5,
    ) -> None:
        super().__init__()
        self.topology = Topology(
            endpoints,
            auth_token=auth_token,
            connect_timeout=connect_timeout,
            statement_timeout_ms=statement_timeout_ms,
            probe_ttl_s=probe_ttl_s,
        )
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self._conns: dict[tuple[str, int], Any] = {}
        self._read_only_memo: dict[str, bool] = {}
        self.reads_routed = {"replica": 0, "primary": 0}

    # -- routing -------------------------------------------------------------

    def _is_read_only_script(self, sql: str) -> bool:
        cached = self._read_only_memo.get(sql)
        if cached is not None:
            return cached
        try:
            statements = parse_script(sql)
        except SQLError:
            verdict = False  # let the primary produce the real error
        else:
            verdict = bool(statements) and all(
                isinstance(stmt, _ast.Select) for stmt in statements
            )
        if len(self._read_only_memo) > 512:
            self._read_only_memo.clear()
        self._read_only_memo[sql] = verdict
        return verdict

    def _lease(self, endpoint: tuple[str, int]):
        conn = self._conns.get(endpoint)
        if conn is None or conn.closed:
            conn = self.topology.connect(endpoint)
            self._conns[endpoint] = conn
        return conn

    def _drop(self, endpoint: tuple[str, int]) -> None:
        conn = self._conns.pop(endpoint, None)
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    @property
    def connection(self):
        """The primary's connection (DB-API surface for writes/txns)."""
        return self._lease(self.topology.primary_endpoint())

    # -- DBConnector surface -------------------------------------------------

    def run(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> Result:
        """Execute a script on the routed endpoint, with failover retry."""
        read_only = self._is_read_only_script(sql)
        started = time.perf_counter()

        def attempt() -> list[Result]:
            endpoint: Optional[tuple[str, int]] = None
            if read_only:
                endpoint = self.topology.next_replica_endpoint()
            target = "replica" if endpoint is not None else "primary"
            if endpoint is None:
                endpoint = self.topology.primary_endpoint()
            conn = self._lease(endpoint)
            if conn.in_transaction:
                # an open transaction pins the script to its connection
                # (no rerouting a txn mid-flight)
                return conn.run_script(sql, params)
            try:
                results = conn.run_script(sql, params)
            except (dbapi.InterfaceError, OSError) as exc:
                self._drop(endpoint)
                self.topology.invalidate()
                raise CannotConnectNow(
                    f"endpoint {endpoint} went away mid-script: {exc}"
                ) from exc
            if read_only:
                self.reads_routed[target] += 1
            return results

        def on_retry(attempt_index: int, exc: BaseException) -> None:
            self.retries += 1
            # 25006/57P03 mean the topology shifted; re-probe before
            # the next attempt instead of waiting out the TTL
            if getattr(exc, "sqlstate", None) in ("25006", "57P03"):
                self.topology.invalidate()
            for conn in self._conns.values():
                if not conn.closed and conn.in_transaction:
                    try:
                        conn.rollback()
                    except SQLError:
                        pass

        primary_conn = self._conns.get(
            self.topology._primary  # type: ignore[arg-type]
        )
        if primary_conn is not None and primary_conn.in_transaction:
            results = attempt()
        else:
            results = retry_backoff(
                attempt,
                attempts=self.attempts,
                base_delay=self.base_delay,
                max_delay=self.max_delay,
                on_retry=on_retry,
            )
        elapsed = time.perf_counter() - started
        head = sql.strip().split("\n", 1)[0][:120]
        self.statement_timings.append((head, elapsed))
        return results[-1] if results else Result()

    def reset(self) -> None:
        self.connection.reset()
        self.statement_timings = []

    def close(self) -> None:
        for endpoint in list(self._conns):
            self._drop(endpoint)

    def pool(self, size: int = 4, timeout: Optional[float] = None):
        """A :class:`RemoteConnectionPool` sharing this topology."""
        return RemoteConnectionPool(self.topology, size=size, timeout=timeout)

    @property
    def plan_cache_stats(self) -> dict[str, int]:
        return self.connection.server_stats()["plan_cache"]

    @property
    def exec_stats(self) -> dict[str, dict]:
        return self.connection.server_stats()["operators"]

    def explain_analyze(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> str:
        return self.connection.explain_analyze(sql, params)

    def analyze(self, table: Optional[str] = None) -> list[str]:
        return self.connection.analyze(table)


class RemoteConnectionPool:
    """Fixed-size pool of network connections routed by a topology.

    The remote twin of :class:`ConnectionPool`: hands out
    :class:`~repro.sqldb.client.RemoteConnection` objects dialled
    through a shared :class:`Topology`.  ``prefer="replica"`` pools
    read connections (round-robin across the replica set, primary as
    fallback); ``prefer="primary"`` pools write connections.  Checkout
    validates: a connection that died (server crash, idle reap, drain)
    is discarded and re-dialled through the *current* topology — so a
    pool built before a failover heals itself onto the promoted node
    as its dead connections cycle out.
    """

    _WAIT_SLICE = 0.05

    def __init__(
        self,
        topology: Topology,
        size: int = 4,
        timeout: Optional[float] = None,
        prefer: str = "replica",
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if prefer not in ("replica", "primary"):
            raise ValueError("prefer must be 'replica' or 'primary'")
        self.topology = topology
        self.size = size
        self.prefer = prefer
        self._timeout = timeout
        self._cond = threading.Condition()
        self._idle: list[Any] = []
        self._n_created = 0
        self._closed = False
        self.stats = {"checkouts": 0, "dead_connections_replaced": 0}

    def _route(self) -> tuple[str, int]:
        if self.prefer == "replica":
            endpoint = self.topology.next_replica_endpoint()
            if endpoint is not None:
                return endpoint
        return self.topology.primary_endpoint()

    def acquire(self):
        deadline = (
            None if self._timeout is None
            else time.monotonic() + self._timeout
        )
        with self._cond:
            while True:
                if self._closed:
                    raise dbapi.InterfaceError("connection pool is closed")
                if self._idle:
                    conn = self._idle.pop()
                    break
                if self._n_created < self.size:
                    self._n_created += 1
                    conn = None
                    break  # dial outside the lock
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
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
            if conn is not None and conn.closed:
                with self._cond:
                    self.stats["dead_connections_replaced"] += 1
                conn = None
            if conn is None:
                conn = self.topology.connect(self._route())
        except BaseException:
            with self._cond:
                self._n_created -= 1
                self._cond.notify()
            raise
        with self._cond:
            self.stats["checkouts"] += 1
        return conn

    def release(self, conn) -> None:
        with self._cond:
            if self._closed or conn.closed:
                if conn.closed:
                    self.stats["dead_connections_replaced"] += 1
                else:
                    conn.close()  # pool closed underneath the holder
                self._n_created -= 1
                self._cond.notify()
                return
            if conn.in_transaction:
                try:
                    conn.rollback()
                except SQLError:
                    conn.close()
                    self._n_created -= 1
                    self._cond.notify()
                    return
            self._idle.append(conn)
            self._cond.notify()

    @contextmanager
    def connection(self):
        conn = self.acquire()
        try:
            yield conn
        finally:
            self.release(conn)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._cond.notify_all()
        for conn in idle:
            try:
                conn.close()
            except Exception:
                pass


class ProfileConnector(DBConnector):
    """Connector over an arbitrary engine profile (for ablation studies)."""

    def __init__(self, profile, **database_kwargs: Any) -> None:
        super().__init__(**database_kwargs)
        self._custom_profile = profile
        self.profile_name = profile.name

    def _profile(self):
        return self._custom_profile
