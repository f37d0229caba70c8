"""DBMS connectors used by the SQL backend.

A connector is a named connection factory plus the one ``run`` the SQL
backend sends every script through — the call shape the paper measures
through psycopg2.  ``PostgresqlConnector`` embeds the engine with the
materialising (disk-based) profile, ``UmbraConnector`` with the
pipelined (beyond-main-memory) profile; ``RemoteConnector`` dials a
served database and ``MultiEndpointConnector`` a replicated group of
them.  All four drive the same connection surface
(:class:`repro.sqldb.dbapi.Connection` and its network twins in
:mod:`repro.sqldb.client`, where the retry loop, the connection pool and
the topology routing live), so nothing below the ``_connect`` of each
knows which kind it holds.
"""

from __future__ import annotations

import os
import time
from typing import Any, Optional, Sequence

from repro.sqldb import client, dbapi
from repro.sqldb.engine import Result

__all__ = [
    "DBConnector",
    "MultiEndpointConnector",
    "PostgresqlConnector",
    "ProfileConnector",
    "RemoteConnector",
    "UmbraConnector",
]


class DBConnector:
    """A named connection factory with simple execute helpers.

    ``statement_timings`` records (first-line-of-sql, seconds) per executed
    statement — the operation-level breakdown of §6.5 reads it.
    """

    profile_name = "postgres"
    #: keyword arguments ``run`` hands to :func:`retry_backoff` (none:
    #: its default budget)
    _retry_budget: dict[str, Any] = {}

    def __init__(self, **database_kwargs: Any) -> None:
        self._connection: Any = None
        self.statement_timings: list[tuple[str, float]] = []
        #: times ``run`` re-attempted a script after a retryable SQLSTATE
        self.retries = 0
        #: engine options, handed to every ``Database`` this connector
        #: opens (``repro.sqldb.engine.Database`` declares them)
        self.database_kwargs = database_kwargs

    @property
    def name(self) -> str:
        return self.profile_name

    def _connect(self) -> Any:
        return dbapi.connect(self._profile(), **self.database_kwargs)

    def _connect_peer(self) -> Any:
        """One more connection to the same database (what ``pool``
        hands out): a further session over the embedded engine."""
        return dbapi.connect(database=self.connection.database)

    @property
    def connection(self) -> Any:
        """The connector's connection; a closed one (never opened, dead
        server, ``close()``) is transparently re-opened."""
        if self._connection is None or self._connection.closed:
            self._connection = self._connect()
        return self._connection

    def _profile(self):
        return self.profile_name

    def reset(self) -> None:
        """Drop all data by reconnecting to a fresh database (with a fresh
        plan cache).

        For a durable connector the WAL and checkpoint files are removed
        too — reset means "fresh database", not "recover the old one".
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
        self.statement_timings = []

    def close(self) -> None:
        """Close the connection and what it owns (the embedded database,
        the server-side session); the next use re-opens one."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def run(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> Result:
        """Execute a script, returning the last statement's result.

        ``params`` binds positional placeholders; a statement text repeated
        since the last reset hits the engine's plan cache and skips
        lexing/parsing/planning.

        When the script fails with a retryable SQLSTATE
        (:data:`repro.sqldb.client.RETRYABLE_SQLSTATES`) and the
        connector is *not* inside an explicit transaction, the session is
        rolled back and the whole script re-run under
        :func:`retry_backoff`; inside an explicit transaction the error
        propagates — only the caller can decide to retry its own
        transaction from ``BEGIN``.  The connection is checked out inside
        each attempt: a retryable refusal while dialling (53300 shed at
        admission, 57P03 during a promotion) is retried like any other,
        and an attempt after the connection died dials a new one.
        """
        started = time.perf_counter()

        def attempt() -> list[Result]:
            return self.connection.run_script(sql, params)

        def on_retry(attempt_index: int, exc: BaseException) -> None:
            self.retries += 1
            held = self._connection
            if held is not None and not held.closed:
                # a failed attempt may have left a half-open transaction
                # (e.g. the script's own BEGIN): clear it before re-running
                held.rollback()

        held = self._connection
        if held is not None and not held.closed and held.in_transaction:
            results = attempt()
        else:
            results = client.retry_backoff(
                attempt, on_retry=on_retry, **self._retry_budget
            )
        elapsed = time.perf_counter() - started
        head = sql.strip().split("\n", 1)[0][:120]
        self.statement_timings.append((head, elapsed))
        return results[-1] if results else Result()

    def pool(
        self, size: int = 4, timeout: Optional[float] = None
    ) -> client.ConnectionPool:
        """A :class:`~repro.sqldb.client.ConnectionPool` of concurrent
        connections to this connector's database."""
        return client.ConnectionPool(self._connect_peer, size, timeout)

    def query_rows(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> list[tuple]:
        cursor = self.connection.cursor()
        cursor.execute(sql, params)
        return cursor.fetchall()

    @property
    def plan_cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters of the underlying engine's plan cache."""
        return self.connection.server_stats()["plan_cache"]

    @property
    def exec_stats(self) -> dict[str, dict]:
        """Cumulative per-operator runtime counters (rows/calls/seconds),
        populated when the engine was built with ``collect_exec_stats``."""
        return self.connection.server_stats()["operators"]

    def explain_analyze(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> str:
        """Run one SELECT and return its plan with actual row/time stats."""
        return self.connection.explain_analyze(sql, params)

    def analyze(self, table: Optional[str] = None) -> list[str]:
        """Collect planner statistics (``ANALYZE``) on one or all tables."""
        return self.connection.analyze(table)


class PostgresqlConnector(DBConnector):
    """The paper's disk-based system ("blue elephant")."""

    profile_name = "postgres"


class UmbraConnector(DBConnector):
    """The paper's beyond-main-memory system."""

    profile_name = "umbra"


class ProfileConnector(DBConnector):
    """Connector over an arbitrary engine profile (for ablation studies)."""

    def __init__(self, profile, **database_kwargs: Any) -> None:
        super().__init__(**database_kwargs)
        self._custom_profile = profile
        self.profile_name = profile.name

    def _profile(self):
        return self._custom_profile


class RemoteConnector(DBConnector):
    """Connector over the network client — the paper's psycopg2 role.

    Speaks the length-prefixed JSON protocol to a running
    :class:`~repro.sqldb.server.DatabaseServer` instead of embedding an
    engine, while keeping the whole :class:`DBConnector` surface
    (``run``/``reset``/``query_rows``/``pool``/stats), so every harness,
    benchmark and :class:`~repro.core.sql_backend.SQLBackend` pipeline
    drops onto a served database unchanged — retry semantics included.
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

    def _connect(self) -> Any:
        return client.connect(
            self.host,
            self.port,
            auth_token=self.auth_token,
            connect_timeout=self.connect_timeout,
            statement_timeout_ms=self.statement_timeout_ms,
        )

    #: every pooled connection is its own dial (own server-side session)
    _connect_peer = _connect

    # benchmarks/e2e/spans.py wraps ``run`` in this class's own __dict__
    # next to DBConnector's; an alias, not an override calling up, keeps
    # one span per call (dies with ROADMAP item 4)
    run = DBConnector.run

    def reset(self) -> None:
        """Drop all server-side data and cached plans (the remote twin of
        the in-process reconnect-based reset)."""
        self.connection.reset()
        self.statement_timings = []


class MultiEndpointConnector(DBConnector):
    """Connector to a replicated server group: its connection is a
    :class:`~repro.sqldb.client.RoutedConnection` (reads fan out over the
    replicas, writes follow the primary) and its retry budget is sized
    to ride out a failover, which that connection surfaces as retryable
    57P03/25006."""

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
        self.topology = client.Topology(
            endpoints,
            auth_token=auth_token,
            connect_timeout=connect_timeout,
            statement_timeout_ms=statement_timeout_ms,
            probe_ttl_s=probe_ttl_s,
        )
        self._retry_budget = {
            "attempts": attempts,
            "base_delay": base_delay,
            "max_delay": max_delay,
        }

    def _connect(self) -> Any:
        return client.RoutedConnection(self.topology)

    _connect_peer = _connect

    def reset(self) -> None:
        """Drop all data on the primary (replicas follow the stream)."""
        self.connection.reset()
        self.statement_timings = []

    @property
    def reads_routed(self) -> dict[str, int]:
        """SELECT scripts served by a replica / by the primary."""
        return self.connection.reads_routed
