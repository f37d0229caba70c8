"""DB-API 2.0 style adapter over the engine (the psycopg2 stand-in).

The paper's measurements "enclose a call to the psycopg2 adapter to run the
query"; the benchmark harness talks to the engine through this module so
the measured path has the same shape (connect → cursor → execute →
fetchall).

Errors raised through this module are mapped onto the PEP 249 hierarchy
(``ProgrammingError``, ``OperationalError``, ...) while *remaining*
instances of the engine's own classes, so both

    except dbapi.ProgrammingError: ...
    except SQLSyntaxError: ...

catch a syntax error.  The connection is autocommit by default, exactly
like the engine itself: ``commit()``/``rollback()`` act on the explicit
transaction a ``BEGIN`` statement opened and are no-ops outside one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Optional, Sequence

from repro.errors import (
    AdminShutdown,
    AuthenticationError,
    CannotConnectNow,
    CatalogError,
    ConfigurationLimitExceeded,
    DurabilityError,
    OutOfMemory,
    ProtocolViolation,
    QueryCancelled,
    ReadOnlySQLTransaction,
    SQLBindError,
    SQLError,
    SQLExecutionError,
    SQLSyntaxError,
    TooManyConnections,
    TransactionError,
    TransactionRollback,
    UniqueViolation,
)
from repro.sqldb.engine import Database, Result
from repro.sqldb.profile import POSTGRES, Profile
from repro.sqldb.session import Session

__all__ = [
    "connect",
    "Connection",
    "Cursor",
    "map_exception",
    "apilevel",
    "threadsafety",
    "paramstyle",
    "Warning",
    "Error",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
]

apilevel = "2.0"
threadsafety = 2  # threads may share the module and connections
paramstyle = "qmark"  # ``?``; the lexer also accepts psycopg2's ``%s``


# -- PEP 249 exception hierarchy ---------------------------------------------


class Warning(Exception):  # noqa: A001 - name mandated by PEP 249
    """PEP 249 Warning."""


class Error(Exception):
    """Base of the PEP 249 error hierarchy."""


class InterfaceError(Error, SQLError):
    """Error related to the adapter itself (e.g. a closed connection).

    Also an :class:`~repro.errors.SQLError` so callers that predate the
    PEP 249 hierarchy keep catching it."""

    sqlstate = "08003"  # connection_does_not_exist


class DatabaseError(Error):
    """Error related to the database."""


class DataError(DatabaseError):
    """Problems with the processed data (bad cast, bad value)."""


class OperationalError(DatabaseError):
    """Errors related to the database's operation (transaction state,
    cancellation, durability/IO failures)."""


class IntegrityError(DatabaseError):
    """Relational integrity violations (unique-index key conflicts)."""


class InternalError(DatabaseError):
    """The database hit an internal inconsistency."""


class ProgrammingError(DatabaseError):
    """Errors in the submitted SQL: syntax, unknown names, bad DDL."""


class NotSupportedError(DatabaseError):
    """A requested feature is not supported by this engine."""


#: engine class → PEP 249 class, most specific first (first match wins)
_ERROR_MAP: tuple[tuple[type, type], ...] = (
    (SQLSyntaxError, ProgrammingError),
    (SQLBindError, ProgrammingError),
    (CatalogError, ProgrammingError),
    (TransactionError, OperationalError),
    # 40001/40P01: the transaction was aborted by the engine and a client
    # retry loop should re-run it — psycopg2 maps these the same way
    (TransactionRollback, OperationalError),
    (QueryCancelled, OperationalError),
    (DurabilityError, OperationalError),
    # network front-end errors (server/client): connection-scoped
    # operational failures, psycopg2-style.  53300 (load shed) is
    # retryable — see client.RETRYABLE_SQLSTATES
    (TooManyConnections, OperationalError),
    (AdminShutdown, OperationalError),
    # replication topology errors: 25006 (write hit a read-only replica)
    # and 57P03 (no endpoint accepts this yet) are retryable — the
    # multi-endpoint connector re-probes the topology and re-routes
    (ReadOnlySQLTransaction, OperationalError),
    (CannotConnectNow, OperationalError),
    (AuthenticationError, OperationalError),
    (ProtocolViolation, OperationalError),
    # memory governor: 53200 (pool exhausted / grant queue shed) and
    # 53400 (query needs more than its limit) are retryable — peers
    # finishing (or an operator raising the limit) unblock a re-run
    (OutOfMemory, OperationalError),
    (ConfigurationLimitExceeded, OperationalError),
    # 23505: constraint violations are IntegrityError per PEP 249
    (UniqueViolation, IntegrityError),
    (SQLExecutionError, DataError),
    (SQLError, DatabaseError),
)

_combined_classes: dict[type, type] = {}


def _combined_class(cls: type) -> type:
    """A class that is both *cls* and its PEP 249 counterpart.

    Created once per engine class and cached, so repeated errors don't
    mint new types and ``type(a) is type(b)`` holds across raises.
    """
    combined = _combined_classes.get(cls)
    if combined is None:
        if issubclass(cls, Error):
            combined = cls
        else:
            base: type = DatabaseError
            for engine_cls, dbapi_cls in _ERROR_MAP:
                if issubclass(cls, engine_cls):
                    base = dbapi_cls
                    break
            combined = type(cls.__name__, (base, cls), {"__module__": __name__})
        _combined_classes[cls] = combined
    return combined


def map_exception(exc: SQLError) -> SQLError:
    """Re-dress an engine error as its PEP 249 counterpart.

    The result is an instance of both hierarchies; the SQLSTATE code and
    message are preserved."""
    combined = _combined_class(type(exc))
    if combined is type(exc):
        return exc
    return combined(*exc.args, sqlstate=exc.sqlstate)


@contextmanager
def _translating():
    try:
        yield
    except SQLError as exc:
        raise map_exception(exc) from exc


# -- cursor / connection ------------------------------------------------------


class Cursor:
    """The DB-API cursor of every connection kind.

    It talks only to the owning connection's ``run_script`` /
    ``executemany`` — the in-process :class:`Connection`, the network
    driver's and the topology-routed connection of
    :mod:`repro.sqldb.client` all hand out this class — so every cursor
    of one connection shares that connection's transaction state while
    cursors of *different* connections over a shared database run under
    snapshot isolation from each other.
    """

    def __init__(self, connection: Any) -> None:
        self._connection = connection
        self._result: Optional[Result] = None
        self._position = 0
        self._failed = False
        self.arraysize = 1

    @property
    def description(self) -> Optional[list[tuple]]:
        if self._result is None or not self._result.columns:
            return None
        return [(name, None, None, None, None, None, None) for name in self._result.columns]

    @property
    def rowcount(self) -> int:
        return -1 if self._result is None else self._result.rowcount

    def _settle(self, result: Optional[Result], failed: bool = False) -> "Cursor":
        self._result = result
        self._position = 0
        self._failed = failed
        return self

    def execute(self, sql: str, parameters: Sequence[Any] | None = None) -> "Cursor":
        """Execute *sql*, binding ``?`` / ``%s`` placeholders to *parameters*.

        Values are bound into the cached plan at execution time — they are
        never spliced into the SQL text.
        """
        try:
            results = self._connection.run_script(sql, parameters)
        except Exception:
            # a failed execute must not leave the previous statement's
            # rows fetchable: fetches now raise until the next execute
            self._settle(None, failed=True)
            raise
        return self._settle(results[-1] if results else None)

    def executemany(
        self, sql: str, seq_of_parameters: Sequence[Sequence[Any]]
    ) -> "Cursor":
        """Execute *sql* once per parameter row, parsing and planning once.

        The batch is atomic — a failure on any row undoes the whole call."""
        try:
            total = self._connection.executemany(sql, seq_of_parameters)
        except Exception:
            self._settle(None, failed=True)
            raise
        return self._settle(Result(rowcount=total))

    def _check_fetchable(self) -> None:
        if self._failed:
            raise InterfaceError(
                "the last execute on this cursor failed; "
                "no results to fetch"
            )

    def fetchone(self) -> Optional[tuple]:
        self._check_fetchable()
        if self._result is None or self._position >= len(self._result.rows):
            return None
        row = self._result.rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        self._check_fetchable()
        size = size or self.arraysize
        out = []
        for _ in range(size):
            row = self.fetchone()
            if row is None:
                break
            out.append(row)
        return out

    def fetchall(self) -> list[tuple]:
        self._check_fetchable()
        if self._result is None:
            return []
        rows = self._result.rows[self._position :]
        self._position = len(self._result.rows)
        return rows

    def close(self) -> None:
        self._settle(None)

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class Connection:
    """Minimal DB-API connection over one engine :class:`Session`.

    A connection built the classic way owns a fresh private
    :class:`Database` and drives its *default* session (so code that
    reaches through ``connection.database.execute(...)`` shares the
    connection's transaction state).  ``connect(database=shared_db)``
    instead opens a **new** session over an existing database: many such
    connections run concurrently under snapshot isolation, each with its
    own transaction state, cancel scope and lock identity.

    Beyond PEP 249 it carries the statement surface the network driver's
    connection has — ``run_script`` / ``executemany`` / ``server_stats``,
    each raising PEP 249 errors — which is all the cursor, the connection
    pool and the connectors use, so they work over either kind.  Every
    other request (``EXPLAIN [ANALYZE]``, ``ANALYZE``, ``CHECKPOINT``) is
    SQL text run through a cursor.
    """

    def __init__(
        self,
        profile: Profile | str = POSTGRES,
        *,
        database: Optional[Database] = None,
        **database_kwargs: Any,
    ) -> None:
        if database is not None:
            self.database = database
            self._owns_database = False
            self.session: Session = database.session()
        else:
            with _translating():
                self.database = Database(profile, **database_kwargs)
            self._owns_database = True
            self.session = self.database._default_session
        self._closed = False

    @property
    def in_transaction(self) -> bool:
        return self.session.in_transaction

    @property
    def closed(self) -> bool:
        return self._closed or self.session.closed

    def cursor(self) -> Cursor:
        if self.closed:
            raise InterfaceError("connection is closed")
        return Cursor(self)

    def run_script(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> list[Result]:
        """Execute a ``;``-script on this connection's session; one
        :class:`Result` per statement."""
        with _translating():
            return self.database.run_script(sql, params, session=self.session)

    def executemany(
        self, sql: str, seq_of_parameters: Sequence[Sequence[Any]]
    ) -> int:
        """One atomic batch of a DDL/DML statement; the summed rowcount."""
        with _translating():
            return self.database.executemany(
                sql, seq_of_parameters, session=self.session
            )

    def server_stats(self) -> dict:
        """Plan-cache and per-operator counters of the engine behind this
        connection, in the shape of the network server's ``stats`` frame."""
        return {
            "plan_cache": self.database.plan_cache.stats,
            "operators": self.database.operator_counters,
        }

    def begin(self) -> None:
        """Open an explicit transaction (``BEGIN``)."""
        if self.closed:
            raise InterfaceError("connection is closed")
        with _translating():
            self.database.begin(session=self.session)

    def commit(self) -> None:
        """Commit the open transaction; a no-op in autocommit (DB-API).

        Under concurrency this is where first-committer-wins conflicts
        surface: :class:`OperationalError` with SQLSTATE 40001
        (serialization failure) means the transaction was rolled back and
        should be retried."""
        if self.closed:
            raise InterfaceError("connection is closed")
        with _translating():
            self.database.commit(session=self.session)

    def rollback(self) -> None:
        """Roll back the open transaction; a no-op in autocommit."""
        if self.closed:
            raise InterfaceError("connection is closed")
        with _translating():
            self.database.rollback(session=self.session)

    def cancel(self) -> None:
        """Cancel every in-flight statement on this connection (safe
        from any thread, like psycopg2's ``Connection.cancel``; other
        connections over the same database are unaffected)."""
        self.session.cancel()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_database:
            self.database.close()
        else:
            # shared database: end only this connection's session (rolls
            # back its open transaction and releases its locks)
            self.session.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def connect(
    profile: Profile | str = POSTGRES,
    *,
    database: Optional[Database] = None,
    **database_kwargs: Any,
) -> Connection:
    """Open a connection to a fresh in-process database.

    ``database_kwargs`` go to :class:`~repro.sqldb.engine.Database`
    unchanged — its signature is the one declaration of the engine's
    options: ``wal_path`` opts into write-ahead logging with crash
    recovery on connect, ``statement_timeout_ms`` sets the default
    timeout of each call (one deadline for its lock waits, memory-grant
    waits and queries), ``memory_limit`` / ``query_memory_limit`` arm
    the memory governor.

    ``database=`` connects to an *existing* :class:`Database` instead,
    opening a new concurrent session over it (every other argument is
    ignored — the shared engine's configuration applies); this is how
    multi-session MVCC clients and the connection pool attach.
    """
    return Connection(profile, database=database, **database_kwargs)
