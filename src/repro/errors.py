"""Exception hierarchy shared across the repro package.

SQL-side errors carry a PostgreSQL-style SQLSTATE code in ``sqlstate``
(class-level default, overridable per raise via the ``sqlstate`` keyword),
so callers can branch on error class *or* on the five-character code the
way psycopg2 users do.  The DB-API adapter (:mod:`repro.sqldb.dbapi`)
maps this hierarchy onto the PEP 249 ``Error`` classes.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class FrameError(ReproError):
    """Errors raised by the dataframe substrate (``repro.frame``)."""


class LearnError(ReproError):
    """Errors raised by the ML substrate (``repro.learn``)."""


class NotFittedError(LearnError):
    """A transformer/estimator was used before ``fit`` was called."""


class SQLError(ReproError):
    """Base class for errors raised by the SQL engine (``repro.sqldb``)."""

    #: PostgreSQL-style SQLSTATE code (class default; per-instance override
    #: via the ``sqlstate`` keyword)
    sqlstate = "XX000"  # internal_error

    def __init__(self, *args, sqlstate: str | None = None) -> None:
        super().__init__(*args)
        if sqlstate is not None:
            self.sqlstate = sqlstate


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenised or parsed."""

    sqlstate = "42601"  # syntax_error


class SQLBindError(SQLError):
    """A name (table, column, function) could not be resolved."""

    sqlstate = "42703"  # undefined_column


class SQLExecutionError(SQLError):
    """A runtime failure while executing a query plan."""

    sqlstate = "22000"  # data_exception


class UniqueViolation(SQLExecutionError):
    """A DML statement (or CREATE UNIQUE INDEX over existing rows) would
    leave duplicate keys in a unique index."""

    sqlstate = "23505"  # unique_violation


class CatalogError(SQLError):
    """Catalog violations: duplicate or missing tables/views."""

    sqlstate = "42P01"  # undefined_table


class TransactionError(SQLError):
    """Invalid transaction state: BEGIN inside a transaction, COMMIT or
    SAVEPOINT outside one, ROLLBACK TO an unknown savepoint."""

    sqlstate = "25000"  # invalid_transaction_state


class TransactionRollback(SQLError):
    """Base of the retryable rollback family (PostgreSQL class 40).

    The transaction was aborted by the engine, not by a mistake in the
    SQL: re-running the whole transaction on a fresh snapshot is the
    documented remedy, and the connector layer does so automatically for
    these SQLSTATEs."""

    sqlstate = "40000"  # transaction_rollback


class SerializationFailure(TransactionRollback):
    """First-committer-wins conflict: another transaction committed a
    write to a relation in this transaction's write (or DDL read) set
    after this transaction's snapshot was taken."""

    sqlstate = "40001"  # serialization_failure


class DeadlockDetected(TransactionRollback):
    """The wait-for graph of table-lock waits contains a cycle through
    this session; this transaction was chosen as the victim and
    aborted (its locks are released immediately)."""

    sqlstate = "40P01"  # deadlock_detected


class QueryCancelled(SQLError):
    """A statement was cancelled — statement timeout or explicit
    :meth:`~repro.sqldb.engine.Database.cancel` — at a cooperative
    checkpoint (operator boundary)."""

    sqlstate = "57014"  # query_canceled


class DurabilityError(SQLError):
    """Write-ahead log or checkpoint failure: unreadable/corrupt files,
    unserialisable redo records, or a replay that no longer applies."""

    sqlstate = "58030"  # io_error


class ProtocolViolation(SQLError):
    """The network peer sent a malformed, oversized or out-of-order wire
    frame (bad length prefix, invalid JSON, disconnect mid-frame, or a
    message type the protocol state does not allow)."""

    sqlstate = "08P01"  # protocol_violation


class AuthenticationError(SQLError):
    """The client's handshake carried a missing or wrong auth token."""

    sqlstate = "28000"  # invalid_authorization_specification


class TooManyConnections(SQLError):
    """The server shed this connection at admission: every worker slot
    was taken.  Deliberately *retryable* — the client backoff loop
    reconnects once load drops, like PostgreSQL's 53300."""

    sqlstate = "53300"  # too_many_connections


class AdminShutdown(SQLError):
    """The server is draining for shutdown and no longer accepts new
    statements on this connection; open transactions are rolled back."""

    sqlstate = "57P01"  # admin_shutdown


class ReadOnlySQLTransaction(SQLError):
    """A write statement reached a read-only database — a streaming
    replica serving reads.  Deliberately *retryable*: a client that held
    a stale topology (its primary was just promoted elsewhere, or this
    node was just demoted) should re-probe and re-route the write rather
    than fail outright."""

    sqlstate = "25006"  # read_only_sql_transaction


class CannotConnectNow(SQLError):
    """No endpoint of a replicated topology currently accepts this
    request — the primary is gone and a promotion has not completed yet.
    Deliberately *retryable*: the client backoff loop re-probes the
    topology until the promoted node starts taking writes (PostgreSQL
    raises 57P03 while a server is starting up, the same wait-and-retry
    shape)."""

    sqlstate = "57P03"  # cannot_connect_now


class OutOfMemory(SQLError):
    """The engine's global memory budget is exhausted: the grant queue
    timed out (or overflowed) at admission, or a non-degradable
    allocation could not be served from the shared pool mid-query.
    Deliberately *retryable* — peers finishing their statements release
    their grants, so backing off and re-running is the documented remedy
    (PostgreSQL's 53200 carries the same advice under work_mem
    pressure)."""

    sqlstate = "53200"  # out_of_memory


class ConfigurationLimitExceeded(SQLError):
    """A single query's irreducible memory requirement — after every
    degradation path (external sort, partitioned join/aggregate) has
    been applied — exceeds the configured per-query limit.  Retrying
    against the same configuration cannot succeed, but the connector
    still treats it as retryable so a topology with mixed limits (or an
    operator raising the limit) recovers without client changes."""

    sqlstate = "53400"  # configuration_limit_exceeded


class InspectionError(ReproError):
    """Errors raised by the inspection framework (``repro.inspection``)."""


class TranslationError(ReproError):
    """The SQL backend could not translate a pipeline operation."""
