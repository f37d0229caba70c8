"""Database façade: statement execution over a catalog with a profile.

``Database("postgres")`` behaves like the paper's PostgreSQL 12 (CTEs
materialise by default, operators materialise their outputs, views inline);
``Database("umbra")`` behaves like Umbra (everything inlines and pipelines).
"""

from __future__ import annotations

import csv
import itertools
import logging
import threading
import time
import weakref
from collections import Counter, OrderedDict
from contextlib import nullcontext
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    CatalogError,
    ConfigurationLimitExceeded,
    DeadlockDetected,
    DurabilityError,
    OutOfMemory,
    ReadOnlySQLTransaction,
    SerializationFailure,
    SQLExecutionError,
    TransactionError,
)
from repro.sqldb import ast_nodes as ast
from repro.sqldb.catalog import (
    CTID,
    Catalog,
    CsvColumn,
    Table,
    View,
    _check_index_method,
    build_index,
    decode_records,
    referenced_relations,
)
from repro.sqldb.executor import ExecContext, execute_plan
from repro.sqldb.faults import NO_FAULTS, Faults, crashpoint
from repro.sqldb.memory import (
    MemoryBroker,
    MemoryGrant,
    batch_bytes,
    parse_memory_limit,
)
from repro.sqldb.locks import LockManager, ReadWriteLock
from repro.sqldb.session import Session
from repro.sqldb.txn import SavepointState, Transaction
from repro.sqldb.wal import (
    WAL_SYNC_POLICIES,
    WriteAheadLog,
    checkpoint_image,
    read_checkpoint,
    read_wal,
    truncate_wal,
    write_checkpoint,
)
from repro.sqldb.optimizer import (
    estimate_plan_rows,
    fold_select,
    optimize_select_plan,
    prune_plan,
    prune_shared_plans,
)
from repro.sqldb.lexer import tokenize
from repro.sqldb.parser import parse_script
from repro.sqldb.plan import Batch, PlanNode, parameter_value
from repro.sqldb.planner import Planner, Scope, check_row_expression
from repro.sqldb.prepared import bind_parameters, normalize_tokens
from repro.sqldb.profile import POSTGRES, Profile, profile_by_name
from repro.sqldb.stats import ExecStats, merge_operator_counters
from repro.sqldb.vector import (
    Vector,
    compact,
    from_values,
    gather,
    normalise_type,
    read_only,
    to_rows,
)

logger = logging.getLogger(__name__)

__all__ = [
    "Database",
    "PlanCache",
    "Result",
]

#: transaction-control statements (exclusive lock, never WAL-logged
#: themselves — only committed work reaches the log)
_TXN_TYPES = (
    ast.Begin,
    ast.Commit,
    ast.Rollback,
    ast.Savepoint,
    ast.RollbackTo,
    ast.ReleaseSavepoint,
    ast.Checkpoint,
)

#: rows COPY reads, transposes and types at a time: one chunk of raw text
#: is all COPY holds besides the typed columns (chosen by COPY time and
#: allocation peak on compas at 10^4 rows x 54 columns; EXPERIMENTS.md)
_COPY_CHUNK_ROWS = 256


def _byte_limit(raw: Optional[int | str]) -> Optional[int]:
    """A memory budget argument: bytes, or a ``kb``/``mb``/``gb``-suffixed
    string; ``None`` means unbounded."""
    if isinstance(raw, str):
        try:
            return parse_memory_limit(raw)
        except ValueError as exc:
            raise SQLExecutionError(str(exc)) from None
    return None if raw is None else int(raw)


class _StatementScope:
    """What every query one statement runs reads: its session, the call's
    one deadline, the statement's cancel event and, once its first query
    asks for one, its memory grant.

    Entered for the statement's whole run (``with``): the cancel event is
    registered with the session, and on the way out the grant is
    released and folded into the session's counters.  A replay's scope
    is empty and never entered (:data:`_REPLAY`): no deadline, no cancel
    event, no grant."""

    __slots__ = ("session", "deadline", "broker", "cancel_event", "grant")

    def __init__(
        self,
        session: Optional[Session] = None,
        deadline: Optional[float] = None,
        broker: Optional[MemoryBroker] = None,
    ) -> None:
        self.session = session
        self.deadline = deadline
        self.broker = broker
        self.cancel_event: Optional[threading.Event] = None
        self.grant: Optional[MemoryGrant] = None

    def __enter__(self) -> "_StatementScope":
        self.cancel_event = event = threading.Event()
        with self.session._cancel_mutex:
            self.session._active_cancels.add(event)
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        session, grant = self.session, self.grant
        try:
            if kind is not None and issubclass(
                kind, (OutOfMemory, ConfigurationLimitExceeded)
            ):
                session.memory_shed += 1
            if grant is not None:
                self.broker.end_query(grant)
                session.note_memory(grant.peak_bytes, grant.spilled_bytes)
        finally:
            with session._cancel_mutex:
                session._active_cancels.discard(self.cancel_event)

    def context(
        self,
        catalog: Catalog,
        profile: Profile,
        params: tuple = (),
        stats: Optional[ExecStats] = None,
    ) -> ExecContext:
        """One query's execution context over *catalog*; the statement's
        grant is taken here, by its first query, waiting under the
        statement's deadline and cancel event."""
        if self.grant is None and self.broker is not None:
            self.grant = self.broker.begin_query(
                deadline=self.deadline, cancel_event=self.cancel_event
            )
        return ExecContext(
            catalog,
            profile,
            params=params,
            stats=stats,
            deadline=self.deadline,
            cancel_event=self.cancel_event,
            memory=self.grant,
        )

    def hold(self, batch: Batch) -> None:
        """Charge a client's result to the statement's grant: the batch
        is held until the statement ends, outliving every operator (a
        matview's snapshot is catalog state, not a held result)."""
        if self.grant is not None:
            self.grant.require(batch_bytes(batch), "result.batch")


#: the scope of a replay (WAL recovery, replicated apply, the matview
#: refresh a commit runs after its WAL write): what is durable must apply
_REPLAY = _StatementScope()


@dataclass
class Result:
    """Query result: column names plus Python-value row tuples."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    #: rows affected / loaded for DML, row count for queries
    rowcount: int = 0
    statement: str = ""
    #: the typed columns ``rows`` was built from (read-only; a query's
    #: only — DML and DDL results have none)
    vectors: list[Vector] = field(
        default_factory=list, compare=False, repr=False
    )

    def scalar(self) -> Any:
        """Single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SQLExecutionError(
                f"expected a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]


@dataclass
class _CachedStatement:
    """One parsed statement plus its lazily built plan: a SELECT's, or
    the one that finds an UPDATE's or DELETE's rows (see
    :meth:`Database._dml_rows`) — or an INSERT's VALUES cells."""

    statement: ast.Statement
    plan: Optional[PlanNode] = None
    cells: Optional[list[list[Callable]]] = None


@dataclass
class _CacheEntry:
    """Cached parse/plan state for one normalized statement text."""

    statements: list[_CachedStatement]
    n_params: int


class PlanCache:
    """LRU cache of parsed statements and pruned logical plans.

    One cache belongs to one :class:`Database`, whose profile is fixed
    and whose one plan path depends on nothing else, so keys are
    ``(normalized SQL, catalog schema version, statistics version, index
    epoch, catalog uid)``: DDL (and a catalog restore, replica snapshot or
    storage reset) bumps the schema version, ``ANALYZE`` the statistics
    version and CREATE / DROP INDEX the index epoch, so entries planned
    against a stale catalog (or with stale statistics or access paths)
    stop matching and age out; a committed catalog's schema version never
    repeats, and the uid keeps transactions' clones apart.  Row-changing
    statements change none of these: plans resolve relations by name
    when they run, so a cached entry reads live data and a repeated
    parameterised INSERT / UPDATE / DELETE / SELECT is a hit.  ``clear()`` drops the
    entries and keeps the cumulative hit/miss counters.  ``maxsize=0``
    (or ``enabled=False``) disables caching entirely.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self.enabled = maxsize > 0
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        #: concurrent sessions share one cache; LRU reordering and
        #: eviction must not interleave
        self._mutex = threading.Lock()

    def get(self, key: tuple) -> Optional[_CacheEntry]:
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, entry: _CacheEntry) -> None:
        with self._mutex:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}


class Database:
    """An in-process SQL database with a pluggable execution profile."""

    def __init__(
        self,
        profile: Profile | str = POSTGRES,
        plan_cache_size: int = 128,
        collect_exec_stats: bool = False,
        wal_path: Optional[str] = None,
        wal_sync: str = "commit",
        checkpoint_every: Optional[int] = None,
        statement_timeout_ms: Optional[float] = None,
        read_only: bool = False,
        faults: Optional[Faults] = None,
        memory_limit: Optional[int | str] = None,
        query_memory_limit: Optional[int | str] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        if isinstance(profile, str):
            profile = profile_by_name(profile)
        self.profile = profile
        self.catalog = Catalog()
        self.plan_cache = PlanCache(plan_cache_size)
        #: exact-text memo in front of the normalizer; normalization is
        #: schema-independent, so entries never go stale
        self._normalized: OrderedDict[str, tuple[str, int]] = OrderedDict()
        #: when set, every plan run (a SELECT, a matview build or refresh, a
        #: TRAIN iteration) records per-operator runtime stats
        self.collect_exec_stats = collect_exec_stats
        #: cumulative per-operator counters across collected executions
        self.operator_counters: dict[str, dict] = {}
        #: stats of the most recent recorded execution
        self.last_exec_stats: Optional[ExecStats] = None
        #: default statement timeout of this database's sessions; None or
        #: non-positive disables it (PostgreSQL's ``statement_timeout = 0``)
        self.statement_timeout_ms = statement_timeout_ms
        #: fair catalog latch: committed-state SELECTs hold the read side
        #: for their whole execution;
        #: DDL, autocommit DML and the commit-time catalog swap take the
        #: exclusive side.  Fair: a queued writer blocks new readers.
        self._lock = ReadWriteLock()
        #: per-table DML locks across sessions (2PL with deadlock detection)
        self.locks = LockManager()
        #: session registry: the default session serves the Database's own
        #: execute() API; DB-API connections sharing this database open
        #: one session each
        self._sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)
        self._session_mutex = threading.Lock()
        # the default session reaches back through a weak proxy: a strong
        # one would make every Database a reference cycle, freed only by
        # the cyclic collector, with every table it holds
        self._default_session = Session(weakref.proxy(self), 0)
        self._sessions[0] = self._default_session
        #: transaction identities (deadlock reporting) — distinct from
        #: commit ids, which are allocated at COMMIT under the write
        #: latch so WAL order equals commit order
        self._txn_ids = itertools.count(1)
        self._next_txn = 1
        #: monotonic serialization of _normalized against concurrent use
        self._prepare_mutex = threading.Lock()
        self._stats_mutex = threading.Lock()
        #: fault injection at the durability and allocation points (inert
        #: by default)
        self.faults = faults if faults is not None else NO_FAULTS
        #: memory governor (``faults=`` builds one so its allocation
        #: points are reached); ``None`` keeps every statement on the
        #: zero-overhead fast path
        limit, query_limit = _byte_limit(memory_limit), _byte_limit(query_memory_limit)
        self.memory: Optional[MemoryBroker] = None
        if (
            limit is not None
            or query_limit is not None
            or spill_dir is not None
            or faults is not None
        ):
            self.memory = MemoryBroker(
                limit=limit,
                query_limit=query_limit,
                spill_dir=spill_dir,
                faults=self.faults,
            )
        #: durability: opt in with wal_path=...
        self.durable = wal_path is not None
        self.wal_path = wal_path
        if wal_sync not in WAL_SYNC_POLICIES:
            raise DurabilityError(
                f"unknown wal_sync policy {wal_sync!r}; "
                f"expected one of {WAL_SYNC_POLICIES}"
            )
        self.wal_sync = wal_sync
        self.checkpoint_every = checkpoint_every
        self._commits_since_checkpoint = 0
        self._wal: Optional[WriteAheadLog] = None
        #: read-only mode: every client write raises 25006 (a streaming
        #: replica's SQL surface); the replication applier bypasses it
        #: through :meth:`apply_replicated_commit`
        self.read_only = bool(read_only)
        #: post-commit hooks ``fn(commit_id, records)`` — called in
        #: commit order, under the write latch, after the commit is
        #: locally durable and installed.  Replication streams hang off
        #: this; hooks must be fast or intentionally synchronous.
        self._commit_hooks: list = []
        #: commit id of the newest replicated commit applied here (a
        #: replica's replay position; 0 on a primary)
        self.last_applied_commit_id = 0
        if self.durable:
            self._recover()
            self._wal = WriteAheadLog(wal_path, self.faults, sync_policy=wal_sync)

    @property
    def in_transaction(self) -> bool:
        """True while the default session has an open transaction."""
        return self._default_session.txn is not None

    def session(self) -> Session:
        """Open a new session (one per concurrent client connection)."""
        with self._session_mutex:
            session = Session(self, next(self._session_ids))
            self._sessions[session.session_id] = session
        return session

    def _forget_session(self, session: Session) -> None:
        with self._session_mutex:
            self._sessions.pop(session.session_id, None)

    def _resolve_session(self, session: Optional[Session]) -> Session:
        return self._default_session if session is None else session

    def close(self) -> None:
        """Release the WAL file handle and the memory broker (idempotent;
        the database stays usable in memory — but the WAL is not reopened,
        mirroring a closed connection).

        Deliberately does *not* commit, checkpoint, or roll back: an open
        transaction's memory state is simply abandoned, exactly like a
        process exit, so recovery semantics stay uniform."""
        if self._wal is not None:
            self._wal.close()
        if self.memory is not None:
            self.memory.close()

    def reset_storage(self) -> None:
        """Drop every relation and start from an empty committed catalog.

        The server-side counterpart of a connector ``reset()`` (which
        in-process simply reconnects to a fresh :class:`Database`): the
        catalog is replaced wholesale under the write latch and the plan
        cache is emptied, like the reconnect path's fresh database (its
        hit/miss counters keep counting, so readers that subtract a
        before-value stay right).  The new catalog's schema version
        continues the old one's, so a plan a statement in flight caches
        against the old catalog can never match the new one.  The
        session registry survives.
        Concurrent *open* transactions are not supported across a reset
        (their clones reference discarded state); the network server
        exposes this only behind its ``allow_reset`` flag.  Refused on
        durable databases — the WAL describes the old history."""
        if self.durable:
            raise DurabilityError(
                "reset_storage is not supported on a durable database"
            )
        self._check_writable()
        with self._lock.write():
            fresh = Catalog()
            fresh.schema_version = self.catalog.schema_version + 1
            self.catalog = fresh
            self.operator_counters = {}
            self.last_exec_stats = None
            self.plan_cache.clear()
            with self._prepare_mutex:
                self._normalized.clear()
        if self.memory is not None:
            # a reset must not strand spill files from discarded queries
            self.memory.spill.cleanup_all()

    def cancel(self, session: Optional[Session] = None) -> None:
        """Cooperatively cancel one session's in-flight statements (the
        default session's when none is given — psycopg2's per-connection
        ``cancel`` shape; other sessions' queries are unaffected).

        Safe from any thread; the running statements observe the flag at
        their next operator boundary and raise
        :class:`~repro.errors.QueryCancelled`."""
        self._resolve_session(session).cancel()

    def cancel_all(self) -> None:
        """Cancel every in-flight statement on every session (shutdown)."""
        with self._session_mutex:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.cancel()

    @property
    def _active_cancels(self) -> set[threading.Event]:
        """Union of every session's in-flight cancel events (diagnostics
        and tests; cancellation itself is session-scoped)."""
        with self._session_mutex:
            sessions = list(self._sessions.values())
        events: set[threading.Event] = set()
        for session in sessions:
            with session._cancel_mutex:
                events |= session._active_cancels
        return events

    def _deadline(self, session: Session) -> Optional[float]:
        """The one deadline of an ``execute`` / ``run_script`` /
        ``executemany`` call starting now, which its lock waits, memory
        grant waits and query executions all read: the session's timeout
        (a server connection's hello), else the database's."""
        timeout_ms = session.statement_timeout_ms
        if timeout_ms is None:
            timeout_ms = self.statement_timeout_ms
        if timeout_ms is None or timeout_ms <= 0:
            return None
        return time.monotonic() + timeout_ms / 1000.0

    def memory_stats(self, session: Optional[Session] = None) -> dict:
        """Broker snapshot plus the session's peak/spilled counters
        (empty when no memory governor is configured)."""
        if self.memory is None:
            return {}
        snapshot = self.memory.snapshot()
        snapshot["session"] = self._resolve_session(session).memory_stats()
        return snapshot

    # -- public API ----------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Optional[Sequence[Any]] = None,
        session: Optional[Session] = None,
    ) -> Result:
        """Parse and execute a single SQL statement.

        ``params`` binds positional ``?`` / ``%s`` placeholders;
        ``session`` selects the issuing session (default session when
        omitted).
        """
        session = self._resolve_session(session)
        deadline = self._deadline(session)
        entry = self._prepare(sql, self._active_catalog(session))
        if len(entry.statements) != 1:
            raise SQLExecutionError(
                "execute() takes a single statement; use run_script()"
            )
        bound = bind_parameters(params, entry.n_params)
        return self._execute_statement(
            entry.statements[0], sql, bound, 0, session, deadline
        )

    def run_script(
        self,
        sql: str,
        params: Optional[Sequence[Any]] = None,
        session: Optional[Session] = None,
    ) -> list[Result]:
        """Execute a ``;``-separated script, returning one result each."""
        session = self._resolve_session(session)
        deadline = self._deadline(session)
        entry = self._prepare(sql, self._active_catalog(session))
        bound = bind_parameters(params, entry.n_params)
        return [
            self._execute_statement(cached, sql, bound, index, session, deadline)
            for index, cached in enumerate(entry.statements)
        ]

    def _active_catalog(self, session: Session) -> Catalog:
        """The catalog this session's next statement reads: its open
        transaction's private clone, or the committed catalog."""
        txn = session.txn
        return self.catalog if txn is None else txn.catalog

    def executemany(
        self,
        sql: str,
        seq_of_params: Iterable[Sequence[Any]],
        session: Optional[Session] = None,
    ) -> int:
        """Execute one statement per parameter row; parse and plan once.

        The batch is atomic: a failure on row *k* rolls back rows
        ``0..k-1`` as well, leaving every table byte-identical to before
        the call (inside an explicit transaction, the transaction stays
        open at its pre-batch state).  Returns the summed rowcount
        (DB-API ``executemany`` semantics).
        """
        session = self._resolve_session(session)
        deadline = self._deadline(session)
        self._check_not_aborted(session)
        # before parsing: a read-only replica answers 25006 whatever the script
        self._check_writable()
        entry = self._prepare(sql, self._active_catalog(session))
        if not all(type(c.statement) in _WRITES for c in entry.statements):
            raise SQLExecutionError(
                "executemany only supports DDL/DML statements"
            )
        with _StatementScope(session, deadline, self.memory) as scope:
            return self._run_write(
                scope,
                sql,
                entry.statements,
                (bind_parameters(row, entry.n_params) for row in seq_of_params),
            ).rowcount

    def _run_write(
        self,
        scope: _StatementScope,
        sql: str,
        statements: list[_CachedStatement],
        rows: Iterable[tuple],
        index: Optional[int] = None,
    ) -> Result:
        """The one write path: apply *statements* once per parameter row,
        atomically, then buffer the redo records on the session's open
        transaction or commit them.

        ``index`` is the position of a single statement in its script
        *sql*; ``None`` marks an ``executemany`` batch (every statement of
        the script runs for every row).  Table locks are waited for under
        the statement's *scope* (its cancel event and the call's
        deadline); autocommit releases them with the statement, a
        transaction holds them to its end.  The write's own queries (DML
        predicates, matview builds and refreshes, TRAIN) run in the same
        scope; a 57014 or 53200 there is undone with the statement."""
        # an empty script is a batch of nothing: no targets, no records
        self._check_writable(statements[0].statement if statements else None)
        session = scope.session
        txn = session.txn
        catalog = self._active_catalog(session)
        targets: list[str] = []
        checks: list[str] = []
        for cached in statements:
            statement = cached.statement
            names, reads = _WRITES[type(statement)].targets(statement, catalog)
            targets += names
            checks += reads
        acquired = self._acquire_locks(targets, scope)
        try:
            # a transaction's clone is private to its session; committed
            # state is written (and, as ``reset_storage`` swaps it, looked
            # up) under the exclusive latch
            with nullcontext() if txn is not None else self._lock.write():
                catalog = self.catalog if txn is None else txn.catalog
                # redo records are buffered for whoever consumes them: the
                # WAL (durability) and commit hooks (replication feeds)
                capturing = self._wal is not None or bool(self._commit_hooks)
                positions = range(len(statements)) if index is None else (index,)
                entries: list[tuple[str, int, list]] = []
                total = 0
                memento = catalog.snapshot()
                try:
                    for params in rows:
                        for cached in statements:
                            total += _WRITES[type(cached.statement)].apply(
                                self, cached, params, catalog, scope
                            ).rowcount
                        if capturing:
                            bound = list(params)
                            entries += [(sql, at, bound) for at in positions]
                except Exception:
                    # statement-level atomicity: a failing statement (or
                    # batch row) leaves the catalog exactly as it was
                    catalog.restore(memento)
                    raise
                if txn is not None:
                    txn.write_set.update(targets)
                    txn.check_set.update(checks)
                    txn.records.extend(entries)
                else:
                    # an autocommit statement is one self-committing record,
                    # a single-statement batch one compressed record
                    shape = (
                        "auto" if index is not None
                        else "many" if len(statements) == 1
                        else "stmt"
                    )
                    self._commit(
                        session,
                        targets,
                        lambda commit_id: _redo_records(commit_id, entries, shape),
                    )
        finally:
            if txn is None:
                # autocommit locks are transient: release exactly what this
                # statement newly took
                self.locks.release(session.session_id, acquired)
        return Result(rowcount=total)

    def _commit(
        self,
        session: Optional[Session],
        targets: Iterable[str],
        build_records: Callable[[int], list[dict]],
        install: Optional[Callable[[], None]] = None,
        commit_id: Optional[int] = None,
    ) -> None:
        """The one commit tail; the caller holds the write latch, so
        commit-id order == WAL order == hook order.

        Allocates the commit id (or adopts a replicated one: *commit_id*
        given, *session* None), makes ``build_records(commit_id)`` durable,
        passes the ``commit.install`` crashpoint, runs *install* (``COMMIT``
        moves its clone in; a replicated one repeats the matview refresh),
        stamps the written relations' versions with the commit id (the
        first-committer-wins clock) and the commit position,
        feeds the commit hooks and counts toward the auto-checkpoint."""
        if commit_id is None:
            commit_id = self._next_txn
        self._next_txn = max(self._next_txn, commit_id + 1)
        records = build_records(commit_id)
        durable = bool(records) and self._wal is not None
        if durable:
            self._write_wal_commit(commit_id, records)
        crashpoint(self.faults, "commit.install")
        if install is not None:
            install()
        for name in targets:
            self.catalog.note_write(name, commit_id)
        if session is None:
            self.last_applied_commit_id = commit_id
        else:
            session.last_commit_id = commit_id
        if records:
            self._notify_commit_hooks(commit_id, records)
        if durable:
            self._note_commit()

    def _acquire_locks(
        self, targets: list[str], scope: _StatementScope
    ) -> list[str]:
        """Take per-table locks for one statement's targets; a deadlock
        aborts the session's transaction (40P01) before propagating."""
        if not targets:
            return []
        session = scope.session
        try:
            return self.locks.acquire(
                session.session_id,
                targets,
                deadline=scope.deadline,
                cancel_event=scope.cancel_event,
            )
        except DeadlockDetected:
            if session.txn is not None:
                session.txn.aborted = True
                self.locks.release_all(session.session_id)
            raise

    # -- commit records and hooks ------------------------------------------------

    def _check_writable(self, statement: Optional[ast.Statement] = None) -> None:
        if self.read_only:
            what = (
                type(statement).__name__.upper()
                if statement is not None
                else "write"
            )
            raise ReadOnlySQLTransaction(
                f"cannot execute {what} on a read-only database "
                f"(streaming replica)"
            )

    def add_commit_hook(self, hook) -> None:
        """Register ``hook(commit_id, records)`` to run after every commit
        that produced redo records — in commit order, under the write
        latch, after local durability and install.  Replication streams
        attach here; hooks must be fast (or deliberately synchronous,
        which stalls every committer)."""
        self._commit_hooks.append(hook)

    def remove_commit_hook(self, hook) -> None:
        try:
            self._commit_hooks.remove(hook)
        except ValueError:
            pass

    def _notify_commit_hooks(self, commit_id: int, records: list[dict]) -> None:
        # hook failures must never poison an already-installed commit:
        # the write happened and (if durable) is on disk — a raising hook
        # would report an error for a transaction that committed
        for hook in list(self._commit_hooks):
            try:
                hook(commit_id, records)
            except Exception:  # pragma: no cover - defensive
                logger.exception("commit hook failed (commit %d)", commit_id)

    def _write_wal_commit(self, commit_id: int, records: list[dict]) -> None:
        """Append one commit's redo records (with begin/commit framing
        where needed) and run the configured fsync policy."""
        crashpoint(self.faults, "wal.commit.begin")
        if len(records) == 1 and records[0]["t"] in ("auto", "many"):
            # self-committing single record: no framing needed
            self._wal.append(records[0])
        else:
            self._wal.append({"t": "begin", "txn": commit_id})
            for record in records:
                self._wal.append(record)
            self._wal.append({"t": "commit", "txn": commit_id})
        self._wal.commit_sync()
        crashpoint(self.faults, "wal.commit.end")

    def _prepare(
        self, sql: str, catalog: Optional[Catalog] = None
    ) -> _CacheEntry:
        """Fetch the cached parse/plan state for *sql*, or build it.

        The cache key embeds the catalog schema version (DDL, never DML),
        so entries made against a dropped/recreated schema never resurface
        while row-changing statements leave every entry valid.  ``catalog``
        is the state the statement will read (a transaction's clone or the
        committed catalog); its ``uid`` is part of the key, so two clones
        at the same schema version — which may have diverged — can never
        share an entry.  Normalizing also counts the placeholders, so
        every entry knows how many parameters its statements take, at any
        cache size.
        """
        catalog = self.catalog if catalog is None else catalog
        key: Optional[tuple] = None
        tokens = None  # lexed at most once: shared by normalize and parse
        with self._prepare_mutex:
            memo = self._normalized.get(sql)
            if memo is None:
                tokens = tokenize(sql)
                memo = normalize_tokens(tokens)
                self._normalized[sql] = memo
                while len(self._normalized) > 4 * max(self.plan_cache.maxsize, 1):
                    self._normalized.popitem(last=False)
            else:
                self._normalized.move_to_end(sql)
        normalized, n_params = memo
        if self.plan_cache.enabled:
            key = (
                normalized,
                catalog.schema_version,
                catalog.stats_version,
                catalog.index_epoch,
                catalog.uid,
            )
            entry = self.plan_cache.get(key)
            if entry is not None:
                return entry
        entry = _CacheEntry(
            [_CachedStatement(s) for s in parse_script(sql, tokens)], n_params
        )
        if key is not None:
            self.plan_cache.put(key, entry)
        return entry

    def _reading(self, session: Session):
        """The latch a query of *session* reads under: none over its
        transaction's private clone, the read side over committed state
        (which ``reset_storage`` swaps under the write side)."""
        return nullcontext() if session.txn is not None else self._lock.read()

    # -- statement dispatch -----------------------------------------------------

    def _check_not_aborted(self, session: Session) -> None:
        if session.in_aborted_transaction:
            raise TransactionError(
                "current transaction is aborted, commands ignored until "
                "end of transaction block",
                sqlstate="25P02",
            )

    def _execute_statement(
        self,
        cached: _CachedStatement,
        sql: str,
        params: tuple,
        index: int,
        session: Session,
        deadline: Optional[float],
    ) -> Result:
        statement = cached.statement
        if not isinstance(statement, (ast.Commit, ast.Rollback)):
            self._check_not_aborted(session)
        if isinstance(statement, _TXN_TYPES):
            result = self._execute_txn_control(statement, session)
        elif isinstance(statement, (ast.Select, ast.Explain)):
            scope = _StatementScope(session, deadline, self.memory)
            with scope, self._reading(session):
                catalog = self._active_catalog(session)
                if isinstance(statement, ast.Explain):
                    result = self._explain(statement, scope, catalog, params)
                else:
                    if cached.plan is None:
                        cached.plan = self._plan_select(statement, catalog)
                    batch = self._run_plan(cached.plan, scope, catalog, params)
                    scope.hold(batch)
                    result = _batch_to_result(cached.plan, batch)
        elif type(statement) in _WRITES:
            with _StatementScope(session, deadline, self.memory) as scope:
                result = self._run_write(
                    scope, sql, [cached], [params], index
                )
        else:
            raise SQLExecutionError(
                f"unsupported statement {type(statement).__name__}"
            )
        result.statement = sql.strip().split("\n", 1)[0][:120]
        return result

    def _execute_txn_control(
        self, statement: ast.Statement, session: Session
    ) -> Result:
        if isinstance(statement, ast.Begin):
            self._begin(session)
        elif isinstance(statement, ast.Commit):
            self._require_txn(session, "COMMIT")
            self._commit_session(session)
        elif isinstance(statement, ast.Rollback):
            self._require_txn(session, "ROLLBACK")
            self._rollback_session(session)
        elif isinstance(statement, ast.Savepoint):
            self._savepoint(session, statement.name)
        elif isinstance(statement, ast.RollbackTo):
            self._rollback_to(session, statement.name)
        elif isinstance(statement, ast.ReleaseSavepoint):
            self._release_savepoint(session, statement.name)
        else:  # ast.Checkpoint
            with self._lock.write():
                self._checkpoint_locked(session)
        return Result()

    # -- transactions -----------------------------------------------------------

    def begin(self, session: Optional[Session] = None) -> None:
        """Open an explicit transaction (``BEGIN``)."""
        self._begin(self._resolve_session(session))

    def commit(self, session: Optional[Session] = None) -> None:
        """Commit the session's open transaction; a no-op outside one
        (DB-API convention, unlike the ``COMMIT`` statement which raises).

        May raise :class:`~repro.errors.SerializationFailure` (40001) if a
        concurrent session committed a conflicting write first; the
        transaction is rolled back and should be retried."""
        session = self._resolve_session(session)
        if session.txn is not None:
            self._commit_session(session)

    def rollback(self, session: Optional[Session] = None) -> None:
        """Roll back the session's open transaction; a no-op outside one."""
        session = self._resolve_session(session)
        if session.txn is not None:
            self._rollback_session(session)

    def _require_txn(self, session: Session, what: str) -> Transaction:
        if session.txn is None:
            raise TransactionError(
                f"{what}: no transaction in progress", sqlstate="25P01"
            )
        return session.txn

    def _begin(self, session: Session) -> None:
        if session.txn is not None:
            raise TransactionError(
                "there is already a transaction in progress", sqlstate="25001"
            )
        # the read latch keeps the clone consistent (no committer is
        # mid-install); commit ids are allocated later, at COMMIT
        with self._lock.read():
            clone = self.catalog.snapshot()
        session.txn = Transaction(
            next(self._txn_ids),
            clone,
            start_stats_version=clone.stats_version,
            start_schema_version=clone.schema_version,
        )

    def _commit_session(self, session: Session) -> None:
        txn = session.txn
        if txn.aborted:
            # PostgreSQL: COMMIT of an aborted transaction rolls back
            # quietly (reports ROLLBACK) instead of raising again
            self._rollback_session(session)
            return
        written = sorted(txn.write_set)

        def move_in() -> None:
            for name in written:
                self.catalog.adopt_relation(name, txn.catalog)
            if txn.catalog.stats_version != txn.start_stats_version:
                self.catalog.stats_version += 1
            if txn.catalog.schema_version != txn.start_schema_version:
                # the transaction ran DDL: plans cached against the old
                # committed schema must stop matching
                self.catalog.bump_version()
            self._refresh_committed_matviews(txn.write_set)

        try:
            with self._lock.write():
                # first committer wins: nothing this transaction wrote or
                # depends on may have been committed by a peer since BEGIN
                # (the clone keeps BEGIN's table_versions)
                for name in sorted(txn.write_set | txn.check_set):
                    if self.catalog.table_versions.get(
                        name
                    ) != txn.catalog.table_versions.get(name):
                        raise SerializationFailure(
                            f"could not serialize access due to concurrent "
                            f"update of relation {name!r}; retry the "
                            f"transaction"
                        )
                self._commit(
                    session,
                    written,
                    lambda commit_id: _redo_records(commit_id, txn.records),
                    move_in,
                )
                session.txn = None
        except SerializationFailure:
            session.txn = None
            raise
        finally:
            if session.txn is None:
                self.locks.release_all(session.session_id)

    def _rollback_session(self, session: Session) -> None:
        # the clone is simply discarded; committed state never saw the txn
        session.txn = None
        self.locks.release_all(session.session_id)

    def _savepoint(self, session: Session, name: str) -> None:
        txn = self._require_txn(session, "SAVEPOINT")
        txn.savepoints.append(
            SavepointState(name, txn.catalog.snapshot(), len(txn.records))
        )

    def _find_savepoint(self, txn: Transaction, name: str) -> int:
        # PostgreSQL: duplicate names mask; lookups find the newest one
        for idx in range(len(txn.savepoints) - 1, -1, -1):
            if txn.savepoints[idx].name == name:
                return idx
        raise TransactionError(
            f"savepoint {name!r} does not exist", sqlstate="3B001"
        )

    def _rollback_to(self, session: Session, name: str) -> None:
        txn = self._require_txn(session, "ROLLBACK TO SAVEPOINT")
        idx = self._find_savepoint(txn, name)
        savepoint = txn.savepoints[idx]
        txn.catalog.restore(savepoint.memento)
        # the savepoint survives and can be rolled back to again; the
        # undone statements must never reach the WAL.  write_set keeps
        # the undone targets — conservative (at worst a spurious 40001),
        # and their clone state now equals the savepoint's.
        del txn.savepoints[idx + 1 :]
        del txn.records[savepoint.record_mark :]

    def _release_savepoint(self, session: Session, name: str) -> None:
        txn = self._require_txn(session, "RELEASE SAVEPOINT")
        idx = self._find_savepoint(txn, name)
        del txn.savepoints[idx:]

    # -- durability -------------------------------------------------------------

    def _note_commit(self) -> None:
        self._commits_since_checkpoint += 1
        if (
            self.checkpoint_every is not None
            and self._commits_since_checkpoint >= self.checkpoint_every
        ):
            self._checkpoint_locked()

    def _checkpoint_locked(self, session: Optional[Session] = None) -> None:
        if self._wal is None:
            raise DurabilityError(
                "CHECKPOINT requires a durable database (wal_path=...)"
            )
        if session is not None and session.txn is not None:
            raise TransactionError(
                "CHECKPOINT cannot run inside a transaction", sqlstate="25001"
            )
        crashpoint(self.faults, "checkpoint.begin")
        image = checkpoint_image(
            self.catalog.export_records(), self.current_commit_id
        )
        write_checkpoint(self.wal_path + ".ckpt", image, self.faults)
        # a crash between the rename above and this reset replays the old
        # WAL over the new snapshot; the recorded last_txn makes those
        # already-folded transactions no-ops
        self._wal.reset()
        crashpoint(self.faults, "checkpoint.end")
        self._commits_since_checkpoint = 0

    def _recover(self) -> None:
        """Rebuild the last committed state from checkpoint + WAL.

        Replays every transaction with a commit (or self-committing)
        record, in commit order; anything after the last complete,
        checksum-valid record — a torn tail — is truncated away."""
        ckpt = read_checkpoint(self.wal_path + ".ckpt")
        last_txn = 0
        if ckpt is not None:
            state, last_txn = ckpt
            self.catalog.restore(decode_records(state))
        records, valid_size = read_wal(self.wal_path)
        if valid_size is not None:
            truncate_wal(self.wal_path, valid_size)
        # one pass in log order == commit order: a transaction's records
        # are adjacent, so only the open one is ever buffered
        pending: dict[int, list[dict]] = {}
        highest = last_txn
        for record in records:
            kind = record["t"]
            txn_id = int(record["txn"])
            highest = max(highest, txn_id)
            if kind == "begin":
                pending[txn_id] = []
            elif kind == "stmt":
                pending.setdefault(txn_id, []).append(record)
            elif kind in ("commit", "auto", "many"):
                redo = pending.pop(txn_id, []) if kind == "commit" else [record]
                if txn_id <= last_txn:
                    continue  # already folded into the checkpoint snapshot
                for entry in redo:
                    try:
                        self._apply_record(entry)
                    except Exception as exc:
                        raise DurabilityError(
                            f"WAL replay failed for {entry.get('sql')!r}: {exc}"
                        ) from exc
        self._next_txn = highest + 1

    def _apply_record(self, record: dict) -> set[str]:
        """Apply one redo record (``auto``/``stmt``: one statement of its
        script; ``many``: the whole script per row) to the committed
        catalog — WAL recovery and replicated apply both replay through
        here.  Returns the relation names the record wrote."""
        stmts = self._prepare(record["sql"]).statements
        if record["t"] == "many":
            rows = record["rows"]
        else:
            stmts = [stmts[int(record["i"])]]
            rows = [record.get("p", ())]
        targets: set[str] = set()
        for cached in stmts:
            statement = cached.statement
            targets.update(_WRITES[type(statement)].targets(statement, self.catalog)[0])
        for row in rows:
            for cached in stmts:
                _WRITES[type(cached.statement)].apply(
                    self, cached, tuple(row), self.catalog, _REPLAY
                )
        return targets

    # -- replication (replica-side apply) ---------------------------------------

    @property
    def current_commit_id(self) -> int:
        """Newest allocated commit id (the primary's stream position)."""
        return self._next_txn - 1

    def snapshot_state(self) -> tuple[bytes, int]:
        """Consistent full-state export for replication bootstrap: the
        committed catalog as a checkpoint image, plus the commit id it
        reflects.  Only a clone of the catalog and the commit id are
        taken under the read latch, so no committer is mid-install; the
        image is encoded from the clone after the latch is released, so
        committers do not wait for the encode."""
        with self._lock.read():
            catalog, last = self.catalog.snapshot(), self.current_commit_id
        return checkpoint_image(catalog.export_records(), last), last

    def restore_replica_snapshot(self, state: Catalog, last: int) -> None:
        """Adopt a primary's full-state export wholesale (replica
        bootstrap, or re-sync after falling below the primary's retained
        stream horizon): *state* is the catalog
        :func:`~repro.sqldb.catalog.decode_records` made of its records,
        *last* the commit id it reflects.  Resets the replay position to
        *last*; a durable replica folds the snapshot into its local
        checkpoint so a restart recovers to it without the stream."""
        with self._lock.write():
            self.catalog.restore(state)
            # another node's history: no plan cached before may match
            self.catalog.bump_version()
            for name in self.catalog.table_names:
                self.catalog.note_write(name, last)
            self.last_applied_commit_id = last
            self._next_txn = max(self._next_txn, last + 1)
            if self._wal is not None:
                self._checkpoint_locked()

    def apply_replicated_commit(
        self, commit_id: int, records: list[dict]
    ) -> bool:
        """Replay one replicated commit's redo records into committed
        state — the replication applier's entry point; bypasses
        ``read_only``.

        Idempotent: commits at or below :attr:`last_applied_commit_id`
        are skipped (duplicate delivery), so at-least-once streams
        converge.  Atomic: a failing replay restores the pre-commit
        catalog before raising.  A durable replica WAL-logs the commit
        under the same id, so local recovery rebuilds the same prefix.
        Returns True when applied, False when skipped as a duplicate."""
        with self._lock.write():
            if commit_id <= self.last_applied_commit_id:
                return False
            memento = self.catalog.snapshot()
            targets: set[str] = set()
            try:
                for record in records:
                    targets |= self._apply_record(record)
            except Exception as exc:
                self.catalog.restore(memento)
                raise DurabilityError(
                    f"replicated replay failed for commit {commit_id}: {exc}"
                ) from exc
            # the records landed on the committed catalog directly.  Only a
            # framed transaction has an install step: it may have written a
            # matview's input by DDL alone (no DML epilogue), which the
            # primary's COMMIT answered with the same refresh.  Hooks relay:
            # a promoted (or cascading) node re-streams in commit order
            install = None
            if any(record["t"] == "stmt" for record in records):
                install = partial(self._refresh_committed_matviews, targets)
            self._commit(
                None, sorted(targets), lambda _: records, install, commit_id
            )
        return True

    # -- SELECT -------------------------------------------------------------------

    def _plan_select(
        self, statement: ast.Select, catalog: Optional[Catalog] = None
    ) -> PlanNode:
        plan, _ = self._plan_select_rewritten(statement, catalog)
        return plan

    def _plan_select_rewritten(
        self, statement: ast.Select, catalog: Optional[Catalog] = None
    ) -> tuple[PlanNode, list[str]]:
        """Plan a SELECT against *catalog* (committed state by default) —
        the one plan path of every SELECT, EXPLAIN, matview build and
        TRAIN query: fold constants, plan, prune, take index access paths.

        Returns the plan plus the names of the rules that fired.
        """
        catalog = self.catalog if catalog is None else catalog
        rewrites: list[str] = []
        planner = Planner(catalog, self.profile)
        statement, folded = fold_select(statement, planner)
        if folded:
            rewrites.append("constant-folding")
        plan = planner.plan_select(statement)
        visible = {out.key for out in plan.schema if not out.hidden}
        plan = prune_plan(plan, visible)
        prune_shared_plans(plan, planner.shared_plans, planner.subquery_plans)
        plan = optimize_select_plan(
            plan, planner.subquery_plans, catalog, rewrites
        )
        return plan, rewrites

    def _run_plan(
        self,
        plan: PlanNode,
        scope: _StatementScope,
        catalog: Catalog,
        params: tuple = (),
        stats: Optional[ExecStats] = None,
    ) -> Batch:
        """Run one of *scope*'s statement's queries over *catalog* — the
        one way a plan executes: a SELECT, EXPLAIN ANALYZE, a matview
        build or refresh, a TRAIN iteration.  Cached plans stay immutable
        and re-executable concurrently.  Its per-operator *stats* (made
        here under ``collect_exec_stats``) are timed and recorded."""
        if stats is None and self.collect_exec_stats:
            stats = ExecStats()
        ctx = scope.context(catalog, self.profile, params, stats)
        started = time.perf_counter()
        batch = execute_plan(plan, ctx)
        if stats is not None:
            stats.wall_seconds = time.perf_counter() - started
            self._record_exec_stats(stats)
        return batch

    def _record_exec_stats(self, stats: ExecStats) -> None:
        with self._stats_mutex:
            self.last_exec_stats = stats
            merge_operator_counters(self.operator_counters, stats.by_operator())

    def _explain(
        self,
        statement: ast.Explain,
        scope: _StatementScope,
        catalog: Catalog,
        params: tuple,
    ) -> Result:
        """``EXPLAIN [ANALYZE]``: the plan as one-column ``QUERY PLAN``
        rows.  With ANALYZE the query runs as this statement (its scope's
        session, deadline, cancel event and grant) and every operator is
        annotated with estimated and actual rows, calls and inclusive
        wall time, followed by the fired rewrites and the execution time."""
        plan, rewrites = self._plan_select_rewritten(statement.query, catalog)
        if not statement.analyze:
            text = plan.to_text()
        else:
            estimates = estimate_plan_rows(plan, catalog)
            stats = ExecStats()
            scope.hold(self._run_plan(plan, scope, catalog, params, stats))
            counts = sorted(Counter(rewrites).items())
            fired = ", ".join(f"{name} x{n}" for name, n in counts) or "none"
            text = (
                stats.annotate(plan, estimates=estimates)
                + f"\nRewrites: {fired}"
                + f"\nExecution time: {stats.wall_seconds * 1000.0:.3f} ms"
            )
        vector = read_only(from_values(text.splitlines()))
        return Result(
            columns=["QUERY PLAN"],
            rows=to_rows([vector]),
            rowcount=len(vector),
            vectors=[vector],
        )

    # -- DDL / DML --------------------------------------------------------------------

    def _execute_create_table(
        self, cached: _CachedStatement, params: tuple, catalog: Catalog,
        scope: _StatementScope,
    ) -> Result:
        statement = cached.statement
        names = [c.name for c in statement.columns]
        types = [normalise_type(c.type_name) for c in statement.columns]
        catalog.create_table(Table(statement.name, names, types))
        return Result()

    def _execute_create_view(
        self, cached: _CachedStatement, params: tuple, catalog: Catalog,
        scope: _StatementScope,
    ) -> Result:
        statement = cached.statement
        view = View(
            statement.name, statement.query, statement.materialized,
            statement.sql,
        )
        if statement.materialized:
            self._recompute_snapshot(view, catalog, scope)
        catalog.create_view(view)
        return Result()

    def _execute_insert(
        self, cached: _CachedStatement, params: tuple, catalog: Catalog,
        scope: _StatementScope,
    ) -> Result:
        statement = cached.statement
        table = catalog.table(statement.table)
        columns = statement.columns or [
            name
            for name, storage in zip(table.column_names, table.column_types)
            if storage != "serial" or statement.columns
        ]
        if cached.cells is None:
            _check_column_list(table, statement.columns)
            for row in statement.rows:
                if len(row) != len(columns):
                    raise SQLExecutionError(
                        f"INSERT row has {len(row)} values, "
                        f"expected {len(columns)}"
                    )
            cached.cells = [
                self._value_cells(row, catalog) for row in statement.rows
            ]
        context = partial(scope.context, catalog, self.profile, params)
        rows = [
            {name: cell(params, context) for name, cell in zip(columns, row)}
            for row in cached.cells
        ]
        table.append_rows(rows)
        self._finish_dml(statement.table, catalog, scope, appended=True)
        return Result(rowcount=len(rows))

    def _value_cells(
        self, exprs: Sequence[ast.Expr], catalog: Catalog
    ) -> list[Callable[[tuple, Callable[[], ExecContext]], Any]]:
        """VALUES cells (and TRAIN options) built through the planner's
        compiler, once per cached statement, as functions of the
        statement's parameters and a maker of its execution context: a
        bare parameter reads its bound value, a cell that reads no
        parameter and no subquery is computed here on one row (folded),
        and any other cell is computed on one row per execution."""
        planner = Planner(catalog, self.profile)
        cells = []
        for expr in exprs:
            if type(expr) is ast.Parameter:
                cells.append(lambda params, context, i=expr.index: (
                    parameter_value(params, i)
                ))
                continue
            run = planner.compile_expr(expr, Scope(), {})
            if any(
                type(node) in (ast.Parameter, ast.ScalarSubquery)
                for node in ast.walk(expr)
            ):
                cells.append(lambda params, context, run=run: (
                    run(Batch(1), context()).item(0)
                ))
            else:
                value = run(Batch(1), None).item(0)
                cells.append(lambda params, context, value=value: value)
        return cells

    def _execute_copy(
        self, cached: _CachedStatement, params: tuple, catalog: Catalog,
        scope: _StatementScope,
    ) -> Result:
        """Load a CSV file in chunks of :data:`_COPY_CHUNK_ROWS` rows, each
        transposed and typed column by column (:class:`CsvColumn`), so
        no step is Python work per cell and only one chunk of raw text is
        alive at a time.

        Errors keep the precedence of reading the whole file first: a row
        with the wrong number of fields anywhere wins over a value that
        does not parse, and of those the first column in table order wins
        — so after a typing error the rest of the file is still read, and
        only the columns before the failed one are still typed."""
        statement = cached.statement
        table = catalog.table(statement.table)
        columns = statement.columns or list(table.column_names)
        _check_column_list(table, statement.columns)
        field_of = {name: j for j, name in enumerate(columns)}
        loaders = [
            (field_of[name], CsvColumn(name, storage, statement.null_text))
            for name, storage in zip(table.column_names, table.column_types)
            if name in field_of
        ]
        typed, error = len(loaders), None
        n_rows = 0
        with open(statement.path, newline="") as handle:
            reader = csv.reader(handle, delimiter=statement.delimiter)
            if statement.header:
                next(reader, None)
            rows = filter(None, reader)  # blank lines read as no row
            while chunk := list(itertools.islice(rows, _COPY_CHUNK_ROWS)):
                if set(map(len, chunk)) != {len(columns)}:
                    raise _malformed_row(statement, len(columns))
                fields = list(zip(*chunk))
                for k, (j, loader) in enumerate(loaders[:typed]):
                    try:
                        loader.add(fields[j])
                    except SQLExecutionError as exc:
                        typed, error = k, exc
                        break
                n_rows += len(chunk)
        if error is not None:
            raise error
        data = {loader.name: loader.vector() for _, loader in loaders}
        table.append_columns(data, n_rows)
        self._finish_dml(statement.table, catalog, scope, appended=True)
        return Result(rowcount=n_rows)

    def _execute_create_index(
        self, cached: _CachedStatement, params: tuple, catalog: Catalog,
        scope: _StatementScope,
    ) -> Result:
        statement = cached.statement
        table = catalog.table(statement.table)
        _check_index_method(statement.method)
        index = build_index(
            statement.name, table, tuple(statement.columns), statement.unique
        )
        catalog.create_index(index)
        return Result()

    def _execute_train(
        self, cached: _CachedStatement, params: tuple, catalog: Catalog,
        scope: _StatementScope,
    ) -> Result:
        """Run the in-database trainer and store the fitted model.

        The trainer's iteration/histogram queries execute against
        *catalog* (the transaction's clone, or committed state under the
        write latch) through a runner that never re-takes the catalog
        latch — the write path already holds whatever protection the
        calling path needs.  Retraining an existing model name replaces
        it (statement atomicity makes a failed retrain keep the old one).
        """
        statement = cached.statement
        from repro.sqldb import ml_train

        context = partial(scope.context, catalog, self.profile, params)
        cells = self._value_cells([expr for _, expr in statement.options], catalog)
        options = {
            key: cell(params, context)
            for (key, _), cell in zip(statement.options, cells)
        }

        # every iteration's aggregate query runs in the statement's scope:
        # one grant covers the whole training loop
        def run(select: ast.Select) -> Result:
            plan = self._plan_select(select, catalog)
            return _batch_to_result(
                plan, self._run_plan(plan, scope, catalog, params)
            )

        model = ml_train.train_model(statement.name, statement.query, options, run)
        catalog.create_model(model)
        return Result(rowcount=model.n_iter)

    def model(self, name: str, session: Optional[Session] = None):
        """The stored :class:`~repro.sqldb.catalog.TrainedModel` named
        *name*, as the session's snapshot sees it."""
        return self._active_catalog(self._resolve_session(session)).model(name)

    def model_names(self, session: Optional[Session] = None) -> list[str]:
        """Stored model names visible to the session's snapshot."""
        return self._active_catalog(self._resolve_session(session)).model_names

    def model_estimator(self, name: str, session: Optional[Session] = None):
        """Load a stored model back into a fitted ``repro.learn``
        estimator (predict/score ready)."""
        from repro.sqldb import ml_train

        return ml_train.model_to_estimator(self.model(name, session))

    def _dml_rows(
        self,
        cached: _CachedStatement,
        params: tuple,
        catalog: Catalog,
        scope: _StatementScope,
    ) -> tuple[np.ndarray, list[Vector]]:
        """The ascending positions of the rows an UPDATE or DELETE
        touches, and UPDATE's new values for them (one vector per
        assignment, each computed from the pre-statement row images).

        The statement runs as ``SELECT ctid, <assigned expressions> FROM
        table WHERE ...`` through the one plan path, planned once per
        cached statement, so an indexed ``k = $1`` or ``k IN (...)``
        probes instead of scanning and only the matched rows are
        evaluated."""
        statement = cached.statement
        if cached.plan is None:
            assignments = getattr(statement, "assignments", ())
            for _, expr in assignments:
                check_row_expression(expr)
            query = ast.Select(
                items=[
                    ast.SelectItem(ast.ColumnRef(CTID)),
                    *(ast.SelectItem(expr) for _, expr in assignments),
                ],
                sources=[ast.NamedTable(statement.table)],
                where=statement.where,
            )
            cached.plan = self._plan_select(query, catalog)
        plan = cached.plan
        batch = self._run_plan(plan, scope, catalog, params)
        ctid, *values = [
            batch.columns[out.key] for out in plan.schema if not out.hidden
        ]
        return ctid.values.astype(np.int64), values

    def _execute_update(
        self, cached: _CachedStatement, params: tuple, catalog: Catalog,
        scope: _StatementScope,
    ) -> Result:
        statement = cached.statement
        table = catalog.table(statement.table)
        seen: set[str] = set()
        for column, _ in statement.assignments:
            table.storage_of(column)
            if column in seen:
                raise SQLExecutionError(
                    f"column {column!r} assigned more than once in UPDATE"
                )
            seen.add(column)
        positions, values = self._dml_rows(cached, params, catalog, scope)
        affected = len(positions)
        if affected:
            for (column, _), fresh in zip(statement.assignments, values):
                # only the touched cells pass through Python
                table.patch_column(column, positions, fresh.tolist())
        self._finish_dml(
            statement.table, catalog, scope, assigned=seen if affected else ()
        )
        return Result(rowcount=affected)

    def _execute_delete(
        self, cached: _CachedStatement, params: tuple, catalog: Catalog,
        scope: _StatementScope,
    ) -> Result:
        statement = cached.statement
        table = catalog.table(statement.table)
        positions, _ = self._dml_rows(cached, params, catalog, scope)
        if len(positions):
            keep = np.ones(table.n_rows, dtype=bool)
            keep[positions] = False
            keep = np.flatnonzero(keep)
            for name in table.column_names:
                # fresh vectors: catalog clones sharing the old ones are
                # safe; a stored array keeps no deleted row's elements
                column = gather(table.columns[name], keep)
                table.columns[name] = compact(column) if column.is_array else column
            table.n_rows = len(keep)
        self._finish_dml(statement.table, catalog, scope)
        return Result(rowcount=len(positions))

    def _finish_dml(
        self,
        table_name: str,
        catalog: Catalog,
        scope: _StatementScope,
        appended: bool = False,
        assigned: Optional[Iterable[str]] = None,
    ) -> None:
        """What every row-changing statement owes the catalog: maintained
        indexes (told what the statement did, see
        :meth:`Catalog.refresh_indexes`; the unique check raises here,
        before the statement's memento is dropped) and refreshed dependent
        materialised views.  No version bump: cached plans read live
        data."""
        catalog.refresh_indexes(table_name, appended, assigned)
        self._invalidate_dependent_snapshots(table_name, catalog, scope)

    def _recompute_snapshot(
        self, view: View, catalog: Catalog, scope: _StatementScope
    ) -> None:
        """(Re-)materialise one view's cached result against *catalog*."""
        plan = self._plan_select(view.query, catalog)
        batch = self._run_plan(plan, scope, catalog)
        data: dict[str, Vector] = {}
        for out in plan.schema:
            if out.hidden:
                continue
            if out.name in data:
                raise SQLExecutionError(
                    f"materialized view {view.name!r} has duplicate "
                    f"column {out.name!r}"
                )
            data[out.name] = batch.columns[out.key]
        view.snapshot = (list(data), data, batch.length)

    def _invalidate_dependent_snapshots(
        self, changed_table: str, catalog: Catalog, scope: _StatementScope
    ) -> None:
        """Refresh materialised views that (transitively) read a table.

        PostgreSQL keeps stale snapshots until ``REFRESH MATERIALIZED
        VIEW``; the transpiler never mutates base tables after creating
        views over them, so eager dependency-aware refresh is a safe
        simplification.
        """
        dirty = {changed_table}
        # views may reference other views; iterate until fixpoint
        ordered = list(catalog.view_names)
        changed = True
        refreshed: set[str] = set()
        while changed:
            changed = False
            for name in ordered:
                if name in refreshed:
                    continue
                view = catalog.resolve(name)
                if not isinstance(view, View):
                    continue
                if view.relations & dirty:
                    dirty.add(name)
                    refreshed.add(name)
                    changed = True
                    if view.materialized:
                        self._recompute_snapshot(view, catalog, scope)

    def _refresh_committed_matviews(self, write_set: set[str]) -> None:
        """After a transaction's relations are installed, bring the
        committed catalog's materialised views back in line.

        A matview the transaction itself created/refreshed was computed
        against the *clone*; concurrent committers may have changed its
        inputs since, so its snapshot is recomputed against committed
        state — exactly what a serial replay at this commit-order
        position would produce.  Matviews *depending* on installed
        relations refresh through the usual dependency walk.  Runs under
        the write latch."""
        for name in sorted(write_set):
            if name in self.catalog.view_names:
                view = self.catalog.resolve(name)
                if isinstance(view, View) and view.materialized:
                    self._recompute_snapshot(view, self.catalog, _REPLAY)
            self._invalidate_dependent_snapshots(name, self.catalog, _REPLAY)


def _redo_records(
    commit_id: int, entries: list[tuple[str, int, list]], shape: str = "stmt"
) -> list[dict]:
    """One commit's redo records from its ``(sql, statement index,
    params)`` entries: a ``stmt`` per entry (the WAL frames them with
    begin/commit), or one self-committing record — ``auto`` for a single
    statement, ``many`` for the rows of a single-statement batch."""
    if not entries:
        return []  # nothing captured (no WAL, no hooks) or an empty batch
    sql, index, bound = entries[0]
    if shape == "auto":
        return [{"t": "auto", "txn": commit_id, "sql": sql, "i": index,
                 "p": bound}]
    if shape == "many":
        return [{"t": "many", "txn": commit_id, "sql": sql,
                 "rows": [row for _, _, row in entries]}]
    return [
        {"t": "stmt", "txn": commit_id, "sql": sql, "i": index, "p": bound}
        for sql, index, bound in entries
    ]




def _check_column_list(table: Table, columns: list[str]) -> None:
    """An INSERT's or COPY's column list names each column of *table* at
    most once: 42703 for an unknown name, 42701 for a repeated one."""
    for i, name in enumerate(columns):
        table.storage_of(name)  # 42703 for an unknown column
        if name in columns[:i]:
            raise CatalogError(
                f"column {name!r} specified more than once", sqlstate="42701"
            )


def _malformed_row(statement: ast.Copy, width: int) -> SQLExecutionError:
    """The error for the first row of *statement*'s file that does not have
    *width* fields, naming the physical line its record ends on (csv's
    ``line_num``, which counts blank lines and newlines inside quoted
    fields).  COPY reads in chunks without line numbers, so this reads the
    file again, up to that row."""
    with open(statement.path, newline="") as handle:
        reader = csv.reader(handle, delimiter=statement.delimiter)
        if statement.header:
            next(reader, None)
        for row in reader:
            if row and len(row) != width:
                return SQLExecutionError(
                    f"{statement.path}: line {reader.line_num} has "
                    f"{len(row)} fields, expected {width}"
                )
    return SQLExecutionError(f"{statement.path}: changed while COPY read it")


def _batch_to_result(plan: PlanNode, batch: Batch) -> Result:
    visible = [out for out in plan.schema if not out.hidden]
    # views: stored columns are replaced, never written (copy-on-write),
    # so a result's columns cannot change after its statement returns
    vectors = [read_only(batch.columns[out.key]) for out in visible]
    return Result(
        columns=[out.name for out in visible],
        rows=to_rows(vectors),
        rowcount=batch.length,
        vectors=vectors,
    )


# -- the write statements -----------------------------------------------------------


_Targets = tuple[list[str], list[str]]


class _Write(NamedTuple):
    """How one write-statement type takes part in the write path."""

    #: ``(statement, catalog) -> (locked-and-installed, conflict-checked-
    #: only)`` relation names
    targets: Callable[[Any, Catalog], _Targets]
    #: ``(database, cached statement, params, catalog, scope) -> Result``
    apply: Callable[
        [Database, _CachedStatement, tuple, Catalog, _StatementScope], Result
    ]


def _targets_name(statement, catalog: Catalog) -> _Targets:
    return [statement.name], []


def _targets_table(statement, catalog: Catalog) -> _Targets:
    return [statement.table], []


def _targets_query(statement, catalog: Catalog) -> _Targets:
    # the view/model name is installed; the relations its query reads are
    # conflict-checked (first-committer-wins): the stored text is replayed
    # at commit-order position, so they must not have been rewritten by a
    # concurrent committer
    return [statement.name], sorted(referenced_relations(statement.query))


def _targets_drop_index(statement: ast.DropIndex, catalog: Catalog) -> _Targets:
    # locking the indexed table serialises the drop against DML
    if catalog.has_index(statement.name):
        return [catalog.index(statement.name).table], []
    return [], []  # missing index: IF EXISTS no-op or a plain error


def _targets_analyze(statement: ast.Analyze, catalog: Catalog) -> _Targets:
    if statement.table is not None:
        return [statement.table], []
    return list(catalog.table_names), []


def _drop(database, cached, params, catalog, scope) -> Result:
    statement = cached.statement
    catalog.drop(statement.name, statement.kind, statement.if_exists)
    return Result()


def _drop_index(database, cached, params, catalog, scope) -> Result:
    catalog.drop_index(cached.statement.name, cached.statement.if_exists)
    return Result()


def _drop_model(database, cached, params, catalog, scope) -> Result:
    catalog.drop_model(cached.statement.name, cached.statement.if_exists)
    return Result()


def _analyze(database, cached, params, catalog, scope) -> Result:
    return Result(rowcount=len(catalog.analyze(cached.statement.table)))


#: every statement type that mutates the catalog: these take table locks,
#: are memento-protected for statement atomicity, and reach the WAL and
#: the commit hooks as redo records
_WRITES: dict[type, _Write] = {
    ast.CreateTable: _Write(_targets_name, Database._execute_create_table),
    ast.CreateView: _Write(_targets_query, Database._execute_create_view),
    ast.CreateIndex: _Write(_targets_table, Database._execute_create_index),
    ast.Insert: _Write(_targets_table, Database._execute_insert),
    ast.Copy: _Write(_targets_table, Database._execute_copy),
    ast.Update: _Write(_targets_table, Database._execute_update),
    ast.Delete: _Write(_targets_table, Database._execute_delete),
    ast.Drop: _Write(_targets_name, _drop),
    ast.DropIndex: _Write(_targets_drop_index, _drop_index),
    ast.Train: _Write(_targets_query, Database._execute_train),
    ast.DropModel: _Write(_targets_name, _drop_model),
    ast.Analyze: _Write(_targets_analyze, _analyze),
}
