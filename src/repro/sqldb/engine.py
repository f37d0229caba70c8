"""Database façade: statement execution over a catalog with a profile.

``Database("postgres")`` behaves like the paper's PostgreSQL 12 (CTEs
materialise by default, operators materialise their outputs, views inline);
``Database("umbra")`` behaves like Umbra (everything inlines and pipelines).
"""

from __future__ import annotations

import csv
import itertools
import logging
import os
import threading
import time
from collections import Counter, OrderedDict
from contextlib import nullcontext
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
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
    Table,
    View,
    _resolve_index_method,
    build_index,
    normalise_type,
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
from repro.sqldb.parser import parse_script, parse_statement
from repro.sqldb.plan import Batch, PlanNode
from repro.sqldb.planner import Planner, Scope, ScopeEntry
from repro.sqldb.prepared import bind_parameters, normalize_sql
from repro.sqldb.profile import POSTGRES, Profile, profile_by_name
from repro.sqldb.stats import ExecStats, merge_operator_counters
from repro.sqldb.vector import Vector, gather

logger = logging.getLogger(__name__)

__all__ = [
    "Database",
    "PlanCache",
    "Result",
    "resolve_timeout_ms",
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

#: environment variable providing a default statement timeout (ms)
TIMEOUT_ENV = "REPRO_SQL_TIMEOUT_MS"

#: environment variable providing a default global memory budget
#: (bytes, or a ``kb``/``mb``/``gb``-suffixed string)
MEMORY_ENV = "REPRO_SQL_MEMORY_LIMIT"


def resolve_memory_limit(limit: Optional[int | str]) -> Optional[int]:
    """Memory budget from the argument, else ``REPRO_SQL_MEMORY_LIMIT``.

    Accepts plain byte counts or ``kb``/``mb``/``gb``-suffixed strings;
    ``None`` (and no environment default) means unbounded."""
    raw: Any = limit
    if raw is None:
        raw = os.environ.get(MEMORY_ENV)
        if raw is None:
            return None
    if isinstance(raw, str):
        try:
            return parse_memory_limit(raw)
        except ValueError as exc:
            raise SQLExecutionError(str(exc)) from None
    return int(raw)


def resolve_timeout_ms(timeout_ms: Optional[float]) -> Optional[float]:
    """Statement timeout from the argument, else ``REPRO_SQL_TIMEOUT_MS``.

    ``None`` or a non-positive value disables the timeout (PostgreSQL's
    ``statement_timeout = 0`` convention)."""
    if timeout_ms is None:
        raw = os.environ.get(TIMEOUT_ENV)
        if raw is None:
            return None
        try:
            timeout_ms = float(raw)
        except ValueError:
            raise SQLExecutionError(
                f"{TIMEOUT_ENV} must be a number, got {raw!r}"
            ) from None
    return float(timeout_ms) if timeout_ms > 0 else None


@dataclass
class Result:
    """Query result: column names plus Python-value row tuples."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    #: rows affected / loaded for DML, row count for queries
    rowcount: int = 0
    statement: str = ""

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
    """One parsed statement plus its lazily built (pruned) plan."""

    statement: ast.Statement
    plan: Optional[PlanNode] = None


@dataclass
class _CacheEntry:
    """Cached parse/plan state for one normalized statement text."""

    statements: list[_CachedStatement]
    n_params: Optional[int] = None


class PlanCache:
    """LRU cache of parsed statements and pruned logical plans.

    One cache belongs to one :class:`Database`, whose profile and
    optimizer flag are fixed, so keys are ``(normalized SQL, catalog
    schema version, statistics version, index epoch, catalog uid)``: DDL
    (and a catalog restore, snapshot install or storage reset) bumps the
    schema version, ``ANALYZE`` the statistics version and CREATE / DROP
    INDEX the index epoch, so entries planned against a stale catalog (or
    optimized under stale statistics or access paths) stop matching and
    age out; a committed catalog's schema version never repeats, and the
    uid keeps transaction forks apart.  Row-changing statements
    change none of these: plans resolve relations by name when they run,
    so a cached entry reads live data and a repeated parameterised
    INSERT / UPDATE / DELETE / SELECT is a hit.  ``clear()`` drops the
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
        optimize: bool = False,
        wal_path: Optional[str] = None,
        wal_sync: str = "commit",
        wal_group_every: int = 8,
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
        #: statistics-driven rewrite layer (constant folding, predicate
        #: pushdown, conjunct reordering, join build-side choice); off by
        #: default so stock profiles keep their documented plan shapes
        self.optimize = bool(optimize)
        self.catalog = Catalog()
        self.plan_cache = PlanCache(plan_cache_size)
        #: exact-text memo in front of the normalizer; normalization is
        #: schema-independent, so entries never go stale
        self._normalized: OrderedDict[str, tuple[str, int]] = OrderedDict()
        #: cumulative wall-clock seconds spent executing statements
        self.total_execution_time = 0.0
        #: when set, every SELECT records per-operator runtime stats
        self.collect_exec_stats = collect_exec_stats
        #: cumulative per-operator counters across collected executions
        self.operator_counters: dict[str, dict] = {}
        #: stats of the most recent recorded execution
        self.last_exec_stats: Optional[ExecStats] = None
        #: statement timeout (arg > REPRO_SQL_TIMEOUT_MS env > off)
        self.statement_timeout_ms = resolve_timeout_ms(statement_timeout_ms)
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
        self._default_session = Session(self, 0)
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
        #: memory governor (arg > REPRO_SQL_MEMORY_LIMIT env > unbounded;
        #: ``faults=`` builds one so its allocation points are reached);
        #: ``None`` keeps every statement on the zero-overhead fast path
        resolved_limit = resolve_memory_limit(memory_limit)
        resolved_query_limit = (
            parse_memory_limit(query_memory_limit)
            if isinstance(query_memory_limit, str)
            else query_memory_limit
        )
        self.memory: Optional[MemoryBroker] = None
        if (
            resolved_limit is not None
            or resolved_query_limit is not None
            or spill_dir is not None
            or faults is not None
        ):
            self.memory = MemoryBroker(
                limit=resolved_limit,
                query_limit=resolved_query_limit,
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
        self.wal_group_every = wal_group_every
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
            self._wal = WriteAheadLog(
                wal_path,
                self.faults,
                sync_policy=wal_sync,
                group_every=wal_group_every,
            )

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
        (their forks reference discarded state); the network server
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

    def _make_context(
        self,
        params: tuple = (),
        stats: Optional[ExecStats] = None,
        cancel_event: Optional[threading.Event] = None,
        catalog: Optional[Catalog] = None,
        memory: Optional[MemoryGrant] = None,
    ) -> ExecContext:
        """One execution context per statement; stats and the
        cancellation deadline attach here so cached plans stay immutable
        and re-executable concurrently.  ``catalog`` selects the state to
        read: a transaction's private fork, or (default) committed."""
        if stats is None and self.collect_exec_stats:
            stats = ExecStats()
        deadline = None
        if self.statement_timeout_ms is not None:
            deadline = time.monotonic() + self.statement_timeout_ms / 1000.0
        return ExecContext(
            self.catalog if catalog is None else catalog,
            self.profile,
            params=params,
            stats=stats,
            deadline=deadline,
            cancel_event=cancel_event,
            memory=memory,
        )

    # -- memory grants -------------------------------------------------------

    def _begin_grant(
        self, cancel_event: Optional[threading.Event] = None
    ) -> Optional[MemoryGrant]:
        """Admit one statement through the memory broker (None when the
        database runs unbounded — the zero-overhead fast path)."""
        if self.memory is None:
            return None
        deadline = None
        if self.statement_timeout_ms is not None:
            deadline = time.monotonic() + self.statement_timeout_ms / 1000.0
        return self.memory.begin_query(
            deadline=deadline, cancel_event=cancel_event
        )

    def _end_grant(
        self, grant: Optional[MemoryGrant], session: Optional[Session] = None
    ) -> None:
        """Release a grant (bytes + spill files) and fold its counters
        into the session; safe on every exit path and idempotent."""
        if grant is None:
            return
        self.memory.end_query(grant)
        if session is not None:
            session.note_memory(grant.peak_bytes, grant.spilled_bytes)

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
        entry = self._prepare(sql, params, self._active_catalog(session))
        if len(entry.statements) != 1:
            raise SQLExecutionError(
                "execute() takes a single statement; use run_script()"
            )
        bound = bind_parameters(params, entry.n_params)
        return self._execute_statement(entry.statements[0], sql, bound, 0, session)

    def run_script(
        self,
        sql: str,
        params: Optional[Sequence[Any]] = None,
        session: Optional[Session] = None,
    ) -> list[Result]:
        """Execute a ``;``-separated script, returning one result each."""
        session = self._resolve_session(session)
        entry = self._prepare(sql, params, self._active_catalog(session))
        bound = bind_parameters(params, entry.n_params)
        return [
            self._execute_statement(cached, sql, bound, index, session)
            for index, cached in enumerate(entry.statements)
        ]

    def _active_catalog(self, session: Session) -> Catalog:
        """The catalog this session's next statement reads: its open
        transaction's private fork, or the committed catalog."""
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
        self._check_not_aborted(session)
        # before parsing: a read-only replica answers 25006 whatever the script
        self._check_writable()
        entry = self._prepare(sql, params=True, catalog=self._active_catalog(session))
        statements = [cached.statement for cached in entry.statements]
        if not all(type(statement) in _WRITES for statement in statements):
            raise SQLExecutionError(
                "executemany only supports DDL/DML statements"
            )
        started = time.perf_counter()
        try:
            return self._run_write(
                session,
                sql,
                statements,
                (bind_parameters(row, entry.n_params) for row in seq_of_params),
            ).rowcount
        finally:
            self.total_execution_time += time.perf_counter() - started

    def _run_write(
        self,
        session: Session,
        sql: str,
        statements: list[ast.Statement],
        rows: Iterable[tuple],
        index: Optional[int] = None,
    ) -> Result:
        """The one write path: apply *statements* once per parameter row,
        atomically, then buffer the redo records on the session's open
        transaction or commit them.

        ``index`` is the position of a single statement in its script
        *sql*; ``None`` marks an ``executemany`` batch (every statement of
        the script runs for every row).  Table locks are waited for under
        the session's cancel scope; autocommit releases them with the
        statement, a transaction holds them to its end."""
        # an empty script is a batch of nothing: no targets, no records
        self._check_writable(statements[0] if statements else None)
        txn = session.txn
        catalog = self._active_catalog(session)
        targets: list[str] = []
        checks: list[str] = []
        for statement in statements:
            names, reads = _WRITES[type(statement)].targets(statement, catalog)
            targets += names
            checks += reads
        with session.statement_guard() as cancel_event:
            acquired = self._acquire_locks(session, targets, cancel_event)
        try:
            # a transaction's fork is private to its session; committed
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
                        for statement in statements:
                            total += _WRITES[type(statement)].apply(
                                self, statement, params, catalog
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
        moves its fork in; a replicated one repeats the matview refresh),
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
        self,
        session: Session,
        targets: list[str],
        cancel_event: threading.Event,
    ) -> list[str]:
        """Take per-table locks for one statement's targets; a deadlock
        aborts the session's transaction (40P01) before propagating."""
        if not targets:
            return []
        deadline = None
        if self.statement_timeout_ms is not None:
            deadline = time.monotonic() + self.statement_timeout_ms / 1000.0
        try:
            return self.locks.acquire(
                session.session_id,
                targets,
                deadline=deadline,
                cancel_event=cancel_event,
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
        self, sql: str, params: Any = None, catalog: Optional[Catalog] = None
    ) -> _CacheEntry:
        """Fetch the cached parse/plan state for *sql*, or build it.

        The cache key embeds the catalog schema version (DDL, never DML),
        so entries made against a dropped/recreated schema never resurface
        while row-changing statements leave every entry valid.  ``catalog``
        is the state the statement will read (a transaction's fork or the
        committed catalog); its ``uid`` is part of the key, so two forks
        at the same schema version — which may have diverged — can never
        share an entry.
        """
        catalog = self.catalog if catalog is None else catalog
        use_cache = self.plan_cache.enabled
        key: Optional[tuple] = None
        n_params: Optional[int] = None
        if use_cache or params is not None:
            with self._prepare_mutex:
                memo = self._normalized.get(sql)
                if memo is None:
                    memo = normalize_sql(sql)
                    self._normalized[sql] = memo
                    while len(self._normalized) > 4 * max(self.plan_cache.maxsize, 1):
                        self._normalized.popitem(last=False)
                else:
                    self._normalized.move_to_end(sql)
            normalized, n_params = memo
            if use_cache:
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
            [_CachedStatement(s) for s in parse_script(sql)], n_params
        )
        if key is not None:
            self.plan_cache.put(key, entry)
        return entry

    def explain(self, sql: str) -> str:
        """Plan a SELECT and return the (pruned) plan tree as text."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise SQLExecutionError("EXPLAIN only supports SELECT statements")
        with self._lock.read():
            plan = self._plan_select(statement)
        return plan.to_text()

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
        params: tuple = (),
        index: int = 0,
        session: Optional[Session] = None,
    ) -> Result:
        session = self._resolve_session(session)
        statement = cached.statement
        if not isinstance(statement, (ast.Commit, ast.Rollback)):
            self._check_not_aborted(session)
        started = time.perf_counter()
        try:
            if isinstance(statement, ast.Select):
                txn = session.txn
                if txn is not None:
                    # the fork is private to this session: no latch needed
                    if cached.plan is None:
                        cached.plan = self._plan_select(statement, txn.catalog)
                    result = self._execute_select_plan(
                        cached.plan, params, session, txn.catalog
                    )
                else:
                    with self._lock.read():
                        if cached.plan is None:
                            cached.plan = self._plan_select(statement)
                        result = self._execute_select_plan(
                            cached.plan, params, session, self.catalog
                        )
            elif isinstance(statement, _TXN_TYPES):
                result = self._execute_txn_control(statement, session)
            elif type(statement) in _WRITES:
                result = self._run_write(
                    session, sql, [statement], [params], index
                )
            else:
                raise SQLExecutionError(
                    f"unsupported statement {type(statement).__name__}"
                )
        finally:
            self.total_execution_time += time.perf_counter() - started
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

    def checkpoint(self, session: Optional[Session] = None) -> None:
        """Snapshot the catalog and reset the WAL (``CHECKPOINT``)."""
        session = self._resolve_session(session)
        with self._lock.write():
            self._checkpoint_locked(session)

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
        # the read latch keeps the fork capture consistent (no committer
        # is mid-install); commit ids are allocated later, at COMMIT
        with self._lock.read():
            fork = self.catalog.fork()
        session.txn = Transaction(
            next(self._txn_ids),
            fork,
            dict(fork.table_versions),
            start_stats_version=fork.stats_version,
            start_schema_version=fork.schema_version,
        )

    def _commit_session(self, session: Session) -> None:
        txn = session.txn
        if txn.aborted:
            # PostgreSQL: COMMIT of an aborted transaction rolls back
            # quietly (reports ROLLBACK) instead of raising again
            self._rollback_session(session)
            return
        written = sorted(txn.write_set)

        def install() -> None:
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
                for name in sorted(txn.write_set | txn.check_set):
                    if self.catalog.table_versions.get(
                        name
                    ) != txn.start_versions.get(name):
                        raise SerializationFailure(
                            f"could not serialize access due to concurrent "
                            f"update of relation {name!r}; retry the "
                            f"transaction"
                        )
                self._commit(
                    session,
                    written,
                    lambda commit_id: _redo_records(commit_id, txn.records),
                    install,
                )
                session.txn = None
        except SerializationFailure:
            session.txn = None
            raise
        finally:
            if session.txn is None:
                self.locks.release_all(session.session_id)

    def _rollback_session(self, session: Session) -> None:
        # the fork is simply discarded; committed state never saw the txn
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
        # and their fork state now equals the savepoint's.
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
        write_checkpoint(
            self.wal_path + ".ckpt", self._export_state(), self.faults
        )
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
        last_txn = 0 if ckpt is None else self._install_state(ckpt)
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
        stmts = [
            cached.statement
            for cached in self._prepare(record["sql"]).statements
        ]
        if record["t"] == "many":
            rows = record["rows"]
        else:
            stmts = [stmts[int(record["i"])]]
            rows = [record.get("p", ())]
        targets: set[str] = set()
        for statement in stmts:
            targets.update(_WRITES[type(statement)].targets(statement, self.catalog)[0])
        for row in rows:
            for statement in stmts:
                _WRITES[type(statement)].apply(
                    self, statement, tuple(row), self.catalog
                )
        return targets

    # -- replication (replica-side apply) ---------------------------------------

    @property
    def current_commit_id(self) -> int:
        """Newest allocated commit id (the primary's stream position)."""
        return self._next_txn - 1

    def snapshot_state(self) -> dict:
        """Consistent full-state export for replication bootstrap: the
        committed catalog plus the commit id the export reflects.  Taken
        under the read latch, so no committer is mid-install."""
        with self._lock.read():
            return self._export_state()

    def _export_state(self) -> dict:
        """The committed catalog plus the commit id it reflects — the one
        payload shape of checkpoints and replication snapshots."""
        tables, views, stats, indexes, models = self.catalog.export_state()
        return {
            "tables": tables,
            "views": views,
            "stats": stats,
            "indexes": indexes,
            "models": models,
            "last_txn": self._next_txn - 1,
        }

    def _install_state(self, payload: dict) -> int:
        """Replace the committed catalog with an exported payload; returns
        the commit id it reflects."""
        self.catalog.install(
            payload["tables"],
            payload["views"],
            payload["stats"],
            payload.get("indexes", {}),  # pre-index checkpoints lack the key
            payload.get("models", {}),  # pre-model checkpoints likewise
        )
        return int(payload["last_txn"])

    def install_replica_snapshot(self, snapshot: dict) -> None:
        """Adopt a primary's full-state export wholesale (replica
        bootstrap, or re-sync after falling below the primary's retained
        stream horizon).  Resets the replay position to the snapshot's
        commit id; a durable replica folds the snapshot into its local
        checkpoint so a restart recovers to it without the stream."""
        with self._lock.write():
            last = self._install_state(snapshot)
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

    def analyze(
        self, table: Optional[str] = None, session: Optional[Session] = None
    ) -> list[str]:
        """Collect planner statistics (the ``ANALYZE`` statement's API
        twin); bumps the catalog's statistics version so cached plans
        re-optimize against the fresh statistics."""
        session = self._resolve_session(session)
        self._check_not_aborted(session)
        statement = ast.Analyze(table)
        names, _ = _WRITES[ast.Analyze].targets(
            statement, self._active_catalog(session)
        )
        sql = f'ANALYZE "{table}"' if table is not None else "ANALYZE"
        self._run_write(session, sql, [statement], [()], 0)
        return names

    def _plan_select(
        self, statement: ast.Select, catalog: Optional[Catalog] = None
    ) -> PlanNode:
        plan, _ = self._plan_select_rewritten(statement, catalog)
        return plan

    def _plan_select_rewritten(
        self, statement: ast.Select, catalog: Optional[Catalog] = None
    ) -> tuple[PlanNode, list[str]]:
        """Plan a SELECT against *catalog* (committed state by default);
        with ``optimize`` on, also run the rewrite layer.

        Returns the plan plus the list of fired rewrite-rule names (empty
        when the optimizer is off or nothing applied).
        """
        catalog = self.catalog if catalog is None else catalog
        rewrites: list[str] = []
        if self.optimize:
            statement, folded = fold_select(statement)
            if folded:
                rewrites.append("constant-folding")
        planner = Planner(catalog, self.profile)
        plan = planner.plan_select(statement)
        visible = {out.key for out in plan.schema if not out.hidden}
        plan = prune_plan(plan, visible)
        prune_shared_plans(plan, planner.shared_plans, planner.subquery_plans)
        if self.optimize:
            plan = optimize_select_plan(
                plan,
                planner.shared_plans,
                planner.subquery_plans,
                catalog,
                rewrites,
            )
            # pushdown can strand projection columns only the (now moved)
            # filters needed; a second pruning pass reclaims them
            plan = prune_plan(plan, visible)
            prune_shared_plans(
                plan, planner.shared_plans, planner.subquery_plans
            )
        return plan, rewrites

    def _execute_select_plan(
        self,
        plan: PlanNode,
        params: tuple = (),
        session: Optional[Session] = None,
        catalog: Optional[Catalog] = None,
    ) -> Result:
        session = self._resolve_session(session)
        with session.statement_guard() as cancel_event:
            grant = None
            try:
                grant = self._begin_grant(cancel_event)
                ctx = self._make_context(
                    params,
                    cancel_event=cancel_event,
                    catalog=catalog,
                    memory=grant,
                )
                started = time.perf_counter()
                batch = execute_plan(plan, ctx)
                if grant is not None:
                    # the result batch is held until the grant closes —
                    # it outlives every operator
                    grant.require(batch_bytes(batch), "result.batch")
            except (OutOfMemory, ConfigurationLimitExceeded):
                session.memory_shed += 1
                raise
            finally:
                self._end_grant(grant, session)
        if ctx.stats is not None:
            ctx.stats.wall_seconds = time.perf_counter() - started
            self._record_exec_stats(ctx.stats)
        return _batch_to_result(plan, batch)

    def _record_exec_stats(self, stats: ExecStats) -> None:
        with self._stats_mutex:
            self.last_exec_stats = stats
            merge_operator_counters(self.operator_counters, stats.by_operator())

    def explain_analyze(
        self, sql: str, params: Optional[Sequence[Any]] = None
    ) -> str:
        """Execute a SELECT and return its plan annotated with per-operator
        actual row counts, call counts and (inclusive) wall time."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise SQLExecutionError(
                "EXPLAIN ANALYZE only supports SELECT statements"
            )
        with self._lock.read():
            plan, rewrites = self._plan_select_rewritten(statement)
            estimates = estimate_plan_rows(plan, self.catalog)
            bound = tuple(params) if params is not None else ()
            stats = ExecStats()
            with self._default_session.statement_guard() as cancel_event:
                grant = None
                try:
                    grant = self._begin_grant(cancel_event)
                    ctx = self._make_context(
                        bound,
                        stats=stats,
                        cancel_event=cancel_event,
                        memory=grant,
                    )
                    started = time.perf_counter()
                    batch = execute_plan(plan, ctx)
                    if grant is not None:
                        grant.require(batch_bytes(batch), "result.batch")
                finally:
                    self._end_grant(grant, self._default_session)
                stats.wall_seconds = time.perf_counter() - started
        self._record_exec_stats(stats)
        if rewrites:
            counts = Counter(rewrites)
            fired = ", ".join(
                f"{name} x{count}" for name, count in sorted(counts.items())
            )
        else:
            fired = "none"
        footer = (
            f"Rewrites: {fired}\n"
            f"Execution time: {stats.wall_seconds * 1000.0:.3f} ms"
        )
        return stats.annotate(plan, estimates=estimates) + "\n" + footer

    # -- DDL / DML --------------------------------------------------------------------

    def _execute_create_table(
        self, statement: ast.CreateTable, params: tuple, catalog: Catalog
    ) -> Result:
        names = [c.name for c in statement.columns]
        types = [normalise_type(c.type_name) for c in statement.columns]
        catalog.create_table(Table(statement.name, names, types))
        return Result()

    def _execute_create_view(
        self, statement: ast.CreateView, params: tuple, catalog: Catalog
    ) -> Result:
        view = View(statement.name, statement.query, statement.materialized)
        if statement.materialized:
            self._recompute_snapshot(view, catalog)
        catalog.create_view(view)
        return Result()

    def _execute_insert(
        self, statement: ast.Insert, params: tuple, catalog: Catalog
    ) -> Result:
        table = catalog.table(statement.table)
        columns = statement.columns or [
            name
            for name, storage in zip(table.column_names, table.column_types)
            if storage != "serial" or statement.columns
        ]
        rows: list[dict[str, Any]] = []
        for row_exprs in statement.rows:
            if len(row_exprs) != len(columns):
                raise SQLExecutionError(
                    f"INSERT row has {len(row_exprs)} values, "
                    f"expected {len(columns)}"
                )
            row = {}
            for name, expr in zip(columns, row_exprs):
                row[name] = _literal_value(expr, params)
            rows.append(row)
        table.append_rows(rows)
        self._finish_dml(statement.table, catalog, appended=True)
        return Result(rowcount=len(rows))

    def _execute_copy(
        self, statement: ast.Copy, params: tuple, catalog: Catalog
    ) -> Result:
        table = catalog.table(statement.table)
        columns = statement.columns or list(table.column_names)
        with open(statement.path, newline="") as handle:
            reader = csv.reader(handle, delimiter=statement.delimiter)
            raw_rows = list(reader)
        if statement.header and raw_rows:
            raw_rows = raw_rows[1:]
        raw_rows = [row for row in raw_rows if row]
        for line_no, raw in enumerate(raw_rows, start=2):
            if len(raw) != len(columns):
                raise SQLExecutionError(
                    f"{statement.path}: line {line_no} has {len(raw)} fields, "
                    f"expected {len(columns)}"
                )
        null_text = statement.null_text
        data: dict[str, list[Any]] = {}
        for j, name in enumerate(columns):
            # CSV format: the NULL text and the unquoted empty field both
            # read as NULL (PostgreSQL's CSV-mode default)
            data[name] = [
                None if row[j] == null_text or row[j] == "" else row[j]
                for row in raw_rows
            ]
        table.append_columns(data, len(raw_rows))
        self._finish_dml(statement.table, catalog, appended=True)
        return Result(rowcount=len(raw_rows))

    def _execute_create_index(
        self, statement: ast.CreateIndex, params: tuple, catalog: Catalog
    ) -> Result:
        table = catalog.table(statement.table)
        columns = tuple(statement.columns)
        for column in columns:
            table.storage_of(column)  # raises CatalogError on unknown columns
        method = _resolve_index_method(statement.method, len(columns))
        index = build_index(
            statement.name, table, columns, statement.unique, method
        )
        catalog.create_index(index)
        return Result()

    def _execute_train(
        self, statement: ast.Train, params: tuple, catalog: Catalog
    ) -> Result:
        """Run the in-database trainer and store the fitted model.

        The trainer's iteration/histogram queries execute against
        *catalog* (the transaction's fork, or committed state under the
        write latch) through a runner that never re-takes the catalog
        latch — the write path already holds whatever protection the
        calling path needs.  Retraining an existing model name replaces
        it (statement atomicity makes a failed retrain keep the old one).
        """
        from repro.sqldb import ml_train

        options = {
            key: _literal_value(expr, params)
            for key, expr in statement.options
        }

        # one grant covers the whole training loop: every iteration's
        # aggregate query accounts (and may spill) against it
        grant = self._begin_grant()

        def run(select: ast.Select) -> Result:
            plan = self._plan_select(select, catalog)
            batch = execute_plan(
                plan, self._make_context(params, catalog=catalog, memory=grant)
            )
            return _batch_to_result(plan, batch)

        try:
            model = ml_train.train_model(
                statement.name, statement.query, options, run
            )
        finally:
            self._end_grant(grant)
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

    def _dml_predicate_mask(
        self,
        table: Table,
        where: Optional[ast.Expr],
        params: tuple,
        catalog: Catalog,
    ) -> tuple[np.ndarray, Batch, Scope]:
        """Evaluate a DML WHERE clause over the whole table.

        Returns the boolean row mask (true = row affected) plus the batch
        and scope so UPDATE can reuse them for its assignment expressions.
        """
        entries = [
            ScopeEntry(table.name, name, name) for name in table.column_names
        ]
        entries.append(ScopeEntry(table.name, CTID, CTID, hidden=True))
        scope = Scope(entries)
        columns = {name: table.columns[name] for name in table.column_names}
        columns[CTID] = table.ctid
        batch = Batch(table.n_rows, columns)
        if where is None:
            return np.ones(table.n_rows, dtype=bool), batch, scope
        planner = Planner(catalog, self.profile)
        predicate = planner.compile_expr(where, scope, {})
        ctx = self._make_context(params, catalog=catalog)
        result = predicate(batch, ctx)
        mask = result.values.astype(bool, copy=True)
        mask &= ~result.nulls
        return mask, batch, scope

    def _execute_update(
        self, statement: ast.Update, params: tuple, catalog: Catalog
    ) -> Result:
        table = catalog.table(statement.table)
        seen: set[str] = set()
        for column, _ in statement.assignments:
            table.storage_of(column)
            if column in seen:
                raise SQLExecutionError(
                    f"column {column!r} assigned more than once in UPDATE"
                )
            seen.add(column)
        mask, batch, scope = self._dml_predicate_mask(
            table, statement.where, params, catalog
        )
        affected = int(mask.sum())
        if affected:
            planner = Planner(catalog, self.profile)
            ctx = self._make_context(params, catalog=catalog)
            positions = np.flatnonzero(mask)
            for column, expr in statement.assignments:
                # all assignments see the pre-statement row images
                compiled = planner.compile_expr(expr, scope, {})
                # only the touched cells pass through Python
                fresh = gather(compiled(batch, ctx), positions)
                table.patch_column(column, positions, fresh.tolist())
        self._finish_dml(
            statement.table, catalog, assigned=seen if affected else ()
        )
        return Result(rowcount=affected)

    def _execute_delete(
        self, statement: ast.Delete, params: tuple, catalog: Catalog
    ) -> Result:
        table = catalog.table(statement.table)
        mask, _, _ = self._dml_predicate_mask(
            table, statement.where, params, catalog
        )
        removed = int(mask.sum())
        if removed:
            keep = np.flatnonzero(~mask)
            for name in table.column_names:
                # fresh vectors: forks/mementos sharing the old ones are safe
                table.columns[name] = gather(table.columns[name], keep)
            table.n_rows = len(keep)
        self._finish_dml(statement.table, catalog)
        return Result(rowcount=removed)

    def _finish_dml(
        self,
        table_name: str,
        catalog: Catalog,
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
        self._invalidate_dependent_snapshots(table_name, catalog)

    def _recompute_snapshot(self, view: View, catalog: Catalog) -> None:
        """(Re-)materialise one view's cached result against *catalog*."""
        plan = self._plan_select(view.query, catalog)
        batch = execute_plan(plan, self._make_context(catalog=catalog))
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
        self, changed_table: str, catalog: Catalog
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
                references = _referenced_relations(view.query)
                if references & dirty:
                    dirty.add(name)
                    refreshed.add(name)
                    changed = True
                    if view.materialized:
                        self._recompute_snapshot(view, catalog)

    def _refresh_committed_matviews(self, write_set: set[str]) -> None:
        """After a transaction's relations are installed, bring the
        committed catalog's materialised views back in line.

        A matview the transaction itself created/refreshed was computed
        against the *fork*; concurrent committers may have changed its
        inputs since, so its snapshot is recomputed against committed
        state — exactly what a serial replay at this commit-order
        position would produce.  Matviews *depending* on installed
        relations refresh through the usual dependency walk.  Runs under
        the write latch."""
        for name in sorted(write_set):
            if name in self.catalog.view_names:
                view = self.catalog.resolve(name)
                if isinstance(view, View) and view.materialized:
                    self._recompute_snapshot(view, self.catalog)
            self._invalidate_dependent_snapshots(name, self.catalog)


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


def _referenced_relations(select: ast.Select) -> set[str]:
    """All table/view/CTE names a SELECT references (transitively in its
    own text, not through the catalog)."""
    names: set[str] = set()

    def walk_source(source: ast.TableSource) -> None:
        if isinstance(source, ast.NamedTable):
            names.add(source.name)
        elif isinstance(source, ast.SubquerySource):
            walk_select(source.query)
        elif isinstance(source, ast.JoinSource):
            walk_source(source.left)
            walk_source(source.right)
            if source.condition is not None:
                walk_expr(source.condition)

    def walk_expr(expr: ast.Expr) -> None:
        if isinstance(expr, ast.ScalarSubquery):
            walk_select(expr.query)
        elif isinstance(expr, ast.BinaryOp):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, ast.UnaryOp):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.IsNull):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.InList):
            walk_expr(expr.operand)
            for item in expr.items:
                walk_expr(item)
        elif isinstance(expr, ast.Between):
            walk_expr(expr.operand)
            walk_expr(expr.low)
            walk_expr(expr.high)
        elif isinstance(expr, ast.Case):
            for condition, result in expr.whens:
                walk_expr(condition)
                walk_expr(result)
            if expr.else_ is not None:
                walk_expr(expr.else_)
        elif isinstance(expr, ast.Cast):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.FuncCall):
            for arg in expr.args:
                walk_expr(arg)

    def walk_select(node: ast.Select) -> None:
        for cte in node.ctes:
            walk_select(cte.query)
        for source in node.sources:
            walk_source(source)
        for item in node.items:
            if not isinstance(item.expr, ast.Star):
                walk_expr(item.expr)
        if node.where is not None:
            walk_expr(node.where)
        for expr in node.group_by:
            walk_expr(expr)
        if node.having is not None:
            walk_expr(node.having)
        for order in node.order_by:
            walk_expr(order.expr)
        for arm in node.union_all:
            walk_select(arm)

    walk_select(select)
    return names


def _literal_value(expr: ast.Expr, params: tuple = ()) -> Any:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Parameter):
        try:
            return params[expr.index]
        except IndexError:
            raise SQLExecutionError(
                f"statement parameter ${expr.index + 1} was not bound"
            ) from None
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _literal_value(expr.operand, params)
        if isinstance(inner, (int, float)):
            return -inner
    raise SQLExecutionError("values must be literals or parameters")


def _batch_to_result(plan: PlanNode, batch: Batch) -> Result:
    visible = [out for out in plan.schema if not out.hidden]
    columns = [out.name for out in visible]
    converted = []
    for out in visible:
        vector = batch.columns[out.key]
        values = vector.values
        if values.dtype.kind == "f":
            # integral floats surface as Python ints (like psycopg2 would
            # for INT columns); done vectorised for large results.  Only
            # inside the int64 range: the cast wraps anything beyond it
            # (1e19 -> -2**63), which stays the float it is
            as_object = values.astype(object)
            integral = (
                (np.floor(values) == values)
                & (values >= -(2.0 ** 63))
                & (values < 2.0 ** 63)
            )
            if integral.any():
                ints = values[integral].astype(np.int64)
                as_object[integral] = ints
        elif values.dtype.kind == "b":
            as_object = values.astype(object)
        else:
            as_object = values.copy()
        if vector.nulls.any():
            as_object[vector.nulls] = None
        converted.append(as_object)
    rows = list(zip(*converted)) if converted else []
    return Result(columns=columns, rows=rows, rowcount=batch.length)


# -- the write statements -----------------------------------------------------------


_Targets = tuple[list[str], list[str]]


class _Write(NamedTuple):
    """How one write-statement type takes part in the write path."""

    #: ``(statement, catalog) -> (locked-and-installed, conflict-checked-
    #: only)`` relation names
    targets: Callable[[Any, Catalog], _Targets]
    #: ``(database, statement, params, catalog) -> Result``
    apply: Callable[[Database, Any, tuple, Catalog], Result]


def _targets_name(statement, catalog: Catalog) -> _Targets:
    return [statement.name], []


def _targets_table(statement, catalog: Catalog) -> _Targets:
    return [statement.table], []


def _targets_query(statement, catalog: Catalog) -> _Targets:
    # the view/model name is installed; the relations its query reads are
    # conflict-checked (first-committer-wins): the stored text is replayed
    # at commit-order position, so they must not have been rewritten by a
    # concurrent committer
    return [statement.name], sorted(_referenced_relations(statement.query))


def _targets_drop_index(statement: ast.DropIndex, catalog: Catalog) -> _Targets:
    # locking the indexed table serialises the drop against DML
    if catalog.has_index(statement.name):
        return [catalog.index(statement.name).table], []
    return [], []  # missing index: IF EXISTS no-op or a plain error


def _targets_analyze(statement: ast.Analyze, catalog: Catalog) -> _Targets:
    if statement.table is not None:
        return [statement.table], []
    return list(catalog.table_names), []


def _drop(database, statement: ast.Drop, params, catalog) -> Result:
    catalog.drop(statement.name, statement.kind, statement.if_exists)
    return Result()


def _drop_index(database, statement: ast.DropIndex, params, catalog) -> Result:
    catalog.drop_index(statement.name, statement.if_exists)
    return Result()


def _drop_model(database, statement: ast.DropModel, params, catalog) -> Result:
    catalog.drop_model(statement.name, statement.if_exists)
    return Result()


def _analyze(database, statement: ast.Analyze, params, catalog) -> Result:
    return Result(rowcount=len(catalog.analyze(statement.table)))


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
