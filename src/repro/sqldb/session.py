"""Per-connection session state for multi-session MVCC.

A :class:`Session` is the engine-side identity of one client connection:
it owns the session's open :class:`~repro.sqldb.txn.Transaction` (if
any), its in-flight statement cancel flags, its statement timeout (each
``execute`` / ``run_script`` / ``executemany`` call gets one deadline
from it) and the id used by the per-table
:class:`~repro.sqldb.locks.LockManager`.  The
:class:`~repro.sqldb.engine.Database` keeps one *default* session for
its direct ``execute()`` API (and for the DB-API connection that owns
the database); additional sessions — one per pooled connection — are
opened with :meth:`Database.session() <repro.sqldb.engine.Database.session>`
and run concurrently under snapshot isolation.  A session is driven
through the database (``db.execute(sql, session=s)``) or, more usually,
through ``dbapi.connect(database=db)``, which opens one.

Statements *within* one session are serial (one at a time, like a real
connection); concurrency happens *across* sessions.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.sqldb.engine import Database
    from repro.sqldb.txn import Transaction

__all__ = ["Session"]


class Session:
    """One client session over a shared :class:`Database`."""

    def __init__(self, database: "Database", session_id: int) -> None:
        self.database = database
        self.session_id = session_id
        #: the open explicit transaction, if any
        self.txn: Optional["Transaction"] = None
        #: commit id of this session's most recent committed write
        #: (autocommit statement or explicit COMMIT); commit ids are
        #: allocated under the global write latch, so sorting by them
        #: reconstructs the database-wide commit order
        self.last_commit_id: Optional[int] = None
        self.closed = False
        #: statement timeout (ms) of this session's calls; None takes the
        #: database's, a non-positive value disables it.  A server
        #: connection sets it from its hello.
        self.statement_timeout_ms: Optional[float] = None
        #: cancel events of in-flight statements (guarded by the mutex);
        #: each statement's ``_StatementScope`` adds and discards its own
        self._cancel_mutex = threading.Lock()
        self._active_cancels: set[threading.Event] = set()
        #: memory-governor counters across this session's statements:
        #: largest single-statement reservation, cumulative spilled
        #: bytes, and statements shed with 53200/53400
        self.peak_memory_bytes = 0
        self.spilled_bytes = 0
        self.memory_shed = 0

    def note_memory(self, peak_bytes: int, spilled_bytes: int) -> None:
        """Fold one statement's memory grant into the session counters."""
        if peak_bytes > self.peak_memory_bytes:
            self.peak_memory_bytes = peak_bytes
        self.spilled_bytes += spilled_bytes

    def memory_stats(self) -> dict:
        return {
            "peak_memory_bytes": self.peak_memory_bytes,
            "spilled_bytes": self.spilled_bytes,
            "memory_shed": self.memory_shed,
        }

    # -- statement lifecycle -------------------------------------------------

    def cancel(self) -> None:
        """Cooperatively cancel this session's in-flight statements
        (safe from any thread; peers' statements are unaffected)."""
        with self._cancel_mutex:
            for event in self._active_cancels:
                event.set()

    @property
    def has_active_statements(self) -> bool:
        with self._cancel_mutex:
            return bool(self._active_cancels)

    # -- transaction state -------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None

    @property
    def in_aborted_transaction(self) -> bool:
        return self.txn is not None and self.txn.aborted

    def close(self) -> None:
        """End the session: roll back any open transaction and release
        *every* lock this session holds, then deregister from the
        database.  Idempotent, and safe to call from another thread
        (server disconnect): in-flight statements are cancelled first,
        and lock release is unconditional — even locks taken by a
        statement that never reached commit or rollback (e.g. a
        connection that died mid-acquire) are returned, so a peer
        blocked on this session's lock always unblocks."""
        if self.closed:
            return
        self.closed = True
        self.cancel()
        try:
            if self.txn is not None:
                self.database.rollback(session=self)
        finally:
            self.database.locks.release_all(self.session_id)
            self.database._forget_session(self)
