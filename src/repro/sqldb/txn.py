"""Per-session transaction state for snapshot-isolation MVCC.

``BEGIN`` forks the committed catalog into a private, copy-on-write
:class:`~repro.sqldb.catalog.Catalog` (O(relations + columns): the fork
shares every column vector; all mutation paths *replace* vectors, never
write into one).  Every statement of the transaction — reads included —
runs against that fork, so the transaction sees exactly the snapshot it
captured at ``BEGIN`` plus its own writes, and other sessions never see
its uncommitted work.

``SAVEPOINT`` captures a memento *of the fork* plus a mark into the
buffered redo records, so ``ROLLBACK TO`` restores the fork and drops
the undone statements from what will be flushed to the WAL at commit
(rolled-back work never reaches the log).

Commit is first-committer-wins: under the global write latch the engine
compares the committed catalog's per-table versions against the
transaction's :attr:`Transaction.start_versions` for every relation in
the write/check set; a mismatch aborts with
:class:`~repro.errors.SerializationFailure` (40001) and the client is
expected to retry.  On success the fork's written relations are
installed into the committed catalog wholesale.

The fair :class:`~repro.sqldb.locks.ReadWriteLock` (re-exported here for
backward compatibility) remains the DDL/catalog-swap latch; per-table
DML locks live in :class:`~repro.sqldb.locks.LockManager`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sqldb.locks import ReadWriteLock

if TYPE_CHECKING:
    from repro.sqldb.catalog import Catalog, CatalogSnapshot

__all__ = ["ReadWriteLock", "SavepointState", "Transaction"]


@dataclass
class SavepointState:
    """One ``SAVEPOINT``: name, fork memento, redo-buffer mark."""

    name: str
    memento: "CatalogSnapshot"
    #: length of ``Transaction.records`` when the savepoint was set;
    #: ``ROLLBACK TO`` truncates the buffer back to this mark
    record_mark: int


@dataclass
class Transaction:
    """An open explicit transaction (one per session at most)."""

    txn_id: int
    #: private copy-on-write fork of the committed catalog, captured at
    #: BEGIN; all statements of the transaction run against it
    catalog: "Catalog"
    #: committed per-table versions as of BEGIN (first-committer-wins
    #: conflict detection compares against these at COMMIT)
    start_versions: dict[str, int] = field(default_factory=dict)
    #: relations this transaction wrote (installed into the committed
    #: catalog at COMMIT; conflict-checked)
    write_set: set[str] = field(default_factory=set)
    #: relations whose committed state this transaction's DDL depends on
    #: (a view's referenced tables) — conflict-checked but not installed
    check_set: set[str] = field(default_factory=set)
    #: savepoint stack, oldest first; duplicate names allowed — lookups
    #: scan from the end (PostgreSQL masking semantics)
    savepoints: list[SavepointState] = field(default_factory=list)
    #: buffered redo records ``(sql, statement_index, params)`` for every
    #: successful write statement; flushed to the WAL at COMMIT
    records: list[tuple[str, int, list]] = field(default_factory=list)
    #: True after a deadlock/serialization abort: further statements fail
    #: with 25P02 until ROLLBACK (or COMMIT, which rolls back quietly)
    aborted: bool = False
    #: stats_version of the fork at BEGIN (detects in-txn ANALYZE)
    start_stats_version: int = 0
    #: schema_version of the fork at BEGIN (detects in-txn DDL)
    start_schema_version: int = 0
