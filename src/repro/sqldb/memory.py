"""Per-query memory accounting, grant-based admission and spill files.

The engine's memory-hungry operators (hash-join builds, aggregate and
distinct hash tables, sort buffers, window partitions, materialised CTEs
and result batches) route every sizeable allocation through a
:class:`MemoryGrant` obtained from the database's :class:`MemoryBroker`.
Two budgets apply:

* ``query_memory_limit`` — one query's working set.  A *degradable*
  allocation (:meth:`MemoryGrant.reserve`) that would exceed it is
  **denied** and the operator holds one working chunk and runs the same
  code over partitions of its input (join, aggregation, DISTINCT) or
  over sorted runs merged through spill files (sort, window ordering),
  byte-identical to the one-partition result.  A *non-degradable*
  allocation (:meth:`MemoryGrant.require`: CTE cache, window state,
  result batch, spill working chunks) that exceeds it raises
  :class:`~repro.errors.ConfigurationLimitExceeded` (SQLSTATE 53400).
* ``memory_limit`` — the global pool shared by every session.  At
  admission each query carves out its per-query limit (when one is
  configured); when the pool is exhausted new queries wait on a
  *bounded* grant queue — deadline- and cancel-aware exactly like the
  lock manager's waits — and are shed with
  :class:`~repro.errors.OutOfMemory` (SQLSTATE 53200, retryable) when
  the queue overflows or the wait times out.  Mid-query ``require``
  allocations that cannot be served from the pool raise 53200 too, so a
  saturated server always sheds instead of deadlocking.

Spilled state — the order of each sorted run, the only operator state
that exists nowhere else — goes through the :class:`SpillManager`: JSON
blocks in the WAL's record frame (:func:`~repro.sqldb.wal.encode_record`)
in a per-database spill directory, tracked per grant so cancellation, errors
and rollback reclaim every temp file.  Acked commits never depend on
spilled state: spill files carry only *intra-query* operator state and
are deleted at statement end, before any commit acknowledgement.

Every reservation passes a named allocation point of the one fault
injector (:data:`repro.sqldb.faults.POINTS`), which can force a *denial*
(→ the operator must degrade), a *hard failure* (→ 53200 surfaces), or an
artificial *stall* (→ deterministic cancellation windows) there.
"""

from __future__ import annotations

import io
import os
import shutil
import tempfile
import threading
import time
from typing import Any, Iterator, Optional

from repro.errors import ConfigurationLimitExceeded, OutOfMemory
from repro.sqldb.faults import NO_FAULTS, Faults
from repro.sqldb.wal import encode_record, read_records

__all__ = [
    "MemoryBroker",
    "MemoryGrant",
    "SpillManager",
    "SpillFile",
    "batch_bytes",
    "vector_bytes",
    "parse_memory_limit",
]

#: estimated heap bytes per element of an object-dtype column (pointer
#: plus a small boxed payload); keeps text columns from looking free
_OBJECT_ELEMENT_BYTES = 48

#: estimated bytes per decorated sort key (a (marker, value) tuple plus
#: list slot) — what the in-memory sort allocates per row and key
SORT_KEY_BYTES = 112

#: estimated bytes of hash-table state per build/group row (code arrays,
#: argsort order, bucket bookkeeping)
HASH_ROW_BYTES = 64


def vector_bytes(vector: Any) -> int:
    """Estimated resident bytes of one column vector."""
    values = vector.values
    total = int(values.nbytes) + int(vector.nulls.nbytes)
    if values.dtype == object:
        total += _OBJECT_ELEMENT_BYTES * len(values)
    if vector.dictionary is not None:
        # text: int32 codes plus the (shared) dictionary's strings
        total += (8 + _OBJECT_ELEMENT_BYTES) * len(vector.dictionary)
    if vector.elements is not None:  # arrays: entries plus their elements
        total += vector_bytes(vector.elements)
    return total


def batch_bytes(batch: Any) -> int:
    """Estimated resident bytes of one batch (sum over its columns)."""
    return sum(vector_bytes(v) for v in batch.columns.values())


def parse_memory_limit(raw: str) -> int:
    """Parse a byte budget: plain bytes or a ``kb``/``mb``/``gb`` suffix."""
    text = raw.strip().lower()
    factor = 1
    for suffix, scale in (("kb", 1024), ("mb", 1024**2), ("gb", 1024**3)):
        if text.endswith(suffix):
            text = text[: -len(suffix)].strip()
            factor = scale
            break
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"cannot parse memory limit {raw!r}; "
            "expected bytes or a kb/mb/gb suffix"
        ) from None
    nbytes = int(value * factor)
    if nbytes <= 0:
        raise ValueError(f"memory limit {raw!r} must be positive")
    return nbytes


# ---------------------------------------------------------------------------
# spill files
# ---------------------------------------------------------------------------


class SpillFile:
    """An append-only sequence of checksummed JSON payloads.

    Each record is in the WAL's frame (length, crc32, payload), so a
    torn or corrupted spill surfaces as a hard
    :class:`~repro.errors.DurabilityError` instead of silently wrong
    query results.  Writers append with :meth:`append`; readers stream
    records back in order with :meth:`records` (one at a time, so the
    reader's working set stays one payload, not the whole file).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._write_handle: Optional[io.BufferedWriter] = None
        self.bytes_written = 0

    def append(self, payload: Any) -> int:
        """Serialise and frame one JSON payload; returns bytes written."""
        data = encode_record(payload)
        if self._write_handle is None:
            self._write_handle = open(self.path, "ab")
        self._write_handle.write(data)
        self.bytes_written += len(data)
        return len(data)

    def finish_writing(self) -> None:
        if self._write_handle is not None:
            self._write_handle.close()
            self._write_handle = None

    def records(self) -> Iterator[Any]:
        """Yield payloads in append order, verifying every checksum."""
        self.finish_writing()
        if self.bytes_written == 0 and not os.path.exists(self.path):
            return  # never appended to: the file was created lazily
        with open(self.path, "rb") as handle:
            yield from read_records(handle.read, self.path)

    def remove(self) -> None:
        self.finish_writing()
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass


class SpillManager:
    """Owns one database's spill directory and tracks live spill files.

    Files are created per grant and reclaimed at statement end — success,
    error or cancellation alike — through :meth:`release_grant`;
    :meth:`live_files` backs the test suite's leak audits.  The directory
    itself is created lazily (an unlimited database never touches disk)
    and removed at :meth:`close` when this manager created it.
    """

    DIR_PREFIX = "repro-spill-"

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self._configured_dir = spill_dir
        self._dir: Optional[str] = None
        self._owns_dir = False
        self._mutex = threading.Lock()
        self._counter = 0
        #: grant id -> live spill files
        self._by_grant: dict[int, list[SpillFile]] = {}
        self.total_spilled_bytes = 0

    @property
    def directory(self) -> Optional[str]:
        return self._dir

    def _ensure_dir(self) -> str:
        with self._mutex:
            if self._dir is None:
                if self._configured_dir is not None:
                    os.makedirs(self._configured_dir, exist_ok=True)
                    self._dir = self._configured_dir
                else:
                    self._dir = tempfile.mkdtemp(prefix=self.DIR_PREFIX)
                    self._owns_dir = True
            return self._dir

    def create(self, grant_id: int, label: str) -> SpillFile:
        directory = self._ensure_dir()
        with self._mutex:
            self._counter += 1
            name = f"{grant_id:06d}-{self._counter:08d}-{label}.spill"
            spill = SpillFile(os.path.join(directory, name))
            self._by_grant.setdefault(grant_id, []).append(spill)
        return spill

    def note_written(self, nbytes: int) -> None:
        with self._mutex:
            self.total_spilled_bytes += nbytes

    def release_file(self, grant_id: int, spill: SpillFile) -> None:
        """Reclaim one file early (e.g. a merged external-sort run)."""
        with self._mutex:
            files = self._by_grant.get(grant_id)
            if files is not None and spill in files:
                files.remove(spill)
        spill.remove()

    def release_grant(self, grant_id: int) -> None:
        with self._mutex:
            files = self._by_grant.pop(grant_id, [])
        for spill in files:
            spill.remove()

    def live_files(self) -> list[str]:
        with self._mutex:
            return [
                spill.path
                for files in self._by_grant.values()
                for spill in files
            ]

    def cleanup_all(self) -> None:
        with self._mutex:
            grants = list(self._by_grant)
        for grant_id in grants:
            self.release_grant(grant_id)

    def close(self) -> None:
        self.cleanup_all()
        with self._mutex:
            directory, owns = self._dir, self._owns_dir
            self._dir = None
            self._owns_dir = False
        if directory is not None and owns:
            shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# grants and the broker
# ---------------------------------------------------------------------------


class MemoryGrant:
    """One query's memory account against its broker's budgets."""

    def __init__(self, broker: "MemoryBroker", grant_id: int, base_bytes: int) -> None:
        self.broker = broker
        self.grant_id = grant_id
        #: bytes carved from the global pool at admission (not counted
        #: against the query's own budget — they *are* that budget)
        self.base_bytes = base_bytes
        #: operator reservations currently held
        self.reserved_bytes = 0
        self.peak_bytes = 0
        self.spilled_bytes = 0
        #: allocation points that wrote spill files
        self.spill_events: list[str] = []
        self.closed = False

    # reserve/require/release are delegated so all bookkeeping happens
    # under the broker's one condition variable

    def reserve(self, nbytes: int, point: str) -> bool:
        """Try a degradable allocation; False = work in partitions."""
        return self.broker._reserve(self, nbytes, point, degradable=True)

    def require(self, nbytes: int, point: str) -> None:
        """A non-degradable allocation; raises 53400/53200 on refusal."""
        self.broker._reserve(self, nbytes, point, degradable=False)

    def release(self, nbytes: int) -> None:
        self.broker._release(self, nbytes)

    def note_spill(self, nbytes: int, point: str) -> None:
        self.spilled_bytes += nbytes
        self.broker.spill.note_written(nbytes)
        if point not in self.spill_events:
            self.spill_events.append(point)

    def spill_file(self, label: str) -> SpillFile:
        return self.broker.spill.create(self.grant_id, label)

    def release_spill_file(self, spill: SpillFile) -> None:
        self.broker.spill.release_file(self.grant_id, spill)


class MemoryBroker:
    """Tracks reserved bytes per query against per-query and global budgets.

    ``limit`` is the global pool (None = unbounded); ``query_limit`` caps
    one query (None = unbounded).  Admission carves each query's
    ``query_limit`` out of the pool up front when both are configured —
    SQL Server-style memory grants — so a saturated pool queues new
    queries instead of letting them start and thrash.  The queue is
    bounded (``queue_depth``) and every wait observes the statement's
    deadline and cancel flag, exactly like the lock manager's waits;
    overflow and timeout shed with :class:`~repro.errors.OutOfMemory`.
    """

    def __init__(
        self,
        limit: Optional[int] = None,
        query_limit: Optional[int] = None,
        spill_dir: Optional[str] = None,
        queue_depth: int = 16,
        grant_timeout_ms: Optional[float] = 10000.0,
        faults: Faults = NO_FAULTS,
    ) -> None:
        if limit is not None and limit <= 0:
            raise ValueError("memory_limit must be positive (or None)")
        if query_limit is not None and query_limit <= 0:
            raise ValueError("query_memory_limit must be positive (or None)")
        if limit is not None and query_limit is not None and query_limit > limit:
            raise ConfigurationLimitExceeded(
                f"query_memory_limit ({query_limit}) exceeds "
                f"memory_limit ({limit})"
            )
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.limit = limit
        self.query_limit = query_limit
        self.queue_depth = queue_depth
        self.grant_timeout_ms = grant_timeout_ms
        self.faults = faults
        self.spill = SpillManager(spill_dir)
        self._cond = threading.Condition()
        self._grant_ids = 0
        self._reserved_total = 0
        self._waiting = 0
        self._active: dict[int, MemoryGrant] = {}
        #: lifetime counters (server stats)
        self.stats = {
            "grants": 0,
            "queued": 0,
            "shed": 0,
            "spills": 0,
            "peak_reserved_bytes": 0,
        }

    # -- admission -----------------------------------------------------------

    @property
    def reserved_total(self) -> int:
        with self._cond:
            return self._reserved_total

    @property
    def active_grants(self) -> int:
        with self._cond:
            return len(self._active)

    def _admission_bytes(self) -> int:
        """Bytes carved out of the pool at admission."""
        if self.limit is None:
            return 0
        if self.query_limit is not None:
            return self.query_limit
        return 0  # pay-as-you-go: reservations draw from the pool directly

    def begin_query(
        self,
        deadline: Optional[float] = None,
        cancel_event: Optional[threading.Event] = None,
    ) -> MemoryGrant:
        """Admit one query, waiting on the bounded grant queue if needed."""
        base = self._admission_bytes()
        wait_deadline = deadline
        if self.grant_timeout_ms is not None:
            grant_deadline = time.monotonic() + self.grant_timeout_ms / 1000.0
            wait_deadline = (
                grant_deadline
                if wait_deadline is None
                else min(wait_deadline, grant_deadline)
            )
        with self._cond:
            queued = False
            while (
                base
                and self.limit is not None
                and self._reserved_total + base > self.limit
            ):
                if not queued:
                    if self._waiting >= self.queue_depth:
                        self.stats["shed"] += 1
                        raise OutOfMemory(
                            "memory grant queue is full "
                            f"({self.queue_depth} waiters); retry shortly"
                        )
                    queued = True
                    self._waiting += 1
                    self.stats["queued"] += 1
                if cancel_event is not None and cancel_event.is_set():
                    self._waiting -= 1
                    from repro.errors import QueryCancelled

                    raise QueryCancelled(
                        "query cancelled while waiting for a memory grant"
                    )
                timeout = 0.05
                if wait_deadline is not None:
                    remaining = wait_deadline - time.monotonic()
                    if remaining <= 0:
                        self._waiting -= 1
                        self.stats["shed"] += 1
                        raise OutOfMemory(
                            "timed out waiting for a memory grant "
                            f"({self._reserved_total} of {self.limit} "
                            "bytes reserved); retry shortly"
                        )
                    timeout = min(timeout, remaining)
                self._cond.wait(timeout)
            if queued:
                self._waiting -= 1
            self._grant_ids += 1
            grant = MemoryGrant(self, self._grant_ids, base)
            self._reserved_total += base
            self._note_peak()
            self._active[grant.grant_id] = grant
            self.stats["grants"] += 1
        return grant

    def end_query(self, grant: MemoryGrant) -> None:
        """Release the grant's bytes and reclaim its spill files."""
        if grant.closed:
            return
        grant.closed = True
        self.spill.release_grant(grant.grant_id)
        with self._cond:
            held = grant.base_bytes + max(
                0, grant.reserved_bytes - grant.base_bytes
            )
            self._reserved_total -= held
            grant.reserved_bytes = 0
            self._active.pop(grant.grant_id, None)
            if grant.spill_events:
                self.stats["spills"] += 1
            self._cond.notify_all()

    # -- reservations --------------------------------------------------------

    def _note_peak(self) -> None:
        if self._reserved_total > self.stats["peak_reserved_bytes"]:
            self.stats["peak_reserved_bytes"] = self._reserved_total

    def _reserve(
        self, grant: MemoryGrant, nbytes: int, point: str, degradable: bool
    ) -> bool:
        nbytes = int(nbytes)
        action = self.faults.hit(point)
        if action == "deny" and degradable:
            return False
        if action is not None:  # "fail", or a non-degradable "deny"
            raise OutOfMemory(
                f"injected allocation {action} at {point!r} ({nbytes} bytes)"
            )
        with self._cond:
            over_query = (
                self.query_limit is not None
                and grant.reserved_bytes + nbytes > self.query_limit
            )
            # bytes beyond the admission carve-out draw from the pool
            pool_draw = max(
                0, grant.reserved_bytes + nbytes - grant.base_bytes
            ) - max(0, grant.reserved_bytes - grant.base_bytes)
            over_global = (
                self.limit is not None
                and self._reserved_total + pool_draw > self.limit
            )
            if over_query or over_global:
                if degradable:
                    return False
                if over_query:
                    raise ConfigurationLimitExceeded(
                        f"allocation of {nbytes} bytes at {point!r} would "
                        f"bring the query to "
                        f"{grant.reserved_bytes + nbytes} bytes, over "
                        f"query_memory_limit ({self.query_limit} bytes); "
                        "raise the limit to run this query"
                    )
                raise OutOfMemory(
                    f"allocation of {nbytes} bytes at {point!r} would bring "
                    f"the pool to {self._reserved_total + pool_draw} bytes, "
                    f"over the global memory_limit ({self.limit} bytes); "
                    "retry shortly"
                )
            grant.reserved_bytes += nbytes
            self._reserved_total += pool_draw
            if grant.reserved_bytes > grant.peak_bytes:
                grant.peak_bytes = grant.reserved_bytes
            self._note_peak()
            return True

    def _release(self, grant: MemoryGrant, nbytes: int) -> None:
        with self._cond:
            nbytes = min(int(nbytes), grant.reserved_bytes)
            before = max(0, grant.reserved_bytes - grant.base_bytes)
            grant.reserved_bytes -= nbytes
            after = max(0, grant.reserved_bytes - grant.base_bytes)
            self._reserved_total -= before - after
            self._cond.notify_all()

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "limit": self.limit,
                "query_limit": self.query_limit,
                "reserved_bytes": self._reserved_total,
                "active_grants": len(self._active),
                "waiting": self._waiting,
                "total_spilled_bytes": self.spill.total_spilled_bytes,
                **self.stats,
            }

    def close(self) -> None:
        self.spill.close()
