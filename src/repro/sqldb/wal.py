"""Write-ahead log and snapshot checkpoints for the sqldb engine.

Durability is opt-in (``Database(wal_path=...)``) and uses
logical redo logging: every committed transaction's DDL/DML statements
are appended to an append-only log and replayed on the next open.  The
in-memory engine never pages, so there is no undo to log — a crash simply
discards uncommitted memory, and recovery rebuilds committed state.

File format (``wal_path``)
--------------------------
A 6-byte magic header (``RWAL1\\n``) followed by JSON records, each in
the one record frame (:func:`frame`), which checkpoint bodies and spill
payloads use too::

    <u32 payload-length> <u32 crc32(payload)> <payload bytes>

Records are appended contiguously per commit (group commit: a
transaction's ``begin``/``stmt``.../``commit`` records hit the file in
one run, followed by a single ``fsync``), so a torn tail can only clip
the *last* transaction, which then lacks its ``commit`` record and is
discarded.  :func:`read_wal` stops at the first short or checksum-failing
record and reports the byte offset of the intact prefix; recovery
truncates the file there.

Record types
------------
``{"t": "begin",  "txn": n}``                     transaction start
``{"t": "stmt",   "txn": n, "sql": s, "i": k, "p": [...]}``
                                                  one redo statement —
                                                  statement *k* of script
                                                  *s* with bound params
``{"t": "many",   "txn": n, "sql": s, "rows": [[...], ...]}``
                                                  an ``executemany`` batch
``{"t": "commit", "txn": n}``                     transaction commit
``{"t": "auto",   "txn": n, "sql": s, "i": k, "p": [...]}``
                                                  an autocommitted
                                                  statement (``begin`` +
                                                  ``stmt`` + ``commit``
                                                  compressed into one)

Only *successful* statements are logged (redo-only): statements rolled
back by statement-level atomicity or ``ROLLBACK TO SAVEPOINT`` never
reach the file, because transaction records are buffered in memory and
flushed at commit after savepoint truncation.

Checkpoints (``wal_path + ".ckpt"``)
------------------------------------
A checkpoint pickles the full catalog (tables, views, statistics,
indexes, trained models) plus
the highest transaction id it covers into a sidecar file — written to a
temp path, fsynced, then atomically renamed — and resets the WAL to an
empty header.  Recovery loads the checkpoint (if present and intact) and
replays only WAL transactions with a higher id, so a crash between the
rename and the WAL reset cannot double-apply.

Durability points (see :mod:`repro.sqldb.faults`) are threaded through
every append/fsync/checkpoint step; the record and snapshot writes also
take a ``tear``.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import struct
import zlib
from collections.abc import Callable, Sequence
from typing import Any, BinaryIO, Optional

from repro.errors import DurabilityError
from repro.sqldb.faults import NO_FAULTS, Faults, SimulatedCrash, crashpoint

__all__ = [
    "WAL_SYNC_POLICIES",
    "WriteAheadLog",
    "frame",
    "read_checkpoint",
    "read_wal",
    "unframe",
    "write_checkpoint",
]

_WAL_MAGIC = b"RWAL1\n"
_CKPT_MAGIC = b"RCKP1\n"
_HEADER = struct.Struct("<II")  # payload length, crc32(payload)


def frame(payload: bytes) -> bytes:
    """*payload* behind its length and CRC32: the one record frame."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def unframe(read: Callable[[int], bytes], where: str) -> Optional[bytes]:
    """The payload of the next frame from *read* (a file's ``read``), or
    None at a clean end; a torn or corrupt frame raises
    :class:`DurabilityError` naming *where*."""
    header = read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise DurabilityError(f"{where}: torn frame header")
    length, crc = _HEADER.unpack(header)
    payload = read(length)
    if len(payload) < length:
        raise DurabilityError(f"{where}: torn frame")
    if zlib.crc32(payload) != crc:
        raise DurabilityError(f"{where}: frame checksum mismatch")
    return payload


def _write(handle: BinaryIO, data: bytes, faults: Faults, point: str) -> int:
    """Write and flush *data* at the durability *point*; returns its size.

    A due ``tear`` writes a prefix and a due ``crash`` all of it, then
    :class:`SimulatedCrash` (the flushed bytes are what recovery sees)."""
    action = faults.hit(point)
    if action == "tear":
        data = data[: max(1, len(data) // 2)]
    handle.write(data)
    handle.flush()
    if action is not None:
        raise SimulatedCrash(point)
    return len(data)


def _jsonable(value: Any) -> Any:
    """Coerce a redo-record value to a JSON-serialisable Python value.

    Numpy scalars are unwrapped via ``.item()``; anything else
    unserialisable raises :class:`DurabilityError` instead of silently
    corrupting the log."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    item = getattr(value, "item", None)
    if callable(item):
        return _jsonable(item())
    raise DurabilityError(
        f"cannot serialise {type(value).__name__!r} value into a WAL record"
    )


def encode_record(record: dict) -> bytes:
    return frame(
        json.dumps(
            _jsonable(record), separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
    )


#: fsync policies for :meth:`WriteAheadLog.commit_sync` — what an
#: acknowledged commit guarantees (see ``Database(wal_sync=...)``):
#:
#: ``"commit"``  fsync before every acknowledgement: an acked commit
#:               survives power loss (the default, PostgreSQL's
#:               ``synchronous_commit = on``).
#: ``"group"``   fsync once every ``group_every`` commits: an acked
#:               commit survives a *process* crash (the bytes reached
#:               the file), but power loss may roll back up to the last
#:               ``group_every - 1`` acked commits.  Commit order is
#:               still never reordered — a surviving prefix is always a
#:               valid prefix.
#: ``"off"``     never fsync on commit (only at checkpoints/close): an
#:               acked commit survives a process crash, while power
#:               loss may lose anything since the last checkpoint.
WAL_SYNC_POLICIES: tuple[str, ...] = ("commit", "group", "off")


class WriteAheadLog:
    """Append-only redo log over one file; single writer (the engine
    serialises writers on its write lock).

    ``sync_policy`` selects what :meth:`commit_sync` — the call every
    commit path makes before acknowledging — actually does; see
    :data:`WAL_SYNC_POLICIES`.  :meth:`sync` itself always fsyncs.
    """

    def __init__(
        self,
        path: str,
        faults: Faults = NO_FAULTS,
        sync_policy: str = "commit",
        group_every: int = 8,
    ) -> None:
        if sync_policy not in WAL_SYNC_POLICIES:
            raise DurabilityError(
                f"unknown wal_sync policy {sync_policy!r}; "
                f"expected one of {WAL_SYNC_POLICIES}"
            )
        if group_every < 1:
            raise DurabilityError("wal_sync group size must be >= 1")
        self.path = path
        self.sync_policy = sync_policy
        self.group_every = group_every
        self._commits_since_sync = 0
        #: fsyncs issued so far (tests/benchmarks compare policies by it)
        self.sync_count = 0
        self.faults = faults
        size = os.path.getsize(path) if os.path.exists(path) else 0
        self._file = open(path, "ab")
        self._size = size
        if size == 0:
            self._file.write(_WAL_MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
            self._size = len(_WAL_MAGIC)
        #: file size at the last fsync — the "power loss" crash model
        #: truncates here (everything after it may not have hit the disk)
        self.synced_size = self._size

    def append(self, record: dict) -> None:
        """Append one record; flushed to the file, not yet fsynced."""
        data = encode_record(record)
        crashpoint(self.faults, "wal.append.before")
        self._size += _write(self._file, data, self.faults, "wal.append.after")

    def sync(self) -> None:
        """fsync the log; a commit is durable once this returns."""
        crashpoint(self.faults, "wal.fsync.before")
        os.fsync(self._file.fileno())
        self.synced_size = self._size
        self._commits_since_sync = 0
        self.sync_count += 1
        crashpoint(self.faults, "wal.fsync.after")

    def commit_sync(self) -> None:
        """The fsync a committing transaction performs before the engine
        acknowledges it, honouring :attr:`sync_policy` (records are
        already flushed to the file by :meth:`append` under every
        policy)."""
        if self.sync_policy == "commit":
            self.sync()
            return
        if self.sync_policy == "group":
            self._commits_since_sync += 1
            if self._commits_since_sync >= self.group_every:
                self.sync()

    def reset(self) -> None:
        """Truncate to an empty header (after a checkpoint)."""
        self._file.close()
        self._file = open(self.path, "wb")
        self._file.write(_WAL_MAGIC)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._size = len(_WAL_MAGIC)
        self.synced_size = self._size
        self._commits_since_sync = 0

    def close(self) -> None:
        if not self._file.closed:
            if self._size > self.synced_size:
                # clean close under "group"/"off": don't leave acked
                # commits exposed to power loss when we had the chance
                try:
                    os.fsync(self._file.fileno())
                    self.synced_size = self._size
                except OSError:  # pragma: no cover - fs teardown races
                    pass
            self._file.close()


class _Records(Sequence):
    """The intact records of one WAL image, decoded on access: a replay
    walks the log holding one decoded record at a time, not all of them
    (decoded, a record is about six times its bytes in the file)."""

    def __init__(self, data: bytes, bounds: list[tuple[int, int]]) -> None:
        self._data = data
        self._bounds = bounds

    def __len__(self) -> int:
        return len(self._bounds)

    def __getitem__(self, index: int) -> dict:
        start, end = self._bounds[index]
        return json.loads(self._data[start:end])


def read_wal(path: str) -> tuple[Sequence[dict], Optional[int]]:
    """Validate the intact record prefix of the WAL at *path*.

    Returns ``(records, valid_size)``: a sequence that decodes each
    record when it is read, and the byte offset of the end of the last
    intact record — the caller truncates the file there to drop a torn
    tail.  A missing file yields ``([], None)``; a file whose *header* is
    unrecognisable (not a torn prefix of it) raises
    :class:`DurabilityError`.
    """
    if not os.path.exists(path):
        return [], None
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(_WAL_MAGIC):
        if _WAL_MAGIC.startswith(data):  # torn header write
            return [], 0
        raise DurabilityError(f"{path}: not a repro WAL file")
    if not data.startswith(_WAL_MAGIC):
        raise DurabilityError(f"{path}: not a repro WAL file")
    bounds: list[tuple[int, int]] = []
    stream = io.BytesIO(data)
    offset = stream.seek(len(_WAL_MAGIC))
    while True:
        try:
            payload = unframe(stream.read, path)
            if payload is None:
                break
            json.loads(payload.decode("utf-8"))
        except (DurabilityError, UnicodeDecodeError, json.JSONDecodeError):
            break  # torn or corrupt tail (checksummed garbage included)
        end = stream.tell()
        bounds.append((end - len(payload), end))
        offset = end
    return _Records(data, bounds), offset


def truncate_wal(path: str, valid_size: int) -> None:
    """Drop a torn tail in place (no-op when the file is already clean)."""
    if os.path.getsize(path) > valid_size:
        with open(path, "r+b") as handle:
            handle.truncate(valid_size)
            handle.flush()
            os.fsync(handle.fileno())


def write_checkpoint(
    path: str, payload: Any, faults: Faults = NO_FAULTS
) -> None:
    """Atomically publish a checkpoint snapshot at *path*.

    Write-to-temp + fsync + rename: a crash at any point leaves either
    the previous checkpoint (or none) or the complete new one — never a
    torn file under the published name.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        _write(handle, _CKPT_MAGIC + frame(blob), faults,
               "checkpoint.snapshot.written")
        os.fsync(handle.fileno())
    crashpoint(faults, "checkpoint.before_rename")
    os.replace(tmp, path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        dir_fd = None
    if dir_fd is not None:
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    crashpoint(faults, "checkpoint.after_rename")


def read_checkpoint(path: str) -> Optional[Any]:
    """Load a checkpoint snapshot, or None when absent.

    The published checkpoint is written atomically, so corruption here is
    disk rot rather than a torn write — surfaced as
    :class:`DurabilityError` instead of being silently ignored.
    """
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        if handle.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise DurabilityError(f"{path}: not a repro checkpoint file")
        blob = unframe(handle.read, path)
        if blob is None or handle.read(1):
            raise DurabilityError(f"{path}: not one checkpoint frame")
    try:
        return pickle.loads(blob)
    except Exception as exc:  # pickle raises a zoo of error types
        raise DurabilityError(f"{path}: cannot unpickle checkpoint ({exc})") from exc
