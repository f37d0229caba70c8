"""Write-ahead log and snapshot checkpoints for the sqldb engine.

Durability is opt-in (``Database(wal_path=...)``) and uses
logical redo logging: every committed transaction's DDL/DML statements
are appended to an append-only log and replayed on the next open.  The
in-memory engine never pages, so there is no undo to log — a crash simply
discards uncommitted memory, and recovery rebuilds committed state.

File format (``wal_path``)
--------------------------
A 6-byte magic header (``RWAL1\\n``) followed by JSON records, each in
the one record frame (:func:`frame`, :func:`encode_record`), which
checkpoints, replica snapshots and spill runs use too::

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
A checkpoint is the full catalog as records in the same frame
(:func:`checkpoint_image`): a 6-byte magic header (``RCKP3\\n``), one
JSON record per table, view, statistics snapshot, index and trained
model, then ``{"t": "checkpoint", "txn": n}`` naming the highest
transaction id it covers.  A record that carries bytes under ``"blob"``
(a table's or materialised view's columns, in
:mod:`repro.sqldb.colcodec`'s buffers) is written as its JSON with
``"blob": <length>``, and the bytes ride raw in the next frame, under
that frame's CRC.  It is written to a temp path, fsynced, then
atomically renamed, and the WAL is reset to an empty header.  Recovery
loads the checkpoint (if present and intact) and replays only WAL
transactions with a higher id, so a crash between the rename and the WAL
reset cannot double-apply.  A replica's bootstrap snapshot is the same
image.  The images of older releases (``RCKP1``, pickled; ``RCKP2``,
per-cell JSON columns) are refused with a request to rebuild.

Durability points (see :mod:`repro.sqldb.faults`) are threaded through
every append/fsync/checkpoint step; the record and snapshot writes also
take a ``tear``.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import struct
import zlib
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any, BinaryIO, Optional

from repro.errors import DurabilityError
from repro.sqldb.faults import NO_FAULTS, Faults, SimulatedCrash, crashpoint

__all__ = [
    "WAL_SYNC_POLICIES",
    "WriteAheadLog",
    "checkpoint_image",
    "decode_checkpoint",
    "encode_record",
    "frame",
    "read_checkpoint",
    "read_records",
    "read_wal",
    "unframe",
    "write_checkpoint",
]

_WAL_MAGIC = b"RWAL1\n"
_CKPT_MAGIC = b"RCKP3\n"
#: the checkpoints of older releases, refused with a rebuild hint
_OLD_CKPT_MAGICS = {
    b"RCKP1\n": "the pickle format of releases before JSON checkpoints",
    b"RCKP2\n": "the per-cell JSON format of releases before binary "
    "columns",
}
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


def _unwrap(value: Any) -> Any:
    """JSON fallback for the values ``json`` does not know: numpy
    scalars are unwrapped via ``.item()``; anything else raises
    :class:`DurabilityError` instead of silently corrupting a record."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise DurabilityError(
        f"cannot serialise {type(value).__name__!r} value into a record"
    )


def encode_record(record: Any) -> bytes:
    """One JSON value in the record frame: a WAL record, a checkpoint or
    replica-snapshot record, or a spill-run block."""
    try:
        text = json.dumps(
            record, default=_unwrap, separators=(",", ":"), ensure_ascii=False
        )
    except (TypeError, ValueError) as exc:  # e.g. a non-string dict key
        raise DurabilityError(f"cannot serialise a record ({exc})") from None
    # surrogatepass: a lone surrogate in text round-trips (json.loads
    # reads bytes with it too) instead of failing the encode
    return frame(text.encode("utf-8", "surrogatepass"))


def _loads(payload: bytes, where: str) -> Any:
    try:
        return json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise DurabilityError(f"{where}: undecodable record ({exc})") from None


def read_records(read: Callable[[int], bytes], where: str) -> Iterator[Any]:
    """Decode frames from *read* until a clean end; a torn or corrupt
    frame, or a payload that is not JSON, raises :class:`DurabilityError`
    naming *where*.  Decoding is JSON only, so a hostile file or frame
    can at worst be rejected, never run code."""
    while (payload := unframe(read, where)) is not None:
        yield _loads(payload, where)


#: fsync policies for :meth:`WriteAheadLog.commit_sync` — what an
#: acknowledged commit guarantees (see ``Database(wal_sync=...)``):
#:
#: ``"commit"``  fsync before every acknowledgement: an acked commit
#:               survives power loss (the default, PostgreSQL's
#:               ``synchronous_commit = on``).
#: ``"off"``     never fsync on commit (only at checkpoints/close): an
#:               acked commit survives a process crash, while power
#:               loss may lose anything since the last checkpoint.
WAL_SYNC_POLICIES: tuple[str, ...] = ("commit", "off")


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
    ) -> None:
        if sync_policy not in WAL_SYNC_POLICIES:
            raise DurabilityError(
                f"unknown wal_sync policy {sync_policy!r}; "
                f"expected one of {WAL_SYNC_POLICIES}"
            )
        self.path = path
        self.sync_policy = sync_policy
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
        self.sync_count += 1
        crashpoint(self.faults, "wal.fsync.after")

    def commit_sync(self) -> None:
        """The fsync a committing transaction performs before the engine
        acknowledges it, honouring :attr:`sync_policy` (records are
        already flushed to the file by :meth:`append` under every
        policy)."""
        if self.sync_policy == "commit":
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

    def close(self) -> None:
        if not self._file.closed:
            if self._size > self.synced_size:
                # clean close under "off": don't leave acked
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


def _image_record(record: dict) -> bytes:
    blob = record.get("blob")
    if not isinstance(blob, bytes):
        return encode_record(record)
    return encode_record(dict(record, blob=len(blob))) + frame(blob)


def checkpoint_image(records: Iterable[dict], last_txn: int) -> bytes:
    """The bytes of a checkpoint: the magic header, then *records* and a
    closing ``{"t": "checkpoint", "txn": last_txn}`` record, each framed
    (a record's ``"blob"`` bytes in a raw frame of their own)."""
    closing = {"t": "checkpoint", "txn": last_txn}
    return _CKPT_MAGIC + b"".join(
        map(_image_record, itertools.chain(records, [closing]))
    )


def decode_checkpoint(data: bytes, where: str) -> tuple[list[dict], int]:
    """The records of a :func:`checkpoint_image` (each ``"blob"`` back as
    bytes) and the transaction id it covers.  Anything else — a wrong
    header, a torn or corrupt frame, a record that is not a JSON object,
    a blob frame missing or of another length, a missing closing record
    — raises :class:`DurabilityError` naming *where*."""
    for magic, what in _OLD_CKPT_MAGICS.items():
        if data.startswith(magic):
            raise DurabilityError(
                f"{where}: not a repro checkpoint this release reads: "
                f"{magic[:-1].decode()} is {what}; rebuild the database "
                "from its source data"
            )
    if not data.startswith(_CKPT_MAGIC):
        raise DurabilityError(f"{where}: not a repro checkpoint")
    stream = io.BytesIO(data)
    stream.seek(len(_CKPT_MAGIC))
    records = []
    while (payload := unframe(stream.read, where)) is not None:
        record = _loads(payload, where)
        if not isinstance(record, dict):
            raise DurabilityError(
                f"{where}: a checkpoint record is not an object"
            )
        if "blob" in record:
            size = record["blob"]
            blob = unframe(stream.read, where)
            if type(size) is not int or blob is None or len(blob) != size:
                raise DurabilityError(
                    f"{where}: a record's column buffers are missing"
                )
            record["blob"] = blob
        records.append(record)
    closing = records.pop() if records else {}
    if closing.get("t") != "checkpoint" or type(closing.get("txn")) is not int:
        raise DurabilityError(f"{where}: checkpoint lacks its closing record")
    return records, closing["txn"]


def write_checkpoint(
    path: str, image: bytes, faults: Faults = NO_FAULTS
) -> None:
    """Atomically publish the checkpoint *image* at *path*.

    Write-to-temp + fsync + rename: a crash at any point leaves either
    the previous checkpoint (or none) or the complete new one — never a
    torn file under the published name.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        _write(handle, image, faults, "checkpoint.snapshot.written")
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


def read_checkpoint(path: str) -> Optional[tuple[list[dict], int]]:
    """The records and transaction id of the checkpoint at *path*, or
    None when absent.

    The published checkpoint is written atomically, so corruption here is
    disk rot rather than a torn write — surfaced as
    :class:`DurabilityError` instead of being silently ignored.
    """
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return decode_checkpoint(handle.read(), path)
