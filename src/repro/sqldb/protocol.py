"""Wire protocol shared by the socket server and the client driver.

Framing is length-prefixed; results travel as typed binary columns:

* every message is one **frame**: a 4-byte big-endian unsigned length
  followed by that many bytes of payload;
* a payload is UTF-8 JSON encoding a single object that always carries a
  ``"type"`` key — except a ``results`` frame, which is binary: a marker
  byte (``0x01``), a 4-byte big-endian header length, a JSON header
  (``type``, ``in_transaction`` and per result its ``columns``,
  ``rowcount``, ``statement`` and column headers, every buffer length
  included), then the column buffers back to back.  The columns are
  :mod:`repro.sqldb.colcodec`'s — the same codec checkpoint images use —
  and the client builds each ``Result``'s rows from them with
  :func:`~repro.sqldb.vector.to_rows`, the function the engine itself
  uses, so remote rows equal in-process ones by construction;
* errors and :class:`~repro.sqldb.stats.ExecStats` summaries have fixed
  JSON shapes (:func:`error_to_wire`).

The length prefix bounds the damage a confused or malicious peer can do:
a frame longer than ``max_bytes`` raises
:class:`~repro.errors.ProtocolViolation` *before* any allocation, and a
disconnect in the middle of a frame is distinguished from a clean EOF at
a frame boundary (``None``) so connection teardown is never mistaken for
a protocol error and vice versa.  A binary frame is checked before any
column is read: its buffer lengths must tile the payload exactly and
match each result's ``rowcount``; anything malformed is a
``ProtocolViolation`` too.

Message types (client → server)::

    hello        {version, auth?, options?}     must be first
    cancel       {key}                          out-of-band, first + only
    query        {sql, params?}                 run a ;-script
    executemany  {sql, params_seq}              batched DML
    reset        {}                             drop all relations (opt-in)
    stats        {}                             plan-cache/operator counters
    promote      {}                             replica → primary flip
    replica_status {}                           replication role/lag report
    close        {}                             orderly goodbye

Every SQL request is a ``query``: transaction control (``BEGIN``,
``COMMIT``, ``ROLLBACK``), ``EXPLAIN [ANALYZE]`` (a one-column ``QUERY
PLAN`` result), ``ANALYZE`` and ``CHECKPOINT`` are statements like any
other.  Any other message type after ``hello`` is a protocol violation
(08P01) and ends the connection.

Server → client: ``hello_ok``, ``results``, ``ok``, ``stats``,
``promoted``, ``status``, ``error``, ``bye``.

Replication subscription (after ``hello``, the connection switches into
a server-push stream; see :mod:`repro.sqldb.replication`)::

    replicate     {start_after, name}           subscribe from a commit id
    -- server then pushes, each frame acknowledged stop-and-wait:
    snapshot      {state, last_txn, primary_commit_id}   bootstrap payload
    wal_batch     {seq, commits: [{id, records}], primary_commit_id}
    wal_heartbeat {seq, primary_commit_id}      idle keepalive
    replicate_ack {seq, applied}                replica → server, per frame
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Optional

from repro import errors as _errors
from repro.errors import ProtocolViolation, SQLError
from repro.sqldb import colcodec

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "client_handshake",
    "error_to_wire",
    "exception_from_wire",
]

#: bumped on incompatible wire changes; the handshake rejects mismatches
PROTOCOL_VERSION = 2

#: default ceiling on one frame's payload (server and client side)
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")
#: first payload byte of a binary ``results`` frame (JSON starts with ``{``)
_BINARY = b"\x01"


def _json_default(value: Any) -> Any:
    """numpy scalars as Python scalars.  Anything else JSON cannot carry
    is a ``TypeError``, never its ``str``: parameters are normalised
    before they are sent (``prepared.bind_parameters``)."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"{type(value).__name__} is not JSON serialisable")


def _json(message: dict) -> bytes:
    return json.dumps(
        message, default=_json_default, separators=(",", ":")
    ).encode("utf-8")


def encode_frame(message: dict) -> bytes:
    """One wire frame: length prefix + payload.  A ``results`` message
    carries engine ``Result`` objects under ``"results"`` and is encoded
    as typed binary columns; every other message is JSON."""
    if message.get("type") != "results":
        payload = _json(message)
        return _HEADER.pack(len(payload)) + payload
    header = dict(message, results=[])
    buffers: list[bytes] = []
    for result in message["results"]:
        vectors, data = colcodec.encode(result.vectors)
        header["results"].append(
            {
                "columns": list(result.columns),
                "rowcount": result.rowcount,
                "statement": result.statement,
                "vectors": vectors,
            }
        )
        buffers += data
    text = _json(header)
    size = 1 + _HEADER.size + len(text) + sum(map(len, buffers))
    return b"".join(
        [_HEADER.pack(size), _BINARY, _HEADER.pack(len(text)), text, *buffers]
    )


def send_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly *n* bytes; ``None`` on EOF before the first byte;
    :class:`ProtocolViolation` on EOF mid-way (a torn frame)."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if not chunks:
                return None
            raise ProtocolViolation(
                f"connection closed mid-frame ({n - remaining} of {n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if chunks else b""


def recv_frame(
    sock: socket.socket, max_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ProtocolViolation` for an oversized length prefix, a
    disconnect mid-frame, undecodable JSON, a payload that is not a JSON
    object with a string ``"type"``, or a malformed ``results`` frame.
    A ``results`` frame comes back with its columns decoded: each result
    is ``{columns, rowcount, statement, vectors}``.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolViolation(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ProtocolViolation("connection closed between header and payload")
    if payload[:1] == _BINARY:
        return _decode_results(payload)
    message = _decode_json(payload)
    if message["type"] == "results":
        raise ProtocolViolation("a results frame must carry binary columns")
    return message


def _decode_json(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolViolation(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ProtocolViolation("frame payload must be an object with a 'type'")
    return message


def _decode_results(payload: bytes) -> dict:
    """A binary ``results`` frame, its column buffers checked against
    the header before any of them is read."""
    start = 1 + _HEADER.size
    if len(payload) < start:
        raise ProtocolViolation("results frame shorter than its header")
    (length,) = _HEADER.unpack_from(payload, 1)
    if start + length > len(payload):
        raise ProtocolViolation("results header runs past the frame")
    message = _decode_json(payload[start:start + length])
    results = message.get("results")
    if message["type"] != "results" or type(results) is not list:
        raise ProtocolViolation("a binary frame must be a results frame")
    sizes = []
    try:
        for result in results:
            if type(result) is not dict:
                raise ProtocolViolation("a result is not an object")
            columns, vectors = result.get("columns"), result.get("vectors")
            if (
                type(columns) is not list
                or not all(type(name) is str for name in columns)
                or type(result.get("statement")) is not str
                or type(vectors) is not list
                or len(vectors) != len(columns)
            ):
                raise ProtocolViolation("a result of the wrong shape")
            sizes.append(colcodec.payload_size(vectors, result.get("rowcount")))
        start += length
        if start + sum(sizes) != len(payload):
            raise ProtocolViolation(
                "column buffers do not tile the results frame"
            )
        view = memoryview(payload)
        for result, size in zip(results, sizes):
            result["vectors"] = colcodec.decode(
                result["vectors"], result["rowcount"], view[start:start + size]
            )
            start += size
    except colcodec.MalformedColumns as exc:
        raise ProtocolViolation(f"malformed results frame: {exc}") from None
    return message


def client_handshake(
    sock: socket.socket,
    auth_token: Optional[str] = None,
    options: Optional[dict] = None,
    max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> dict:
    """The client half of the versioned hello/auth handshake — the query
    driver and the replication stream both open with it.  Returns the
    server's ``hello_ok`` frame.

    The server's typed refusal (bad token, 53300 load shed, ...) is
    raised as the matching engine exception; EOF before any reply is a
    :class:`ConnectionError`, any other reply a
    :class:`ProtocolViolation`."""
    hello: dict = {"type": "hello", "version": PROTOCOL_VERSION}
    if auth_token is not None:
        hello["auth"] = auth_token
    if options:
        hello["options"] = options
    try:
        send_frame(sock, hello)
    except OSError:
        # a shedding server may close before reading the hello — its
        # typed refusal frame is still there to read
        pass
    reply = recv_frame(sock, max_bytes)
    if reply is None:
        raise ConnectionError("server closed the connection mid-handshake")
    if reply["type"] == "error":
        raise exception_from_wire(reply)
    if reply["type"] != "hello_ok":
        raise ProtocolViolation(
            f"unexpected handshake reply {reply['type']!r}"
        )
    return reply


# -- engine errors <-> wire shapes ---------------------------------------------


#: engine error classes addressable by name on the wire (subset of
#: repro.errors: everything that is an SQLError)
_ERROR_CLASSES: dict[str, type] = {
    name: cls
    for name, cls in vars(_errors).items()
    if isinstance(cls, type) and issubclass(cls, SQLError)
}


def error_to_wire(exc: BaseException) -> dict:
    """An error frame carrying class name, SQLSTATE and message.

    Non-engine errors (a bug in a worker) are reported as a generic
    ``SQLError`` with SQLSTATE XX000 so the client still gets a typed
    failure instead of a dropped connection."""
    if isinstance(exc, SQLError):
        name = type(exc).__name__
        sqlstate = exc.sqlstate
        message = str(exc) or name
    else:
        name = "SQLError"
        sqlstate = "XX000"
        message = f"internal server error: {type(exc).__name__}: {exc}"
    return {
        "type": "error",
        "error_class": name,
        "sqlstate": sqlstate,
        "message": message,
    }


def exception_from_wire(data: dict) -> SQLError:
    """Rebuild a server error frame as the matching engine exception.

    The class is resolved by name against :mod:`repro.errors` (falling
    back to :class:`SQLError`), and the SQLSTATE travels verbatim — so
    client-side ``except SerializationFailure`` and retry-loop SQLSTATE
    checks behave exactly as they do in-process."""
    cls = _ERROR_CLASSES.get(data.get("error_class", ""), SQLError)
    message = data.get("message", "unknown server error")
    sqlstate = data.get("sqlstate")
    exc = cls(message)
    if sqlstate:
        exc.sqlstate = sqlstate
    return exc
