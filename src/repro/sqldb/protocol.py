"""Wire protocol shared by the socket server and the client driver.

Framing is deliberately simple — the psycopg2-era shape the paper
measures through, not a binary columnar format:

* every message is one **frame**: a 4-byte big-endian unsigned length
  followed by that many bytes of UTF-8 JSON encoding a single object;
* the object always carries a ``"type"`` key; everything else is
  per-message payload;
* results, :class:`~repro.sqldb.stats.ExecStats` summaries and errors
  have fixed wire shapes (:func:`result_to_wire`, :func:`error_to_wire`)
  so both ends stay in lockstep with the engine's own types.

The length prefix bounds the damage a confused or malicious peer can do:
a frame longer than ``max_bytes`` raises
:class:`~repro.errors.ProtocolViolation` *before* any allocation, and a
disconnect in the middle of a frame is distinguished from a clean EOF at
a frame boundary (``None``) so connection teardown is never mistaken for
a protocol error and vice versa.

Message types (client → server)::

    hello        {version, auth?, options?}     must be first
    cancel       {key}                          out-of-band, first + only
    query        {sql, params?}                 run a ;-script
    executemany  {sql, params_seq}              batched DML
    begin / commit / rollback                   transaction control
    reset        {}                             drop all relations (opt-in)
    stats        {}                             plan-cache/operator counters
    explain_analyze {sql, params?}              annotated plan text
    promote      {}                             replica → primary flip
    replica_status {}                           replication role/lag report
    close        {}                             orderly goodbye

Server → client: ``hello_ok``, ``results``, ``ok``, ``stats``, ``text``,
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
from repro.sqldb.engine import Result

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "client_handshake",
    "result_to_wire",
    "result_from_wire",
    "error_to_wire",
    "exception_from_wire",
]

#: bumped on incompatible wire changes; the handshake rejects mismatches
PROTOCOL_VERSION = 1

#: default ceiling on one frame's JSON payload (server and client side)
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")


def _json_default(value: Any) -> Any:
    """Last-resort JSON encoder: numpy scalars become Python scalars
    (``.item()``), anything else its ``str``.  Rows out of the engine are
    plain Python values, but pipeline parameters occasionally carry
    numpy types."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except Exception:  # pragma: no cover - exotic .item() failures
            pass
    return str(value)


def encode_frame(message: dict) -> bytes:
    """One wire frame: length prefix + UTF-8 JSON payload."""
    payload = json.dumps(
        message, default=_json_default, separators=(",", ":")
    ).encode("utf-8")
    return _HEADER.pack(len(payload)) + payload


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
    disconnect mid-frame, undecodable JSON, or a payload that is not a
    JSON object with a string ``"type"``.
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
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolViolation(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ProtocolViolation("frame payload must be an object with a 'type'")
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


# -- engine type <-> wire shapes ----------------------------------------------


def result_to_wire(result: Result) -> dict:
    return {
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "rowcount": result.rowcount,
        "statement": result.statement,
    }


def result_from_wire(data: dict) -> Result:
    return Result(
        columns=list(data.get("columns", ())),
        rows=[tuple(row) for row in data.get("rows", ())],
        rowcount=int(data.get("rowcount", 0)),
        statement=data.get("statement", ""),
    )


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
