"""Threaded TCP front-end multiplexing clients onto MVCC sessions.

``DatabaseServer`` binds one shared :class:`~repro.sqldb.engine.Database`
behind a socket: every accepted connection gets its own engine
:class:`~repro.sqldb.session.Session` (snapshot isolation, private
transaction state, its own lock identity) and a worker thread that speaks
the length-prefixed JSON protocol of :mod:`repro.sqldb.protocol`.  The
paper's client/server boundary — psycopg2 against a real DBMS — thus
exists for this engine too: the same inspection pipelines run unchanged
over the wire through :class:`repro.core.connectors.RemoteConnector`.

Production-shaped controls, all cheap but real:

* **admission control** — at most ``max_connections`` concurrent
  clients; excess connections are *shed* at accept with a retryable
  SQLSTATE 53300 error frame (the client backoff loop reconnects), and
  the kernel accept queue itself holds at most ``_ACCEPT_BACKLOG``;
* **per-connection statement timeout** — the hello's
  ``statement_timeout_ms`` (else the server's) becomes the session's
  timeout: each request's engine call gets one deadline that its lock
  waits, memory-grant waits and queries all read (SQLSTATE 57014), so a
  script cannot dodge it between statements;
* **idle timeout** — a connection that sends nothing for
  ``idle_timeout_s`` is closed and its transaction rolled back;
* **out-of-band cancel** — the handshake returns a secret cancel key; a
  second short-lived connection presenting it maps to
  ``Database.cancel(session=...)``, exactly PostgreSQL's
  BackendKeyData/CancelRequest shape;
* **graceful shutdown** — stop accepting, let in-flight statements
  finish (up to a drain budget), refuse new statements with SQLSTATE
  57P01, cancel stragglers, and roll back every open transaction by
  closing its session.

A worker thread never dies on client abuse: malformed frames, oversized
payloads and mid-frame disconnects are answered (best-effort) with a
protocol-violation error frame and the connection torn down, with the
session always closed — pool accounting is restored no matter how the
connection ends.

Run standalone::

    python -m repro.sqldb.server --port 5433 --profile umbra
"""

from __future__ import annotations

import argparse
import secrets
import socket
import threading
import time
from typing import Any, Optional

from repro.errors import (
    AdminShutdown,
    AuthenticationError,
    ProtocolViolation,
    SQLError,
    TooManyConnections,
)
from repro.sqldb.engine import Database
from repro.sqldb.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    error_to_wire,
    recv_frame,
    send_frame,
)

__all__ = ["DatabaseServer", "main"]

#: connections the kernel queues before the acceptor takes them
_ACCEPT_BACKLOG = 16


def _force_close(sock: socket.socket) -> None:
    """Close a socket another thread may be blocked reading.

    ``close()`` alone does not wake a thread already parked in
    ``recv()`` — the kernel keeps the blocked syscall's reference alive
    and the reader sleeps forever on a dead fd.  ``shutdown(SHUT_RDWR)``
    interrupts the read with EOF first, so the owning worker thread
    unwinds through its teardown immediately."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _close_listener(listener: socket.socket) -> None:
    """Close a listening socket whose acceptor is parked in ``accept()``.

    As with :func:`_force_close`, ``close()`` alone never wakes the blocked
    syscall.  ``shutdown(SHUT_RDWR)`` fails it with ``OSError`` on Linux;
    where a listening socket refuses that (ENOTCONN on BSD), a loopback
    self-connect makes ``accept()`` return once and the loop's next call
    hits the closed descriptor."""
    try:
        listener.shutdown(socket.SHUT_RDWR)
    except OSError:
        try:
            socket.create_connection(
                listener.getsockname()[:2], timeout=1.0
            ).close()
        except OSError:
            pass
    try:
        listener.close()
    except OSError:
        pass


class _ClientHandler:
    """One connected client: socket, session, worker thread."""

    def __init__(self, server: "DatabaseServer", sock: socket.socket, peer) -> None:
        self.server = server
        self.sock = sock
        self.peer = peer
        self.session = None
        self.cancel_key: Optional[str] = None
        self.busy = False
        self.thread = threading.Thread(
            target=self._run, name=f"repro-sql-client-{peer}", daemon=True
        )

    def start(self) -> None:
        self.thread.start()

    # -- lifecycle ----------------------------------------------------------

    def _run(self) -> None:
        try:
            self._serve()
        except Exception:  # noqa: BLE001 - worker threads never crash out
            self.server._count("handler_errors")
        finally:
            self._teardown()

    def _teardown(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
        if self.session is not None:
            # rolls back any open transaction and releases every lock the
            # dead connection held, so blocked peers unblock immediately
            self.session.close()
            self.session = None
        self.server._detach(self)

    def _send(self, message: dict) -> None:
        send_frame(self.sock, message)

    def _send_error(self, exc: BaseException) -> bool:
        """Best-effort error frame (the peer may already be gone)."""
        try:
            self._send(error_to_wire(exc))
            return True
        except OSError:
            return False

    # -- protocol -----------------------------------------------------------

    def _serve(self) -> None:
        server = self.server
        self.sock.settimeout(server.handshake_timeout_s)
        try:
            first = recv_frame(self.sock, server.max_frame_bytes)
        except ProtocolViolation as exc:
            server._count("protocol_errors")
            self._send_error(exc)
            return
        except (socket.timeout, OSError):
            return
        if first is None:
            return
        if first["type"] == "cancel":
            self._handle_cancel(first)
            return
        if not self._handshake(first):
            return

        options = first.get("options") or {}
        timeout_ms = options.get(
            "statement_timeout_ms", server.statement_timeout_ms
        )
        if timeout_ms is not None:
            self.session.statement_timeout_ms = float(timeout_ms)

        while True:
            self.sock.settimeout(server.idle_timeout_s)
            try:
                message = recv_frame(self.sock, server.max_frame_bytes)
            except ProtocolViolation as exc:
                server._count("protocol_errors")
                self._send_error(exc)
                return
            except socket.timeout:
                server._count("idle_closed")
                self._send_error(
                    SQLError(
                        "connection closed after "
                        f"{server.idle_timeout_s:g}s idle",
                        sqlstate="57P05",  # idle_session_timeout
                    )
                )
                return
            except OSError:
                return
            if message is None or message["type"] == "close":
                if message is not None:
                    try:
                        self._send({"type": "bye"})
                    except OSError:
                        pass
                return
            if server._draining:
                self._send_error(
                    AdminShutdown("the server is shutting down")
                )
                return
            if message["type"] == "replicate":
                # mode switch: this connection becomes a push stream to
                # a downstream replica until either side drops it
                self._serve_replication(message)
                return
            if not self._handle_request(message):
                return

    def _handshake(self, first: dict) -> bool:
        server = self.server
        if first["type"] != "hello":
            server._count("protocol_errors")
            self._send_error(
                ProtocolViolation(
                    f"expected a hello frame, got {first['type']!r}"
                )
            )
            return False
        if first.get("version") != PROTOCOL_VERSION:
            self._send_error(
                ProtocolViolation(
                    f"protocol version mismatch: server speaks "
                    f"{PROTOCOL_VERSION}, client sent {first.get('version')!r}"
                )
            )
            return False
        if server.auth_token is not None and not secrets.compare_digest(
            str(first.get("auth") or ""), server.auth_token
        ):
            server._count("auth_failures")
            self._send_error(
                AuthenticationError("authentication failed: bad token")
            )
            return False
        self.session = server.database.session()
        self.cancel_key = secrets.token_hex(16)
        server._register_cancel_key(self.cancel_key, self.session)
        self._send(
            {
                "type": "hello_ok",
                "version": PROTOCOL_VERSION,
                "server": "repro-sqldb",
                "profile": server.database.profile.name,
                "session_id": self.session.session_id,
                "cancel_key": self.cancel_key,
            }
        )
        return True

    def _handle_cancel(self, message: dict) -> None:
        """Out-of-band cancel: a fresh connection presenting a session's
        secret key.  Replies ``ok`` whether or not the key matched (no
        probing oracle), like PostgreSQL's silent CancelRequest."""
        session = self.server._session_for_cancel_key(message.get("key"))
        if session is not None:
            self.server.database.cancel(session=session)
            self.server._count("cancels")
        try:
            self._send({"type": "ok"})
        except OSError:
            pass

    def _handle_request(self, message: dict) -> bool:
        """Dispatch one request; ``False`` ends the connection."""
        self.busy = True
        try:
            # encoded here, so a reply that cannot be encoded is an
            # error frame like any other failure
            reply = encode_frame(self._dispatch(message))
        except ProtocolViolation as exc:
            self.server._count("protocol_errors")
            self._send_error(exc)
            return False
        except SQLError as exc:
            # statement-level failure: report it and keep serving — the
            # session survives, exactly like an interactive psql error.
            # The frame carries the session's (possibly changed)
            # transaction state: a COMMIT that lost first-committer-wins
            # ends the transaction server-side, and the client's cached
            # state must not go stale.
            frame = error_to_wire(exc)
            frame["in_transaction"] = self.session.in_transaction
            try:
                self._send(frame)
                return True
            except OSError:
                return False
        except Exception as exc:  # noqa: BLE001 - never crash the worker
            self.server._count("handler_errors")
            return self._send_error(exc)
        finally:
            self.busy = False
        try:
            self.sock.sendall(reply)
        except OSError:
            return False
        return True

    def _dispatch(self, message: dict) -> dict:
        server = self.server
        database = server.database
        session = self.session
        kind = message["type"]
        if kind == "query":
            sql = message.get("sql")
            if not isinstance(sql, str):
                raise ProtocolViolation("query frame requires a 'sql' string")
            params = message.get("params")
            server._count("statements")
            results = database.run_script(
                sql, tuple(params) if params is not None else None,
                session=session,
            )
            return {
                "type": "results",
                "results": results,
                "in_transaction": session.in_transaction,
            }
        if kind == "executemany":
            sql = message.get("sql")
            seq = message.get("params_seq")
            if not isinstance(sql, str) or not isinstance(seq, list):
                raise ProtocolViolation(
                    "executemany frame requires 'sql' and 'params_seq'"
                )
            server._count("statements")
            rowcount = database.executemany(
                sql, [tuple(row) for row in seq], session=session
            )
            return {
                "type": "ok",
                "rowcount": rowcount,
                "in_transaction": session.in_transaction,
            }
        if kind == "reset":
            if not server.allow_reset:
                raise SQLError(
                    "reset is disabled on this server", sqlstate="42501"
                )
            database.reset_storage()
            return {"type": "ok", "in_transaction": False}
        if kind == "stats":
            frame = {
                "type": "stats",
                "plan_cache": database.plan_cache.stats,
                "operators": database.operator_counters,
                "server": dict(server.stats),
            }
            if database.memory is not None:
                # broker snapshot plus this connection's peak/spilled/shed
                frame["memory"] = database.memory_stats(session)
            return frame
        if kind == "promote":
            hook = server.promote_hook
            if hook is None:
                raise SQLError(
                    "this server has no promotion hook (not a replica)",
                    sqlstate="0A000",  # feature_not_supported
                )
            server._count("promotions")
            out = hook() or {}
            return {"type": "promoted", **out}
        if kind == "replica_status":
            hook = server.status_hook
            if hook is not None:
                return dict(hook())
            manager = server.replication
            status = {
                "type": "status",
                "role": (
                    "replica" if database.read_only else
                    ("primary" if manager is not None else "standalone")
                ),
                "last_applied": database.last_applied_commit_id,
                "commit_id": database.current_commit_id,
            }
            if manager is not None:
                status["last_commit_id"] = manager.last_commit_id
                status["subscribers"] = manager.subscriber_status()
            return status
        raise ProtocolViolation(f"unknown message type {kind!r}")

    # -- replication stream --------------------------------------------------

    def _serve_replication(self, message: dict) -> None:
        """Push committed WAL batches to one downstream replica.

        Stop-and-wait: one ``wal_batch`` (or ``wal_heartbeat`` after an
        idle period) per round trip, acknowledged by ``replicate_ack``
        carrying the replica's applied position — which doubles as flow
        control and as the synchronous-replication signal.  Any
        transport fault simply ends the subscription; the replica
        reconnects from its last applied commit."""
        server = self.server
        manager = server.replication
        if manager is None:
            self._send_error(
                SQLError(
                    "this server does not stream replication",
                    sqlstate="0A000",  # feature_not_supported
                )
            )
            return
        try:
            start_after = int(message.get("start_after", 0))
        except (TypeError, ValueError):
            self._send_error(
                ProtocolViolation("replicate frame requires integer "
                                  "'start_after'")
            )
            return
        name = str(message.get("name") or f"replica-{self.peer}")
        try:
            sub = manager.subscribe(name, start_after)
        except SQLError as exc:
            self._send_error(exc)
            return
        server._count("replication_streams")
        try:
            if sub.needs_snapshot:
                encoded, last_txn = manager.snapshot_for(sub)
                self._send(
                    {
                        "type": "snapshot",
                        "state": encoded,
                        "last_txn": last_txn,
                        "primary_commit_id": manager.last_commit_id,
                    }
                )
            seq = 0
            while not server._draining:
                batch = manager.next_batch(
                    sub, timeout=server.replication_heartbeat_s
                )
                if batch is None:
                    return  # manager closed (shutdown or demotion)
                commits, tip = batch
                seq += 1
                if commits:
                    frame = {
                        "type": "wal_batch",
                        "seq": seq,
                        "commits": commits,
                        "primary_commit_id": tip,
                    }
                else:
                    frame = {
                        "type": "wal_heartbeat",
                        "seq": seq,
                        "primary_commit_id": tip,
                    }
                self._send(frame)
                if not self._await_ack(seq, manager, sub):
                    return
        except ProtocolViolation as exc:
            server._count("protocol_errors")
            self._send_error(exc)
        except OSError:
            pass
        finally:
            manager.unsubscribe(sub)

    def _await_ack(self, seq: int, manager, sub) -> bool:
        """Read ``replicate_ack`` frames until one covers ``seq``;
        stale re-acks from duplicated frames are recorded and skipped."""
        self.sock.settimeout(self.server.replication_ack_timeout_s)
        while True:
            frame = recv_frame(self.sock, self.server.max_frame_bytes)
            if frame is None or frame["type"] == "close":
                return False
            if frame["type"] != "replicate_ack":
                raise ProtocolViolation(
                    f"expected replicate_ack, got {frame['type']!r}"
                )
            try:
                manager.record_ack(sub, int(frame.get("applied", 0)))
            except (TypeError, ValueError):
                raise ProtocolViolation(
                    "replicate_ack requires integer 'applied'"
                ) from None
            if int(frame.get("seq", -1)) >= seq:
                return True


class DatabaseServer:
    """A socket server over one shared :class:`Database`.

    ``database=None`` creates (and owns) a fresh engine from the
    remaining keyword arguments; passing an existing database serves it
    without taking ownership — in-process sessions and network clients
    then run side by side under the same MVCC.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auth_token: Optional[str] = None,
        max_connections: int = 64,
        statement_timeout_ms: Optional[float] = None,
        idle_timeout_s: Optional[float] = None,
        handshake_timeout_s: float = 5.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        allow_reset: bool = True,
        replication: Optional[Any] = None,
        replication_heartbeat_s: float = 0.5,
        replication_ack_timeout_s: float = 10.0,
        **database_kwargs: Any,
    ) -> None:
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self._owns_database = database is None
        self.database = (
            Database(**database_kwargs) if database is None else database
        )
        self.host = host
        self._requested_port = port
        self.auth_token = auth_token
        self.max_connections = max_connections
        self.statement_timeout_ms = statement_timeout_ms
        self.idle_timeout_s = idle_timeout_s
        self.handshake_timeout_s = handshake_timeout_s
        self.max_frame_bytes = max_frame_bytes
        self.allow_reset = allow_reset
        #: a ReplicationManager serving ``replicate`` subscriptions
        #: (None: replication frames are refused with SQLSTATE 0A000)
        self.replication = replication
        self.replication_heartbeat_s = replication_heartbeat_s
        self.replication_ack_timeout_s = replication_ack_timeout_s
        #: set by a Replica wrapper: the ``promote`` admin frame calls it
        self.promote_hook = None
        #: set by Replica/Primary wrappers: serves ``replica_status``
        self.status_hook = None

        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._mutex = threading.Lock()
        self._handlers: set[_ClientHandler] = set()
        self._cancel_keys: dict[str, Any] = {}
        self._started = False
        self._closed = False
        self._draining = False
        self.stats = {
            "accepted": 0,
            "shed": 0,
            "statements": 0,
            "cancels": 0,
            "protocol_errors": 0,
            "auth_failures": 0,
            "idle_closed": 0,
            "handler_errors": 0,
            "replication_streams": 0,
            "promotions": 0,
        }

    # -- bookkeeping --------------------------------------------------------

    def _count(self, key: str) -> None:
        with self._mutex:
            self.stats[key] += 1

    def _register_cancel_key(self, key: str, session) -> None:
        with self._mutex:
            self._cancel_keys[key] = session

    def _session_for_cancel_key(self, key):
        with self._mutex:
            return self._cancel_keys.get(key) if isinstance(key, str) else None

    def _detach(self, handler: _ClientHandler) -> None:
        with self._mutex:
            self._handlers.discard(handler)
            if handler.cancel_key is not None:
                self._cancel_keys.pop(handler.cancel_key, None)

    @property
    def active_connections(self) -> int:
        with self._mutex:
            return len(self._handlers)

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._listener is None:
            return self._requested_port
        return self._listener.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "DatabaseServer":
        """Bind, listen (bounded backlog) and spawn the acceptor."""
        with self._mutex:
            if self._started:
                raise RuntimeError("server already started")
            self._started = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(_ACCEPT_BACKLOG)
        self._listener = listener
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-sql-acceptor", daemon=True
        )
        self._acceptor.start()
        return self

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener shut down or closed: stopping
            if self._draining:
                self._shed(sock, AdminShutdown("the server is shutting down"))
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._mutex:
                admitted = len(self._handlers) < self.max_connections
                if admitted:
                    # started under the mutex: a shutdown that lists the
                    # handler must find its thread joinable
                    handler = _ClientHandler(self, sock, peer)
                    self._handlers.add(handler)
                    handler.start()
                    self.stats["accepted"] += 1
                else:
                    self.stats["shed"] += 1
            if not admitted:
                self._shed(
                    sock,
                    TooManyConnections(
                        f"too many connections (max "
                        f"{self.max_connections}); retry shortly"
                    ),
                )

    def _shed(self, sock: socket.socket, exc: SQLError) -> None:
        """Refuse one connection with a typed error frame.

        Runs in a short-lived thread: the refusal waits for the client's
        hello (so the error frame is never lost to a half-open race)
        without ever blocking the acceptor.  Out-of-band **cancel**
        requests are honoured even over the connection limit — a loaded
        server must still let clients cancel the statements causing the
        load (PostgreSQL processes CancelRequest the same way)."""

        def refuse() -> None:
            try:
                sock.settimeout(self.handshake_timeout_s)
                first = None
                try:
                    first = recv_frame(sock, self.max_frame_bytes)
                except (ProtocolViolation, socket.timeout, OSError):
                    pass
                if first is not None and first["type"] == "cancel":
                    session = self._session_for_cancel_key(first.get("key"))
                    if session is not None:
                        self.database.cancel(session=session)
                        self._count("cancels")
                    send_frame(sock, {"type": "ok"})
                    try:
                        sock.close()
                    except OSError:
                        pass
                    return
                send_frame(sock, error_to_wire(exc))
                sock.shutdown(socket.SHUT_WR)
                # drain until the peer closes so the error frame lands
                sock.settimeout(1.0)
                try:
                    while sock.recv(4096):
                        pass
                except (socket.timeout, OSError):
                    pass
            except OSError:
                pass
            finally:
                try:
                    sock.close()
                except OSError:
                    pass

        threading.Thread(target=refuse, daemon=True).start()

    def serve_forever(self) -> None:
        """Block until interrupted, then shut down gracefully."""
        if not self._started:
            self.start()
        try:
            while not self._closed:
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def kill_connections(self) -> None:
        """Sever every client connection immediately — crash modelling:
        no error frame, no drain; peers see a reset mid-whatever.  The
        server itself stays up (use :meth:`shutdown` to stop it)."""
        with self._mutex:
            handlers = list(self._handlers)
        for handler in handlers:
            _force_close(handler.sock)

    def shutdown(self, drain_s: float = 5.0) -> None:
        """Graceful stop: no new connections, in-flight statements get
        ``drain_s`` seconds to finish (later requests are refused with
        SQLSTATE 57P01), stragglers are cooperatively cancelled, and
        every open transaction rolls back as its session closes."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            self._draining = True
            handlers = list(self._handlers)
        if self._listener is not None:
            _close_listener(self._listener)
        # idle connections can go immediately — shutting the socket down
        # pops their blocking recv and their teardown rolls back open txns
        for handler in handlers:
            if not handler.busy:
                _force_close(handler.sock)
        deadline = time.monotonic() + max(0.0, drain_s)
        while time.monotonic() < deadline and any(
            h.busy for h in handlers
        ):
            time.sleep(0.01)
        for handler in handlers:
            if handler.busy and handler.session is not None:
                self.database.cancel(session=handler.session)
            _force_close(handler.sock)
        for handler in handlers:
            handler.thread.join(timeout=5.0)
        if self._acceptor is not None:
            self._acceptor.join(timeout=5.0)
        if self._owns_database:
            self.database.close()

    def __enter__(self) -> "DatabaseServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sqldb.server",
        description="Serve a repro.sqldb engine over TCP "
        "(length-prefixed JSON protocol).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5433)
    parser.add_argument(
        "--profile", default="umbra", choices=("postgres", "umbra")
    )
    parser.add_argument("--auth-token", default=None)
    parser.add_argument("--max-connections", type=int, default=64)
    parser.add_argument("--statement-timeout-ms", type=float, default=None)
    parser.add_argument("--idle-timeout-s", type=float, default=None)
    parser.add_argument("--wal-path", default=None)
    parser.add_argument(
        "--init", default=None, metavar="SQL_FILE",
        help="run this SQL script before serving (schema / data load)",
    )
    args = parser.parse_args(argv)

    database = Database(args.profile, wal_path=args.wal_path)
    if args.init:
        with open(args.init, "r", encoding="utf-8") as handle:
            database.run_script(handle.read())
    server = DatabaseServer(
        database,
        host=args.host,
        port=args.port,
        auth_token=args.auth_token,
        max_connections=args.max_connections,
        statement_timeout_ms=args.statement_timeout_ms,
        idle_timeout_s=args.idle_timeout_s,
    )
    server.start()
    print(
        f"repro-sqldb serving profile {args.profile!r} "
        f"on {server.host}:{server.port}"
    )
    server.serve_forever()


if __name__ == "__main__":
    main()
