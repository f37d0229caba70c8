"""Wire-protocol codec units and server abuse tests.

The codec tests pin the framing contract (clean EOF vs torn frame,
oversized length rejected before allocation, JSON shape enforced).  The
abuse tests throw hostile byte streams at a live server — garbage
headers, oversized frames, mid-frame disconnects, pre-handshake
nonsense, cancel racing completion — and assert the invariant that
matters: no worker thread crash, the server keeps serving well-formed
clients, and the engine's session registry is restored to its baseline
(no leaked sessions, ever)."""

import socket
import struct
import threading
import time

import pytest

from repro.errors import ProtocolViolation, QueryCancelled, SQLSyntaxError
from repro.sqldb import client
from repro.sqldb.engine import Database
from repro.sqldb.vector import to_rows
from repro.sqldb.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    error_to_wire,
    exception_from_wire,
    recv_frame,
    send_frame,
)
from repro.sqldb.server import DatabaseServer

pytestmark = pytest.mark.server


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class _Pipe:
    """A connected local socket pair for codec tests."""

    def __enter__(self):
        self.a, self.b = socket.socketpair()
        return self.a, self.b

    def __exit__(self, *exc):
        for sock in (self.a, self.b):
            try:
                sock.close()
            except OSError:
                pass


class TestFrameCodec:
    def test_roundtrip(self):
        with _Pipe() as (a, b):
            send_frame(a, {"type": "query", "sql": "SELECT 1", "n": 7})
            assert recv_frame(b) == {
                "type": "query",
                "sql": "SELECT 1",
                "n": 7,
            }

    def test_clean_eof_is_none(self):
        with _Pipe() as (a, b):
            a.close()
            assert recv_frame(b) is None

    def test_eof_mid_header_is_torn_frame(self):
        with _Pipe() as (a, b):
            a.sendall(b"\x00\x00")  # half a length prefix
            a.close()
            with pytest.raises(ProtocolViolation):
                recv_frame(b)

    def test_eof_mid_payload_is_torn_frame(self):
        with _Pipe() as (a, b):
            frame = encode_frame({"type": "query", "sql": "SELECT 1"})
            a.sendall(frame[: len(frame) - 3])
            a.close()
            with pytest.raises(ProtocolViolation):
                recv_frame(b)

    def test_oversized_length_rejected_before_allocation(self):
        with _Pipe() as (a, b):
            a.sendall(struct.pack(">I", 2**31))
            with pytest.raises(ProtocolViolation, match="exceeds"):
                recv_frame(b, max_bytes=1024)

    def test_undecodable_json_rejected(self):
        with _Pipe() as (a, b):
            payload = b"\xff\xfenot json"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolViolation, match="undecodable"):
                recv_frame(b)

    def test_non_object_payload_rejected(self):
        with _Pipe() as (a, b):
            payload = b"[1,2,3]"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolViolation, match="object"):
                recv_frame(b)

    def test_missing_type_rejected(self):
        with _Pipe() as (a, b):
            payload = b'{"sql":"SELECT 1"}'
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolViolation, match="'type'"):
                recv_frame(b)

    def test_numpy_scalars_encode(self):
        numpy = pytest.importorskip("numpy")
        frame = encode_frame(
            {"type": "x", "a": numpy.int64(7), "b": numpy.float64(1.5)}
        )
        with _Pipe() as (a, b):
            a.sendall(frame)
            assert recv_frame(b) == {"type": "x", "a": 7, "b": 1.5}


class TestResultWire:
    def test_roundtrip(self):
        db = Database()
        db.execute("CREATE TABLE t (a int, b text)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
        result = db.execute("SELECT a, b FROM t ORDER BY a")
        with _Pipe() as (a, b):
            send_frame(
                a, {"type": "results", "results": [result], "in_transaction": 0}
            )
            frame = recv_frame(b)
        assert frame["type"] == "results" and frame["in_transaction"] == 0
        [back] = frame["results"]
        assert back["columns"] == ["a", "b"]
        assert to_rows(back["vectors"]) == [(1, "x"), (2, None)]
        assert back["rowcount"] == 2
        assert back["statement"] == result.statement


class TestErrorWire:
    def test_engine_error_roundtrips_class_and_sqlstate(self):
        wire = error_to_wire(SQLSyntaxError("bad token"))
        exc = exception_from_wire(wire)
        assert isinstance(exc, SQLSyntaxError)
        assert exc.sqlstate == "42601"
        assert "bad token" in str(exc)

    def test_unknown_class_falls_back_to_sqlerror(self):
        from repro.errors import SQLError

        exc = exception_from_wire(
            {
                "type": "error",
                "error_class": "NoSuchThing",
                "sqlstate": "57014",
                "message": "boom",
            }
        )
        assert type(exc) is SQLError
        assert exc.sqlstate == "57014"  # sqlstate still travels verbatim

    def test_internal_error_reported_as_xx000(self):
        wire = error_to_wire(RuntimeError("worker bug"))
        assert wire["sqlstate"] == "XX000"
        assert "worker bug" in wire["message"]


@pytest.fixture
def served():
    db = Database("umbra")
    db.execute("CREATE TABLE t (a int)")
    db.execute("INSERT INTO t (a) VALUES (1), (2)")
    server = DatabaseServer(db, handshake_timeout_s=2.0).start()
    yield server, db
    server.shutdown(drain_s=2.0)
    db.close()


def _raw(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _sessions_restored(db, baseline):
    # teardown is asynchronous (worker thread unwinding); poll briefly
    return wait_until(lambda: len(db._sessions) == baseline)


def _still_serves(server):
    with client.connect("127.0.0.1", server.port) as conn:
        rows = conn.cursor().execute("SELECT a FROM t ORDER BY a").fetchall()
    assert rows == [(1,), (2,)]


class TestServerAbuse:
    def test_garbage_header_gets_error_and_close(self, served):
        server, db = served
        baseline = len(db._sessions)
        with _raw(server) as sock:
            sock.sendall(struct.pack(">I", 2**31))  # absurd length prefix
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["sqlstate"] == "08P01"
            assert recv_frame(sock) is None  # server hangs up
        assert _sessions_restored(db, baseline)
        assert server.stats["protocol_errors"] >= 1
        _still_serves(server)

    def test_undecodable_payload_pre_handshake(self, served):
        server, db = served
        baseline = len(db._sessions)
        with _raw(server) as sock:
            sock.sendall(struct.pack(">I", 4) + b"\xff\xff\xff\xff")
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["sqlstate"] == "08P01"
        assert _sessions_restored(db, baseline)
        _still_serves(server)

    def test_mid_frame_disconnect_pre_handshake(self, served):
        server, db = served
        baseline = len(db._sessions)
        sock = _raw(server)
        frame = encode_frame({"type": "hello", "version": PROTOCOL_VERSION})
        sock.sendall(frame[:-2])
        sock.close()  # vanish mid-frame
        assert _sessions_restored(db, baseline)
        _still_serves(server)

    def test_mid_frame_disconnect_after_handshake(self, served):
        server, db = served
        baseline = len(db._sessions)
        sock = _raw(server)
        send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION})
        assert recv_frame(sock)["type"] == "hello_ok"
        assert wait_until(lambda: len(db._sessions) == baseline + 1)
        frame = encode_frame({"type": "query", "sql": "SELECT 1"})
        sock.sendall(frame[:-5])
        sock.close()
        # the half-open session must be torn down, not leaked
        assert _sessions_restored(db, baseline)
        _still_serves(server)

    def test_oversized_frame_after_handshake(self, served):
        server, db = served
        server.max_frame_bytes = 1024
        baseline = len(db._sessions)
        with _raw(server) as sock:
            send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION})
            assert recv_frame(sock)["type"] == "hello_ok"
            big = encode_frame({"type": "query", "sql": "x" * 4096})
            sock.sendall(big)
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["sqlstate"] == "08P01"
        assert _sessions_restored(db, baseline)
        _still_serves(server)

    def test_first_frame_not_hello(self, served):
        server, db = served
        baseline = len(db._sessions)
        with _raw(server) as sock:
            send_frame(sock, {"type": "query", "sql": "SELECT 1"})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["sqlstate"] == "08P01"
        assert _sessions_restored(db, baseline)
        _still_serves(server)

    def test_version_mismatch_refused(self, served):
        server, db = served
        baseline = len(db._sessions)
        with _raw(server) as sock:
            send_frame(sock, {"type": "hello", "version": 999})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["sqlstate"] == "08P01"
            assert "version" in reply["message"]
        assert _sessions_restored(db, baseline)
        _still_serves(server)

    def test_version_1_hello_refused(self, served):
        """A v1 client expects JSON rows; v2 ships binary columns, so the
        handshake refuses it instead of sending frames it cannot read."""
        server, db = served
        assert PROTOCOL_VERSION == 2
        baseline = len(db._sessions)
        with _raw(server) as sock:
            send_frame(sock, {"type": "hello", "version": 1})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["sqlstate"] == "08P01"
            assert "version" in reply["message"]
        assert _sessions_restored(db, baseline)
        _still_serves(server)

    def test_binary_results_frame_from_a_client_is_refused(self, served):
        server, db = served
        baseline = len(db._sessions)
        result = db.execute("SELECT a, a > 1 AS big FROM t")
        with _raw(server) as sock:
            send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION})
            assert recv_frame(sock)["type"] == "hello_ok"
            send_frame(sock, {"type": "results", "results": [result]})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["sqlstate"] == "08P01"
        assert _sessions_restored(db, baseline)
        # the worker survived: the server keeps serving
        _still_serves(server)

    def test_silent_client_times_out_at_handshake(self, served):
        server, db = served
        baseline = len(db._sessions)
        with _raw(server) as sock:
            sock.settimeout(10.0)
            # send nothing: the handshake timeout (2 s) must reap us
            assert recv_frame(sock) is None
        assert _sessions_restored(db, baseline)
        _still_serves(server)

    def test_unknown_message_type_after_handshake(self, served):
        server, db = served
        baseline = len(db._sessions)
        with _raw(server) as sock:
            send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION})
            assert recv_frame(sock)["type"] == "hello_ok"
            send_frame(sock, {"type": "flarble"})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["sqlstate"] == "08P01"
        assert _sessions_restored(db, baseline)
        _still_serves(server)

    @pytest.mark.parametrize(
        "kind", ["begin", "commit", "rollback", "explain_analyze", "analyze"]
    )
    def test_sql_requests_have_no_frames_of_their_own(self, served, kind):
        """Transaction control, EXPLAIN ANALYZE and ANALYZE are SQL text in
        a ``query`` frame; a frame of their name is an unknown type."""
        server, db = served
        with _raw(server) as sock:
            send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION})
            assert recv_frame(sock)["type"] == "hello_ok"
            send_frame(sock, {"type": kind, "sql": "SELECT a FROM t"})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["sqlstate"] == "08P01"
        _still_serves(server)

    def test_query_frame_without_sql_string(self, served):
        server, db = served
        with _raw(server) as sock:
            send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION})
            assert recv_frame(sock)["type"] == "hello_ok"
            send_frame(sock, {"type": "query", "sql": 42})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["sqlstate"] == "08P01"
        _still_serves(server)


class TestAuth:
    def test_bad_token_refused_good_token_admitted(self):
        db = Database("umbra")
        db.execute("CREATE TABLE t (a int)")
        with DatabaseServer(db, auth_token="sesame") as server:
            with pytest.raises(Exception) as info:
                client.connect(
                    "127.0.0.1", server.port, auth_token="wrong"
                )
            assert getattr(info.value, "sqlstate", None) == "28000"
            with pytest.raises(Exception) as info:
                client.connect("127.0.0.1", server.port)  # token omitted
            assert getattr(info.value, "sqlstate", None) == "28000"
            assert server.stats["auth_failures"] == 2
            assert len(db._sessions) == 1  # only the default session

            with client.connect(
                "127.0.0.1", server.port, auth_token="sesame"
            ) as conn:
                cur = conn.cursor().execute("SELECT count(*) FROM t")
                assert cur.fetchone() == (0,)
        db.close()


class TestCancelRaces:
    def test_cancel_after_completion_is_harmless(self, served):
        """The OOB cancel racing a statement that already finished must
        not poison the *next* statement on that session."""
        server, db = served
        with client.connect("127.0.0.1", server.port) as conn:
            cur = conn.cursor().execute("SELECT a FROM t ORDER BY a")
            assert cur.fetchall() == [(1,), (2,)]
            conn.cancel()  # statement already done: nothing in flight
            assert wait_until(lambda: server.stats["cancels"] == 1)
            cur = conn.cursor().execute("SELECT count(*) FROM t")
            assert cur.fetchone() == (2,)

    def test_bogus_cancel_key_silently_ignored(self, served):
        server, db = served
        with _raw(server) as sock:
            send_frame(sock, {"type": "cancel", "key": "deadbeef"})
            assert recv_frame(sock)["type"] == "ok"  # no probing oracle
        assert server.stats["cancels"] == 0
        _still_serves(server)

    def test_cancel_key_without_string_ignored(self, served):
        server, db = served
        with _raw(server) as sock:
            send_frame(sock, {"type": "cancel", "key": 12345})
            assert recv_frame(sock)["type"] == "ok"
        _still_serves(server)

    def test_cancel_racing_completion_stress(self, served):
        """Fire cancels while short statements run back to back: every
        statement must either succeed or fail with 57014 — never a torn
        connection, never a leaked session."""
        server, db = served
        baseline = len(db._sessions)
        conn = client.connect("127.0.0.1", server.port)
        stop = threading.Event()

        def cancel_loop():
            while not stop.is_set():
                conn.cancel()
                time.sleep(0.002)  # bound the OOB connection churn

        canceller = threading.Thread(target=cancel_loop, daemon=True)
        canceller.start()
        completed = cancelled = 0
        try:
            for _ in range(30):
                try:
                    cur = conn.cursor().execute("SELECT count(*) FROM t")
                    assert cur.fetchone() == (2,)
                    completed += 1
                except QueryCancelled:
                    cancelled += 1
        finally:
            stop.set()
            canceller.join(timeout=10)
            conn.close()
        assert completed + cancelled == 30
        assert _sessions_restored(db, baseline)
        _still_serves(server)
