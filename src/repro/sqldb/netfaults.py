"""Frame-aware TCP fault proxy for chaos-testing the wire layer.

:class:`FaultProxy` sits between a client (a query connection or a
replica's replication stream) and an upstream
:class:`~repro.sqldb.server.DatabaseServer`, parsing the protocol's
4-byte length-prefixed frames off each direction and acting out what a
:class:`~repro.sqldb.faults.Faults` armed at the wire points
(``wire.c2s``, ``wire.s2c``; one pass per frame) returns: dropped frames,
back-to-back duplicates, torn frames (the first half of the bytes
followed by a dead connection), delivery delays, and full partitions (an
every-pass ``drop`` on both points).  Because the proxy understands
framing, every injected fault lands on a *message* boundary-or-worse —
precisely the failure
shapes the replication stream's seq/ack/reconnect machinery and the
client's retry loops must absorb.

The proxy is transparent: point the downstream side at
``proxy.address`` instead of the server's own, and nothing else
changes.  Tests drive topology faults through it::

    faults = Faults(seed=7)
    for point in ("wire.c2s", "wire.s2c"):
        faults.arm(point, "drop", hits=None, p=0.02)
        faults.arm(point, "tear", hits=None, p=0.01)
    proxy = FaultProxy(primary.address, faults=faults).start()
    replica = Replica(proxy.address).start()
    ...
    faults.arm("wire.c2s", "drop", hits=None)   # blackhole one direction
    proxy.kill_links()            # or reset every connection outright
    faults.arm("wire.c2s", "drop", hits=None, p=0.02)   # heal it
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Optional

from repro.sqldb.faults import Faults

__all__ = ["FaultProxy"]

_HEADER = struct.Struct(">I")

#: frames with a larger declared payload are forwarded unparsed-length
#: sanity failures — the link is reset (a confused peer, not a fault)
_MAX_FRAME_BYTES = 64 * 1024 * 1024


def _close_quietly(sock: Optional[socket.socket]) -> None:
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 65536))
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _Link:
    """One proxied connection: client socket, upstream socket, two pumps."""

    def __init__(self, proxy: "FaultProxy", client: socket.socket,
                 upstream: socket.socket) -> None:
        self.proxy = proxy
        self.client = client
        self.upstream = upstream
        self._dead = threading.Event()
        self.threads = [
            threading.Thread(
                target=self._pump, args=(client, upstream, "wire.c2s"),
                name="repro-faultproxy-c2s", daemon=True,
            ),
            threading.Thread(
                target=self._pump, args=(upstream, client, "wire.s2c"),
                name="repro-faultproxy-s2c", daemon=True,
            ),
        ]

    def start(self) -> None:
        for thread in self.threads:
            thread.start()

    def kill(self) -> None:
        if self._dead.is_set():
            return
        self._dead.set()
        _close_quietly(self.client)
        _close_quietly(self.upstream)
        self.proxy._forget(self)

    def _pump(self, src: socket.socket, dst: socket.socket,
              point: str) -> None:
        faults = self.proxy.faults
        try:
            while not self._dead.is_set():
                header = _recv_exact(src, _HEADER.size)
                if header is None:
                    break
                (length,) = _HEADER.unpack(header)
                if length > _MAX_FRAME_BYTES:
                    break  # not a protocol frame; reset the link
                payload = _recv_exact(src, length) if length else b""
                if payload is None and length:
                    break
                frame = header + (payload or b"")
                action = faults.hit(point)  # a "delay" was served here
                if action == "drop":
                    continue
                if action == "tear":
                    try:
                        dst.sendall(frame[: max(1, len(frame) // 2)])
                    except OSError:
                        pass
                    break  # the link dies mid-frame
                try:
                    dst.sendall(frame)
                    if action == "duplicate":
                        dst.sendall(frame)
                except OSError:
                    break
        finally:
            self.kill()


class FaultProxy:
    """Length-prefix-aware TCP proxy applying injected network faults."""

    def __init__(
        self,
        upstream: tuple[str, int],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        faults: Optional[Faults] = None,
        connect_timeout_s: float = 5.0,
    ) -> None:
        self.upstream = (str(upstream[0]), int(upstream[1]))
        self.host = host
        self._requested_port = port
        self.faults = faults if faults is not None else Faults()
        self.connect_timeout_s = connect_timeout_s
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._mutex = threading.Lock()
        self._links: set[_Link] = set()
        self._closed = False

    @property
    def port(self) -> int:
        if self._listener is None:
            return self._requested_port
        return self._listener.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "FaultProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(16)
        self._listener = listener
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-faultproxy-accept",
            daemon=True,
        )
        self._acceptor.start()
        return self

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                upstream = socket.create_connection(
                    self.upstream, timeout=self.connect_timeout_s
                )
            except OSError:
                _close_quietly(client)
                continue
            upstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            link = _Link(self, client, upstream)
            with self._mutex:
                if self._closed:
                    link.kill()
                    continue
                self._links.add(link)
            link.start()

    def _forget(self, link: _Link) -> None:
        with self._mutex:
            self._links.discard(link)

    def kill_links(self) -> None:
        """Reset every proxied connection (both sockets, mid-whatever)."""
        with self._mutex:
            links = list(self._links)
        for link in links:
            link.kill()

    def close(self) -> None:
        with self._mutex:
            self._closed = True
        if self._listener is not None:
            _close_quietly(self._listener)
        self.kill_links()
        if self._acceptor is not None:
            self._acceptor.join(timeout=5.0)
