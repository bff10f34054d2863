"""Single-process HTTP load generator over raw keep-alive sockets.

One thread drives every connection through a selector, so the client
never needs more connections or threads than the host has cores.
Requests are pre-encoded bytes; responses are framed by
``Content-Length`` alone, which also handles several pipelined
responses arriving in one read and one response split over many.
"""

from __future__ import annotations

import collections
import random
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Deque, Iterator, List, Tuple

from workloads import Key

Request = Tuple[Key, bytes]


class FramingError(Exception):
    """The server sent bytes that are not a well-formed HTTP response."""


class ResponseParser:
    """Incremental HTTP/1.1 response framer: feed bytes, get whole responses."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Append ``data``; return every ``(status, body)`` now complete."""
        self._buffer += data
        out = []
        while True:
            head_end = self._buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return out
            lines = bytes(self._buffer[:head_end]).decode("latin-1").split("\r\n")
            parts = lines[0].split(" ", 2)
            if len(parts) < 2 or not parts[0].startswith("HTTP/") or not parts[1].isdigit():
                raise FramingError(f"bad status line {lines[0]!r}")
            length = None
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            if length is None:
                raise FramingError("response without Content-Length")
            total = head_end + 4 + length
            if len(self._buffer) < total:
                return out
            out.append((int(parts[1]), bytes(self._buffer[head_end + 4:total])))
            del self._buffer[:total]


@dataclass
class Sample:
    """One completed request."""

    key: Key
    status: int
    body: bytes
    #: Seconds from send (closed loop) or from due time (open loop) to done.
    latency: float
    #: ``time.perf_counter()`` when the last byte was parsed.
    done: float
    #: Open loop only: how late the generator sent it, in seconds.
    lateness: float = 0.0


@dataclass
class PhaseResult:
    start: float
    end: float
    samples: List[Sample] = field(default_factory=list)
    attempted: int = 0
    #: Non-200 responses, short reads, framing errors and timeouts.
    failed: int = 0
    #: Client CPU seconds spent in the phase.
    cpu: float = 0.0
    #: ``time.time()`` at start and after the last response (to match spans).
    wall_start: float = 0.0
    wall_end: float = 0.0

    @property
    def ok(self) -> List[Sample]:
        return [s for s in self.samples if s.status == 200]


class _Connection:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.parser = ResponseParser()
        #: (key, reference time, lateness, send time) per outstanding request.
        self.pending: Deque[Tuple[Key, float, float, float]] = collections.deque()
        self.out = bytearray()


class LoadGenerator:
    """Closed- and open-loop phases over ``connections`` keep-alive sockets."""

    def __init__(self, port: int, connections: int = 2, timeout: float = 5.0):
        self.port = port
        self.timeout = timeout
        self._selector = selectors.DefaultSelector()
        self._conns = [self._open() for _ in range(connections)]

    def close(self) -> None:
        for conn in self._conns:
            self._selector.unregister(conn.sock)
            conn.sock.close()
        self._conns = []
        self._selector.close()

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection plumbing -------------------------------------------
    def _open(self) -> _Connection:
        conn = _Connection(self.port)
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        return conn

    def _fail_connection(self, conn: _Connection, result: PhaseResult) -> None:
        """Count everything outstanding on ``conn`` as failed; reconnect."""
        result.failed += len(conn.pending)
        self._selector.unregister(conn.sock)
        conn.sock.close()
        self._conns[self._conns.index(conn)] = self._open()

    def _send(self, conn: _Connection, request: Request, ref: float,
              lateness: float = 0.0) -> None:
        key, data = request
        conn.pending.append((key, ref, lateness, time.perf_counter()))
        if conn.out:
            conn.out += data
            return
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        if sent < len(data):
            conn.out += data[sent:]
            self._selector.modify(conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        del conn.out[:sent]
        if not conn.out:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)

    def _poll(self, timeout: float, result: PhaseResult) -> None:
        """Wait up to ``timeout`` for I/O; record completed responses."""
        for selector_key, mask in self._selector.select(timeout):
            conn = selector_key.data
            if mask & selectors.EVENT_WRITE:
                self._flush(conn)
            if not mask & selectors.EVENT_READ:
                continue
            try:
                data = conn.sock.recv(1 << 16)
            except BlockingIOError:
                continue
            except OSError:
                data = b""
            if not data:  # server hung up: a short read for all outstanding
                self._fail_connection(conn, result)
                continue
            try:
                responses = conn.parser.feed(data)
            except FramingError:
                responses = None
            if responses is None or len(responses) > len(conn.pending):
                self._fail_connection(conn, result)
                continue
            now = time.perf_counter()
            for status, body in responses:
                key, ref, lateness, _ = conn.pending.popleft()
                result.samples.append(Sample(key, status, body, now - ref, now, lateness))
                if status != 200:
                    result.failed += 1
        now = time.perf_counter()
        for conn in list(self._conns):
            if conn.pending and now - conn.pending[0][3] > self.timeout:
                self._fail_connection(conn, result)

    # -- phases ----------------------------------------------------------
    def closed_loop(self, requests: Iterator[Request], seconds: float) -> PhaseResult:
        """Each connection sends its next request when the previous returns."""
        cpu0 = time.process_time()
        start = time.perf_counter()
        result = PhaseResult(start, start + seconds, wall_start=time.time())
        while True:
            if time.perf_counter() < result.end:
                for conn in self._conns:
                    if not conn.pending:
                        self._send(conn, next(requests), time.perf_counter())
                        result.attempted += 1
            elif not any(conn.pending for conn in self._conns):
                break
            self._poll(0.05, result)
        result.cpu = time.process_time() - cpu0
        result.wall_end = time.time()
        return result

    def open_loop(self, requests: Iterator[Request], rate: float,
                  rng: random.Random, seconds: float) -> PhaseResult:
        """Seeded Poisson arrivals, pipelined round-robin over the connections.

        Latency runs from each request's due time, so a stall that delays
        later sends is charged to them.
        """
        cpu0 = time.process_time()
        start = time.perf_counter()
        result = PhaseResult(start, start + seconds, wall_start=time.time())
        due = start + rng.expovariate(rate)
        turn = 0
        while True:
            now = time.perf_counter()
            while due <= now and due < result.end:
                conn = self._conns[turn % len(self._conns)]
                self._send(conn, next(requests), due, now - due)
                result.attempted += 1
                turn += 1
                due += rng.expovariate(rate)
            sending = due < result.end
            if not sending and not any(conn.pending for conn in self._conns):
                break
            wait = max(0.0, due - time.perf_counter()) if sending else 0.05
            self._poll(min(wait, 0.05), result)
        result.cpu = time.process_time() - cpu0
        result.wall_end = time.time()
        return result

