"""HTTP/1.1 load generation over keep-alive connections.

Raw sockets and a hand-rolled response parser keep the client cheap
enough that the single-process server, not the generator, is the
bottleneck.  Every response is kept as ``(target index, status, body)``
and checked after its phase, outside the timed region.
:class:`Spinners` keeps the machine's CPUs from idling while it runs.
"""

from __future__ import annotations

import collections
import os
import selectors
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

Response = Tuple[int, int, bytes]
#: The open loop stops sleeping this long before a request is due.
SPIN_S = 0.0001


def request_bytes(method: str, target: str) -> bytes:
    return (f"{method} {target} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Length: 0\r\n\r\n").encode("utf-8")


class Connection:
    """One keep-alive client connection; ``port`` is its local port,
    which the traced server records as the request's connection id."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.port = self.sock.getsockname()[1]
        self.buffer = bytearray()

    def close(self) -> None:
        self.sock.close()

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def parse(self) -> Optional[Tuple[int, bytes]]:
        """The next buffered response, or ``None`` if it is incomplete."""
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self.buffer[:end]).lower()
        at = head.find(b"content-length:")
        if at < 0:
            raise ConnectionError("response without Content-Length")
        stop = head.find(b"\r\n", at)
        length = int(head[at + 15:stop if stop >= 0 else len(head)])
        total = end + 4 + length
        if len(self.buffer) < total:
            return None
        status = int(head[9:12])
        body = bytes(self.buffer[end + 4:total])
        del self.buffer[:total]
        return status, body

    def read(self) -> Tuple[int, bytes]:
        """The next response: ``(status, body)``."""
        while True:
            response = self.parse()
            if response is not None:
                return response
            self._fill()

    def call(self, method: str, target: str) -> Tuple[int, bytes]:
        self.send(request_bytes(method, target))
        return self.read()


def _run_threads(workers) -> None:
    """Run the workers on threads; re-raise the first one's error here."""
    errors: List[BaseException] = []

    def guarded(work):
        try:
            work()
        except Exception as error:  # thread boundary: re-raised below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(work,))
               for work in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def pipelined(
    port: int,
    requests: Sequence[bytes],
    streams: Sequence[Sequence[int]],
    window: int,
    until: Optional[float] = None,
) -> Tuple[List[Response], float, List[Tuple[float, int]]]:
    """Closed loop: each connection sends ``window`` requests, reads their
    responses, and repeats; connection ``c`` walks ``streams[c]`` (target
    indices).  Stops at the end of the streams or at ``until``.

    Returns the responses, the first send time, and the completion time
    and size of every window, in time order.
    """
    responses: List[List[Response]] = [[] for _ in streams]
    marks: List[List[Tuple[float, int]]] = [[] for _ in streams]
    connections = [Connection(port) for _ in streams]
    begin = time.perf_counter()

    def worker(index: int):
        connection, stream, got = (connections[index], streams[index],
                                   responses[index])
        for start in range(0, len(stream), window):
            if until is not None and time.perf_counter() >= until:
                break
            batch = stream[start:start + window]
            connection.send(b"".join(requests[i] for i in batch))
            for target in batch:
                status, body = connection.read()
                got.append((target, status, body))
            marks[index].append((time.perf_counter(), len(batch)))

    try:
        _run_threads([lambda i=i: worker(i) for i in range(len(streams))])
    finally:
        for connection in connections:
            connection.close()
    return ([r for per in responses for r in per], begin,
            sorted(mark for per in marks for mark in per))


class OpenLoop:
    """Open loop: request ``i`` is due at ``start + i / rate`` whether or
    not earlier ones were answered; requests alternate over the
    connections (HTTP/1.1 pipelining keeps a busy one usable).  Latency
    runs from the due time, so a stall also charges the requests queued
    behind it.  One thread sends and receives (``selectors``), so the
    generator never waits for the interpreter lock to send on time."""

    def __init__(self, port: int, requests: Sequence[bytes],
                 stream: Sequence[int], rate: float, connections: int = 2):
        self.requests, self.stream, self.rate = requests, stream, rate
        self.connections = [Connection(port) for _ in range(connections)]
        self.due = [0.0] * len(stream)
        self.sent_at = [0.0] * len(stream)
        self.done_at = [0.0] * len(stream)
        self.responses: List[Optional[Response]] = [None] * len(stream)
        #: (send time, requests outstanding) sampled at every send.
        self.backlog: List[Tuple[float, int]] = []
        #: Request index → (connection's local port, sequence number).
        self.ids: Dict[int, Tuple[int, int]] = {}

    def run(self, timeout: float = 30.0) -> None:
        count, total = len(self.connections), len(self.stream)
        pending = [collections.deque() for _ in self.connections]
        sequence = [0] * count
        # select(2) takes microsecond timeouts; epoll rounds up to 1 ms,
        # which would make every send up to 1 ms late.
        selector = selectors.SelectSelector()
        for c, connection in enumerate(self.connections):
            selector.register(connection.sock, selectors.EVENT_READ, c)
        start = time.perf_counter() + 0.01
        self.due = [start + index / self.rate for index in range(total)]
        sent = received = 0
        last_progress = time.perf_counter()
        try:
            while received < total:
                now = time.perf_counter()
                while sent < total and self.due[sent] <= now:
                    c = sent % count
                    connection = self.connections[c]
                    self.ids[sent] = (connection.port, sequence[c])
                    sequence[c] += 1
                    pending[c].append(sent)
                    connection.send(self.requests[self.stream[sent]])
                    now = time.perf_counter()
                    self.sent_at[sent] = now
                    sent += 1
                    self.backlog.append((now, sent - received))
                wait = self.due[sent] - now if sent < total else timeout
                if wait < SPIN_S:
                    # Spin through the last stretch: a sleeping thread
                    # wakes tens of microseconds late.
                    wait = 0.0
                else:
                    wait -= SPIN_S
                for key, _ in selector.select(wait):
                    c = key.data
                    connection = self.connections[c]
                    connection._fill()
                    stamp = time.perf_counter()
                    while True:
                        response = connection.parse()
                        if response is None:
                            break
                        index = pending[c].popleft()
                        self.done_at[index] = stamp
                        self.responses[index] = (self.stream[index],) + response
                        received += 1
                        last_progress = stamp
                if time.perf_counter() - last_progress > timeout:
                    raise TimeoutError("open loop: no response for "
                                       f"{timeout:.0f} s")
        finally:
            selector.close()
            for connection in self.connections:
                connection.close()


def _spin(cpu: int, parent: int) -> None:
    """Keep CPU ``cpu`` busy at the lowest priority (SCHED_IDLE) until
    stopped, or until the process that started the loop has gone."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while os.getppid() == parent:
        for _ in range(100000):
            pass


class Spinners:
    """One lowest-priority busy loop per CPU for the duration of a run.

    On a virtual machine an idle vCPU halts, and waking it costs a trip
    through the host's scheduler: milliseconds on a busy host, counted as
    steal time.  A request-response workload idles and wakes both vCPUs
    thousands of times a second, so its latency would measure the host.
    A SCHED_IDLE loop keeps each vCPU running without taking CPU from
    the server or the client, which preempt it at once.

    Each loop is a plain child process (this file run as a script) that
    :meth:`close` terminates and reaps; ``multiprocessing`` is not used,
    as its resource tracker would outlive the benchmark.
    """

    def __init__(self) -> None:
        self.processes: List[subprocess.Popen] = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self.processes.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), str(cpu),
                     str(os.getpid())],
                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE))
            # Started before anything is timed: their own start-up would
            # otherwise land in the first server's set-up time.
            for process in self.processes:
                if process.stdout.readline() != b"ready\n":
                    raise RuntimeError("CPU spinners did not start")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()


if __name__ == "__main__":
    _spin(int(sys.argv[1]), int(sys.argv[2]))
