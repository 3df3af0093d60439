"""Zero-dependency asyncio HTTP layer over the evolution query service.

``asyncio.start_server`` plus a hand-rolled HTTP/1.1 request loop keeps
the service deployable on a bare Python — no pip installs — while still
handling many concurrent keep-alive clients (the CI load test in
``benchmarks/test_ci_gates.py`` drives a hundred).  The
layer is deliberately dumb: parse the request line, read the headers,
discard the request body its ``Content-Length`` announces (every
endpoint is parameterised by the target alone), hand
``(method, target)`` to
:meth:`repro.service.core.EvolutionQueryService.handle_request`, frame
the canonical JSON body with ``Content-Length``.  Requests the loop
cannot frame — chunked bodies, malformed or conflicting lengths,
oversized heads or bodies — get a 4xx/501 answer and a close.
Everything observable about responses is decided in
:mod:`repro.service.core`; an ASGI server deployment goes through
:mod:`repro.service.asgi` instead.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

from .core import EvolutionQueryService, canonical_json

#: Upper bound on request head (request line + headers) bytes; beyond it
#: the connection is answered 431 and closed.
MAX_REQUEST_HEAD = 32 * 1024
#: Upper bound on a request body, which is read and discarded; a larger
#: ``Content-Length`` is answered 413 and the connection closed.
MAX_REQUEST_BODY = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


class RequestRejected(ValueError):
    """A request head the loop cannot serve: answered ``status``, then
    the connection is closed."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status


def _frame(status: int, body: bytes, keep_alive: bool) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


def _parse_head(head: bytes) -> Tuple[str, str, bool, int]:
    """(method, target, keep_alive, body length) from one raw request
    head; raises :class:`RequestRejected`."""
    lines = head.split(b"\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise RequestRejected(
            400, f"malformed request line: {lines[0][:80]!r}"
        )
    method = parts[0].decode("ascii", "replace").upper()
    target = parts[1].decode("utf-8", "replace")
    version = parts[2].decode("ascii", "replace")
    keep_alive = version == "HTTP/1.1"
    lengths = set()
    for line in lines[1:]:
        if b":" not in line:
            continue
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        value = value.strip()
        if name == b"connection":
            token = value.lower()
            if token == b"close":
                keep_alive = False
            elif token == b"keep-alive":
                keep_alive = True
        elif name == b"transfer-encoding":
            raise RequestRejected(501, "Transfer-Encoding is not supported")
        elif name == b"content-length":
            if not value.isdigit():
                raise RequestRejected(
                    400, f"malformed Content-Length: {value[:40]!r}"
                )
            if len(value) > 18:  # int() refuses past 4300 digits
                raise RequestRejected(
                    413, f"Content-Length of {len(value)} digits"
                )
            lengths.add(int(value))
    if len(lengths) > 1:
        raise RequestRejected(400, "conflicting Content-Length headers")
    length = lengths.pop() if lengths else 0
    if length > MAX_REQUEST_BODY:
        raise RequestRejected(
            413, f"request body of {length} bytes exceeds {MAX_REQUEST_BODY}"
        )
    return method, target, keep_alive, length


async def handle_connection(
    service: EvolutionQueryService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection: a keep-alive loop of GET/POST
    requests (bodies are read and discarded — every endpoint is
    parameterised by the target alone)."""
    try:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                return  # client went away between requests
            except asyncio.LimitOverrunError:
                writer.write(
                    _frame(431, canonical_json({"error": "headers too large"}),
                           keep_alive=False)
                )
                await writer.drain()
                return
            if len(head) > MAX_REQUEST_HEAD:
                writer.write(
                    _frame(431, canonical_json({"error": "headers too large"}),
                           keep_alive=False)
                )
                await writer.drain()
                return
            try:
                method, target, keep_alive, length = _parse_head(head)
            except RequestRejected as error:
                writer.write(
                    _frame(error.status, canonical_json({"error": str(error)}),
                           keep_alive=False)
                )
                await writer.drain()
                return
            if length:
                try:
                    await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    return  # client went away mid-body
            status, body = service.handle_request(method, target)
            writer.write(_frame(status, body, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        # close() alone: awaiting wait_closed() here trips asyncio's
        # stream-protocol callback when the server cancels handler
        # tasks on shutdown (the close still completes in the loop).
        writer.close()


async def start_service_server(
    service: EvolutionQueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
) -> asyncio.AbstractServer:
    """Bind and return the listening server (``port=0`` picks a free
    port — ``server.sockets[0].getsockname()`` reveals it)."""

    async def _client(reader, writer):
        try:
            await handle_connection(service, reader, writer)
        except asyncio.CancelledError:
            # server.close() cancels tasks parked on idle keep-alive
            # connections; asyncio's stream protocol would log that
            # cancellation as an "Exception in callback" otherwise.
            pass

    return await asyncio.start_server(
        _client, host=host, port=port, limit=MAX_REQUEST_HEAD
    )


def serve(
    service: EvolutionQueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    ready: Optional[object] = None,
) -> None:
    """Blocking entry point of ``repro serve``: run until interrupted.

    ``ready`` (any object with ``set()``, e.g. ``threading.Event``) is
    signalled once the socket is bound — the hook tests use to start
    the server on a thread and know when to connect.
    """

    async def _run() -> None:
        server = await start_service_server(service, host=host, port=port)
        bound = server.sockets[0].getsockname()
        print(f"serving evolution graph {service.graph_version} "
              f"on http://{bound[0]}:{bound[1]}")
        if ready is not None:
            ready.set()
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
