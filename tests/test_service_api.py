"""Query-service API battery: HTTP == in-process identity, pagination
exhaustiveness, cache byte-identity, refresh semantics, both transports.

The sans-IO split (``EvolutionQueryService.handle_request``) carries the
correctness burden, so most tests drive it directly; the asyncio socket
server and the ASGI adapter are then pinned as byte-identical shovels
over the same core.
"""

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core.config import LinkageConfig
from repro.datagen.generator import GeneratorConfig, generate_series
from repro.evolution.analysis import analyse_series
from repro.evolution.io import graph_to_dict
from repro.service import EvolutionQueryService, EvolutionStore
from repro.service.asgi import create_asgi_app
from repro.service.core import canonical_json
from repro.service.http import (
    MAX_REQUEST_BODY,
    MAX_REQUEST_HEAD,
    start_service_server,
)

from tests.differential import service_vs_inprocess


@pytest.fixture(scope="module")
def series():
    return generate_series(GeneratorConfig(
        seed=13, num_snapshots=3, initial_households=14,
    )).datasets


@pytest.fixture(scope="module")
def analysis(series):
    return analyse_series(series, config=LinkageConfig())


@pytest.fixture
def store(analysis, tmp_path):
    store = EvolutionStore(tmp_path)
    store.publish(analysis)
    return store


@pytest.fixture
def service(store):
    return EvolutionQueryService(store)


def get(service, target):
    status, body = service.handle_request("GET", target)
    return status, json.loads(body)


LIST_TARGETS = (
    "/chains/preserve",
    "/patterns/frequencies",
    "/patterns/sequences?length=2",
)


class TestQueryIdentity:
    def test_service_vs_inprocess_differential(self, series):
        """The PR's acceptance differential: every endpoint family's
        served items equal the direct evolution queries, cache on and
        off."""
        outcomes = service_vs_inprocess(series)
        assert [outcome.name for outcome in outcomes] == [
            "service-vs-inprocess(cache)",
            "service-vs-inprocess(no-cache)",
        ]
        for outcome in outcomes:
            assert outcome.ok, outcome.report()

    def test_graph_meta(self, service, analysis):
        status, payload = get(service, "/graph")
        assert status == 200
        assert payload["graph_version"] == service.graph_version
        assert service.graph_version == "fa4deebc2e454225"
        assert payload["years"] == list(analysis.graph.years)
        assert payload["edges"] == len(analysis.graph.edges)
        assert sum(payload["edge_counts"].values()) == payload["edges"]


class TestPagination:
    @pytest.mark.parametrize("target", LIST_TARGETS)
    @pytest.mark.parametrize("page_size", (1, 2, 7))
    def test_pages_union_to_unpaginated(self, service, target, page_size):
        sep = "&" if "?" in target else "?"
        _, unpaginated = get(service, target)
        total = unpaginated["total"]
        assert len(unpaginated["items"]) == total  # limit=0 -> everything
        collected = []
        for offset in range(0, total + page_size, page_size):
            _, page = get(
                service,
                f"{target}{sep}offset={offset}&limit={page_size}",
            )
            assert page["total"] == total
            assert len(page["items"]) <= page_size
            collected.extend(page["items"])
        # Exhaustive, duplicate-free, order-preserving.
        assert collected == unpaginated["items"]

    def test_offset_past_end_is_empty(self, service):
        _, payload = get(service, "/chains/preserve?offset=100000")
        assert payload["items"] == []
        assert payload["total"] > 0

    def test_bad_pagination_params_rejected(self, service):
        assert get(service, "/chains/preserve?limit=x")[0] == 400
        assert get(service, "/chains/preserve?offset=-1")[0] == 400


class TestCache:
    def test_cache_on_off_byte_identity(self, store):
        cached = EvolutionQueryService(store)
        uncached = EvolutionQueryService(store, cache_enabled=False)
        targets = LIST_TARGETS + ("/graph", "/chains/preserve?limit=2")
        for _ in range(2):  # second pass answers from the cache
            for target in targets:
                assert cached.handle_request(
                    "GET", target
                ) == uncached.handle_request("GET", target)
        assert cached.stats["cache_hits"] == len(targets)
        assert uncached.stats["cache_hits"] == 0

    def test_param_order_never_splits_the_cache(self, service):
        get(service, "/chains/preserve?min_length=1&limit=3")
        get(service, "/chains/preserve?limit=3&min_length=1")
        assert service.stats["cache_hits"] == 1

    def test_errors_are_not_cached(self, service):
        for _ in range(2):
            status, _ = get(service, "/persons/1871/ghost/timeline")
            assert status == 404
        assert service.stats["cache_hits"] == 0

    def test_lru_eviction_bounds_entries(self, store):
        service = EvolutionQueryService(store, cache_size=3)
        for offset in range(7):
            get(service, f"/chains/preserve?offset={offset}")
        assert len(service._cache) == 3
        # The oldest entry was evicted: asking again is a miss ...
        misses = service.stats["cache_misses"]
        get(service, "/chains/preserve?offset=0")
        assert service.stats["cache_misses"] == misses + 1
        # ... while the newest is still a hit.
        get(service, "/chains/preserve?offset=6")
        assert service.stats["cache_hits"] == 1

    def test_cache_size_zero_disables(self, store):
        service = EvolutionQueryService(store, cache_size=0)
        assert not service.cache_enabled


class TestRefresh:
    def grow(self, store):
        datasets = generate_series(GeneratorConfig(
            seed=13, num_snapshots=4, initial_households=14,
        )).datasets
        store.publish(analyse_series(datasets, config=LinkageConfig()))

    def test_refresh_noop(self, service):
        status, _ = service.handle_request("POST", "/refresh")
        assert status == 200
        _, stats = get(service, "/stats")
        assert stats["refreshes_noop"] == 1

    def test_refresh_switches_version_and_invalidates(self, store, service):
        old_version = service.graph_version
        _, before = get(service, "/chains/preserve")
        self.grow(store)
        status, body = service.handle_request("POST", "/refresh")
        payload = json.loads(body)
        assert status == 200
        assert payload["refreshed"] is True
        assert service.graph_version != old_version
        assert len(service._cache) == 0
        _, after = get(service, "/chains/preserve")
        assert after["graph_version"] == service.graph_version
        assert after["total"] >= before["total"]
        assert graph_to_dict(service.graph) == graph_to_dict(
            store.load_graph()
        )

    def test_corrupt_store_falls_back_to_last_good_graph(
        self, store, service
    ):
        version = service.graph_version
        store.manifest_path.write_text("garbage", encoding="utf-8")
        changed = service.refresh()
        assert changed is False
        assert service.stats["refresh_failures"] == 1
        assert service.graph_version == version
        assert get(service, "/chains/preserve")[0] == 200

    def test_bare_graph_service_never_refreshes(self, analysis):
        service = EvolutionQueryService(analysis.graph)
        assert service.refresh() is False


class TestErrorPaths:
    def test_unknown_endpoint(self, service):
        status, payload = get(service, "/nope")
        assert status == 404 and "error" in payload

    def test_unknown_vertex(self, service):
        assert get(service, "/households/1871/ghost/lineage")[0] == 404

    def test_bad_year(self, service):
        assert get(service, "/households/then/h1/lineage")[0] == 400

    def test_unknown_edge_type(self, service, analysis):
        vertex = sorted(
            v for v in analysis.graph.vertices if v[0] == "group"
        )[0]
        _, year, household = vertex
        status, payload = get(
            service,
            f"/households/{year}/{household}/neighborhood?types=teleport",
        )
        assert status == 400 and "teleport" in payload["error"]

    def test_method_not_allowed(self, service):
        assert service.handle_request("PUT", "/graph")[0] == 405
        assert service.handle_request("POST", "/graph")[0] == 405

    def test_depth_budget_maps_to_422(self, service, analysis):
        record = sorted(
            v for v in analysis.graph.vertices if v[0] == "record"
        )[0]
        _, year, record_id = record
        status, payload = get(
            service, f"/persons/{year}/{record_id}/timeline?max_depth=0"
        )
        # max_depth=0 is below the validator's floor of 1 -> 400; a
        # budget of 1 on a deep-enough walk is the 422 path, exercised
        # via the cyclic-graph unit tests and here through the floor.
        assert status == 400
        status, _ = get(
            service, f"/persons/{year}/{record_id}/timeline?max_depth=1"
        )
        assert status in (200, 422)


# -- transports: stdlib asyncio server and ASGI adapter ----------------------


def http_roundtrip(host, port, requests):
    """Open one keep-alive connection and collect (status, body) per
    request line."""

    async def run():
        reader, writer = await asyncio.open_connection(host, port)
        results = []
        for method, target in requests:
            writer.write(
                f"{method} {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value.strip())
            body = await reader.readexactly(length)
            results.append((status, body))
        writer.close()
        return results

    return asyncio.run(run())


def raw_exchange(service, payload):
    """Send ``payload`` on one connection to a fresh server; return every
    byte the server sends until it closes the connection."""

    async def run():
        server = await start_service_server(service, port=0)
        host, port = server.sockets[0].getsockname()[:2]

        def talk():
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(payload)
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return b"".join(chunks)
                    chunks.append(chunk)

        raw = await asyncio.get_running_loop().run_in_executor(None, talk)
        server.close()
        await server.wait_closed()
        return raw

    return asyncio.run(run())


def split_responses(raw):
    """``(status, body, Connection header)`` of each framed response."""
    responses = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        headers = dict(line.split(b": ", 1) for line in lines[1:])
        length = int(headers[b"Content-Length"])
        responses.append(
            (int(lines[0].split()[1]), rest[:length], headers[b"Connection"])
        )
        raw = rest[length:]
    return responses


class TestHttpServer:
    def test_socket_responses_match_core(self, service):
        targets = ("/graph",) + LIST_TARGETS + ("/nope",)

        async def run():
            server = await start_service_server(service, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            loop = asyncio.get_running_loop()
            served = await loop.run_in_executor(
                None, http_roundtrip, host, port,
                [("GET", target) for target in targets],
            )
            server.close()
            await server.wait_closed()
            return served

        served = asyncio.run(run())
        fresh = EvolutionQueryService(service._store)
        assert served == [
            fresh.handle_request("GET", target) for target in targets
        ]

    def test_malformed_request_line(self, service):
        async def run():
            server = await start_service_server(service, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            loop = asyncio.get_running_loop()

            def bad():
                import socket

                with socket.create_connection((host, port)) as sock:
                    sock.sendall(b"NONSENSE\r\n\r\n")
                    return sock.recv(4096)

            raw = await loop.run_in_executor(None, bad)
            server.close()
            await server.wait_closed()
            return raw

        assert asyncio.run(run()).startswith(b"HTTP/1.1 400 ")

    def test_oversized_head_rejected(self, service):
        async def run():
            server = await start_service_server(service, port=0)
            host, port = server.sockets[0].getsockname()[:2]
            loop = asyncio.get_running_loop()

            def huge():
                import socket

                with socket.create_connection((host, port)) as sock:
                    sock.sendall(
                        b"GET / HTTP/1.1\r\nX-Pad: "
                        + b"x" * (2 * MAX_REQUEST_HEAD)
                        + b"\r\n\r\n"
                    )
                    return sock.recv(4096)

            raw = await loop.run_in_executor(None, huge)
            server.close()
            await server.wait_closed()
            return raw

        assert asyncio.run(run()).startswith(b"HTTP/1.1 431 ")

    def test_pipelined_request_after_a_body(self, service):
        """A keep-alive ``POST`` with a body, pipelined with a ``GET``: the
        body is consumed, not parsed as the next request head, and both
        answers equal the sans-IO core's."""
        raw = raw_exchange(service, (
            b"POST /refresh HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 11\r\n\r\n"
            b'{"a": 123}\n'
            b"GET /graph HTTP/1.1\r\nHost: t\r\n"
            b"Connection: close\r\n\r\n"
        ))
        fresh = EvolutionQueryService(service._store)
        assert split_responses(raw) == [
            fresh.handle_request("POST", "/refresh") + (b"keep-alive",),
            fresh.handle_request("GET", "/graph") + (b"close",),
        ]

    @pytest.mark.parametrize("headers,status", [
        (b"Transfer-Encoding: chunked\r\n", 501),
        (b"Content-Length: 12abc\r\n", 400),
        (b"Content-Length: 3\r\nContent-Length: 4\r\n", 400),
        (f"Content-Length: {MAX_REQUEST_BODY + 1}\r\n".encode(), 413),
        (b"Content-Length: " + b"9" * 5000 + b"\r\n", 413),
    ], ids=["transfer-encoding", "malformed-length", "conflicting-lengths",
            "oversized-body", "unparseable-length"])
    def test_unframeable_request_rejected_and_closed(
        self, service, headers, status
    ):
        raw = raw_exchange(
            service,
            b"POST /refresh HTTP/1.1\r\nHost: t\r\n" + headers + b"\r\n",
        )
        [(answered, body, connection)] = split_responses(raw)
        assert (answered, connection) == (status, b"close")
        assert "error" in json.loads(body)

    def test_serve_ready_hook(self, store):
        """The blocking entry point binds, signals readiness, serves."""
        from repro.service.http import serve

        service = EvolutionQueryService(store)
        ready = threading.Event()
        thread = threading.Thread(
            target=serve,
            args=(service,),
            kwargs={"host": "127.0.0.1", "port": 0, "ready": ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10)

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_repro_serve_stops_cleanly_on_signal(self, store, signum):
        """``repro serve`` started with SIGINT ignored, as a background
        job of a non-interactive shell starts, still closes its server
        and exits 0 on SIGINT and on SIGTERM."""
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(repro.__file__).resolve().parents[1]),
            env.get("PYTHONPATH"),
        ]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             str(store.directory), "--port", "0"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            ready, _, _ = select.select([process.stdout], [], [], 60)
            assert ready, "the server did not announce itself"
            assert process.stdout.readline().startswith(b"serving ")
            process.send_signal(signum)
            assert process.wait(timeout=10) == 0, process.stderr.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            process.stderr.close()


class TestAsgiAdapter:
    def run_asgi(self, app, method, target):
        path, _, query = target.partition("?")
        scope = {
            "type": "http",
            "method": method,
            "path": path,
            "query_string": query.encode(),
        }
        sent = []

        async def receive():
            return {"type": "http.request", "body": b"",
                    "more_body": False}

        async def send(message):
            sent.append(message)

        asyncio.run(app(scope, receive, send))
        start = next(m for m in sent if m["type"] == "http.response.start")
        body = b"".join(
            m.get("body", b"")
            for m in sent
            if m["type"] == "http.response.body"
        )
        return start["status"], body

    def test_byte_identity_with_core(self, store):
        service = EvolutionQueryService(store)
        app = create_asgi_app(EvolutionQueryService(store))
        for target in ("/graph",) + LIST_TARGETS + ("/nope",):
            assert self.run_asgi(app, "GET", target) == service.handle_request(
                "GET", target
            )

    def test_lifespan_protocol(self, store):
        app = create_asgi_app(EvolutionQueryService(store))
        sent = []
        messages = iter([
            {"type": "lifespan.startup"},
            {"type": "lifespan.shutdown"},
        ])

        async def receive():
            return next(messages)

        async def send(message):
            sent.append(message)

        asyncio.run(app({"type": "lifespan"}, receive, send))
        assert [m["type"] for m in sent] == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]


def test_canonical_json_is_deterministic():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b == b'{"a":[2,3],"b":1}\n'
