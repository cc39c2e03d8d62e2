"""Async front-end specifics: framing, keep-alive, drain, byte-identity.

The shared route core — and the ``Content-Length`` refusals both
transports must agree on — is exercised on both by ``test_http.py``'s
parametrized fixture; this module covers what only
the asyncio transport owns — HTTP/1.1 framing edge cases the stdlib
handler used to absorb, graceful drain under load, and the differential
check that both front-ends emit byte-identical bodies for the same
requests (the CI smoke's oracle, in miniature).
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.server.asyncio_http import AsyncReproHTTPServer
from repro.server.catalog import Catalog
from repro.server.http import create_server, wait_ready

from tests.skeleton.test_loader import BIB_XML


@pytest.fixture
def server(tmp_path):
    Catalog(str(tmp_path / "cat")).add("bib", BIB_XML)
    server = create_server(str(tmp_path / "cat"), port=0, frontend="async")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    assert wait_ready(host, port, timeout=30)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def raw_exchange(server, payload: bytes, timeout: float = 30.0) -> bytes:
    """Write raw bytes to the listening socket; read until the peer closes."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestFraming:
    def test_malformed_request_line_gets_envelope_and_close(self, server):
        response = raw_exchange(server, b"NONSENSE\r\n\r\n")
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        envelope = json.loads(body)
        assert envelope["error"]["kind"] == "bad-request"
        assert "malformed request line" in envelope["error"]["message"]

    def test_header_without_colon_is_400(self, server):
        response = raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nBadHeader\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 400 ")

    @pytest.mark.parametrize("size", [20_000, 70_000])
    def test_oversized_header_line_is_400(self, server, size):
        """Over MAX_LINE, and over the stream reader's own 64 KiB limit
        (which surfaces as LimitOverrunError, once an unanswered drop)."""
        response = raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nX-Big: " + b"x" * size + b"\r\n\r\n"
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        error = json.loads(body)["error"]
        assert (error["kind"], error["message"]) == ("bad-request", "header line too long")

    def test_too_many_headers_is_400(self, server):
        headers = "".join(f"X-H{i}: {i}\r\n" for i in range(200))
        response = raw_exchange(
            server, f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode()
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"too many header lines" in response

    def test_http10_connection_closes_after_response(self, server):
        response = raw_exchange(server, b"GET /healthz HTTP/1.0\r\n\r\n")
        head = response.partition(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in head

    def test_refusals_still_carry_a_trace_header(self, server):
        response = raw_exchange(server, b"NONSENSE\r\n\r\n")
        assert b"X-Repro-Trace: " in response.partition(b"\r\n\r\n")[0]


class TestKeepAlive:
    def test_many_requests_share_one_connection(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for index in range(5):
                connection.request(
                    "POST", "/query",
                    json.dumps({"document": "bib", "query": "//author"}),
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200, payload
                assert payload["tree_count"] > 0
            # One connection served all five requests (keep-alive held).
            assert server.metrics.connections.value() == 1
        finally:
            connection.close()

    def test_connection_close_header_is_honored(self, server):
        response = raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert b"Connection: close" in response.partition(b"\r\n\r\n")[0]

    def test_connection_gauge_returns_to_zero(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        connection.request("GET", "/healthz")
        connection.getresponse().read()
        connection.close()
        deadline = time.monotonic() + 10
        while server.metrics.connections.value() > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.metrics.connections.value() == 0


class TestConcurrency:
    def test_parallel_clients_are_all_served(self, server):
        failures = []

        def client(index):
            try:
                host, port = server.server_address[:2]
                connection = http.client.HTTPConnection(host, port, timeout=60)
                try:
                    connection.request(
                        "POST", "/query",
                        json.dumps({"document": "bib", "query": "//author", "paths": 5}),
                    )
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    assert response.status == 200, payload
                finally:
                    connection.close()
            except Exception as error:  # noqa: BLE001 - collected for the assert
                failures.append((index, error))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures


class TestGracefulDrain:
    def test_inflight_request_completes_through_shutdown(self, tmp_path):
        """shutdown() must let an admitted request write its response."""
        release = threading.Event()
        started = threading.Event()

        class SlowService:
            catalog = ()

            def health_dict(self):
                return {"status": "ok"}

            def query(self, document, query_text, **kwargs):
                started.set()
                release.wait(timeout=30)
                return {"tree_count": 1, "document": document}

            def stats_dict(self):
                return {}

            def close(self):
                pass

        server = AsyncReproHTTPServer(("127.0.0.1", 0), SlowService(), drain_timeout=10.0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        assert wait_ready(host, port, timeout=30)
        result = {}

        def client():
            connection = http.client.HTTPConnection(host, port, timeout=60)
            try:
                connection.request(
                    "POST", "/query", json.dumps({"document": "d", "query": "//a"})
                )
                response = connection.getresponse()
                result["status"] = response.status
                result["payload"] = json.loads(response.read())
            finally:
                connection.close()

        client_thread = threading.Thread(target=client)
        client_thread.start()
        assert started.wait(timeout=30), "request never reached the service"
        shutdown_thread = threading.Thread(target=server.shutdown)
        shutdown_thread.start()
        time.sleep(0.1)  # drain begins with the request still executing
        release.set()
        client_thread.join(timeout=60)
        shutdown_thread.join(timeout=60)
        server.server_close()
        thread.join(timeout=10)
        assert result.get("status") == 200
        assert result["payload"]["tree_count"] == 1

    def test_idle_keepalive_connection_is_cancelled_on_drain(self, tmp_path):
        Catalog(str(tmp_path / "cat")).add("bib", BIB_XML)
        server = create_server(
            str(tmp_path / "cat"), port=0, frontend="async"
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        assert wait_ready(host, port, timeout=30)
        # Park an idle keep-alive connection, then shut down: drain must
        # not wait drain_timeout for it.
        idler = http.client.HTTPConnection(host, port, timeout=30)
        idler.request("GET", "/healthz")
        idler.getresponse().read()
        begun = time.monotonic()
        server.shutdown()
        assert time.monotonic() - begun < server.drain_timeout
        idler.close()
        server.server_close()
        server.service.close()
        thread.join(timeout=10)


class TestByteIdentity:
    """Both front-ends share one route core; prove the bodies match."""

    ROUTES = [
        ("GET", "/healthz", None),
        ("GET", "/catalog", None),
        ("POST", "/query", {"document": "bib", "query": "//book/author", "paths": 10}),
        ("POST", "/query", {"document": "ghost", "query": "//a"}),
        ("POST", "/query", {"document": "bib", "query": "//a[["}),
        ("POST", "/explain", {"document": "bib", "query": "//book/author"}),
        ("GET", "/nope", None),
    ]

    #: Keys that legitimately vary run to run (wall-clock measurements and
    #: per-catalog registration stamps — each server owns its own catalog).
    VOLATILE = {"seconds", "shred_seconds", "registered_at"}

    def _scrub(self, payload):
        if isinstance(payload, dict):
            return {
                key: self._scrub(value)
                for key, value in payload.items()
                if key not in self.VOLATILE
            }
        if isinstance(payload, list):
            return [self._scrub(item) for item in payload]
        return payload

    def test_both_frontends_return_identical_bodies(self, tmp_path):
        servers, threads = {}, {}
        for frontend in ("threaded", "async"):
            catalog_dir = str(tmp_path / f"cat-{frontend}")
            Catalog(catalog_dir).add("bib", BIB_XML)
            server = create_server(catalog_dir, port=0, frontend=frontend)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            assert wait_ready(host, port, timeout=30)
            servers[frontend], threads[frontend] = server, thread
        try:
            for method, path, body in self.ROUTES:
                results = {}
                for frontend, server in servers.items():
                    host, port = server.server_address[:2]
                    connection = http.client.HTTPConnection(host, port, timeout=30)
                    try:
                        connection.request(
                            method, path,
                            json.dumps(body) if body is not None else None,
                            # Pin the trace so minted IDs cannot differ.
                            {"X-Repro-Trace": "0123456789abcdef"},
                        )
                        response = connection.getresponse()
                        results[frontend] = (response.status, response.read())
                    finally:
                        connection.close()
                threaded_status, threaded_body = results["threaded"]
                async_status, async_body = results["async"]
                assert async_status == threaded_status, (method, path)
                scrubbed = [
                    self._scrub(json.loads(raw))
                    for raw in (threaded_body, async_body)
                ]
                if not any(
                    f'"{key}"'.encode() in threaded_body for key in self.VOLATILE
                ):
                    # No volatile keys at all: the bodies must match byte
                    # for byte, not just structurally.
                    assert async_body == threaded_body, (method, path)
                assert scrubbed[0] == scrubbed[1], (method, path)
        finally:
            for frontend, server in servers.items():
                server.shutdown()
                server.server_close()
                server.service.close()
                threads[frontend].join(timeout=10)
