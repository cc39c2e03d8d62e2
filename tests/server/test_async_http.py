"""Transport specifics: framing, keep-alive, drain, and the lane.

The route core — and the ``Content-Length`` refusals — are exercised
through ``test_http.py``; this module covers what the asyncio transport
owns: HTTP/1.1 framing edge cases, keep-alive, graceful drain under
load, and the rules that decide when a ``/query`` is answered on the
lane thread.
"""

import contextlib
import http.client
import json
import re
import socket
import sys
import threading
import time

import pytest

from repro.server.asyncio_http import AsyncReproHTTPServer
from repro.server.catalog import Catalog
from repro.server.http import create_server, wait_ready
from repro.server.metrics import parse_prometheus_text
from repro.server.resilience import FAULTS
from repro.server.service import QueryService

from tests.server.util import wait_until
from tests.skeleton.test_loader import BIB_XML

#: The name of the thread the ``server`` fixture runs the event loop on.
LOOP_THREAD = "event-loop"

#: The name of the async front-end's lane thread.
LANE_THREAD = "repro-lane"

#: The two ways the front-end can answer a ``POST /query``; the surface
#: suites (``test_http.py``, ``test_metrics.py``, ...) run on both.
#: ``async`` is the server as ``repro serve`` runs it: warm, cheap queries
#: are answered on the lane.  ``executor`` is the same server with the lane
#: off, so every query takes the executor, as it does under a fleet.
DISPATCH_PATHS = ["async", "executor"]


def set_dispatch(server, path: str):
    """Turn ``server``'s lane off when ``path`` is ``"executor"``."""
    if path == "executor":
        server.service.query_now = None  # what Router.answers_now reads
    return server


@pytest.fixture
def server(tmp_path):
    Catalog(str(tmp_path / "cat")).add("bib", BIB_XML)
    server = create_server(str(tmp_path / "cat"), port=0)
    thread = threading.Thread(target=server.serve_forever, name=LOOP_THREAD, daemon=True)
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


def read_response(sock, buffer: bytes = b"") -> tuple[int, bytes, bytes, bytes]:
    """One response off ``sock``: ``(status, head, body, bytes left over)``."""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise EOFError(f"peer closed after {buffer!r}")
        buffer += chunk
    head, _, rest = buffer.partition(b"\r\n\r\n")
    match = re.search(rb"\r\nContent-Length: (\d+)", head)
    length = int(match.group(1)) if match else 0
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise EOFError("peer closed mid-body")
        rest += chunk
    return int(head.split()[1]), head, rest[:length], rest[length:]


def query_bytes(body: dict, extra_headers: str = "") -> bytes:
    """A raw ``POST /query`` carrying ``body`` as JSON."""
    payload = json.dumps(body).encode()
    head = (
        f"POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {len(payload)}\r\n"
        f"{extra_headers}\r\n"
    )
    return head.encode() + payload


@contextlib.contextmanager
def connected(server, timeout: float = 30.0):
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        yield sock


#: A ``/query`` the ``server`` fixture's catalog answers.
AUTHORS = {"document": "bib", "query": "//author"}


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

    def test_two_pipelined_requests_in_one_segment_are_answered_in_order(self, server):
        with connected(server) as sock:
            sock.sendall(query_bytes(AUTHORS) + b"GET /healthz HTTP/1.1\r\n\r\n")
            status, _, body, rest = read_response(sock)
            assert status == 200 and json.loads(body)["tree_count"] > 0
            status, _, body, rest = read_response(sock, rest)
            assert status == 200 and json.loads(body)["status"] == "ok"
            assert rest == b""

    def test_a_request_sent_one_byte_per_send_is_answered(self, server):
        with connected(server) as sock:
            for index in range(len(request := query_bytes(AUTHORS))):
                sock.send(request[index:index + 1])
                time.sleep(0.001)
            status, _, body, _ = read_response(sock)
        assert status == 200 and json.loads(body)["tree_count"] > 0

    def test_a_head_and_its_body_in_separate_segments_are_answered(self, server):
        request = query_bytes(AUTHORS)
        head, _, body = request.partition(b"\r\n\r\n")
        with connected(server) as sock:
            sock.sendall(head + b"\r\n\r\n")
            time.sleep(0.05)
            sock.sendall(body)
            status, _, payload, _ = read_response(sock)
        assert status == 200 and json.loads(payload)["tree_count"] > 0

    def test_a_client_that_never_reads_stops_being_parsed(self, server):
        """Past the 64 KiB write high-water mark the connection parses no
        further request, the loop stays free for other connections, and
        once the client reads, every request it sent is answered in order."""
        sent = 600
        answered = lambda: server.metrics.http_requests.value(  # noqa: E731
            route="/metrics", method="GET", status="200"
        )
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(60)
            sock.connect(server.server_address[:2])
            sock.sendall(b"GET /metrics HTTP/1.1\r\n\r\n" * sent)
            counts = [-1]

            def stalled():
                counts.append(answered())
                return counts[-1] == counts[-2]

            assert wait_until(stalled, timeout=30, interval=0.3)
            assert counts[-1] < sent
            assert healthz_seconds(server) < 0.05
            statuses, rest = [], b""
            for _ in range(sent):
                status, _, _, rest = read_response(sock, rest)
                statuses.append(status)
        assert statuses == [200] * sent

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        request = query_bytes(AUTHORS, "Expect: 100-continue\r\n")
        head, _, body = request.partition(b"\r\n\r\n")
        with connected(server) as sock:
            sock.sendall(head + b"\r\n\r\n")
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            status, _, payload, _ = read_response(sock)
        assert status == 200 and json.loads(payload)["tree_count"] > 0

    def test_an_oversized_expect_gets_413_and_no_continue(self, server):
        response = raw_exchange(
            server,
            b"POST /query HTTP/1.1\r\nContent-Length: 2000000\r\n"
            b"Expect: 100-continue\r\n\r\n",
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ") and b"Connection: close" in head
        assert b"100 Continue" not in response
        assert json.loads(body)["error"]["kind"] == "payload-too-large"

    def test_conflicting_content_lengths_are_400_and_close(self, server):
        payload = json.dumps(AUTHORS).encode()
        response = raw_exchange(
            server,
            b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload,
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ") and b"Connection: close" in head
        assert json.loads(body)["error"]["message"] == "conflicting Content-Length headers"
        assert response.count(b"HTTP/1.1 ") == 1

    def test_identical_repeated_content_lengths_are_served(self, server):
        payload = json.dumps(AUTHORS).encode()
        length = f"Content-Length: {len(payload)}\r\n".encode()
        response = raw_exchange(
            server, b"POST /query HTTP/1.1\r\n" + length + length + b"\r\n" + payload
        )
        assert response.startswith(b"HTTP/1.1 200 ")

    def test_whitespace_before_a_header_colon_is_400_and_close(self, server):
        payload = json.dumps(AUTHORS).encode()
        response = raw_exchange(
            server,
            f"POST /query HTTP/1.1\r\nContent-Length : {len(payload)}\r\n\r\n".encode()
            + payload,
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ") and b"Connection: close" in head
        assert "whitespace before the colon" in json.loads(body)["error"]["message"]
        assert response.count(b"HTTP/1.1 ") == 1


class TestClientTrace:
    """A client ``X-Repro-Trace`` is echoed only when it is 1-64 characters
    of ``[0-9A-Za-z._-]``; anything else gets a freshly minted trace."""

    def trace_of(self, server, trace: str) -> tuple[str, str]:
        """The trace of one ``/query`` answer: (response header, body field)."""
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request(
                "POST", "/query", json.dumps(AUTHORS), {"X-Repro-Trace": trace}
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200, payload
            return response.getheader("X-Repro-Trace"), payload["trace"]
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "trace", ["x" * 5000, "x" * 65, "abc\x7fdef", "a b", "caf\xe9"],
        ids=["5000-bytes", "65-chars", "del", "space", "latin-1"],
    )
    def test_an_unsafe_client_trace_is_replaced(self, server, trace):
        header, body = self.trace_of(server, trace)
        assert header == body != trace
        assert re.fullmatch(r"[0-9a-f]{16}", header)

    @pytest.mark.parametrize("trace", ["x" * 64, "e2e-Trace_1.0", "7"])
    def test_a_safe_client_trace_is_echoed(self, server, trace):
        assert self.trace_of(server, trace) == (trace, trace)


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

            query_now = None  # always the executor, where query() blocks

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
        server = create_server(str(tmp_path / "cat"), port=0)
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
    """Both dispatch paths share one route core; prove the bodies match."""

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

    def test_lane_and_executor_return_identical_bodies(self, tmp_path):
        servers, threads = {}, {}
        for dispatch in DISPATCH_PATHS:
            catalog_dir = str(tmp_path / f"cat-{dispatch}")
            Catalog(catalog_dir).add("bib", BIB_XML)
            server = set_dispatch(create_server(catalog_dir, port=0), dispatch)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            assert wait_ready(host, port, timeout=30)
            servers[dispatch], threads[dispatch] = server, thread
        try:
            # Twice over: the second round finds the plans, master and fork
            # warm, so the lane server answers its good query on the lane.
            for method, path, body in self.ROUTES * 2:
                results = {}
                for dispatch, server in servers.items():
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
                        results[dispatch] = (response.status, response.read())
                    finally:
                        connection.close()
                lane_status, lane_body = results["async"]
                executor_status, executor_body = results["executor"]
                assert lane_status == executor_status, (method, path)
                if not any(f'"{key}"'.encode() in lane_body for key in self.VOLATILE):
                    # No volatile keys at all: the bodies must match byte
                    # for byte, not just structurally.
                    assert lane_body == executor_body, (method, path)
                assert self._scrub(json.loads(lane_body)) == self._scrub(
                    json.loads(executor_body)
                ), (method, path)
            assert servers["async"].metrics.dispatches.value(path="lane") >= 1
            assert servers["executor"].metrics.dispatches.value(path="lane") == 0
        finally:
            for dispatch, server in servers.items():
                server.shutdown()
                server.server_close()
                server.service.close()
                threads[dispatch].join(timeout=10)


#: One query over ``bib``: after its first run, plans, master and fork are warm.
WARM = {"document": "bib", "query": "//book/author", "paths": 10}


def post_query(server, body, headers=None):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("POST", "/query", json.dumps(body), headers or {})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def healthz_seconds(server) -> float:
    """Wall time of one ``GET /healthz`` on a fresh connection."""
    host, port = server.server_address[:2]
    started = time.perf_counter()
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        assert response.status == 200
    finally:
        connection.close()
    return time.perf_counter() - started


def on_executor(thread_name: str) -> bool:
    return thread_name.startswith("repro-http")


class TestLanePath:
    """When a ``/query`` is answered on the lane, and what it keeps.

    Where a query ran is read off the thread that reached the
    ``service.evaluate`` fault seam: the lane is :data:`LANE_THREAD`,
    executor threads are named ``repro-http_<n>``, and the ``server``
    fixture's loop (:data:`LOOP_THREAD`) never evaluates.
    """

    @pytest.fixture
    def evaluated_on(self):
        """Names of the threads that reached the evaluation seam, in order."""
        names = []
        FAULTS.arm(
            "service.evaluate",
            callback=lambda **_: names.append(threading.current_thread().name),
        )
        try:
            yield names
        finally:
            FAULTS.disarm()

    @pytest.fixture
    def service(self, tmp_path):
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        service = QueryService(catalog)
        try:
            yield service
        finally:
            FAULTS.disarm()
            service.close()

    @staticmethod
    def warm(service):
        """Serve :data:`WARM` through the coalescer; its key and pool entry."""
        service.query("bib", WARM["query"], paths=WARM["paths"])
        (key,) = service.pool.keys()
        return key, service.pool.peek(key)

    @staticmethod
    def now(service):
        return service.query_now("bib", WARM["query"], paths=WARM["paths"])

    # -- the decision, rule by rule ----------------------------------------

    def test_first_sight_of_a_text_takes_the_executor(self, service):
        self.warm(service)
        assert self.now(service) is not None
        assert service.query_now("bib", "//title") is None
        assert service._compiled.cached("//title") is None  # never parsed

    def test_cold_master_takes_the_executor(self, service):
        self.warm(service)
        service.evict("bib")
        misses = service.pool.misses
        assert self.now(service) is None
        assert service.pool.misses == misses and not service.pool.keys()  # never loaded

    def test_missing_working_fork_takes_the_executor(self, service):
        _, entry = self.warm(service)
        entry.working = None
        assert self.now(service) is None
        assert entry.working is None  # never forked

    def test_busy_key_takes_the_executor(self, service):
        key, entry = self.warm(service)
        with entry.lock:
            assert self.now(service) is None
        service._pending_for(key)  # a batch queued for the key
        assert self.now(service) is None
        del service._pending[key]
        assert self.now(service) is not None

    def test_cost_over_the_switch_interval_takes_the_executor(self, service):
        FAULTS.arm("service.evaluate", latency=2 * sys.getswitchinterval())
        self.warm(service)
        FAULTS.disarm()
        assert self.now(service) is None
        self.warm(service)  # measured again, cheap this time
        assert self.now(service) is not None

    def test_fleet_backend_keeps_the_executor(self, tmp_path):
        Catalog(str(tmp_path / "cat")).add("bib", BIB_XML)
        server = create_server(str(tmp_path / "cat"), port=0, workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert wait_ready(*server.server_address[:2], timeout=60)
            for _ in range(2):
                assert post_query(server, WARM)[0] == 200
            assert server.metrics.dispatches.value(path="executor") == 2
            assert server.metrics.dispatches.value(path="lane") == 0
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(timeout=10)

    # -- through the front door ------------------------------------------

    def test_cold_then_warm_query_moves_to_the_lane(self, server, evaluated_on):
        for _ in range(2):
            assert post_query(server, WARM)[0] == 200
        assert on_executor(evaluated_on[0]) and evaluated_on[1] == LANE_THREAD
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/metrics")
            families = parse_prometheus_text(connection.getresponse().read().decode())
        finally:
            connection.close()
        counts = {
            labels["path"]: value
            for _, labels, value in families["repro_http_dispatch_total"]["samples"]
        }
        assert counts == {"executor": 1, "lane": 1}

    @pytest.mark.parametrize(
        "body",
        [WARM, {"document": "bib", "query": "//author", "paths": 5, "limit": 1}],
        ids=["answer", "decode-refusal"],
    )
    def test_lane_and_executor_bodies_are_equal(self, server, evaluated_on, body):
        # A resident master first: then only this text's first sight sends
        # it to the executor, and both answers are pool hits.
        assert post_query(server, {"document": "bib", "query": "//title"})[0] == 200
        (executor_status, executor_body), (lane_status, lane_body) = [
            post_query(server, body) for _ in range(2)
        ]
        assert on_executor(evaluated_on[1]) and evaluated_on[2] == LANE_THREAD
        assert lane_status == executor_status
        for payload in (executor_body, lane_body):
            payload.pop("seconds", None)
            payload.pop("trace", None)
        assert lane_body == executor_body

    def test_slow_stage_is_served_from_the_executor(self, server):
        names, running = [], threading.Event()

        def slow_stage(**_):
            names.append(threading.current_thread().name)
            running.set()
            time.sleep(0.3)

        FAULTS.arm("service.evaluate", callback=slow_stage)
        try:
            assert post_query(server, WARM)[0] == 200  # cold: measured at >= 0.3 s
            running.clear()
            statuses = []
            client = threading.Thread(
                target=lambda: statuses.append(post_query(server, WARM)[0])
            )
            client.start()
            assert running.wait(timeout=30)
            assert healthz_seconds(server) < 0.05
            client.join(timeout=30)
            assert not client.is_alive() and statuses == [200]
        finally:
            FAULTS.disarm()
        assert len(names) == 2 and all(on_executor(name) for name in names)

    def test_busy_key_neither_blocks_the_loop_nor_jumps_the_queue(
        self, server, evaluated_on
    ):
        for _ in range(2):
            assert post_query(server, WARM)[0] == 200
        assert evaluated_on[-1] == LANE_THREAD
        service = server.service
        (key,) = service.pool.keys()
        entry = service.pool.peek(key)
        requests = service.stats.requests
        statuses = []
        clients = [
            threading.Thread(target=lambda: statuses.append(post_query(server, WARM)[0]))
            for _ in range(2)
        ]
        with entry.lock:  # what an executor batch on this key holds
            for index, client in enumerate(clients, 1):
                client.start()
                assert wait_until(lambda: service.stats.requests == requests + index)
            assert healthz_seconds(server) < 0.05
            assert statuses == []  # queued behind the holder, not served around it
        for client in clients:
            client.join(timeout=30)
            assert not client.is_alive()
        assert statuses == [200, 200]
        assert len(evaluated_on) == 4 and all(on_executor(n) for n in evaluated_on[2:])
        assert server.metrics.dispatches.value(path="lane") == 1

    def test_deadline_shorter_than_an_injected_latency_is_504_on_the_lane(self, server):
        for _ in range(2):
            assert post_query(server, WARM)[0] == 200
        names = []

        def slow_stage(**_):
            names.append(threading.current_thread().name)
            time.sleep(0.2)

        FAULTS.arm("service.evaluate", callback=slow_stage, times=1)
        try:
            status, payload = post_query(server, {**WARM, "deadline_ms": 50})
        finally:
            FAULTS.disarm()
        # Measured cheap, so this run held the lane (the residual risk) —
        # and still answered 504, never a late 200.
        assert names == [LANE_THREAD]
        assert status == 504 and payload["error"]["kind"] == "deadline_exceeded"
        assert post_query(server, WARM)[0] == 200

    def test_a_query_that_turns_slow_holds_the_lane_not_the_loop(self, server):
        for _ in range(2):
            assert post_query(server, WARM)[0] == 200
        names, running = [], threading.Event()

        def slow_stage(**_):
            names.append(threading.current_thread().name)
            running.set()
            time.sleep(0.3)

        FAULTS.arm("service.evaluate", callback=slow_stage, times=1)
        try:
            statuses = []
            client = threading.Thread(
                target=lambda: statuses.append(post_query(server, WARM)[0])
            )
            client.start()
            assert running.wait(timeout=30)
            assert healthz_seconds(server) < 0.05
            client.join(timeout=30)
            assert not client.is_alive()
        finally:
            FAULTS.disarm()
        assert names == [LANE_THREAD] and statuses == [200]

    def test_mixed_paths_lose_no_update_under_contention(self, server):
        """Lane and executor threads share the pool entry, its cost record
        and the counters: with more clients than cores and a switch
        interval short enough to split the queries between both paths,
        every request is answered correctly and counted exactly once."""
        bodies = [
            {"document": "bib", "query": query, "paths": paths}
            for query in ("//book/author", "//title", "//book[author]/title")
            for paths in (0, 3)
        ]
        expected = {}
        for body in bodies:  # first sight of each shape: the executor
            status, payload = post_query(server, body)
            assert status == 200
            expected[body["query"], body["paths"]] = payload["tree_count"]
        failures, rounds = [], 40

        def client(offset):
            for index in range(rounds):
                body = bodies[(offset + index) % len(bodies)]
                status, payload = post_query(server, body)
                wanted = expected[body["query"], body["paths"]]
                if status != 200 or payload["tree_count"] != wanted:
                    failures.append((status, payload))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0001)
        try:
            clients = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        total = len(bodies) + 8 * rounds
        dispatches = server.metrics.dispatches
        lane, executor = dispatches.value(path="lane"), dispatches.value(path="executor")
        assert lane + executor == total and lane > 0 and executor > len(bodies)
        service = server.service
        assert service.stats.requests == service.admission.admitted == total
        assert service.admission.stats()["inflight"] == 0
