"""End-to-end tests of the JSON/HTTP serving layer (real sockets, threads)."""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.pipeline import Engine
from repro.server.catalog import Catalog
from repro.server.http import create_server, wait_ready
from repro.server.service import decode_result

from tests.server.test_async_http import DISPATCH_PATHS, set_dispatch
from tests.skeleton.test_loader import BIB_XML


@pytest.fixture(params=DISPATCH_PATHS)
def server(request, tmp_path):
    # Always port 0: the kernel hands out a free ephemeral port, so any
    # number of parallel CI runs can never collide; the real port is read
    # back off the socket and readiness is probed (not assumed) through
    # the same helper the benchmarks use.  Parametrized over both dispatch
    # paths: every endpoint/error-mapping assertion below must hold
    # whether a query is answered on the lane or on the executor.
    Catalog(str(tmp_path / "cat")).add("bib", BIB_XML)
    server = set_dispatch(create_server(str(tmp_path / "cat"), port=0), request.param)
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


def request(server, method, path, body=None):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(method, path, payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = request(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["documents"] == 1
        assert "mode" not in payload

    def test_query_matches_direct_evaluation(self, server):
        status, payload = request(
            server, "POST", "/query",
            {"document": "bib", "query": "//book/author", "paths": 10},
        )
        assert status == 200
        expected = decode_result(Engine(BIB_XML).query("//book/author"), paths=10)
        assert payload["tree_count"] == expected["tree_count"]
        assert payload["paths"] == expected["paths"]
        assert payload["document"] == "bib"
        assert "mode" not in payload

    def test_catalog_listing(self, server):
        status, payload = request(server, "GET", "/catalog")
        assert status == 200
        assert [doc["name"] for doc in payload["documents"]] == ["bib"]

    def test_register_then_query(self, server):
        status, payload = request(
            server, "POST", "/catalog/tiny", {"xml": "<r><x/><x/></r>"}
        )
        assert status == 201 and payload["name"] == "tiny"
        status, payload = request(
            server, "POST", "/query", {"document": "tiny", "query": "//x"}
        )
        assert status == 200 and payload["tree_count"] == 2

    def test_delete_document(self, server):
        status, payload = request(server, "DELETE", "/catalog/bib")
        assert status == 200 and payload["removed"] == "bib"
        status, _ = request(server, "POST", "/query", {"document": "bib", "query": "//a"})
        assert status == 404


def assert_envelope(payload: dict, kind: str) -> dict:
    """Every error body is the uniform ``{"error": {kind,message,detail}}``."""
    assert set(payload) == {"error"}
    envelope = payload["error"]
    assert set(envelope) == {"kind", "message", "detail"}
    assert envelope["kind"] == kind
    assert isinstance(envelope["message"], str) and envelope["message"]
    assert envelope["detail"] is None or isinstance(envelope["detail"], dict)
    return envelope


class TestContentLengthRefusals:
    """Decided from the headers alone: the envelope, then
    ``Connection: close`` — the unread body cannot be skipped."""

    def refusal(self, server, head: bytes) -> tuple[bytes, dict]:
        from tests.server.test_async_http import raw_exchange

        # A second request rides behind: a server that kept the stream open
        # would answer it too, and the body would no longer be one document.
        response = raw_exchange(server, head + b"GET /healthz HTTP/1.1\r\n\r\n")
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"Connection: close" in head and b"X-Repro-Trace: " in head
        return head, json.loads(body)

    @pytest.mark.parametrize("value", [b"lots", b"2_7", b"+27", b"-1", b"0x1b"])
    def test_content_length_must_be_digits(self, server, value):
        """RFC 9110's ``1*DIGIT`` only: ``int()`` alone takes ``2_7`` as 27
        and ``-1`` as a length, leaving the stream out of step."""
        head, payload = self.refusal(
            server, b"POST /query HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        error = assert_envelope(payload, "bad-request")
        assert error["message"] == "Content-Length must be a non-negative decimal integer"

    def test_transfer_encoding_is_refused(self, server):
        """A chunked body is never read as empty with its chunks taken for
        the next request: the envelope, 501, and the connection closes."""
        body = json.dumps({"document": "bib", "query": "//author"}).encode()
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        head, payload = self.refusal(
            server,
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked,
        )
        assert head.startswith(b"HTTP/1.1 501 ")
        error = assert_envelope(payload, "bad-request")
        assert "Transfer-Encoding" in error["message"]

    def test_query_routes_have_their_own_body_cap(self, server):
        from repro.server.routes import MAX_BODY, MAX_QUERY_BODY, body_limit

        assert body_limit("POST", "/query") == body_limit("POST", "/explain") == MAX_QUERY_BODY
        assert body_limit("POST", "/catalog/x") == body_limit("POST", "/mutate") == MAX_BODY
        # Announced, never sent: the refusal comes before any body is read.
        head, payload = self.refusal(
            server,
            f"POST /query HTTP/1.1\r\nContent-Length: {MAX_QUERY_BODY + 1}\r\n\r\n".encode(),
        )
        assert head.startswith(b"HTTP/1.1 413 ")
        error = assert_envelope(payload, "payload-too-large")
        assert str(MAX_QUERY_BODY) in error["message"]
        # A body of exactly the cap is served.
        body = json.dumps({"document": "bib", "query": "//author"})
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("POST", "/query", body.ljust(MAX_QUERY_BODY))
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["tree_count"] == 5
        finally:
            connection.close()


class TestErrorMapping:
    """Regression-pins the uniform error envelope on every route.

    The ``kind`` strings are the same families the cluster worker wire
    protocol round-trips (``repro.api.envelope.ERROR_KINDS``), so these
    bodies are identical at any worker count.
    """

    def test_unknown_document_is_404(self, server):
        status, payload = request(
            server, "POST", "/query", {"document": "ghost", "query": "//a"}
        )
        assert status == 404
        envelope = assert_envelope(payload, "catalog")
        assert "unknown catalog document" in envelope["message"]

    def test_malformed_query_is_400(self, server):
        status, payload = request(
            server, "POST", "/query", {"document": "bib", "query": "//a[["}
        )
        assert status == 400
        envelope = assert_envelope(payload, "xpath-syntax")
        assert "invalid query" in envelope["message"]
        # Syntax errors carry their machine-readable location.
        assert envelope["detail"]["position"] == 4

    @pytest.mark.parametrize(
        "query",
        [
            "/a" + "[b" * 3000 + "]" * 3000,
            "/a[" + "(" * 3000 + "b" + ")" * 3000 + "]",
            "/a[" + "not(" * 1500 + "b" + ")" * 1500 + "]",
            "/a" * 3000,
        ],
        ids=["brackets", "parentheses", "nots", "steps"],
    )
    def test_oversized_query_is_a_syntax_error_on_every_surface(
        self, server, query, tmp_path, capsys
    ):
        """Each shape once ran out of stack (HTTP 500, a raw traceback)."""
        import repro
        from repro.cli import main
        from repro.errors import XPathSyntaxError

        status, payload = request(
            server, "POST", "/query", {"document": "bib", "query": query}
        )
        assert status == 400
        assert "query too large" in assert_envelope(payload, "xpath-syntax")["message"]
        with pytest.raises(XPathSyntaxError, match="query too large"):
            repro.open(BIB_XML).execute(query)
        (tmp_path / "bib.xml").write_text(BIB_XML)
        assert main(["query", str(tmp_path / "bib.xml"), query]) == 2
        captured = capsys.readouterr()
        assert "query too large" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_malformed_json_is_400(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("POST", "/query", "{not json")
            response = connection.getresponse()
            assert response.status == 400
            payload = json.loads(response.read())
            envelope = assert_envelope(payload, "bad-request")
            assert "malformed JSON" in envelope["message"]
        finally:
            connection.close()

    def test_missing_fields_is_400(self, server):
        status, payload = request(server, "POST", "/query", {"document": "bib"})
        assert status == 400
        envelope = assert_envelope(payload, "bad-request")
        assert "'document' and 'query'" in envelope["message"]

    @pytest.mark.parametrize("field", ["paths", "limit"])
    @pytest.mark.parametrize("value", [True, False, "3", 1.5])
    def test_non_integer_paths_and_limit_are_400(self, server, field, value):
        # bool is an int subclass: {"paths": true} used to be served as
        # paths=1 (and {"limit": true} as limit=1).
        status, payload = request(
            server, "POST", "/query",
            {"document": "bib", "query": "//author", field: value},
        )
        assert status == 400
        envelope = assert_envelope(payload, "bad-request")
        assert f"'{field}' must be" in envelope["message"]

    def test_unknown_endpoint_is_404(self, server):
        status, payload = request(server, "GET", "/nope")
        assert status == 404
        assert_envelope(payload, "not-found")

    def test_bad_delete_is_404(self, server):
        status, payload = request(server, "DELETE", "/catalog/ghost")
        assert status == 404
        assert_envelope(payload, "catalog")

    def test_bad_registration_is_400(self, server):
        status, payload = request(server, "POST", "/catalog/bad%20name!", {"xml": "<r/>"})
        assert status == 400
        assert_envelope(payload, "catalog")

    def test_worker_unavailable_is_503(self, tmp_path):
        # The in-process service cannot lose a worker, so pin the mapping
        # through a stub service raising what a fleet dispatcher raises.
        from repro.errors import WorkerUnavailableError
        from repro.server.asyncio_http import AsyncReproHTTPServer

        class DownService:
            request_timeout = 1.0
            query_now = None  # no lane, like the fleet

            def query(self, document, query_text, **kwargs):
                raise WorkerUnavailableError("worker 3 is down; the shard is respawning")

        server = AsyncReproHTTPServer(("127.0.0.1", 0), DownService())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, payload = request(
                server, "POST", "/query", {"document": "d", "query": "//a"}
            )
            assert status == 503
            envelope = assert_envelope(payload, "worker-unavailable")
            assert "respawning" in envelope["message"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestExplain:
    def test_explain_get_and_post_agree(self, server):
        status, via_get = request(
            server, "GET", "/explain?document=bib&query=%2F%2Fbook%2Fauthor"
        )
        assert status == 200
        status, via_post = request(
            server, "POST", "/explain", {"document": "bib", "query": "//book/author"}
        )
        assert status == 200
        assert via_get == via_post
        plan = via_get["plan"]
        assert plan["required"]["tags"] == ["author", "book"]
        assert plan["algebra"]["op"] == "intersect"
        assert plan["instance"]["source"] == "pool"

    def test_explain_reports_pool_residency(self, server):
        # A string query: planning a tag-only query on a fresh server
        # already loads the master its statistics are derived from.
        ask = {"document": "bib", "query": '//author["Hull"]'}
        _, before = request(server, "POST", "/explain", ask)
        assert before["plan"]["instance"]["resident"] is False
        request(server, "POST", "/query", ask)
        _, after = request(server, "POST", "/explain", ask)
        assert after["plan"]["instance"]["resident"] is True

    def test_explain_without_document_is_plan_only(self, server):
        status, payload = request(server, "POST", "/explain", {"query": "//a/b"})
        assert status == 200
        assert payload["document"] is None
        assert "instance" not in payload["plan"]

    def test_explain_unknown_document_is_404(self, server):
        status, payload = request(
            server, "POST", "/explain", {"document": "ghost", "query": "//a"}
        )
        assert status == 404
        assert_envelope(payload, "catalog")

    def test_explain_malformed_query_is_400(self, server):
        status, payload = request(
            server, "POST", "/explain", {"document": "bib", "query": "//a[["}
        )
        assert status == 400
        assert_envelope(payload, "xpath-syntax")

    def test_explain_missing_query_is_400(self, server):
        status, payload = request(server, "GET", "/explain")
        assert status == 400
        assert_envelope(payload, "bad-request")


class TestConcurrentClients:
    def test_many_clients_all_served_correctly(self, server):
        queries = ["//author", "//title", "//book/author", "/bib/paper/title"]
        expected = {
            query: decode_result(Engine(BIB_XML).query(query), paths=20)
            for query in queries
        }
        failures = []

        def client(index):
            query = queries[index % len(queries)]
            try:
                status, payload = request(
                    server, "POST", "/query",
                    {"document": "bib", "query": query, "paths": 20},
                )
                assert status == 200, payload
                assert payload["tree_count"] == expected[query]["tree_count"]
                assert payload["paths"] == expected[query]["paths"]
            except Exception as error:  # noqa: BLE001 - collected for the assert
                failures.append((index, error))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        status, payload = request(server, "GET", "/stats")
        assert status == 200
        assert payload["service"]["requests"] >= 16


def raw_request(server, method, path, body=None, headers=None):
    """Like :func:`request` but also returns the response headers."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(method, path, payload, headers or {})
        response = connection.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        return response.status, data, dict(response.getheaders())
    finally:
        connection.close()


class TestResilienceSurface:
    """Deadlines, admission, and health reporting at the HTTP boundary."""

    def test_deadline_header_is_accepted(self, server):
        status, payload, _ = raw_request(
            server, "POST", "/query",
            {"document": "bib", "query": "//author"},
            headers={"X-Repro-Deadline-Ms": "30000"},
        )
        assert status == 200 and payload["tree_count"] > 0

    def test_bad_deadline_header_is_400(self, server):
        status, payload, _ = raw_request(
            server, "POST", "/query",
            {"document": "bib", "query": "//author"},
            headers={"X-Repro-Deadline-Ms": "soon"},
        )
        assert status == 400
        assert_envelope(payload, "bad-request")

    def test_negative_deadline_body_is_400(self, server):
        status, payload = request(
            server, "POST", "/query",
            {"document": "bib", "query": "//author", "deadline_ms": -5},
        )
        assert status == 400
        assert_envelope(payload, "bad-request")

    @pytest.mark.parametrize("value", [True, False, float("nan"), float("inf"), "5"])
    def test_boolean_or_non_finite_deadline_body_is_400(self, server, value):
        # json.dumps writes NaN / Infinity literals, which json.loads accepts.
        status, payload = request(
            server, "POST", "/query",
            {"document": "bib", "query": "//author", "deadline_ms": value},
        )
        assert status == 400
        assert_envelope(payload, "bad-request")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "-1"])
    def test_non_finite_deadline_header_is_400(self, server, value):
        status, payload, _ = raw_request(
            server, "POST", "/query",
            {"document": "bib", "query": "//author"},
            headers={"X-Repro-Deadline-Ms": value},
        )
        assert status == 400
        assert_envelope(payload, "bad-request")

    def test_zero_deadline_means_unbounded(self, server):
        status, payload = request(
            server, "POST", "/query",
            {"document": "bib", "query": "//author", "deadline_ms": 0},
        )
        assert status == 200

    def test_expired_deadline_is_504_envelope(self, server):
        status, payload = request(
            server, "POST", "/query",
            {"document": "bib", "query": "//author", "deadline_ms": 0.000001},
        )
        assert status == 504
        envelope = assert_envelope(payload, "deadline_exceeded")
        assert "deadline" in envelope["message"]

    def test_healthz_exposes_the_failure_surface(self, server):
        status, payload = request(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["reasons"] == []
        assert payload["quarantined"] == []
        assert isinstance(payload["shed_rate"], (int, float))

    def test_quarantined_document_degrades_healthz_to_203(self, server):
        server.service.catalog._quarantined.add("bib")
        try:
            status, payload = request(server, "GET", "/healthz")
            assert status == 203
            assert payload["status"] == "degraded"
            assert payload["quarantined"] == ["bib"]
            assert any("quarantined" in reason for reason in payload["reasons"])
        finally:
            server.service.catalog._quarantined.discard("bib")

    def test_rate_limit_sheds_per_client_with_retry_after(self, tmp_path):
        Catalog(str(tmp_path / "cat")).add("bib", BIB_XML)
        server = create_server(str(tmp_path / "cat"), port=0, rate_limit=0.5)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        assert wait_ready(host, port, timeout=30)
        try:
            body = {"document": "bib", "query": "//author"}
            status, _, _ = raw_request(
                server, "POST", "/query", body, headers={"X-Repro-Client": "alice"}
            )
            assert status == 200  # burst of 1 at rate 0.5/s
            status, payload, headers = raw_request(
                server, "POST", "/query", body, headers={"X-Repro-Client": "alice"}
            )
            assert status == 429
            envelope = assert_envelope(payload, "overloaded")
            assert "rate limit" in envelope["message"]
            assert int(headers["Retry-After"]) >= 1
            # A different client identity has its own untouched bucket.
            status, _, _ = raw_request(
                server, "POST", "/query", body, headers={"X-Repro-Client": "bob"}
            )
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(timeout=10)


def _process_group(pgid: int) -> list[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                fields = handle.read().rpartition(b")")[2].split()
        except OSError:
            continue  # exited while we were listing
        if fields[0] != b"Z" and int(fields[2]) == pgid:
            members.append(int(name))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_one_sigterm_always_stops_a_loaded_server(tmp_path):
    """``repro serve`` under load exits 0 on a single SIGTERM, every time.

    The handler used to raise ``KeyboardInterrupt`` from whatever frame was
    running; landing inside an asyncio callback it was logged and lost
    (about one stop in ten), leaving the server up.
    """
    root = str(tmp_path / "cat")
    Catalog(root).add("bib", BIB_XML)
    body = json.dumps({"document": "bib", "query": "//author", "paths": 5})
    for cycle in range(20):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "-C", root, "--port", "0"],
            env={**os.environ, "PYTHONPATH": "src"},
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        stop = threading.Event()
        clients = []
        try:
            announced = re.search(r"http://([\d.]+):(\d+)", process.stderr.readline())
            assert announced, f"cycle {cycle}: no address announced"
            host, port = announced.group(1), int(announced.group(2))
            assert wait_ready(host, port, timeout=30)

            def load() -> None:
                while not stop.is_set():
                    try:
                        connection = http.client.HTTPConnection(host, port, timeout=5)
                        connection.request("POST", "/query", body)
                        connection.getresponse().read()
                        connection.close()
                    except OSError:
                        pass  # the server is going away: that is the test

            clients = [threading.Thread(target=load, daemon=True) for _ in range(2)]
            for client in clients:
                client.start()
            time.sleep(0.1)
            process.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 5
            assert process.wait(timeout=5) == 0, f"cycle {cycle}"
            # multiprocessing's resource tracker ends when its parent's pipe
            # closes, a moment after the parent: same deadline, not same instant.
            while _process_group(process.pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _process_group(process.pid) == [], f"cycle {cycle}"
        finally:
            stop.set()
            for client in clients:
                client.join(timeout=10)
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=10)
            log = process.stderr.read()
            process.stderr.close()
        assert "Traceback" not in log, f"cycle {cycle}: {log}"
