"""Chaos suite: injected faults must yield a correct result or a structured
error envelope — never a hang, a wrong answer, or a crash loop.

Every scenario drives a fault through the :data:`repro.server.resilience.FAULTS`
seam (or real on-disk corruption / a real SIGKILL) and then asserts the
serving path's *contract*: bounded latency, the exact error ``kind`` a client
would see, and full recovery once the fault clears.
"""

import http.client
import json
import os
import signal
import threading
import time

import pytest

from repro.engine.pipeline import Engine
from repro.errors import (
    CatalogError,
    DeadlineExceededError,
    EvaluationError,
    IntegrityError,
    WorkerUnavailableError,
)
from repro.server.asyncio_http import AsyncReproHTTPServer
from repro.server.catalog import Catalog
from repro.server.cluster import WorkerFleet
from repro.server.http import create_server, wait_ready
from repro.server.resilience import FAULTS, Deadline
from repro.server.service import QueryService, decode_result

from tests.server.test_catalog import corrupt_skeleton, write_old_layout_catalog
from tests.server.test_async_http import set_dispatch
from tests.server.util import wait_until
from tests.skeleton.test_loader import BIB_XML

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def disarmed_faults():
    """Every scenario starts and ends with the global seam off."""
    FAULTS.disarm()
    yield
    FAULTS.disarm()


@pytest.fixture
def service(tmp_path):
    catalog = Catalog(str(tmp_path / "cat"))
    catalog.add("bib", BIB_XML)
    service = QueryService(catalog)
    try:
        yield service
    finally:
        FAULTS.disarm()  # before close(): a pending latency fault must not stall drain
        service.close()


def expected(query, paths=0):
    return decode_result(Engine(BIB_XML).query(query), paths=paths)


def start_server(tmp_path, register=True, **kwargs):
    if register:
        Catalog(str(tmp_path / "cat")).add("bib", BIB_XML)
    server = create_server(str(tmp_path / "cat"), port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    assert wait_ready(host, port, timeout=30)
    return server, thread


def stop_server(server, thread):
    server.shutdown()
    server.server_close()
    service = getattr(server, "service", None)
    if service is not None:
        service.close()
    thread.join(timeout=10)


def request(server, method, path, body=None, headers=None):
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


class TestServiceFaults:
    """In-process service: injected faults surface as typed errors, then heal."""

    def test_evaluate_fault_is_typed_then_recovers(self, service):
        FAULTS.arm("service.evaluate", error=EvaluationError("injected engine failure"))
        with pytest.raises(EvaluationError, match="injected"):
            service.query("bib", "//book/author")
        FAULTS.disarm()
        payload = service.query("bib", "//book/author")
        assert payload["tree_count"] == expected("//book/author")["tree_count"]

    def test_slow_evaluation_trips_the_deadline(self, service):
        FAULTS.arm("service.evaluate", latency=0.5)
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            service.query("bib", "//book/author", deadline=Deadline.after(0.05))
        # The waiter is released by its own budget, not the fault's latency
        # plus evaluation: bounded, no hang.
        assert time.monotonic() - started < 5.0

    def test_transient_cold_load_fault_self_heals(self, service):
        FAULTS.arm("pool.load", error=CatalogError("injected load failure"), times=1)
        with pytest.raises(CatalogError, match="injected"):
            service.query("bib", "//book/author")
        payload = service.query("bib", "//book/author")  # fault self-disarmed
        assert payload["tree_count"] == expected("//book/author")["tree_count"]

    def test_manifest_fault_is_diagnosable(self, service):
        FAULTS.arm("catalog.manifest", error=CatalogError("torn manifest (injected)"))
        with pytest.raises(CatalogError, match="torn manifest"):
            service.catalog.refresh()


class TestHTTPFaults:
    """Real sockets: the same faults become the uniform error envelope."""

    def test_real_corruption_quarantine_reload_cycle(self, tmp_path):
        server, thread = start_server(tmp_path)
        try:
            corrupt_skeleton(str(tmp_path / "cat"), "bib")
            status, payload, _ = request(
                server, "POST", "/query", {"document": "bib", "query": "//book/author"}
            )
            assert status == 503
            assert payload["error"]["kind"] == "integrity"
            # Fail-fast now: quarantined, the corrupt image is not re-read.
            status, payload, _ = request(
                server, "POST", "/query", {"document": "bib", "query": "//book/author"}
            )
            assert status == 503
            assert payload["error"]["kind"] == "quarantined"
            status, payload, _ = request(server, "GET", "/healthz")
            assert status == 203 and payload["status"] == "degraded"
            # Operator repairs from the kept text; serving resumes, correct.
            server.service.catalog.reload("bib")
            status, payload, _ = request(
                server, "POST", "/query", {"document": "bib", "query": "//book/author"}
            )
            assert status == 200
            assert payload["tree_count"] == expected("//book/author")["tree_count"]
            status, payload, _ = request(server, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
        finally:
            stop_server(server, thread)

    @pytest.mark.parametrize(
        "dispatch, workers", [("async", 0), ("async", 1), ("executor", 0)]
    )
    def test_old_layout_ends_in_an_envelope_then_in_service(
        self, tmp_path, dispatch, workers
    ):
        """A catalog written before the one-image layout: the server starts,
        refuses the document with the 503 envelope (no traceback, no hang, no
        half-read instance), and serves it once the operator repairs it."""
        write_old_layout_catalog(str(tmp_path / "cat"), "bib", BIB_XML)
        server, thread = start_server(tmp_path, register=False, workers=workers)
        set_dispatch(server, dispatch)
        ask = {"document": "bib", "query": "//author"}
        try:
            status, payload, _ = request(server, "POST", "/query", ask)
            assert status == 503
            assert payload["error"]["kind"] == "quarantined"
            assert "verify --repair" in payload["error"]["message"]
            # The operator's CLI process: an independent handle on the root.
            report = Catalog(str(tmp_path / "cat")).verify(repair=True)
            assert report["bib"]["status"] == "repaired"
            status, payload, _ = request(server, "POST", "/query", ask)
            assert status == 200
            assert payload["tree_count"] == expected("//author")["tree_count"]
            status, payload, _ = request(server, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
        finally:
            stop_server(server, thread)

    def test_deadline_fault_maps_to_504_envelope(self, tmp_path):
        server, thread = start_server(tmp_path)
        try:
            FAULTS.arm("service.evaluate", latency=0.5)
            status, payload, _ = request(
                server,
                "POST",
                "/query",
                {"document": "bib", "query": "//book/author", "deadline_ms": 50},
            )
            assert status == 504
            assert payload["error"]["kind"] == "deadline_exceeded"
        finally:
            FAULTS.disarm()
            stop_server(server, thread)

    def test_overload_sheds_429_with_retry_after(self, tmp_path):
        server, thread = start_server(tmp_path, max_queue=1)
        try:
            FAULTS.arm("service.evaluate", latency=0.4)
            outcomes = []
            lock = threading.Lock()

            def fire():
                status, payload, headers = request(
                    server, "POST", "/query", {"document": "bib", "query": "//book/author"}
                )
                with lock:
                    outcomes.append((status, payload, headers))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for worker in threads:
                worker.start()
                time.sleep(0.01)  # first in the door holds the only slot
            for worker in threads:
                worker.join(timeout=30)
                assert not worker.is_alive(), "a shed request must never hang"
            statuses = sorted(status for status, _, _ in outcomes)
            assert 200 in statuses, statuses
            assert 429 in statuses, statuses
            for status, payload, headers in outcomes:
                if status == 429:
                    assert payload["error"]["kind"] == "overloaded"
                    assert int(headers["Retry-After"]) >= 1
                else:
                    assert status == 200
                    assert (
                        payload["tree_count"] == expected("//book/author")["tree_count"]
                    )
        finally:
            FAULTS.disarm()
            stop_server(server, thread)


class TestWorkerFaults:
    """Faults inside spawned worker processes cross the wire as typed errors."""

    def test_worker_fault_crosses_wire_as_typed_error(self, tmp_path):
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        fleet = WorkerFleet(
            catalog,
            workers=2,
            health_interval=0.1,
            faults={"catalog.load_instance": {"kind": "integrity", "message": "injected"}},
        )
        try:
            assert fleet.wait_ready(timeout=60)
            with pytest.raises(IntegrityError, match="injected"):
                fleet.query("bib", "//book/author")
        finally:
            fleet.close()

    @pytest.mark.parametrize("first", ["/query", "/stats", "/healthz"])
    def test_worker_serve_fault_answers_then_serves(self, tmp_path, first):
        """``worker.serve`` fires on the first message a worker takes off its
        request pipe — here the request under test, since nothing probes the
        worker before it (one worker thread: messages are taken in order).
        Whichever route it hits answers correctly or with the structured
        envelope; the next request serves."""
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        fleet = WorkerFleet(
            catalog,
            workers=1,
            worker_threads=1,
            health_interval=0.1,
            faults={
                "worker.serve": {
                    "kind": "worker-unavailable",
                    "message": "injected",
                    "times": 1,
                }
            },
        )
        server = AsyncReproHTTPServer(("127.0.0.1", 0), fleet)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        ask = {"document": "bib", "query": "//book/author"}
        right = expected("//book/author")["tree_count"]
        try:
            if first == "/query":
                status, payload, _ = request(server, "POST", first, ask)
            else:
                status, payload, _ = request(server, "GET", first)
            if status >= 400:
                assert (status, list(payload)) == (503, ["error"])
                assert payload["error"]["kind"] == "worker-unavailable"
                assert "injected" in payload["error"]["message"]
            elif first == "/query":
                assert payload["tree_count"] == right
            elif first == "/stats":
                assert payload["cluster"]["workers"] == 1
            else:
                assert payload["status"] in ("ok", "degraded")
            status, payload, _ = request(server, "POST", "/query", ask)
            assert status == 200 and payload["tree_count"] == right
            status, payload, _ = request(server, "GET", "/stats")
            assert status == 200 and "service" in payload["workers"][0]
            status, payload, _ = request(server, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
        finally:
            stop_server(server, thread)

    def test_worker_transient_cold_load_fault_self_heals(self, tmp_path):
        # times=1: the injected miss reaches the caller as its typed error,
        # as in process, and the next query gets the *correct* answer.
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        fleet = WorkerFleet(
            catalog,
            workers=2,
            health_interval=0.1,
            faults={"pool.load": {"kind": "catalog", "message": "transient", "times": 1}},
        )
        try:
            assert fleet.wait_ready(timeout=60)
            with pytest.raises(CatalogError, match="transient"):
                fleet.query("bib", "//book/author")
            payload = fleet.query("bib", "//book/author")
            assert payload["tree_count"] == expected("//book/author")["tree_count"]
        finally:
            fleet.close()

    def test_dispatch_faults_open_breaker_then_recover(self, tmp_path):
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        fleet = WorkerFleet(
            catalog,
            workers=2,
            health_interval=0.1,
            breaker_threshold=2,
            breaker_cooldown=0.2,
        )
        try:
            assert fleet.wait_ready(timeout=60)
            primary = fleet.shard_of("bib", "//book/author")
            FAULTS.arm(
                "cluster.dispatch",
                error=WorkerUnavailableError("injected dispatch failure"),
                times=2,
            )
            for _ in range(2):
                with pytest.raises(WorkerUnavailableError):
                    fleet.query("bib", "//book/author")
            health = fleet.health_dict()
            assert health["status"] == "degraded"
            assert primary in health["open_breakers"]
            # Route-around: the open shard is skipped, service continues.
            payload = fleet.query("bib", "//book/author")
            assert payload["tree_count"] == expected("//book/author")["tree_count"]
            assert payload["worker"] != primary
            # After the cooldown a half-open probe succeeds and heals the fleet.
            assert wait_until(
                lambda: fleet.query("bib", "//book/author")["worker"] == primary
                and fleet.health_dict()["status"] == "ok",
                timeout=15,
            )
        finally:
            fleet.close()

    def test_sigkill_mid_flight_never_hangs_or_lies(self, tmp_path):
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        fleet = WorkerFleet(catalog, workers=2, health_interval=0.05)
        try:
            assert fleet.wait_ready(timeout=60)
            right = expected("//book/author")["tree_count"]
            outcomes = []
            lock = threading.Lock()

            def storm():
                for _ in range(10):
                    try:
                        payload = fleet.query("bib", "//book/author")
                        with lock:
                            outcomes.append(("ok", payload["tree_count"]))
                    except (WorkerUnavailableError, CatalogError) as error:
                        with lock:
                            outcomes.append(("error", type(error).__name__))

            threads = [threading.Thread(target=storm) for _ in range(4)]
            for worker in threads:
                worker.start()
            victim = fleet.shard_of("bib", "//book/author")
            os.kill(fleet.stats_dict()["workers"][victim]["pid"], signal.SIGKILL)
            for worker in threads:
                worker.join(timeout=60)
                assert not worker.is_alive(), "an in-flight request hung"
            # Contract: every request either answered correctly or failed
            # with a typed error — never a wrong tree count.
            for kind, value in outcomes:
                if kind == "ok":
                    assert value == right
            assert any(kind == "ok" for kind, _ in outcomes)
            # The monitor respawns the shard; the fleet serves again.
            assert wait_until(
                lambda: fleet.query("bib", "//book/author")["tree_count"] == right,
                timeout=30,
            )
        finally:
            fleet.close()
