"""Tests for the pre-forked worker fleet: routing, failover, drain.

Worker processes are spawned for real (``multiprocessing`` spawn start
method), so the module-scoped fleet is shared by every test that only
*reads* it; the destructive kill/respawn tests build their own.
"""

import http.client
import json
import os
import signal
import threading
import time

import pytest

from repro.engine.pipeline import Engine
from repro.errors import CatalogError, ClusterError, WorkerUnavailableError, XPathSyntaxError
from repro.server.catalog import Catalog
from repro.server.cluster import WorkerFleet
from repro.server.http import create_server, wait_ready
from repro.server.service import decode_result

from tests.server.util import wait_until
from tests.skeleton.test_loader import BIB_XML

TINY_XML = "<r><x><y/></x><x><y/></x><z/></r>"

QUERIES = ["//author", "//book/author", "/bib/paper/title", '//paper[author["Codd"]]']

#: Small but > 1 so routing decisions are real; spawn cost stays bounded.
WORKERS = 2


@pytest.fixture(scope="module")
def shared_fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster-cat")
    catalog = Catalog(str(root))
    catalog.add("bib", BIB_XML)
    catalog.add("tiny", TINY_XML)
    fleet = WorkerFleet(catalog, workers=WORKERS, health_interval=0.1)
    assert fleet.wait_ready(timeout=60)
    try:
        yield fleet
    finally:
        fleet.close()


def start_own_fleet(tmp_path, faults=None):
    catalog = Catalog(str(tmp_path / "cat"))
    catalog.add("bib", BIB_XML)
    fleet = WorkerFleet(catalog, workers=WORKERS, health_interval=0.05, faults=faults)
    assert fleet.wait_ready(timeout=60)
    return fleet


@pytest.fixture
def own_fleet(tmp_path):
    """A private fleet for destructive tests; killed workers stay contained."""
    fleet = start_own_fleet(tmp_path)
    try:
        yield fleet
    finally:
        fleet.close()


@pytest.fixture
def held_fleet(tmp_path):
    """``own_fleet`` whose every worker incarnation holds its first
    evaluation for a second, so a request is surely in flight."""
    fleet = start_own_fleet(tmp_path, {"service.evaluate": {"latency": 1.0, "times": 1}})
    try:
        yield fleet
    finally:
        fleet.close()


class TestDispatch:
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_direct_evaluation(self, shared_fleet, query):
        response = shared_fleet.query("bib", query, paths=50)
        expected = decode_result(Engine(BIB_XML).query(query), paths=50)
        assert response["tree_count"] == expected["tree_count"]
        assert response["paths"] == expected["paths"]
        assert response["worker"] in range(WORKERS)

    def test_routing_is_deterministic(self, shared_fleet):
        shards = {shared_fleet.shard_of("bib", "//author") for _ in range(10)}
        assert len(shards) == 1

    def test_shard_affinity_one_worker_per_key(self, shared_fleet):
        """After traffic over several documents, each key is resident once."""
        for document in ("bib", "tiny"):
            for query in ("//x", "//author"):
                shared_fleet.query(document, query)
        stats = shared_fleet.stats_dict()
        residency: dict[str, int] = {}
        for row in stats["workers"]:
            for document, strings in row.get("resident") or []:
                key = (document, tuple(strings))
                assert key not in residency, f"{key} resident in two workers"
                residency[key] = row["worker"]
        assert ("bib", ()) in residency and ("tiny", ()) in residency
        assert residency[("bib", ())] == shared_fleet.shard_of("bib", "//author")

    def test_front_end_validation_without_ipc(self, shared_fleet):
        with pytest.raises(CatalogError, match="unknown catalog document"):
            shared_fleet.query("ghost", "//a")
        with pytest.raises(XPathSyntaxError):
            shared_fleet.query("bib", "//a[[")

    def test_string_schema_routes_and_answers(self, shared_fleet):
        query = '//paper[author["Codd"]]'
        response = shared_fleet.query("bib", query, paths=10)
        expected = decode_result(Engine(BIB_XML).query(query), paths=10)
        assert response["tree_count"] == expected["tree_count"]
        assert response["paths"] == expected["paths"]

    def test_late_registration_visible_to_workers(self, shared_fleet):
        """Documents added by the front-end after spawn are served (refresh)."""
        shared_fleet.catalog.add("late", "<d><item/><item/><item/></d>")
        response = shared_fleet.query("late", "//item")
        assert response["tree_count"] == 3

    def test_stats_shape(self, shared_fleet):
        shared_fleet.query("bib", "//author")
        stats = shared_fleet.stats_dict()
        cluster = stats["cluster"]
        assert cluster["workers"] == WORKERS
        assert cluster["alive"] == WORKERS
        assert cluster["dispatched"] >= cluster["completed"] > 0
        rows = stats["workers"]
        assert [row["worker"] for row in rows] == list(range(WORKERS))
        for row in rows:
            assert row["alive"] and isinstance(row["pid"], int)
            assert row["queue_depth"] >= 0
            assert "pool" in row and "service" in row

    def test_evict_drops_residency_everywhere(self, shared_fleet):
        shared_fleet.query("bib", "//author")
        assert shared_fleet.evict("bib") >= 1
        stats = shared_fleet.stats_dict()
        for row in stats["workers"]:
            assert ["bib", []] not in (row.get("resident") or [])
        # Still servable afterwards (cold reload from the stored image).
        assert shared_fleet.query("bib", "//author")["tree_count"] > 0

    def test_explain_is_optimized_from_catalog_stats(self, shared_fleet):
        payload = shared_fleet.explain("bib", "//book/author")
        plan = payload["plan"]
        assert plan["optimizer"]["optimized"] is True
        assert "analyzed" not in payload
        assert "actual" not in plan["algebra"]

    def test_explain_analyze_measures_dispatcher_side(self, shared_fleet):
        # Actuals come from a private dispatcher-side load; the answer must
        # agree with what the shard's worker actually serves.
        payload = shared_fleet.explain("bib", "//book/author", analyze=True)
        assert payload["analyzed"] is True
        actual = payload["plan"]["algebra"]["actual"]
        served = shared_fleet.query("bib", "//book/author")
        assert actual["tree_count"] == served["tree_count"]
        assert actual["dag_count"] == served["dag_count"]


class TestFailover:
    def _shard_slot(self, fleet, document="bib"):
        return fleet._slot_for(document, ())

    def test_kill9_fails_inflight_with_503_error_then_respawns(self, held_fleet):
        """kill -9 mid-traffic: in-flight requests for the shard fail with
        WorkerUnavailableError (503; never a hang, never a wrong answer),
        the dispatcher respawns the worker, and later requests succeed."""
        expected = decode_result(Engine(BIB_XML).query("//author"))["tree_count"]
        slot = self._shard_slot(held_fleet)
        first_pid = slot.process.pid
        outcomes: list[object] = []

        def storm():
            for _ in range(40):
                try:
                    outcomes.append(held_fleet.query("bib", "//author")["tree_count"])
                except WorkerUnavailableError as error:
                    outcomes.append(error)
                time.sleep(0.002)

        thread = threading.Thread(target=storm)
        thread.start()
        assert wait_until(lambda: slot.inflight)
        os.kill(first_pid, signal.SIGKILL)
        thread.join(timeout=60)
        assert not thread.is_alive(), "a request hung after the worker was killed"
        # Every outcome is either the correct count or the explicit
        # worker-unavailable error; nothing else ever surfaces.
        wrong = [
            o
            for o in outcomes
            if not isinstance(o, WorkerUnavailableError) and o != expected
        ]
        assert wrong == []
        assert any(isinstance(o, WorkerUnavailableError) for o in outcomes)
        # The monitor respawned the slot (same id, new pid) ...
        assert wait_until(
            lambda: slot.process.is_alive() and slot.process.pid != first_pid
        )
        # ... and the respawned worker answers correctly from the stored image.
        response = held_fleet.query("bib", "//author", paths=10)
        assert response["tree_count"] == expected
        assert held_fleet.stats_dict()["cluster"]["respawns"] >= 1

    def test_dispatch_to_dead_worker_fails_fast(self, own_fleet):
        slot = self._shard_slot(own_fleet)
        pid = slot.process.pid
        os.kill(pid, signal.SIGKILL)
        wait_until(lambda: not (slot.process.pid == pid and slot.process.is_alive()))
        # Before or after the monitor's pass: a 503-class error or a correct
        # answer from the respawned worker — never a hang or wrong data.
        try:
            response = own_fleet.query("bib", "//author")
        except WorkerUnavailableError:
            pass
        else:
            expected = decode_result(Engine(BIB_XML).query("//author"))["tree_count"]
            assert response["tree_count"] == expected

    def test_crash_loop_backs_off_and_keeps_failing_fast(self, tmp_path):
        """A worker dying deterministically at startup must not spawn-storm.

        Corrupting the catalog manifest makes every respawned worker die
        during boot; the monitor accumulates strikes and throttles
        respawns, while queries keep failing fast (503-class) — never
        hanging — and shutdown stays clean.
        """
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        fleet = WorkerFleet(catalog, workers=1, health_interval=0.05)
        assert fleet.wait_ready(timeout=60)
        (tmp_path / "cat" / "catalog.json").write_text("{not json")
        os.kill(fleet._slots[0].process.pid, signal.SIGKILL)
        saw_unavailable = False
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and fleet._slots[0].strikes < 3:
            try:
                fleet.query("bib", "//author")
            except WorkerUnavailableError:
                saw_unavailable = True
            time.sleep(0.05)
        assert fleet._slots[0].strikes >= 3, "respawn storm was never throttled"
        assert saw_unavailable
        assert fleet.stats_dict()["cluster"]["respawns"] >= 3
        fleet.close()

    def test_close_is_graceful_and_final(self, tmp_path):
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        fleet = WorkerFleet(catalog, workers=WORKERS, health_interval=0.1)
        assert fleet.wait_ready(timeout=60)
        assert fleet.query("bib", "//author")["tree_count"] > 0
        fleet.close()
        for slot in fleet._slots:
            assert not slot.process.is_alive()
        with pytest.raises(ClusterError, match="shutting down"):
            fleet.query("bib", "//author")
        fleet.close()  # idempotent


class TestClusterHTTP:
    @pytest.fixture
    def server(self, tmp_path):
        Catalog(str(tmp_path / "cat")).add("bib", BIB_XML)
        server = create_server(str(tmp_path / "cat"), port=0, workers=WORKERS)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        assert wait_ready(host, port, timeout=60)
        assert server.service.wait_ready(timeout=60)
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(timeout=10)

    def request(self, server, method, path, body=None):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            payload = json.dumps(body) if body is not None else None
            connection.request(method, path, payload)
            response = connection.getresponse()
            return response.status, json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()

    def test_query_and_worker_tag(self, server):
        status, payload = self.request(
            server, "POST", "/query", {"document": "bib", "query": "//author", "paths": 5}
        )
        assert status == 200
        expected = decode_result(Engine(BIB_XML).query("//author"), paths=5)
        assert payload["tree_count"] == expected["tree_count"]
        assert payload["paths"] == expected["paths"]
        assert payload["worker"] in range(WORKERS)

    def test_healthz_and_stats_expose_fleet(self, server):
        status, payload = self.request(server, "GET", "/healthz")
        assert status == 200 and payload["workers"] == WORKERS
        self.request(server, "POST", "/query", {"document": "bib", "query": "//author"})
        status, stats = self.request(server, "GET", "/stats")
        assert status == 200
        assert stats["cluster"]["alive"] == WORKERS
        assert len(stats["workers"]) == WORKERS
        assert all("queue_depth" in row for row in stats["workers"])

    def test_dead_shard_maps_to_503(self, server):
        slot = server.service._slot_for("bib", ())
        os.kill(slot.process.pid, signal.SIGKILL)
        status, payload = self.request(
            server, "POST", "/query", {"document": "bib", "query": "//author"}
        )
        if status == 200:  # monitor already respawned: correctness still holds
            expected = decode_result(Engine(BIB_XML).query("//author"))
            assert payload["tree_count"] == expected["tree_count"]
        else:
            assert status == 503
            assert payload["error"]["kind"] == "worker-unavailable"
            assert "respawning" in payload["error"]["message"]

    def test_register_then_query_through_fleet(self, server):
        status, payload = self.request(
            server, "POST", "/catalog/tiny", {"xml": TINY_XML}
        )
        assert status == 201 and payload["name"] == "tiny"
        status, payload = self.request(
            server, "POST", "/query", {"document": "tiny", "query": "//x"}
        )
        assert status == 200 and payload["tree_count"] == 2

    def test_delete_then_reregister_serves_fresh_data(self, server):
        """Workers must drop stale masters when a name is removed + re-added.

        Regression test for the evict/remove ordering: the catalog entry
        must leave the manifest *before* workers refresh, or a worker
        keeps its resident master and answers from the old document.
        """
        self.request(server, "POST", "/catalog/doc", {"xml": "<d><x/><x/></d>"})
        status, payload = self.request(
            server, "POST", "/query", {"document": "doc", "query": "//x"}
        )
        assert status == 200 and payload["tree_count"] == 2
        status, _ = self.request(server, "DELETE", "/catalog/doc")
        assert status == 200
        status, payload = self.request(
            server, "POST", "/catalog/doc", {"xml": "<d><x/><x/><x/><x/><x/></d>"}
        )
        assert status == 201
        status, payload = self.request(
            server, "POST", "/query", {"document": "doc", "query": "//x"}
        )
        assert status == 200 and payload["tree_count"] == 5


class TestDefaults:
    def test_worker_count_is_required(self, tmp_path):
        with pytest.raises(TypeError, match="workers"):
            WorkerFleet(Catalog(str(tmp_path / "cat")))

    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(ClusterError, match=">= 1 worker"):
            WorkerFleet(Catalog(str(tmp_path / "cat")), workers=0)


class TestBackoffAmnesty:
    """Regression: respawn-backoff strikes must reset after a sustained
    healthy period, not persist until the next crash."""

    def test_strikes_reset_after_sustained_healthy_window(self, tmp_path):
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        fleet = WorkerFleet(
            catalog, workers=WORKERS, health_interval=0.05, backoff_healthy_window=0.3
        )
        try:
            assert fleet.wait_ready(timeout=60)
            slot = fleet._slots[0]
            # Simulate a past crash-loop: strikes high, incarnation healthy
            # for longer than the amnesty window.
            slot.strikes = 4
            slot.last_spawn = time.monotonic() - 1.0
            assert wait_until(lambda: slot.strikes == 0, timeout=10)
            # The wiped slate means the *next* young death is strike one,
            # not strike five: respawn stays immediate, not backed off.
        finally:
            fleet.close()

    def test_strikes_persist_within_healthy_window(self, own_fleet):
        slot = own_fleet._slots[0]
        slot.strikes = 2
        slot.last_spawn = time.monotonic()  # freshly (re)spawned: no amnesty yet
        time.sleep(0.3)  # several monitor ticks at health_interval=0.05
        assert slot.strikes == 2


class TestBreakerRouting:
    """Open circuit breakers route shards around; a fleet-wide outage
    still dispatches (the primary absorbs it) instead of failing closed."""

    def test_open_breaker_routes_around_the_shard(self, own_fleet):
        primary = own_fleet.shard_of("bib", "//author")
        breaker = own_fleet._slots[primary].breaker
        for _ in range(breaker.threshold):
            breaker.record_failure()
        payload = own_fleet.query("bib", "//author")
        assert payload["worker"] != primary
        assert own_fleet.stats_dict()["cluster"]["breakers_open"] == 1
        health = own_fleet.health_dict()
        assert health["status"] == "degraded"
        assert primary in health["open_breakers"]

    def test_all_breakers_open_still_uses_primary(self, own_fleet):
        primary = own_fleet.shard_of("bib", "//author")
        for slot in own_fleet._slots:
            for _ in range(slot.breaker.threshold):
                slot.breaker.record_failure()
        payload = own_fleet.query("bib", "//author")  # fail open, not closed
        assert payload["worker"] == primary


class TestStartup:
    def test_a_failed_start_reaches_the_caller_and_stops_started_workers(
        self, tmp_path, monkeypatch
    ):
        """The second worker's ``Process.start()`` raises: the caller gets
        that error, and the first worker does not outlive the constructor."""
        from multiprocessing.context import SpawnProcess

        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        start = SpawnProcess.start
        started = []

        def start_once(process):
            if started:
                raise OSError("injected: no more processes")
            started.append(process)
            start(process)

        monkeypatch.setattr(SpawnProcess, "start", start_once)
        with pytest.raises(OSError, match="injected"):
            WorkerFleet(catalog, workers=2)
        assert len(started) == 1 and not started[0].is_alive()


class TestFleetQuarantineVisibility:
    """Quarantine happens inside a worker's own catalog; the front-end's
    health view must surface it — and see the recovery — across the
    process boundary."""

    def test_worker_quarantine_degrades_health_then_repair_recovers(
        self, own_fleet, tmp_path
    ):
        from repro.errors import IntegrityError, QuarantinedError

        from tests.server.test_catalog import corrupt_skeleton

        corrupt_skeleton(str(tmp_path / "cat"), "bib")
        with pytest.raises((IntegrityError, QuarantinedError)):
            own_fleet.query("bib", "//author")
        # The verdict lives in the worker process; the union in
        # health_dict must still see it.
        wait_until(lambda: own_fleet.health_dict()["status"] == "degraded")
        health = own_fleet.health_dict()
        assert "bib" in health["quarantined"]
        # Operator repair from an independent handle (separate process in
        # production): the worker's stats probe re-reads the manifest, so
        # health recovers without a restart...
        Catalog(str(tmp_path / "cat")).verify(repair=True)
        wait_until(lambda: own_fleet.health_dict()["status"] == "ok")
        # ...and so does service itself.
        expected = decode_result(Engine(BIB_XML).query("//author"))["tree_count"]
        assert own_fleet.query("bib", "//author")["tree_count"] == expected


class TestTracePropagation:
    """Trace IDs cross the worker wire protocol and come back in payloads."""

    def test_trace_round_trips_through_worker(self, shared_fleet):
        payload = shared_fleet.query("bib", "//author", trace="feedface01234567")
        assert payload["trace"] == "feedface01234567"

    def test_no_trace_means_no_trace_key(self, shared_fleet):
        payload = shared_fleet.query("bib", "//author")
        assert "trace" not in payload


class TestRespawnMonotonicStats:
    """Regression: per-shard /stats counters must survive a worker respawn
    monotonically.  A killed-and-respawned shard starts its in-process
    counters at zero; the dispatcher carries the last probed totals
    forward and folds them in, so dashboards and the overload bench's
    sliding-window shed-rate never see counters jump backwards."""

    def _service_row(self, fleet, worker_id):
        stats = fleet.stats_dict()
        return stats["workers"][worker_id].get("service") or {}

    def test_counters_survive_kill_and_respawn(self, own_fleet):
        shard = own_fleet.shard_of("bib", "//author")
        for _ in range(5):
            own_fleet.query("bib", "//author")
        # A stats probe captures the pre-crash totals (the carry source).
        before = self._service_row(own_fleet, shard)
        assert before.get("requests", 0) >= 5
        before_requests = before["requests"]

        first_pid = own_fleet._slots[shard].process.pid
        os.kill(first_pid, signal.SIGKILL)
        assert wait_until(
            lambda: own_fleet._slots[shard].process is not None
            and own_fleet._slots[shard].process.pid != first_pid
            and own_fleet._slots[shard].process.is_alive(),
            timeout=30,
        ), "shard never respawned"

        # Fresh worker, zeroed in-process counters — the report must not
        # regress below the carried pre-crash totals...
        after_respawn = self._service_row(own_fleet, shard)
        assert after_respawn.get("requests", 0) >= before_requests

        # ...and new traffic accumulates on top of the carry.
        for _ in range(3):
            own_fleet.query("bib", "//author")
        after_traffic = self._service_row(own_fleet, shard)
        assert after_traffic["requests"] >= before_requests + 3
        # Monotone across repeated probes too.
        again = self._service_row(own_fleet, shard)
        assert again["requests"] >= after_traffic["requests"]

    def test_gauges_report_live_values_not_sums(self, own_fleet):
        shard = own_fleet.shard_of("bib", "//author")
        own_fleet.query("bib", "//author")
        own_fleet.stats_dict()  # capture a probe with resident >= 1
        first_pid = own_fleet._slots[shard].process.pid
        os.kill(first_pid, signal.SIGKILL)
        assert wait_until(
            lambda: own_fleet._slots[shard].process is not None
            and own_fleet._slots[shard].process.pid != first_pid
            and own_fleet._slots[shard].process.is_alive(),
            timeout=30,
        )
        stats = own_fleet.stats_dict()
        pool = stats["workers"][shard].get("pool") or {}
        # Capacity is a configuration gauge: summing the carry into it
        # would double it after one respawn.  The fleet default is 8.
        assert pool.get("capacity") == 8
        assert pool.get("resident", 0) <= pool["capacity"]
