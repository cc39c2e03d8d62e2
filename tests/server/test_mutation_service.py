"""The mutation subsystem end-to-end: service, fleet, HTTP, and catalog replay.

The invariant under test everywhere: after a mutation commits, every
serving surface answers queries **byte-identically** to a catalog that
registered the edited text from scratch — and no surface ever serves
the pre-mutation state once the new version is published.
"""

import http.client
import json
import threading

import pytest

from repro.api import Database
from repro.engine.pipeline import Engine
from repro.errors import CatalogError, MutationError
from repro.mutation.ops import Mutation
from repro.mutation.textedit import splice
from repro.server.catalog import Catalog
from repro.server.cluster import WorkerFleet
from repro.server.http import create_server, wait_ready
from repro.server.service import QueryService, decode_result

from tests.server.test_catalog import assert_served_is_minimal
from tests.server.test_async_http import DISPATCH_PATHS, set_dispatch
from tests.skeleton.test_loader import BIB_XML

APPEND_BOOK = {
    "op": "append_child",
    "path": [],
    "xml": "<book><title>New Title</title><author>New Author</author></book>",
}

QUERIES = ["//author", "//book/title", "//paper[author]", "/bib/book"]


def edited(text, mutations):
    """The text a perfect editor would produce (the splice oracle)."""
    for raw in mutations:
        text = splice(text, Mutation.from_dict(raw))
    return text


def assert_matches_fresh_shred(service, name, text, queries=QUERIES, paths=10):
    engine = Engine(text)
    for query in queries:
        payload = service.query(name, query, paths=paths)
        oracle = decode_result(engine.query(query), paths=paths)
        assert payload["tree_count"] == oracle["tree_count"], query
        assert payload["paths"] == oracle["paths"], query


@pytest.fixture
def service(tmp_path):
    catalog = Catalog(str(tmp_path / "cat"))
    catalog.add("bib", BIB_XML)
    service = QueryService(catalog)
    try:
        yield service
    finally:
        service.close()


@pytest.fixture(params=["service", "fleet"])
def backend(request, tmp_path):
    """Both serving backends over the same catalog: the parity fixture."""
    catalog = Catalog(str(tmp_path / "cat"))
    catalog.add("bib", BIB_XML)
    if request.param == "service":
        backend = QueryService(catalog)
    else:
        backend = WorkerFleet(catalog, workers=1, health_interval=0.2)
    try:
        assert backend.wait_ready(timeout=30)
        yield backend
    finally:
        backend.close()


def mutation_block(stats):
    """The ``mutations`` counters of a ``/stats`` payload, either backend."""
    return stats["mutations"] if "mutations" in stats else stats["service"]["mutations"]


#: The exact ``/mutate`` body of one APPEND_BOOK commit, timings removed —
#: identical at ``--workers 0`` and ``--workers 1``.
APPEND_OUTCOME = {
    "document": "bib",
    "doc_version": 2,
    "applied": 1,
    "ops": {"append_child": 1},
    "pool_entries_evicted": 0,
    "dag_vertices": 7,
    "skeleton_nodes": 16,
}


class TestBackendParity:
    """One suite over ``QueryService`` and ``WorkerFleet(workers=1)``."""

    def test_stats_dict_reports_versions_and_ops(self, backend):
        outcome = backend.mutate("bib", [APPEND_BOOK])
        assert list(outcome) == [
            "document", "doc_version", "applied", "ops", "seconds",
            "maintenance_seconds", "pool_entries_evicted", "dag_vertices", "skeleton_nodes",
        ]
        timings = {"seconds", "maintenance_seconds"}
        assert {k: v for k, v in outcome.items() if k not in timings} == APPEND_OUTCOME
        stats = backend.stats_dict()
        assert stats["doc_versions"] == {"bib": 2}
        assert mutation_block(stats) == {
            "applied": 1, "failed": 0, "ops": {"append_child": 1}
        }

    def test_stats_and_health_keep_their_shape(self, backend):
        # The merge moved the counters, not the bodies: /stats and /healthz
        # keep each backend's exact key order (what metrics.py and the e2e
        # benchmark read).
        stats, health = backend.stats_dict(), backend.health_dict()
        if isinstance(backend, QueryService):
            assert list(stats) == [
                "service", "pool", "optimize", "admission",
                "quarantined", "kernel", "doc_versions",
            ]
            assert list(stats["service"])[-2:] == ["working_reforks", "mutations"]
            assert list(health) == ["status", "reasons", "quarantined", "shed_rate"]
        else:
            assert list(stats) == [
                "cluster", "workers", "admission", "kernel",
                "mutations", "doc_versions",
            ]
            # Worker rows are in-process services: same block, always zero.
            assert stats["workers"][0]["service"]["mutations"] == {
                "applied": 0, "failed": 0, "ops": {}
            }
            assert list(health) == [
                "status", "reasons", "workers", "alive", "open_breakers",
                "quarantined", "shed_rate",
            ]
        assert health["status"] == "ok"

    def test_generator_patch_is_counted(self, backend):
        # Regression: the op recount re-iterated the caller's iterable after
        # Catalog.mutate had consumed it, so a generator patch committed a
        # version yet reported applied=0, ops={} and never reached /metrics.
        with Database.from_service(backend) as db:
            outcome = db.apply_patch(dict(APPEND_BOOK) for _ in range(2))
        assert outcome["doc_version"] == 2
        assert outcome["applied"] == 2
        assert outcome["ops"] == {"append_child": 2}
        assert mutation_block(backend.stats_dict())["ops"] == {"append_child": 2}

    def test_failed_mutations_count_identically(self, backend):
        with pytest.raises(MutationError):
            backend.mutate("bib", [{"op": "delete_subtree", "path": [99]}])
        with pytest.raises(MutationError):
            backend.mutate("bib", {"op": "delete_subtree", "path": [0]})  # not a list
        with pytest.raises(CatalogError):
            backend.mutate("nope", [APPEND_BOOK])
        assert mutation_block(backend.stats_dict()) == {"applied": 0, "failed": 3, "ops": {}}

    def test_plan_cache_not_stale_when_mutation_populates_a_tag(self, backend):
        # The classic stale-plan bug: "//dvd" is *provably empty* before
        # the mutation (complete-tag stats let the optimizer fold it), so
        # a plan cached without the doc_version in its key would keep
        # answering 0 forever.
        assert backend.query("bib", "//dvd")["tree_count"] == 0
        folded = backend.explain("bib", "//dvd")["plan"]["algebra"]
        assert folded["op"] == "empty-set"
        backend.mutate(
            "bib", [{"op": "append_child", "path": [], "xml": "<dvd>x</dvd>"}]
        )
        assert backend.query("bib", "//dvd")["tree_count"] == 1
        assert backend.explain("bib", "//dvd")["plan"]["algebra"]["op"] != "empty-set"

    def test_plan_cache_not_stale_on_republished_name(self, backend):
        # Same bug, registration flavor: evict + re-register under the
        # same name with different content must invalidate cached plans
        # and pooled instances.
        assert backend.query("bib", "//author")["tree_count"] == 5
        backend.catalog.remove("bib")
        backend.evict("bib")
        backend.catalog.add("bib", "<bib><book><author>only</author></book></bib>")
        assert backend.query("bib", "//author")["tree_count"] == 1


class TestServiceMutate:
    def test_results_match_fresh_shred_after_mutation(self, service):
        assert_matches_fresh_shred(service, "bib", BIB_XML)
        outcome = service.mutate("bib", [APPEND_BOOK])
        assert outcome["applied"] == 1
        assert outcome["doc_version"] == 2
        assert_matches_fresh_shred(service, "bib", edited(BIB_XML, [APPEND_BOOK]))

    def test_mutations_compound(self, service):
        batch = [APPEND_BOOK, {"op": "delete_subtree", "path": [1]}]
        service.mutate("bib", batch)
        assert_matches_fresh_shred(service, "bib", edited(BIB_XML, batch))
        assert_served_is_minimal(service.catalog, "bib")

    def test_failed_mutation_changes_nothing(self, service):
        before = service.catalog.entry("bib").doc_version
        with pytest.raises(MutationError):
            service.mutate("bib", [{"op": "delete_subtree", "path": [99]}])
        assert service.catalog.entry("bib").doc_version == before
        assert_matches_fresh_shred(service, "bib", BIB_XML)
        stats = service.stats_dict()
        assert stats["service"]["mutations"]["failed"] == 1
        assert stats["service"]["mutations"]["applied"] == 0

    def test_batch_is_atomic(self, service):
        before = service.catalog.entry("bib").doc_version
        with pytest.raises(MutationError):
            service.mutate(
                "bib", [APPEND_BOOK, {"op": "delete_subtree", "path": [99]}]
            )
        # The first op of the failed batch must not have leaked through.
        assert service.catalog.entry("bib").doc_version == before
        assert_matches_fresh_shred(service, "bib", BIB_XML)

    def test_document_stats_track_the_new_version(self, service):
        before = service.catalog.document_stats("bib")
        service.mutate("bib", [APPEND_BOOK])
        after = service.catalog.document_stats("bib")
        assert after.tree_nodes == before.tree_nodes + 3
        assert after.sets["book"] == before.sets["book"] + 1

    def test_mutate_unknown_document(self, service):
        with pytest.raises(CatalogError):
            service.mutate("nope", [APPEND_BOOK])


class TestCatalogReplayAndVerify:
    def test_verify_reports_journal_state(self, tmp_path):
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        catalog.mutate("bib", [APPEND_BOOK])
        report = catalog.verify()
        journal = report["bib"]["journal"]
        # A committed mutation compacts its record away: nothing pending.
        assert journal["pending"] == 0
        assert not journal["torn"]

    def test_repair_truncates_torn_journal(self, tmp_path):
        root = str(tmp_path / "cat")
        catalog = Catalog(root)
        catalog.add("bib", BIB_XML)
        with open(str(tmp_path / "cat" / "bib" / "journal.wal"), "w") as handle:
            handle.write("garbage that is not a frame\n")
        fresh = Catalog(root, journal_replay=False)
        report = fresh.verify(repair=True)
        journal = report["bib"]["journal"]
        assert journal["torn"]
        assert journal["repaired"]["torn_truncated"] == 1
        assert fresh.verify()["bib"]["journal"]["torn"] is False

    def test_writer_restart_replays_pending_journal(self, tmp_path):
        root = str(tmp_path / "cat")
        catalog = Catalog(root)
        catalog.add("bib", BIB_XML)
        # Simulate a crash after the WAL append but before publish: write
        # the intent record directly, as Catalog.mutate would have.
        catalog._journal("bib").append(
            {"name": "bib", "base_version": 1, "doc_version": 2,
             "mutations": [APPEND_BOOK], "ts": 0.0}
        )
        reopened = Catalog(root)  # the writer replays at startup
        assert reopened.last_replay["bib"]["replayed"] == [2]
        entry = reopened.entry("bib")
        assert entry.doc_version == 2
        assert reopened.xml("bib") == edited(BIB_XML, [APPEND_BOOK])
        assert_served_is_minimal(reopened, "bib")  # the replayed version too

    def test_reader_does_not_replay(self, tmp_path):
        root = str(tmp_path / "cat")
        catalog = Catalog(root)
        catalog.add("bib", BIB_XML)
        catalog._journal("bib").append(
            {"name": "bib", "base_version": 1, "doc_version": 2,
             "mutations": [APPEND_BOOK], "ts": 0.0}
        )
        reader = Catalog(root, journal_replay=False)
        assert reader.entry("bib").doc_version == 1
        assert reader.xml("bib") == BIB_XML

    def test_stale_base_version_record_is_skipped(self, tmp_path):
        root = str(tmp_path / "cat")
        catalog = Catalog(root)
        catalog.add("bib", BIB_XML)
        catalog.mutate("bib", [APPEND_BOOK])  # publishes v2
        # A leftover intent against the *old* base must not re-apply.
        catalog._journal("bib").append(
            {"name": "bib", "base_version": 1, "doc_version": 2,
             "mutations": [{"op": "delete_subtree", "path": [0]}], "ts": 0.0}
        )
        reopened = Catalog(root)
        assert not reopened.last_replay.get("bib", {}).get("replayed")
        assert reopened.entry("bib").doc_version == 2
        assert reopened.xml("bib") == edited(BIB_XML, [APPEND_BOOK])


class TestFleetMutate:
    def test_fleet_never_serves_the_old_version(self, tmp_path):
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("bib", BIB_XML)
        fleet = WorkerFleet(catalog, workers=2, health_interval=0.2)
        try:
            # Warm every worker's resident master on the old version.
            for query in QUERIES:
                fleet.query("bib", query)
            fleet.mutate("bib", [APPEND_BOOK])
            engine = Engine(edited(BIB_XML, [APPEND_BOOK]))
            for query in QUERIES:
                payload = fleet.query("bib", query, paths=10)
                oracle = decode_result(engine.query(query), paths=10)
                assert payload["tree_count"] == oracle["tree_count"], query
                assert payload["paths"] == oracle["paths"], query
            stats = fleet.stats_dict()
            assert stats["doc_versions"] == {"bib": 2}
            assert stats["mutations"]["applied"] == 1
        finally:
            fleet.close()


@pytest.fixture(params=DISPATCH_PATHS)
def server(request, tmp_path):
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
        raw = response.read().decode("utf-8")
        return response.status, (json.loads(raw) if raw else None), response
    finally:
        connection.close()


class TestHttpMutate:
    def test_mutate_roundtrip(self, server):
        status, payload, _ = request(
            server, "POST", "/mutate", {"document": "bib", "mutations": [APPEND_BOOK]}
        )
        assert status == 200
        assert payload["doc_version"] == 2
        assert payload["applied"] == 1
        status, payload, _ = request(
            server, "POST", "/query", {"document": "bib", "query": "//author"}
        )
        assert status == 200
        oracle = Engine(edited(BIB_XML, [APPEND_BOOK])).query("//author")
        assert payload["tree_count"] == oracle.tree_count()

    def test_mutate_error_mapping(self, server):
        status, payload, _ = request(
            server, "POST", "/mutate",
            {"document": "bib", "mutations": [{"op": "rename", "path": []}]},
        )
        assert status == 400
        assert payload["error"]["kind"] == "mutation"
        status, payload, _ = request(
            server, "POST", "/mutate",
            {"document": "nope", "mutations": [APPEND_BOOK]},
        )
        assert status == 404
        status, payload, _ = request(
            server, "POST", "/mutate", {"document": "bib"}
        )
        assert status == 400

    def test_metrics_report_mutations(self, server):
        request(server, "POST", "/mutate",
                {"document": "bib", "mutations": [APPEND_BOOK]})
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        assert 'repro_mutations_total{outcome="applied"} 1' in text
        assert 'repro_catalog_doc_version{document="bib"} 2' in text
        assert 'route="/mutate"' in text
