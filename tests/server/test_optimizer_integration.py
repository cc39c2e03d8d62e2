"""End-to-end tests of the optimizer across catalog, service and routes.

Covers the persisted statistics lifecycle (publish → stats.json → load),
the version-stamp fallback (no stats, torn stats, old stats: serve the
unoptimized plan, never error), service-level byte-identity of optimized
vs. unoptimized answers, and the ``/explain`` analyze contract over HTTP.
"""

import json
import os

import pytest

from repro.compress.stats import STATS_FORMAT_VERSION
from repro.errors import CatalogError
from repro.server.catalog import Catalog
from repro.server.cluster import WorkerFleet
from repro.server.http import create_server, wait_ready
from repro.server.service import QueryService

from tests.skeleton.test_loader import BIB_XML

QUERIES = [
    "//author",
    "//book/author",
    "/bib/paper/title",
    '//paper[author["Codd"]]',
    "//absenttag",
    "//absenttag/title",
    "//paper[child::absenttag]/title",
    "descendant::paper/following-sibling::paper",
]


@pytest.fixture
def catalog(tmp_path):
    catalog = Catalog(str(tmp_path / "cat"))
    catalog.add("bib", BIB_XML)
    return catalog


def stats_path(catalog, name):
    return os.path.join(catalog.root, name, catalog.entry(name).version_dir, "stats.json")


class TestStatsPersistence:
    def test_publish_writes_versioned_stats(self, catalog):
        entry = catalog.entry("bib")
        assert entry.stats_version == STATS_FORMAT_VERSION
        assert entry.skeleton_version >= 1
        with open(stats_path(catalog, "bib"), encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["format_version"] == STATS_FORMAT_VERSION
        assert payload["complete_tags"] is True

    def test_document_stats_loads_and_caches(self, catalog):
        stats = catalog.document_stats("bib")
        assert stats is not None
        assert stats.tree_count("author") == 5
        assert stats.is_empty("absenttag")  # complete tag universe
        assert catalog.document_stats("bib") is stats  # cached object

    def test_fresh_catalog_instance_reads_persisted_stats(self, catalog):
        reread = Catalog(catalog.root)
        stats = reread.document_stats("bib")
        assert stats is not None
        assert stats.tree_count("paper") == 2

    def test_missing_stats_file_falls_back(self, catalog):
        os.remove(stats_path(catalog, "bib"))
        assert Catalog(catalog.root).document_stats("bib") is None

    def test_torn_stats_file_falls_back(self, catalog):
        with open(stats_path(catalog, "bib"), "w", encoding="utf-8") as handle:
            handle.write('{"format_version": 1, "tree_no')
        assert Catalog(catalog.root).document_stats("bib") is None

    def test_old_stats_version_falls_back(self, catalog):
        manifest = os.path.join(catalog.root, "catalog.json")
        with open(manifest, encoding="utf-8") as handle:
            raw = json.load(handle)
        for entry in raw["documents"]:
            entry["stats_version"] = STATS_FORMAT_VERSION + 1
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
        assert Catalog(catalog.root).document_stats("bib") is None

    def test_pre_stats_manifest_loads(self, catalog):
        """A manifest row without a ``stats_version`` field (written by a
        build without the stats catalog) still loads and serves queries —
        unoptimized.  (A row without ``skeleton_version`` is another matter:
        ``test_catalog.py::TestOldLayout``.)"""
        manifest = os.path.join(catalog.root, "catalog.json")
        with open(manifest, encoding="utf-8") as handle:
            raw = json.load(handle)
        for entry in raw["documents"]:
            entry.pop("stats_version", None)
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
        reread = Catalog(catalog.root)
        assert reread.entry("bib").stats_version == 0
        assert reread.document_stats("bib") is None
        service = QueryService(reread)
        try:
            payload = service.query("bib", "//author")
            assert payload["tree_count"] == 5
        finally:
            service.close()

    def test_remove_drops_cached_stats(self, catalog):
        assert catalog.document_stats("bib") is not None
        catalog.remove("bib")
        with pytest.raises(Exception):
            catalog.document_stats("bib")


class TestServiceByteIdentity:
    def test_optimized_matches_unoptimized(self, catalog):
        plain = QueryService(catalog, optimize=False)
        tuned = QueryService(catalog, optimize=True)
        try:
            for query in QUERIES:
                expected = plain.query("bib", query, paths=10)
                actual = tuned.query("bib", query, paths=10)
                expected.pop("seconds", None)
                actual.pop("seconds", None)
                assert actual == expected, query
        finally:
            plain.close()
            tuned.close()

    def test_stats_report_optimize_flag(self, catalog):
        service = QueryService(catalog, optimize=True)
        try:
            assert service.stats_dict()["optimize"] is True
        finally:
            service.close()

    def test_unoptimized_service_explains_without_optimizer_block(self, catalog):
        service = QueryService(catalog, optimize=False)
        try:
            plan = service.explain("bib", "//absenttag/title")["plan"]
            assert "optimizer" not in plan
        finally:
            service.close()


@pytest.fixture(params=["service", "fleet"])
def backend(request, catalog):
    """Both serving backends over the same catalog: the parity fixture."""
    if request.param == "service":
        backend = QueryService(catalog)
    else:
        backend = WorkerFleet(catalog, workers=1, health_interval=0.2)
    try:
        assert backend.wait_ready(timeout=30)
        yield backend
    finally:
        backend.close()


def plan_body(backend, query, analyze=False):
    """The ``/explain`` payload minus the one backend-specific block."""
    payload = backend.explain("bib", query, analyze=analyze)
    assert payload["plan"].pop("instance")["source"] in ("pool", "worker")
    return payload


class TestExplainAnalyze:
    def test_explain_reports_estimates_and_rules(self, catalog, backend):
        plan = backend.explain("bib", "//book/author")["plan"]
        block = plan["optimizer"]
        assert block["stats_available"] is True
        assert "root-axis-identity" in block["rules_applied"]
        assert "unoptimized" in block
        assert isinstance(plan["algebra"]["est_cardinality"], float)
        reference = QueryService(catalog)
        for query in QUERIES:
            for analyze in (False, True):
                assert plan_body(backend, query, analyze) == plan_body(
                    reference, query, analyze
                ), (query, analyze)

    def test_unknown_document_wins_over_malformed_query(self, backend):
        # The two plan copies had drifted: the fleet compiled first (400),
        # the service looked the document up first (404, like /query).
        with pytest.raises(CatalogError):
            backend.explain("nope", "//a[")
        with pytest.raises(CatalogError):
            backend.query("nope", "//a[")

    def test_analyze_attaches_actuals(self, catalog):
        service = QueryService(catalog)
        try:
            payload = service.explain("bib", "//book/author", analyze=True)
            assert payload["analyzed"] is True
            root = payload["plan"]["algebra"]
            assert root["actual"]["tree_count"] == 3  # the book's three authors
            stack, annotated = [root], 0
            while stack:
                node = stack.pop()
                if "actual" in node:
                    annotated += 1
                    assert set(node["actual"]) == {"dag_count", "tree_count"}
                stack.extend(node.get("children", ()))
            assert annotated >= 3
        finally:
            service.close()

    def test_analyze_of_folded_plan(self, backend):
        payload = backend.explain("bib", "//absenttag/title", analyze=True)
        root = payload["plan"]["algebra"]
        assert root["op"] == "empty-set"
        assert root["actual"] == {"dag_count": 0, "tree_count": 0}


@pytest.fixture
def server(catalog):
    import threading

    server = create_server(catalog.root, port=0)
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


def http_request(server, method, path, body=None):
    import http.client

    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(method, path, payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class TestHTTPExplain:
    def test_get_explain_analyze(self, server):
        status, payload = http_request(
            server, "GET", "/explain?document=bib&query=%2F%2Fbook%2Fauthor&analyze=1"
        )
        assert status == 200
        assert payload["analyzed"] is True
        assert "actual" in payload["plan"]["algebra"]
        assert "optimizer" in payload["plan"]
        status, plain = http_request(
            server, "GET", "/explain?document=bib&query=%2F%2Fbook%2Fauthor"
        )
        assert status == 200
        assert "analyzed" not in plain
        assert "actual" not in plain["plan"]["algebra"]

    def test_post_explain_analyze(self, server):
        status, payload = http_request(
            server,
            "POST",
            "/explain",
            {"document": "bib", "query": "//author", "analyze": True},
        )
        assert status == 200
        assert payload["analyzed"] is True
        assert payload["plan"]["algebra"]["actual"]["tree_count"] == 5
