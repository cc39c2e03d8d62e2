"""End-to-end tests of the optimizer across catalog, service and routes.

Covers where statistics come from (derived from the tags-only master at
every publish, re-derived from the image in any other process, never
stored), the one-node estimate of a string leaf the catalog does not
count, plans and pooled masters keyed on exactly the version their
statistics describe, service-level byte-identity of optimized
vs. unoptimized answers, and the ``/explain`` analyze contract over HTTP.
"""

import json
import os

import pytest

from repro.api import Database
from repro.api.envelope import encode_result
from repro.bench.queries import queries_for
from repro.compress.stats import DocumentStats
from repro.corpora import generate, relational
from repro.engine.evaluator import evaluate
from repro.errors import CatalogError, IntegrityError
from repro.server.catalog import Catalog
from repro.server.cluster import WorkerFleet
from repro.server.http import create_server, wait_ready
from repro.server.resilience import FAULTS
from repro.server.service import QueryService
from repro.skeleton.loader import load
from repro.xpath.algebra import Intersect, NamedSet
from repro.xpath.compiler import compile_query, required_strings, required_tags
from repro.xpath.optimizer import optimize

from tests.server.test_catalog import corrupt_skeleton
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

APPEND_BOOK = {"op": "append_child", "path": [], "xml": "<book><title>T</title></book>"}


@pytest.fixture(autouse=True)
def disarmed_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


def commit_at(point, catalog, name, mutations):
    """Arm the ``FAULTS`` seam ``point`` to commit ``mutations`` to ``name``
    the first time it fires; returns the versions committed there."""
    committed = []

    def commit(**_):
        committed.append(catalog.mutate(name, mutations).doc_version)

    FAULTS.arm(point, times=1, callback=commit)
    return committed


#: ``<r><a/></r>`` becomes ``<r><x/></r>``.
A_TO_X = [
    {"op": "delete_subtree", "path": [0]},
    {"op": "append_child", "path": [], "xml": "<x/>"},
]


@pytest.fixture
def catalog(tmp_path):
    catalog = Catalog(str(tmp_path / "cat"))
    catalog.add("bib", BIB_XML)
    return catalog


def version_files(catalog, name):
    entry = catalog.entry(name)
    return sorted(os.listdir(os.path.join(catalog.root, name, entry.version_dir)))


class TestStatsFromTheMaster:
    def test_version_directory_holds_text_and_image_only(self, catalog):
        assert version_files(catalog, "bib") == ["document.xml", "skeleton.rskl"]
        catalog.mutate("bib", [APPEND_BOOK])
        assert version_files(catalog, "bib") == ["document.xml", "skeleton.rskl"]

    def test_document_stats_derived_at_publish_and_cached(self, catalog):
        stats = catalog.document_stats("bib")
        assert stats.tree_count("author") == 5
        assert stats.is_empty("absenttag")  # complete tag universe
        assert catalog.document_stats("bib") is stats  # cached object

    def test_fresh_catalog_derives_equal_stats_after_add(self, catalog):
        assert Catalog(catalog.root).document_stats("bib") == catalog.document_stats("bib")

    def test_fresh_catalog_derives_equal_stats_after_mutate(self, catalog):
        before = catalog.document_stats("bib")
        catalog.mutate("bib", [APPEND_BOOK])
        published = catalog.document_stats("bib")
        assert published != before
        assert Catalog(catalog.root).document_stats("bib") == published

    def test_a_fresh_reader_reads_the_image_once(self, catalog):
        """A statistics miss derives from the pooled tags-only master, so a
        restarted server's first tag-only query loads the image once, for
        its statistics and its answer alike."""
        loads = []
        FAULTS.arm("catalog.load_instance", callback=lambda **context: loads.append(context))
        service = QueryService(Catalog(catalog.root))
        try:
            assert service.query("bib", "//author")["tree_count"] == 5
            assert service.query("bib", '//author["Hull"]')["tree_count"] == 1
        finally:
            service.close()
        assert loads == [
            {"name": "bib", "strings": ()},
            {"name": "bib", "strings": ("Hull",)},
        ]

    def test_derivation_checks_the_image(self, catalog):
        """A miss loads through ``Catalog.load``: a corrupt image raises and
        quarantines the document instead of yielding statistics."""
        corrupt_skeleton(catalog.root, "bib")
        reader = Catalog(catalog.root)
        with pytest.raises(IntegrityError):
            reader.document_stats("bib")
        assert reader.quarantined() == ["bib"]

    def test_old_manifest_row_and_stats_file_are_ignored(self, catalog):
        """A catalog written when statistics were stored: the manifest row
        carries ``stats_version`` and the version directory a
        ``stats.json``.  It opens, derives its statistics from the image,
        and serves optimized plans."""
        manifest = os.path.join(catalog.root, "catalog.json")
        with open(manifest, encoding="utf-8") as handle:
            raw = json.load(handle)
        for row in raw["documents"]:
            row["stats_version"] = 1
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
        entry = catalog.entry("bib")
        leftover = os.path.join(catalog.root, "bib", entry.version_dir, "stats.json")
        with open(leftover, "w", encoding="utf-8") as handle:
            handle.write('{"format_version": 1, "tree_no')
        reread = Catalog(catalog.root)
        assert reread.document_stats("bib") == catalog.document_stats("bib")
        service = QueryService(reread)
        try:
            assert service.query("bib", "//author")["tree_count"] == 5
            plan = service.explain("bib", "//book/author")["plan"]
            assert plan["optimizer"]["optimized"] is True
        finally:
            service.close()

    def test_remove_drops_cached_stats(self, catalog):
        assert catalog.document_stats("bib").tree_nodes > 0
        catalog.remove("bib")
        with pytest.raises(CatalogError):
            catalog.document_stats("bib")


def _small_corpus(name: str) -> str:
    if name == "relational":
        return relational.generate_xml(250, 10, distinct_texts=True).xml
    return generate(name, {"dblp": 150, "xmark": 30}[name], 0).xml


def _shape(expr):
    """``expr`` as nested tuples, an intersection of two leaf sets unordered.

    Two leaf masks intersect at the same cost in either order, so their
    order is not a planning decision worth pinning.
    """
    children = [_shape(child) for child in expr.children()]
    if isinstance(expr, Intersect) and all(isinstance(c, NamedSet) for c in expr.children()):
        children.sort()
    return (type(expr).__name__, getattr(expr, "axis", ""), getattr(expr, "name", ""), children)


STRING_QUERIES = [
    *(("dblp", queries_for("dblp")[qid]) for qid in ("Q3", "Q4", "Q5")),
    *(("xmark", queries_for("xmark")[qid]) for qid in ("Q3", "Q4", "Q5")),
    ("relational", '//row[col1["r1c1"]]/col2'),
    ("relational", '//row[col0["r0c0"]]'),
]


class TestStringEstimate:
    @pytest.mark.parametrize("corpus, query", STRING_QUERIES)
    def test_one_node_estimate_plans_like_exact_counts(self, corpus, query):
        """The catalog counts tags only, so a ``contains()`` leaf is
        estimated at one tree node.  On the string queries of the e2e
        workloads this plans like the statistics of the query's own master,
        which count the string sets exactly.  The one difference is the
        order of two leaf sets: on xmark Q3 ``payment`` and the nodes
        containing "Creditcard" are within 10% of each other at every
        scale, so the exact plan puts either first depending on the scale."""
        xml = _small_corpus(corpus)
        catalog_stats = DocumentStats.from_instance(
            load(xml, tags=None).instance, complete_tags=True
        )
        own_master = load(xml, tags=None, strings=sorted(required_strings(query))).instance
        exact_stats = DocumentStats.from_instance(own_master, complete_tags=True)
        expr = compile_query(query)
        estimated = optimize(expr, catalog_stats).expr
        exact = optimize(expr, exact_stats).expr
        assert _shape(estimated) == _shape(exact)


class TestPlanVersion:
    def test_plan_statistics_and_master_are_one_version(self, tmp_path):
        """A commit landing while a request derives its statistics must not
        pair one version's plan with another version's master."""
        root = str(tmp_path / "cat")
        Catalog(root).add("d", "<r><foo/><b/></r>")
        catalog = Catalog(root)  # a restarted server: no statistics cached
        service = QueryService(catalog)
        try:
            committed = commit_at("pool.load", catalog, "d", [
                {"op": "delete_subtree", "path": [0]},
                {"op": "append_child", "path": [], "xml": "<b/>"},
                {"op": "append_child", "path": [], "xml": "<b/>"},
            ])
            # Version N answers 2 (foo, b), version N+1 answers 3 (b, b, b).
            # N+1's statistics fold //foo away: its plan on N's master
            # answers 1.  The request answers from the version it pinned.
            assert service.query("d", "//b | //foo")["tree_count"] == 2
            assert committed == [catalog.entry("d").doc_version]
            assert service.query("d", "//b | //foo")["tree_count"] == 3
        finally:
            service.close()


class TestMasterVersion:
    def test_master_is_installed_under_its_own_version(self, tmp_path):
        """A commit between planning and a cold load must not put version
        N+1's master under version N's pool key, nor run N's plan on it."""
        catalog = Catalog(str(tmp_path / "cat"))
        catalog.add("d", "<r><a/></r>")
        planned = catalog.entry("d").doc_version
        committed = commit_at("catalog.load_instance", catalog, "d", A_TO_X)
        service = QueryService(catalog)
        try:
            # Versions N and N+1 each answer 1.  N's statistics fold //x to
            # empty and N+1 has no a, so N's plan on N+1's master answers 0.
            assert service.query("d", "//a | //x")["tree_count"] == 1
            assert committed == [catalog.entry("d").doc_version]
            (key,) = service.pool.keys()
            assert key[3] == planned
            assert service.pool.peek(key).instance.has_set("a")  # N's master
        finally:
            service.close()


class TestServiceByteIdentity:
    def test_optimized_matches_unoptimized(self, catalog):
        """Served plans are always optimized; every answer equals direct
        unoptimized evaluation of the same query on the same catalog master."""
        service = QueryService(catalog)
        try:
            for query in QUERIES:
                master = catalog.load_instance("bib", tuple(sorted(required_strings(query))))
                for tag in required_tags(query):
                    master.ensure_set(tag)  # absent tags select nothing
                expected = encode_result(evaluate(master, query), paths=10)
                actual = service.query("bib", query, paths=10)
                assert {key: actual[key] for key in expected} == expected, query
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

    def test_analyze_measures_the_tree_it_annotates(self, catalog, backend):
        """``Database.explain`` plans once: a commit after that plan, here
        during the analysis load, cannot hand the measurement a different
        tree from the one annotated."""
        catalog.add("r", "<r><a><b/></a><a><c/></a><x/></r>")
        committed = commit_at(
            "catalog.load_instance", catalog, "r",
            [{"op": "append_child", "path": [], "xml": "<x/>"}],
        )
        plan = Database.from_service(backend).explain("//a[c]/c", document="r", analyze=True)
        stack, nodes, unmeasured = [plan.to_dict()["algebra"]], 0, 0
        while stack:
            node = stack.pop()
            nodes += 1
            unmeasured += "actual" not in node
            stack.extend(node.get("children", ()))
        assert nodes > 1 and unmeasured == 0
        assert plan.to_dict()["algebra"]["actual"]["tree_count"] == 1
        assert committed == [catalog.entry("r").doc_version]

    def test_analyze_measures_the_version_it_planned(self, catalog, backend):
        """A commit between planning and the analysis load: the actuals
        describe the version whose plan they annotate."""
        catalog.add("d", "<r><a/></r>")
        committed = commit_at("catalog.load_instance", catalog, "d", A_TO_X)
        payload = backend.explain("d", "//a | //x", analyze=True)
        # Versions N and N+1 each answer 1; N's plan on N+1's master, 0.
        assert payload["plan"]["algebra"]["actual"]["tree_count"] == 1
        assert committed == [catalog.entry("d").doc_version]

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
