"""Tests for the coalescing query service: correctness, sharing, isolation."""

import threading

import pytest

from repro.engine.pipeline import Engine
from repro.errors import CatalogError, DeadlineExceededError, XPathSyntaxError
from repro.server.catalog import Catalog
from repro.server.resilience import Deadline
from repro.server.service import QueryService, decode_result

from tests.skeleton.test_loader import BIB_XML

QUERIES = [
    "//author",
    "//book/author",
    "/bib/paper/title",
    '//paper[author["Codd"]]',
    "//paper/following-sibling::paper",
    "/bib/*",
]


@pytest.fixture
def catalog(tmp_path):
    catalog = Catalog(str(tmp_path / "cat"))
    catalog.add("bib", BIB_XML)
    return catalog


def expected_payload(query, paths=0):
    """Direct one-shot evaluation decoded through the same wire shape."""
    return decode_result(Engine(BIB_XML).query(query), paths=paths)


class TestCorrectness:
    @pytest.mark.parametrize("mode", ["snapshot", "persistent"])
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_direct_evaluation(self, catalog, mode, query):
        service = QueryService(catalog, mode=mode)
        response = service.query("bib", query, paths=50)
        expected = expected_payload(query, paths=50)
        assert response["tree_count"] == expected["tree_count"]
        assert response["paths"] == expected["paths"]

    @pytest.mark.parametrize("mode", ["snapshot", "persistent"])
    def test_repeated_queries_stay_correct(self, catalog, mode):
        """Round 2+ exercises the pool-hit path (and persistent reuse)."""
        service = QueryService(catalog, mode=mode)
        for _ in range(3):
            for query in QUERIES:
                response = service.query("bib", query, paths=50)
                expected = expected_payload(query, paths=50)
                assert response["tree_count"] == expected["tree_count"]
                assert response["paths"] == expected["paths"]

    def test_absent_tag_selects_nothing(self, catalog):
        response = QueryService(catalog).query("bib", "//nosuchtag")
        assert response["tree_count"] == 0

    def test_unknown_document_raises_before_batching(self, catalog):
        service = QueryService(catalog)
        with pytest.raises(CatalogError, match="unknown catalog document"):
            service.query("ghost", "//a")
        assert service.stats.requests == 0

    def test_malformed_query_raises_before_batching(self, catalog):
        service = QueryService(catalog)
        with pytest.raises(XPathSyntaxError):
            service.query("bib", "//a[[")
        assert service.stats.requests == 0

    def test_rejects_unknown_mode(self, catalog):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown evaluation mode"):
            QueryService(catalog, mode="turbo")


class TestMasterIsolation:
    def test_snapshot_mode_never_mutates_the_master(self, catalog):
        service = QueryService(catalog, mode="snapshot")
        for query in QUERIES:
            service.query("bib", query)
        key = next(k for k in service.pool.keys() if k[0] == "bib" and k[1] == ())
        entry = service.pool.get_or_load(key, lambda: None)
        master = entry.instance
        assert not any(name.startswith("#t") for name in master.schema)
        assert not any(name.startswith("#q") for name in master.schema)
        # Structural generation untouched: no split ever reached the master.
        assert master.generation == catalog.load_instance("bib").generation

    def test_persistent_mode_resets_result_snapshots(self, catalog):
        service = QueryService(catalog, mode="persistent")
        for _ in range(4):
            for query in QUERIES:
                service.query("bib", query)
        key = next(k for k in service.pool.keys() if k[0] == "bib" and k[1] == ())
        entry = service.pool.get_or_load(key, lambda: None)
        working = entry.working
        assert not any(name.startswith("#q") for name in working.schema)
        assert not any(
            name.startswith("#t") and name[2:].isdigit() for name in working.schema
        )
        # The master itself stayed pristine (persistent forks once).
        assert not any(name.startswith("#q") for name in entry.instance.schema)

    def test_string_queries_get_their_own_pool_entry(self, catalog):
        service = QueryService(catalog)
        service.query("bib", "//author")
        service.query("bib", '//paper[author["Codd"]]')
        assert sorted(service.resident_keys()) == [("bib", ()), ("bib", ("Codd",))]

    def test_evict_drops_all_entries_of_a_document(self, catalog):
        service = QueryService(catalog)
        service.query("bib", "//author")
        service.query("bib", '//paper[author["Codd"]]')
        assert service.evict("bib") == 2
        assert service.pool.keys() == []


class TestCoalescing:
    @pytest.mark.parametrize("mode", ["snapshot", "persistent"])
    def test_concurrent_requests_coalesce_and_stay_correct(self, catalog, mode):
        service = QueryService(catalog, mode=mode, window=0.05)
        service.query("bib", "//author")  # warm the pool outside the window
        barrier = threading.Barrier(8)
        responses = {}

        def worker(index, query):
            barrier.wait(timeout=5)
            responses[index] = service.query("bib", query, paths=50)

        jobs = [(i, QUERIES[i % len(QUERIES)]) for i in range(8)]
        threads = [threading.Thread(target=worker, args=job) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(responses) == 8
        for index, query in jobs:
            expected = expected_payload(query, paths=50)
            assert responses[index]["tree_count"] == expected["tree_count"]
            assert responses[index]["paths"] == expected["paths"]
        stats = service.stats
        # The window makes the 8 simultaneous requests share evaluations.
        assert stats.batches < stats.requests
        assert stats.max_batch_size >= 2
        assert stats.coalesced_requests >= 2

    def test_max_batch_bounds_one_evaluation(self, catalog):
        service = QueryService(catalog, window=0.05, max_batch=2)
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait(timeout=5)
            service.query("bib", "//author")

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert service.stats.max_batch_size <= 2
        assert service.stats.requests == 6


class TestFailureIsolation:
    def test_decode_failure_does_not_poison_batch(self, catalog):
        """One request's blown path limit fails only that request."""
        from repro.errors import DecompressionLimitError

        service = QueryService(catalog, window=0.05)
        service.query("bib", "//author")  # warm the pool outside the window
        barrier = threading.Barrier(2)
        outcomes = {}

        def bad():
            barrier.wait(timeout=5)
            try:
                # limit counts *visited tree nodes*: decoding any path of a
                # bib selection blows a limit of 2.
                service.query("bib", "//author", paths=5, limit=2)
            except DecompressionLimitError as error:
                outcomes["bad"] = error

        def good():
            barrier.wait(timeout=5)
            outcomes["good"] = service.query("bib", "//title", paths=5)

        threads = [threading.Thread(target=bad), threading.Thread(target=good)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert isinstance(outcomes["bad"], DecompressionLimitError)
        expected = expected_payload("//title", paths=5)
        assert outcomes["good"]["tree_count"] == expected["tree_count"]
        assert outcomes["good"]["paths"] == expected["paths"]
        assert service.stats.errors == 1

    @pytest.mark.parametrize("mode", ["snapshot", "persistent"])
    def test_still_correct_after_decode_failure(self, catalog, mode):
        """Regression: a failed decode must not leave polluted engine state
        (stale #t/#q sets) behind for later batches on the same entry."""
        from repro.errors import DecompressionLimitError

        service = QueryService(catalog, mode=mode)
        for _ in range(2):
            with pytest.raises(DecompressionLimitError):
                service.query("bib", "//author", paths=5, limit=2)
            for query in QUERIES:
                response = service.query("bib", query, paths=50)
                expected = expected_payload(query, paths=50)
                assert response["tree_count"] == expected["tree_count"]
                assert response["paths"] == expected["paths"]

    def test_pending_registry_is_bounded(self, catalog):
        """Idle per-key pending entries are dropped, not retained forever."""
        service = QueryService(catalog)
        for needle in ("a", "b", "c", "d"):
            service.query("bib", f'//paper[author["{needle}"]]')
        assert service._pending == {}


class TestDeadlines:
    """End-to-end deadlines inside the coalescing service."""

    def test_expired_request_never_reaches_evaluation(self, catalog):
        service = QueryService(catalog)
        try:
            before = service.stats_dict()["service"]["batches"]
            with pytest.raises(DeadlineExceededError):
                service.query("bib", "//author", deadline=Deadline.after(-0.01))
            stats = service.stats_dict()["service"]
            assert stats["deadline_expired"] >= 1
            assert stats["batches"] == before  # no batch slot was occupied
        finally:
            service.close()

    def test_generous_deadline_answers_correctly(self, catalog):
        service = QueryService(catalog)
        try:
            payload = service.query("bib", "//author", deadline=Deadline.after(60.0))
            assert payload["tree_count"] == expected_payload("//author")["tree_count"]
        finally:
            service.close()

    def test_stats_expose_admission(self, catalog):
        service = QueryService(catalog, max_queue=7, rate_limit=2.0)
        try:
            service.query("bib", "//author")
            admission = service.stats_dict()["admission"]
            assert admission["max_queue"] == 7
            assert admission["admitted"] >= 1
            assert admission["inflight"] == 0  # released after every request
        finally:
            service.close()


class TestKernelProvenance:
    """The plane-kernel tier and cold-load form surfaced in stats/plans."""

    def test_stats_expose_kernel_tier(self, catalog):
        from repro.model import planes

        service = QueryService(catalog)
        try:
            kernel = service.stats_dict()["kernel"]
            assert kernel["tier"] == planes.kernel_tier()
            assert kernel["numpy"] == planes.numpy_active()
            assert kernel["plane_format_version"] == planes.PLANE_FORMAT_VERSION
        finally:
            service.close()

    def test_cold_load_served_from_skeleton(self, catalog):
        """A shredded document's first load reads the succinct skeleton."""
        service = QueryService(catalog)
        try:
            service.query("bib", "//author")
            pool = service.stats_dict()["pool"]
            assert pool["skeleton_loads"] == 1
            assert pool["bytes_mapped"] > 0
            info = service.instance_info("bib", ())
            assert info["resident"] is True
            assert info["load"]["format"] == "skeleton"
            assert info["load"]["bytes_mapped"] == catalog.store("bib").size()
            assert info["kernel"]["plane_format_version"] >= 1
        finally:
            service.close()

    def test_explain_attaches_kernel_info(self, catalog):
        service = QueryService(catalog)
        try:
            plan = service.explain("bib", "//author")["plan"]
            assert plan["instance"]["kernel"]["tier"] in ("numpy", "stdlib")
            assert plan["instance"]["load"] is None  # nothing resident yet
        finally:
            service.close()

    def test_string_schema_load_reports_parse(self, catalog):
        service = QueryService(catalog)
        try:
            service.query("bib", '//paper[author["Codd"]]')
            key = next(
                key for key in service.pool.keys() if key[1]  # the strings key
            )
            assert service.pool.load_info(key)["format"] == "parse"
        finally:
            service.close()
