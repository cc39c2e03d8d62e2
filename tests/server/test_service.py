"""Tests for the coalescing query service: correctness, sharing, isolation."""

import json
import threading
from contextlib import contextmanager

import pytest

from repro.engine.pipeline import Engine
from repro.errors import CatalogError, DeadlineExceededError, XPathSyntaxError
from repro.server.catalog import Catalog
from repro.server.resilience import Deadline
from repro.server.routes import Headers, Request, Router
from repro.server.service import QueryService, decode_result

from tests.server.util import wait_until
from tests.skeleton.test_loader import BIB_XML

QUERIES = [
    "//author",
    "//book/author",
    "/bib/paper/title",
    '//paper[author["Codd"]]',
    "//paper/following-sibling::paper",
    "/bib/*",
]

#: The queries of :data:`QUERIES` that share one pool entry (no string
#: predicate, so one schema key).
TAG_QUERIES = [query for query in QUERIES if '"' not in query]


@pytest.fixture
def catalog(tmp_path):
    catalog = Catalog(str(tmp_path / "cat"))
    catalog.add("bib", BIB_XML)
    return catalog


def expected_payload(query, paths=0, xml=BIB_XML):
    """Direct one-shot evaluation decoded through the same wire shape."""
    return decode_result(Engine(xml).query(query), paths=paths)


class TestCorrectness:
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_direct_evaluation(self, catalog, query):
        service = QueryService(catalog)
        response = service.query("bib", query, paths=50)
        expected = expected_payload(query, paths=50)
        assert response["tree_count"] == expected["tree_count"]
        assert response["paths"] == expected["paths"]

    def test_repeated_queries_stay_correct(self, catalog):
        """Round 2+ exercises the pool-hit path and the reused working fork."""
        service = QueryService(catalog)
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

    def test_there_is_no_mode_selector(self, catalog):
        from repro.server.cluster import WorkerFleet

        for backend in (QueryService, WorkerFleet):
            with pytest.raises(TypeError):
                backend(catalog, mode="snapshot")
        payload = QueryService(catalog).query("bib", "//author")
        assert "mode" not in payload


def full_binary_xml(depth: int) -> str:
    return "<a/>" if depth == 0 else f"<a>{2 * full_binary_xml(depth - 1)}</a>"


def turn_conjunction(k: int):
    """``D_1 ∩ … ∩ D_k`` of ``benchmarks/bench_worstcase_decompression.py``:
    D_j = below a right child at level j; ~2^k growth (Theorem 3.6)."""
    from repro.xpath.algebra import AxisApply, Intersect, RootSet

    def turn(level):
        expr = RootSet()
        for _ in range(level + 1):  # one more than the bench: the document root
            expr = AxisApply("child", expr)
        return AxisApply("descendant-or-self", AxisApply("following-sibling", expr))

    expr = turn(1)
    for level in range(2, k + 1):
        expr = Intersect(expr, turn(level))
    return expr


class TestMasterIsolation:
    @staticmethod
    def entry_of(service, document, strings=()):
        key = next(k for k in service.pool.keys() if k[:2] == (document, strings))
        return service.pool.get_or_load(key, lambda: None)

    def test_serving_never_mutates_the_master(self, catalog):
        service = QueryService(catalog)
        for query in QUERIES:
            service.query("bib", query)
        master = self.entry_of(service, "bib").instance
        assert not any(name.startswith("#t") for name in master.schema)
        assert not any(name.startswith("#q") for name in master.schema)
        # Structural generation untouched: no split ever reached the master.
        assert master.generation == catalog.load_instance("bib").generation

    def test_working_fork_sheds_what_each_batch_added(self, catalog):
        service = QueryService(catalog)
        for _ in range(4):
            for query in QUERIES + ["//nosuchtag/author"]:
                service.query("bib", query)
        entry = self.entry_of(service, "bib")
        # No result snapshot, temporary or absent-tag set outlives its batch.
        assert entry.working.schema == entry.instance.schema
        assert entry.working is not entry.instance

    def test_outgrown_working_fork_is_reforked(self, catalog):
        """Theorem 3.6 growth is per query: it never accumulates in the fork."""
        from repro.server.service import WORKING_GROWTH_LIMIT

        xml = full_binary_xml(10)
        catalog.add("tree", xml)
        service = QueryService(catalog)
        service.seed_compiled("worst-case", turn_conjunction(8), (), ())
        expected = expected_payload("/a/a", paths=5, xml=xml)
        for reforks in (1, 2):
            blown = service.query("tree", "worst-case", paths=5)
            # Everything below the all-right node of level 8: 1 + 2 + 4.
            assert (blown["dag_count"], blown["tree_count"]) == (3, 7)
            entry = self.entry_of(service, "tree")
            bound = WORKING_GROWTH_LIMIT * entry.instance.num_vertices
            assert entry.working.num_vertices > bound
            cheap = service.query("tree", "/a/a", paths=5)
            assert {key: cheap[key] for key in expected} == expected
            assert entry.working.num_vertices <= bound
            assert service.stats_dict()["service"]["working_reforks"] == reforks
        assert entry.instance.generation == catalog.load_instance("tree").generation

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


@contextmanager
def leader_blocked(service):
    """Hold a warm key's entry lock with a leader blocked on it.

    A plug request finds the key idle, leads, and waits for the entry lock
    held here; requests sent inside the ``with`` block queue behind it and
    wait on their futures.  On exit the lock is released and the plug's
    drain runs to the end.
    """
    service.query("bib", "//author")  # resident master, idle key
    (key,) = service.pool.keys()
    entry = service.pool.peek(key)
    plug = threading.Thread(target=service.query, args=("bib", "//author"))
    with entry.lock:
        plug.start()
        assert wait_until(
            lambda: key in service._pending
            and service._pending[key].busy
            and not service._pending[key].queue
        )
        yield
    plug.join(timeout=30)
    assert not plug.is_alive()


class TestCoalescing:
    @staticmethod
    def queue_behind_held_lock(service, requests):
        """Send ``requests`` (``service.query`` keyword sets) concurrently
        behind a blocked leader (:func:`leader_blocked`), then release it.

        The plug takes a batch of itself alone, so every request of
        ``requests`` queues behind it and they drain together.  Returns
        ``{index: payload or error}``.
        """
        outcomes = {}

        def ask(index, kwargs):
            try:
                outcomes[index] = service.query("bib", **kwargs)
            except Exception as error:  # noqa: BLE001 - collected for the asserts
                outcomes[index] = error

        waiters = [
            threading.Thread(target=ask, args=(index, kwargs))
            for index, kwargs in enumerate(requests)
        ]
        with leader_blocked(service):
            for thread in waiters:
                thread.start()
            assert wait_until(lambda: service.stats.requests == 2 + len(requests))
        for thread in waiters:
            thread.join(timeout=30)
            assert not thread.is_alive()
        return outcomes

    def test_concurrent_requests_coalesce_and_stay_correct(self, catalog):
        service = QueryService(catalog)
        queries = [TAG_QUERIES[index % len(TAG_QUERIES)] for index in range(8)]
        outcomes = self.queue_behind_held_lock(
            service, [{"query_text": query, "paths": 50} for query in queries]
        )
        for index, query in enumerate(queries):
            expected = expected_payload(query, paths=50)
            assert outcomes[index]["tree_count"] == expected["tree_count"]
            assert outcomes[index]["paths"] == expected["paths"]
        stats = service.stats
        # The warm-up and the plug ran alone; the eight queued requests
        # shared one evaluation.
        assert (stats.requests, stats.batches) == (10, 3)
        assert stats.max_batch_size == 8
        assert stats.coalesced_requests == 8

    def test_stats_keep_the_keys_the_e2e_benchmark_reads(self, catalog):
        """``batches``, ``max_batch_size`` and ``coalesced_requests`` stay in
        ``/stats``: ``benchmarks/e2e/run.py`` and ``measure.py`` read them."""
        service = QueryService(catalog)
        service.query("bib", "//author")
        stats = service.stats_dict()["service"]
        assert (stats["batches"], stats["max_batch_size"]) == (1, 1)
        assert stats["coalesced_requests"] == 0

    def test_max_batch_bounds_one_evaluation(self, catalog, monkeypatch):
        monkeypatch.setattr("repro.server.service.MAX_BATCH", 2)
        service = QueryService(catalog)
        self.queue_behind_held_lock(service, [{"query_text": "//author"}] * 5)
        assert service.stats.max_batch_size == 2
        assert (service.stats.requests, service.stats.batches) == (7, 5)


class TestQueueWait:
    """A request queued behind a busy leader waits on its future, bounded."""

    def test_request_expiring_in_the_queue_is_never_evaluated(self, catalog):
        service = QueryService(catalog)
        with leader_blocked(service):
            before = service.stats_dict()["service"]
            with pytest.raises(DeadlineExceededError):
                service.query("bib", "//title", deadline=Deadline.after(0.05))
        stats = service.stats_dict()["service"]
        assert stats["batches"] == before["batches"] + 1  # the plug's alone
        assert stats["split_vertices"] == before["split_vertices"]
        # Refused once: the leader drops it, it does not refuse it again.
        assert stats["deadline_expired"] == before["deadline_expired"] + 1

    def test_request_timeout_is_the_504_envelope(self, catalog):
        service = QueryService(catalog, request_timeout=0.2)
        router = Router(lambda: service)
        body = json.dumps({"document": "bib", "query": "//title"}).encode()
        with leader_blocked(service):
            response = router.dispatch(
                Request("POST", "/query", headers=Headers({}), body=body)
            )
        assert response.status == 504
        error = json.loads(response.body)["error"]
        assert error["message"] == "request timed out after 0.2s"
        # The warm-up and the plug: the abandoned request is not evaluated.
        assert service.stats.batches == 2

    def test_claimed_request_cannot_be_cancelled(self, catalog, monkeypatch):
        """Once the leader takes a batch, a batch-mate's cancel fails: every
        request is answered correctly and the key is freed for the next."""
        from concurrent.futures import Future

        from repro.server import service as service_module

        futures = []

        class RecordedFuture(Future):
            def __init__(self):
                super().__init__()
                futures.append(self)

        monkeypatch.setattr(service_module, "Future", RecordedFuture)
        service = QueryService(catalog)
        serve = service._serve
        cancelled = []

        def serve_after_a_cancel(key, entry, requests, pool_hit):
            if len(requests) > 1:  # the queued batch, not the plug
                cancelled.append(futures[-1].cancel())
            return serve(key, entry, requests, pool_hit)

        monkeypatch.setattr(service, "_serve", serve_after_a_cancel)
        queries = TAG_QUERIES[:3]
        outcomes = TestCoalescing.queue_behind_held_lock(
            service, [{"query_text": query, "paths": 50} for query in queries]
        )
        assert cancelled == [False]
        for index, query in enumerate(queries):
            expected = expected_payload(query, paths=50)
            assert outcomes[index]["tree_count"] == expected["tree_count"]
            assert outcomes[index]["paths"] == expected["paths"]
        assert service._pending == {}
        assert service.stats.errors == 0
        payload = service.query("bib", "//title")
        assert payload["tree_count"] == expected_payload("//title")["tree_count"]

    def test_refusal_seen_by_waiter_and_leader_counts_once(self, catalog, monkeypatch):
        """A deadline that passes after the leader claims the request but
        before its expiry check is refused by both sides, counted once."""
        service = QueryService(catalog)
        outcome = []

        def ask():
            try:
                service.query("bib", "//title", deadline=Deadline.after(0.3))
            except DeadlineExceededError as error:
                outcome.append(error)

        asker = threading.Thread(target=ask)
        with leader_blocked(service):
            before = service.stats_dict()["service"]
            prune = service._prune_expired

            def prune_after_the_waiter(batch):
                refused = before["deadline_expired"]
                assert wait_until(lambda: service.stats.deadline_expired > refused)
                return prune(batch)

            # The plug is already past its own check, blocked on the lock.
            monkeypatch.setattr(service, "_prune_expired", prune_after_the_waiter)
            asker.start()
            assert wait_until(lambda: service.stats.requests == before["requests"] + 1)
        asker.join(timeout=30)
        assert len(outcome) == 1
        stats = service.stats_dict()["service"]
        assert stats["deadline_expired"] == before["deadline_expired"] + 1
        assert stats["split_vertices"] == before["split_vertices"]
        assert service._pending == {}


class TestFailureIsolation:
    def test_decode_failure_does_not_poison_batch(self, catalog):
        """One request's blown path limit fails only that request."""
        from repro.errors import DecompressionLimitError

        service = QueryService(catalog)
        # limit counts *visited tree nodes*: decoding any path of a bib
        # selection blows a limit of 2.
        outcomes = TestCoalescing.queue_behind_held_lock(
            service,
            [
                {"query_text": "//author", "paths": 5, "limit": 2},
                {"query_text": "//title", "paths": 5},
            ],
        )
        assert service.stats.max_batch_size == 2  # one batch, both requests
        assert isinstance(outcomes[0], DecompressionLimitError)
        expected = expected_payload("//title", paths=5)
        assert outcomes[1]["tree_count"] == expected["tree_count"]
        assert outcomes[1]["paths"] == expected["paths"]
        assert service.stats.errors == 1

    def test_still_correct_after_decode_failure(self, catalog):
        """Regression: a failed decode must not leave polluted engine state
        (stale #t/#q sets) behind for later batches on the same entry."""
        from repro.errors import DecompressionLimitError

        service = QueryService(catalog)
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
            info = service.plan("bib", "//author").instance
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
