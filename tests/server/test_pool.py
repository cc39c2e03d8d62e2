"""Tests for the LRU instance pool and its concurrency guarantees."""

import threading

import pytest

from repro.errors import DeadlineExceededError
from repro.model.instance import tree_instance
from repro.server.pool import InstancePool


def make_instance():
    """A pool loader's result: the instance plus its (here absent) provenance."""
    return tree_instance(("r", [("a", []), ("b", [])])), None


class TestLRU:
    def test_loads_once_then_hits(self):
        pool = InstancePool(capacity=4)
        loads = []

        def loader():
            loads.append(1)
            return make_instance()

        first = pool.get_or_load("k", loader)
        second = pool.get_or_load("k", loader)
        assert first is second
        assert len(loads) == 1
        assert pool.stats()["hits"] == 1
        assert pool.stats()["misses"] == 1

    def test_capacity_evicts_least_recently_used(self):
        pool = InstancePool(capacity=2)
        for key in ("a", "b", "c"):
            pool.get_or_load(key, make_instance)
        assert pool.keys() == ["b", "c"]
        assert pool.stats()["evictions"] == 1

    def test_hit_refreshes_recency(self):
        pool = InstancePool(capacity=2)
        pool.get_or_load("a", make_instance)
        pool.get_or_load("b", make_instance)
        pool.get_or_load("a", make_instance)  # refresh: b is now the oldest
        pool.get_or_load("c", make_instance)
        assert pool.keys() == ["a", "c"]

    def test_capacity_one_never_evicts_requested_key(self):
        pool = InstancePool(capacity=1)
        entry = pool.get_or_load("only", make_instance)
        assert entry.instance is not None
        assert pool.keys() == ["only"]

    def test_evict_predicate(self):
        pool = InstancePool(capacity=8)
        pool.get_or_load(("doc1", ()), make_instance)
        pool.get_or_load(("doc1", ("x",)), make_instance)
        pool.get_or_load(("doc2", ()), make_instance)
        assert pool.evict(lambda key: key[0] == "doc1") == 2
        assert pool.keys() == [("doc2", ())]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            InstancePool(capacity=0)


class TestConcurrency:
    def test_concurrent_requesters_load_once(self):
        pool = InstancePool(capacity=4)
        started = threading.Barrier(8)
        loads = []
        load_gate = threading.Event()

        def loader():
            loads.append(threading.get_ident())
            load_gate.wait(timeout=5)  # keep the load slow: real contention
            return make_instance()

        entries = []

        def worker():
            started.wait(timeout=5)
            entries.append(pool.get_or_load("hot", loader))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Let every worker reach the pool, then release the single load.
        load_gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(loads) == 1
        assert len({id(entry) for entry in entries}) == 1
        assert all(entry.instance is not None for entry in entries)

    def test_independent_keys_do_not_serialise(self):
        """A slow load of one key must not block another key's load."""
        pool = InstancePool(capacity=4)
        slow_started = threading.Event()
        slow_gate = threading.Event()
        order = []

        def slow_loader():
            slow_started.set()
            slow_gate.wait(timeout=5)
            order.append("slow")
            return make_instance()

        def fast_loader():
            order.append("fast")
            return make_instance()

        slow_thread = threading.Thread(
            target=lambda: pool.get_or_load("slow", slow_loader)
        )
        slow_thread.start()
        assert slow_started.wait(timeout=5)
        pool.get_or_load("fast", fast_loader)  # completes while slow is stuck
        slow_gate.set()
        slow_thread.join(timeout=10)
        assert order == ["fast", "slow"]


class TestEvictionRaces:
    """Eviction racing in-flight cold loads — including deadline-cancelled
    loads (the loader raising ``DeadlineExceededError`` mid-flight)."""

    def test_failed_load_leaves_no_poisoned_placeholder(self):
        pool = InstancePool(capacity=4)

        def doomed_loader():
            raise DeadlineExceededError("cold load cancelled by deadline")

        with pytest.raises(DeadlineExceededError):
            pool.get_or_load("k", doomed_loader)
        assert pool.keys() == []  # the placeholder did not squat in the LRU
        entry = pool.get_or_load("k", make_instance)  # clean retry
        assert entry.instance is not None
        assert pool.stats()["misses"] == 2

    def test_evict_during_inflight_cold_load_is_safe(self):
        pool = InstancePool(capacity=4)
        load_started = threading.Event()
        load_gate = threading.Event()
        loaded = []

        def slow_loader():
            load_started.set()
            load_gate.wait(timeout=10)
            return make_instance()

        thread = threading.Thread(
            target=lambda: loaded.append(pool.get_or_load("k", slow_loader))
        )
        thread.start()
        assert load_started.wait(timeout=5)
        # The placeholder is visible to eviction mid-load; dropping it must
        # not break the in-flight loader — its caller keeps the entry alive.
        assert pool.evict(lambda key: True) == 1
        assert pool.keys() == []
        load_gate.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert loaded and loaded[0].instance is not None
        # The pool's next requester cold-loads a fresh master independently.
        fresh = pool.get_or_load("k", make_instance)
        assert fresh is not loaded[0]
        assert fresh.instance is not None

    def test_cancelled_load_does_not_delete_a_successors_fresh_entry(self):
        """Deadline-cancels an in-flight load *after* eviction already let a
        successor re-load the key: the canceller's cleanup must only remove
        its own placeholder, never the successor's live entry."""
        pool = InstancePool(capacity=4)
        load_started = threading.Event()
        load_gate = threading.Event()
        outcome = []

        def cancelled_loader():
            load_started.set()
            load_gate.wait(timeout=10)
            raise DeadlineExceededError("deadline expired during the cold load")

        def victim():
            try:
                pool.get_or_load("k", cancelled_loader)
            except DeadlineExceededError:
                outcome.append("cancelled")

        thread = threading.Thread(target=victim)
        thread.start()
        assert load_started.wait(timeout=5)
        assert pool.evict(lambda key: True) == 1  # old placeholder gone
        successor = pool.get_or_load("k", make_instance)  # fresh entry, loaded
        assert successor.instance is not None
        load_gate.set()  # now the first load fails with its deadline
        thread.join(timeout=10)
        assert outcome == ["cancelled"]
        # Identity check in the failure path: the successor entry survives.
        assert pool.keys() == ["k"]
        assert pool.get_or_load("k", make_instance) is successor
