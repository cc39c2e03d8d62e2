"""Regression tests for the Engine's cache semantics.

Two bugs fixed by the batch-workload PR are pinned here:

* the compiled-algebra cache was FIFO, not LRU — under query churn the
  hottest query text was evicted first because hits never refreshed
  insertion order;
* ``Engine.instance_for`` left ``last_load`` stale on an instance-cache
  hit, so callers reading ``last_load.parse_seconds`` after a cached query
  saw the *previous schema's* load stats.
"""

from repro.engine.pipeline import Engine

from tests.skeleton.test_loader import BIB_XML


class TestCompiledCacheLRU:
    def test_hit_refreshes_recency(self):
        engine = Engine(BIB_XML)
        engine._compiled.limit = 2
        engine.compiled("//book")
        engine.compiled("//paper")
        engine.compiled("//book")  # hit: //book becomes most recent
        engine.compiled("//title")  # evicts //paper, not //book
        assert list(engine._compiled._entries) == ["//book", "//title"]

    def test_hot_query_survives_churn(self):
        # The regression scenario: one hot query interleaved with a stream
        # of one-off queries longer than the cache. FIFO evicted the hot
        # query as soon as the stream wrapped; LRU must keep it resident.
        engine = Engine(BIB_XML)
        engine._compiled.limit = 4
        hot = "//book/author"
        engine.compiled(hot)
        hot_expr = engine.compiled(hot)
        for i in range(20):
            engine.compiled(f"//oneoff{i}")
            engine.compiled(hot)
        # Same object: the hot entry was never recompiled.
        assert engine.compiled(hot) is hot_expr

    def test_cache_stays_bounded(self):
        engine = Engine(BIB_XML)
        engine._compiled.limit = 3
        for i in range(10):
            engine.compiled(f"//b{i}")
        assert len(engine._compiled._entries) == 3

    def test_repeated_query_reuses_compiled_object(self):
        engine = Engine(BIB_XML)
        first = engine.compiled("//book")
        assert engine.compiled("//book") is first


class TestLastLoadContract:
    def test_fresh_load_recorded(self):
        engine = Engine(BIB_XML, reparse_per_query=False)
        engine.query("//book")
        assert engine.last_load is not None
        assert engine.last_load_cached is False
        assert "book" in engine.last_load.instance.schema

    def test_cache_hit_updates_last_load(self):
        # The regression: after //book (cached) ran again following //paper,
        # last_load used to still describe //paper's schema.
        engine = Engine(BIB_XML, reparse_per_query=False)
        engine.query("//book")
        book_load = engine.last_load
        engine.query("//paper")
        assert "paper" in engine.last_load.instance.schema
        engine.query("//book")  # served from the instance cache
        assert engine.last_load_cached is True
        assert engine.last_load is book_load
        assert "book" in engine.last_load.instance.schema
        assert "paper" not in engine.last_load.instance.schema

    def test_reparse_mode_never_reports_cached(self):
        engine = Engine(BIB_XML, reparse_per_query=True)
        engine.query("//book")
        engine.query("//book")
        assert engine.last_load_cached is False

    def test_query_batch_sets_last_load_to_union_schema(self):
        engine = Engine(BIB_XML, reparse_per_query=False)
        engine.query_batch(["//book", "//paper"])
        schema = set(engine.last_load.instance.schema)
        assert {"book", "paper"} <= schema
        assert engine.last_load_cached is False
        engine.query_batch(["//book", "//paper"])
        assert engine.last_load_cached is True
