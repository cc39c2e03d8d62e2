"""Tests for batch evaluation (CompressedEvaluator.evaluate_batch / query_batch).

The contract under test: a batch decodes to exactly the selections the
engine produces query by query, per-query snapshots stay valid no matter
which later query forces a partial decompression, and identical algebra
subtrees across the mix — or inside one query — are evaluated only once.
"""

import pytest

from repro.engine.evaluator import CompressedEvaluator, evaluate
from repro.engine.pipeline import Engine, load_for_queries, query_batch
from repro.errors import EvaluationError
from repro.model.schema import is_temp
from repro.xpath.compiler import compile_query

from tests.engine.util import oracle_paths
from tests.skeleton.test_loader import BIB_XML

MIX = ["//book/author", "//paper/author", "//book", "/bib/paper/title", "//book/author"]


def solo_paths(instance, query_text):
    return set(evaluate(instance, query_text).tree_paths())


class TestBatchEquivalence:
    def test_matches_sequential_on_bib(self, figure2_compressed):
        batch = query_batch(figure2_compressed, MIX)
        assert len(batch) == len(MIX)
        for query_text, result in zip(MIX, batch):
            assert set(result.tree_paths()) == solo_paths(figure2_compressed, query_text)

    def test_matches_sequential_with_splitting_axes(self, figure2_compressed):
        # Sibling axes force partial decompression mid-batch; earlier and
        # later selections must still decode identically to solo runs.
        mix = [
            "//author",
            "//title/following-sibling::author",
            "//author/preceding-sibling::title",
            "//book",
        ]
        batch = query_batch(figure2_compressed, mix)
        for query_text, result in zip(mix, batch):
            assert set(result.tree_paths()) == solo_paths(figure2_compressed, query_text)

    def test_engine_query_batch_matches_engine_query(self):
        engine = Engine(BIB_XML)
        batch = engine.query_batch(MIX)
        for query_text, result in zip(MIX, batch):
            solo = Engine(BIB_XML).query(query_text)
            assert set(result.tree_paths()) == set(solo.tree_paths())
            assert result.tree_count() == solo.tree_count()

    def test_module_level_query_batch_on_text(self):
        batch = query_batch(BIB_XML, ["//book", "//paper"])
        assert [r.tree_count() for r in batch] == [1, 2]

    def test_compiled_expressions_accepted(self, figure2_compressed):
        exprs = [compile_query(q) for q in MIX]
        batch = CompressedEvaluator(figure2_compressed).evaluate_batch(exprs)
        for query_text, result in zip(MIX, batch):
            assert set(result.tree_paths()) == solo_paths(figure2_compressed, query_text)


class TestSnapshotInvariant:
    def test_snapshots_survive_later_splits(self, figure2_compressed):
        # Query 1's result is snapshotted before query 2 splits the shared
        # author leaf (selected under book, unselected under paper); the
        # snapshot must ride through the split.
        mix = ["//author", "//book/author"]
        expected_first = solo_paths(figure2_compressed, mix[0])
        batch = query_batch(figure2_compressed, mix)
        final = batch.instance
        assert batch[0].instance is final and batch[1].instance is final
        assert final.num_vertices > figure2_compressed.num_vertices  # really split
        assert set(batch[0].tree_paths()) == expected_first

    def test_snapshot_sets_are_durable_and_temps_dropped(self, figure2_compressed):
        batch = query_batch(figure2_compressed, MIX)
        schema = batch.instance.schema
        assert not any(is_temp(name) for name in schema)
        assert {result.set_name for result in batch} <= set(schema)
        assert len({result.set_name for result in batch}) == len(MIX)

    def test_input_instance_untouched_by_default(self, figure2_compressed):
        before_schema = figure2_compressed.schema
        before_vertices = figure2_compressed.num_vertices
        query_batch(figure2_compressed, MIX)
        assert figure2_compressed.schema == before_schema
        assert figure2_compressed.num_vertices == before_vertices


class TestSharedSubexpressions:
    def test_duplicate_query_is_fully_reused(self, figure2_compressed):
        evaluator = CompressedEvaluator(figure2_compressed)
        first = evaluator.evaluate_batch(["//book/author"], keep_temps=True)
        assert first.stats.nodes_evaluated > 0
        second = evaluator.evaluate_batch(["//book/author"], keep_temps=True)
        # The repeat costs zero fresh algebra-node evaluations: one cache
        # hit at the root of the whole query tree.
        assert second.stats.nodes_evaluated == 0
        assert second.stats.nodes_reused == 1
        assert second.stats.queries == 1
        # The evaluator's own stats accumulate over its lifetime; each
        # BatchResult gets an independent per-batch snapshot.
        assert evaluator.stats.queries == 2
        assert first.stats.queries == 1

    def test_shared_prefix_counted(self, figure2_compressed):
        batch = query_batch(figure2_compressed, ["//book/author", "//book/title"])
        # The whole child(descendant::book ∩ L[book]) prefix of query 2 is
        # served by one cache hit at its root (children are never visited),
        # so query 2 only evaluates its own tag set and final intersection.
        assert batch.stats.nodes_reused == 1
        assert batch.stats.nodes_evaluated == batch.stats.nodes_total - 1
        first_alone = query_batch(figure2_compressed, ["//book/author"]).stats
        assert batch.stats.nodes_evaluated < 2 * first_alone.nodes_evaluated

    @pytest.mark.parametrize(
        "query",
        [
            "//book/author | //book/title",
            "//author[parent::book] | //book/author",
            "//title/following-sibling::author | //author/preceding-sibling::title",
        ],
    )
    def test_single_query_evaluates_a_repeated_subtree_once(self, figure2_compressed, query):
        evaluator = CompressedEvaluator(figure2_compressed)
        result = evaluator.evaluate(query)
        assert evaluator.stats.queries == 1
        assert evaluator.stats.nodes_reused >= 1
        assert set(result.tree_paths()) == oracle_paths(figure2_compressed, query)

    def test_stats_sharing_ratio(self, figure2_compressed):
        batch = query_batch(figure2_compressed, ["//book", "//book"])
        assert 0.0 < batch.stats.sharing_ratio < 1.0
        assert batch.stats.queries == 2


class TestBatchEdgeCases:
    def test_empty_batch(self, figure2_compressed):
        batch = query_batch(figure2_compressed, [])
        assert len(batch) == 0
        with pytest.raises(ValueError):
            batch.instance

    def test_missing_set_raises(self, figure2_compressed):
        with pytest.raises(EvaluationError):
            query_batch(figure2_compressed, ["//book", "//nonexistent"])

    def test_context_shared_across_queries(self, figure2_compressed):
        instance = figure2_compressed.copy()
        instance.ensure_set("ctx")
        instance.add_to_set(instance.root, "ctx")
        batch = query_batch(instance, ["book", "paper"], context="ctx")
        assert [r.tree_count() for r in batch] == [1, 2]

    def test_single_query_evaluate_routes_through_batch(self, figure2_compressed):
        evaluator = CompressedEvaluator(figure2_compressed)
        result = evaluator.evaluate("//author")
        assert set(result.tree_paths()) == solo_paths(figure2_compressed, "//author")

    def test_union_schema_load_covers_batch(self):
        loaded = load_for_queries(BIB_XML, ["//book/author", '//paper[title]'])
        schema = set(loaded.instance.schema)
        assert {"book", "author", "paper", "title"} <= schema

    def test_batch_summary_mentions_sharing(self, figure2_compressed):
        text = query_batch(figure2_compressed, ["//book", "//book"]).summary()
        assert "reused" in text and "batch of 2 queries" in text

    def test_selection_summary_computed_once_per_result(self, figure2_compressed, monkeypatch):
        # Each batch member holds its own selection, so each computes its
        # own summary — once, shared by its count, summary() and decode.
        import repro.engine.results as results_module

        batch = query_batch(figure2_compressed, MIX)
        calls = {"n": 0}
        real = results_module.selection_summary

        def counting(instance, name):
            calls["n"] += 1
            return real(instance, name)

        monkeypatch.setattr(results_module, "selection_summary", counting)
        for result in batch:
            result.tree_count()
            result.tree_paths()
        batch.summary()
        assert calls["n"] == len(batch)


class TestTruncateSets:
    """The serving seam: a long-lived working instance sheds what a batch
    added to its schema with one ``Instance.truncate_sets``."""

    def test_truncation_drops_snapshots_and_temps(self, figure2_compressed):
        evaluator = CompressedEvaluator(figure2_compressed)
        width = len(evaluator.instance.schema)
        schema = evaluator.instance.schema
        first = evaluator.evaluate_batch(MIX, keep_temps=True)
        counts = [result.tree_count() for result in first]  # decode before truncating
        assert any(name.startswith("#q") for name in evaluator.instance.schema)
        evaluator.instance.truncate_sets(width)
        assert evaluator.instance.schema == schema
        # A later batch on the same instance still decodes identically.
        second = evaluator.evaluate_batch(MIX)
        assert [result.tree_count() for result in second] == counts

    def test_schema_does_not_grow_across_truncated_batches(self, figure2_compressed):
        evaluator = CompressedEvaluator(figure2_compressed)
        width = len(evaluator.instance.schema)
        for _ in range(5):
            evaluator.evaluate_batch(MIX, keep_temps=True)
            evaluator.instance.truncate_sets(width)
        assert len(evaluator.instance.schema) == width
