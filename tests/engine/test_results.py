"""Tests for query-result decoding (Figure 7 columns 5-8)."""

from itertools import islice

import pytest

from repro.engine.evaluator import evaluate
from repro.engine.pipeline import query
from repro.engine.results import QueryResult
from repro.errors import DecompressionLimitError
from repro.model.instance import Instance

from tests.skeleton.test_loader import BIB_XML


class TestQueryResult:
    def test_counts_consistent(self):
        result = query(BIB_XML, "//author")
        assert result.dag_count() == 1
        assert result.tree_count() == 5
        assert len(result.tree_paths()) == 5

    def test_vertices_accessor(self):
        result = query(BIB_XML, "//paper")
        assert result.vertices() <= set(result.instance.preorder())

    def test_before_after_sizes(self):
        result = query(BIB_XML, "/bib/book/author")
        before_v, before_e = result.before
        after_v, after_e = result.after
        assert after_v >= before_v
        assert after_e >= before_e
        assert result.decompression_ratio() >= 1.0

    def test_iter_tree_matches_pairs_paths_with_vertices(self):
        result = query(BIB_XML, "//title")
        matches = list(result.iter_tree_matches())
        assert len(matches) == 3
        for path, vertex in matches:
            assert result.instance.in_set(vertex, result.set_name)
            assert len(path) == 3  # doc -> bib -> record -> title

    def test_paths_in_document_order(self):
        result = query(BIB_XML, "//author")
        paths = result.tree_paths()
        assert paths == sorted(paths)

    def test_empty_result(self):
        result = query(BIB_XML, "//nonexistent")
        assert result.is_empty()
        assert result.tree_paths() == []
        assert result.tree_count() == 0

    def test_path_limit_enforced(self):
        from repro.corpora.binary_tree import compressed_instance

        result = evaluate(compressed_instance(40), "//a")
        with pytest.raises(DecompressionLimitError):
            result.tree_paths(limit=1000)

    def test_selective_decode_is_not_bounded_by_tree_size(self):
        # A 2^40-node tree with one match: the guided walk enters only the
        # four nodes on the way to it, so a 1000-node guard is plenty.
        from repro.corpora.binary_tree import compressed_instance

        result = evaluate(compressed_instance(40), "/a/b/a/b")
        assert result.tree_count() == 1
        assert result.tree_paths(limit=1000) == [(1, 2, 1, 2)]

    def test_limit_counts_tree_nodes_entered(self):
        result = query(BIB_XML, "//author")  # 5 matches under 3 records
        entered = 1 + 1 + 3 + 5  # document, bib, the records, the authors
        assert len(result.tree_paths(limit=entered)) == 5
        with pytest.raises(DecompressionLimitError):
            result.tree_paths(limit=entered - 1)
        # A prefix stops the walk early, so a smaller guard suffices for it.
        assert len(list(islice(result.iter_tree_matches(limit=4), 1))) == 1

    def test_deep_chain_decodes_without_recursion(self):
        depth = 5000
        instance = Instance(["leaf"])
        vertex = instance.new_vertex(["leaf"])
        for _ in range(depth - 1):
            vertex = instance.new_vertex(children=[(vertex, 1)])
        instance.set_root(vertex)
        result = QueryResult(instance, "leaf")
        assert result.tree_count() == 1
        assert result.tree_paths() == [(1,) * (depth - 1)]

    def test_summary_contains_counts(self):
        result = query(BIB_XML, "//author")
        text = result.summary()
        assert "5 tree" in text

    def test_timing_recorded(self):
        result = query(BIB_XML, "//author")
        assert result.seconds > 0


def count_path_count_derivations(monkeypatch) -> list:
    """Record each instance that derives its path-count table from scratch."""
    derived = []
    original = Instance.path_counts

    def counting(self):
        if self._count_cache is None:
            derived.append(self)
        return original(self)

    monkeypatch.setattr(Instance, "path_counts", counting)
    return derived


class TestResultMemoisation:
    """Regression: summary() used to re-traverse the instance up to four
    times (dag_count, tree_count, and `after` each recomputed preorder /
    the count table). Results are read-only views, so every
    traversal-derived value is computed once and memoised."""

    def test_path_counts_derived_once(self, monkeypatch):
        # One top-down table per structure, shared by tree_count(),
        # summary() and every later result on the same instance.
        result = query(BIB_XML, "//author")
        derived = count_path_count_derivations(monkeypatch)
        result.tree_count()
        result.summary()
        assert len(result.tree_paths()) == 5
        assert len(list(result.iter_tree_matches())) == 5
        result.tree_count()
        result.summary()
        assert derived == [result.instance]

    def test_after_and_dag_count_memoised(self):
        result = query(BIB_XML, "//author")
        assert result.after is result.after  # same memoised tuple object
        first = result.dag_count()
        assert result.dag_count() == first
        assert result._dag_count == first

    def test_memoised_values_match_fresh_result(self):
        fresh = query(BIB_XML, "//author")
        warmed = query(BIB_XML, "//author")
        warmed.summary()  # prime every memo
        assert warmed.dag_count() == fresh.dag_count()
        assert warmed.tree_count() == fresh.tree_count()
        assert warmed.after == fresh.after
