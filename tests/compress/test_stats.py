"""Tests for instance statistics (Figure 6 quantities)."""

from repro.compress.minimize import minimize
from repro.compress.stats import instance_stats
from repro.model.instance import tree_instance


class TestInstanceStats:
    def test_tree_stats(self, bib_tree):
        stats = instance_stats(bib_tree)
        assert stats.vertices == 12
        assert stats.tree_vertices == 12
        assert stats.edge_entries == 11
        assert stats.tree_edges == 11
        assert stats.edge_ratio == 1.0

    def test_compressed_stats(self, figure2_compressed):
        stats = instance_stats(figure2_compressed)
        assert stats.vertices == 5
        assert stats.tree_vertices == 12
        assert stats.edge_entries == 6
        # DAG edges with multiplicities: bib->book(1)+paper(2), book->title(1)
        # +author(3), paper->title(1)+author(1) = 9 (tree has 11; sharing
        # keeps the book/paper subtrees single).
        assert stats.edges_expanded == 9
        assert abs(stats.edge_ratio - 6 / 11) < 1e-12

    def test_ratio_improves_with_compression(self, bib_tree):
        before = instance_stats(bib_tree)
        after = instance_stats(minimize(bib_tree))
        assert after.edge_ratio < before.edge_ratio
        assert after.tree_vertices == before.tree_vertices

    def test_row_formatting(self, figure2_compressed):
        row = instance_stats(figure2_compressed).row()
        assert "|V^T|=" in row and "%" in row

    def test_single_vertex_ratio(self):
        stats = instance_stats(tree_instance(("only", [])))
        assert stats.tree_edges == 0
        assert stats.edge_ratio == 1.0


# ----------------------------------------------------------------------
# DocumentStats: the optimizer's statistics catalog
# ----------------------------------------------------------------------

import math

from repro.compress.stats import DocumentStats
from repro.model.schema import string_set


class TestDocumentStats:
    def test_counts_from_tree(self, bib_tree):
        stats = DocumentStats.from_instance(bib_tree, complete_tags=True)
        assert stats.tree_nodes == 12
        assert stats.tree_count("bib") == 1
        assert stats.tree_count("book") == 1
        assert stats.tree_count("paper") == 2
        assert stats.tree_count("title") == 3
        assert stats.tree_count("author") == 5

    def test_counts_survive_compression(self, bib_tree, figure2_compressed):
        """Tree-node counts are multiplicity-weighted: identical for the
        uncompressed tree and its compressed DAG (the whole point)."""
        flat = DocumentStats.from_instance(bib_tree)
        packed = DocumentStats.from_instance(figure2_compressed)
        for name in ("bib", "book", "paper", "title", "author"):
            assert flat.tree_count(name) == packed.tree_count(name)
        assert flat.tree_nodes == packed.tree_nodes == 12
        assert math.isclose(flat.avg_depth, packed.avg_depth)
        assert math.isclose(flat.avg_fanout, packed.avg_fanout)
        assert math.isclose(flat.avg_subtree, packed.avg_subtree)

    def test_unknown_tag_semantics(self, bib_tree):
        complete = DocumentStats.from_instance(bib_tree, complete_tags=True)
        partial = DocumentStats.from_instance(bib_tree, complete_tags=False)
        assert complete.tree_count("absent") == 0
        assert complete.is_empty("absent")
        assert partial.tree_count("absent") is None
        assert not partial.is_empty("absent")
        # String sets are never provable from tag completeness alone.
        assert complete.tree_count(string_set("x")) is None
        assert not complete.is_empty(string_set("x"))

    def test_string_sets_in_the_schema_are_counted_exactly(self, bib_tree):
        """An instance loaded with a string schema (the embedded engine's
        per-query instances) counts its string sets like tags, empty ones
        included; without them the count is unknown, never zero."""
        from repro.skeleton.loader import load

        from tests.skeleton.test_loader import BIB_XML

        needles = ["Codd", "zzq"]
        instance = load(BIB_XML, tags=None, strings=needles).instance
        stats = DocumentStats.from_instance(instance)
        assert stats.tree_count(string_set("Codd")) >= 1
        assert stats.tree_count(string_set("zzq")) == 0
        assert stats.is_empty(string_set("zzq"))
        tags_only = DocumentStats.from_instance(bib_tree, complete_tags=True)
        assert tags_only.tree_count(string_set("Codd")) is None

    def test_equal_for_equal_instances(self, figure2_compressed):
        """Statistics are a pure function of the instance: a copy derives
        equal statistics (what lets any process re-derive them)."""
        first = DocumentStats.from_instance(figure2_compressed, complete_tags=True)
        again = DocumentStats.from_instance(figure2_compressed.copy(), complete_tags=True)
        assert again == first

    def test_temps_and_results_excluded(self, bib_tree):
        from repro.model.schema import result_set, temp_set

        bib_tree.ensure_set(temp_set(1))
        bib_tree.ensure_set(result_set(1))
        stats = DocumentStats.from_instance(bib_tree)
        assert temp_set(1) not in stats.sets
        assert result_set(1) not in stats.sets

    def test_huge_counts_keep_finite_aggregates(self):
        """A Figure-5 style doubling chain: exact big-int tree counts, while
        the averages stay small finite floats (the ratios, not the counts,
        are converted)."""
        from repro.model.instance import Instance

        instance = Instance(["a"])
        vertex = instance.new_vertex(["a"])
        for _ in range(1100):
            vertex = instance.new_vertex(["a"], [(vertex, 2)])
        instance.set_root(vertex)
        stats = DocumentStats.from_instance(instance)
        assert stats.tree_nodes > 2**1000  # exact big int
        assert stats.tree_count("a") == stats.tree_nodes
        assert 1000 < stats.avg_depth < 1100
        assert math.isclose(stats.avg_subtree, stats.avg_depth + 1)
        assert math.isclose(stats.avg_fanout, 2.0)
