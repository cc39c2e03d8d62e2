"""Unit tests for the sigma-instance data structure."""

import pytest

from repro.errors import InstanceError, SchemaError
from repro.model.instance import Instance, expand_edges, normalize_edges, tree_instance


class TestNormalizeEdges:
    def test_merges_adjacent_runs(self):
        assert normalize_edges([(1, 2), (1, 3), (2, 1)]) == ((1, 5), (2, 1))

    def test_keeps_non_adjacent_runs_apart(self):
        assert normalize_edges([(1, 1), (2, 1), (1, 1)]) == ((1, 1), (2, 1), (1, 1))

    def test_drops_zero_counts(self):
        assert normalize_edges([(1, 0), (2, 1)]) == ((2, 1),)

    def test_rejects_negative_counts(self):
        with pytest.raises(InstanceError):
            normalize_edges([(1, -1)])

    def test_empty(self):
        assert normalize_edges([]) == ()

    def test_expand_round_trip(self):
        edges = ((3, 2), (5, 1), (3, 1))
        assert list(expand_edges(edges)) == [3, 3, 5, 3]


class TestSchema:
    def test_ensure_set_is_idempotent(self):
        instance = Instance()
        bit = instance.ensure_set("a")
        assert instance.ensure_set("a") == bit
        assert instance.schema == ("a",)

    def test_bit_of_missing_set_raises(self):
        instance = Instance(["a"])
        with pytest.raises(SchemaError):
            instance.bit_of("b")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Instance().ensure_set("")

    def test_drop_set_compacts_masks(self):
        instance = Instance(["a", "b", "c"])
        v = instance.new_vertex(["a", "c"])
        instance.set_root(v)
        instance.drop_set("b")
        assert instance.schema == ("a", "c")
        assert instance.sets_at(v) == ("a", "c")

    def test_drop_first_set_shifts_bits(self):
        instance = Instance(["a", "b"])
        v = instance.new_vertex(["b"])
        instance.set_root(v)
        instance.drop_set("a")
        assert instance.in_set(v, "b")


class TestVerticesAndEdges:
    def test_single_vertex(self):
        instance = Instance(["a"])
        v = instance.new_vertex(["a"])
        instance.set_root(v)
        instance.validate()
        assert instance.num_vertices == 1
        assert instance.num_edge_entries == 0

    def test_children_are_normalized(self):
        instance = Instance()
        leaf = instance.new_vertex()
        parent = instance.new_vertex(children=[(leaf, 1), (leaf, 2)])
        assert instance.children(parent) == ((leaf, 3),)

    def test_out_degree_counts_multiplicities(self, figure2_compressed):
        instance = figure2_compressed
        book = next(iter(instance.members("book")))
        assert instance.out_degree(book) == 4

    def test_edge_counts(self, figure2_compressed):
        # book: title + 3x author (2 entries), paper: title + author (2),
        # bib: book + 2x paper (2).
        assert figure2_compressed.num_edge_entries == 6
        assert figure2_compressed.num_edges_expanded == 9

    def test_set_children_to_unknown_vertex_raises(self):
        instance = Instance()
        v = instance.new_vertex()
        with pytest.raises(InstanceError):
            instance.set_children(v, [(99, 1)])

    def test_root_unset_raises(self):
        with pytest.raises(InstanceError):
            Instance().root


class TestSetMembership:
    def test_members(self, figure2_compressed):
        assert len(figure2_compressed.members("author")) == 1
        assert len(figure2_compressed.members("paper")) == 1

    def test_add_and_remove(self):
        instance = Instance(["a"])
        v = instance.new_vertex()
        instance.set_root(v)
        assert not instance.in_set(v, "a")
        instance.add_to_set(v, "a")
        assert instance.in_set(v, "a")
        instance.remove_from_set(v, "a")
        assert not instance.in_set(v, "a")

    def test_add_to_new_set_extends_schema(self):
        instance = Instance()
        v = instance.new_vertex()
        instance.set_root(v)
        instance.add_to_set(v, "fresh")
        assert instance.has_set("fresh")
        assert instance.members("fresh") == {v}

    def test_sets_at_in_schema_order(self):
        instance = Instance(["x", "y"])
        v = instance.new_vertex(["y", "x"])
        assert instance.sets_at(v) == ("x", "y")


class TestTraversal:
    def test_topological_order_parents_first(self, figure2_compressed):
        instance = figure2_compressed
        order = instance.topological_order()
        position = {v: i for i, v in enumerate(order)}
        for vertex in order:
            for child, _ in instance.children(vertex):
                assert position[vertex] < position[child]

    def test_postorder_children_first(self, bib_tree):
        order = bib_tree.postorder()
        position = {v: i for i, v in enumerate(order)}
        for vertex in order:
            for child, _ in bib_tree.children(vertex):
                assert position[child] < position[vertex]

    def test_preorder_starts_at_root(self, figure2_compressed):
        assert figure2_compressed.preorder()[0] == figure2_compressed.root

    def test_orders_cover_reachable_once(self, figure2_compressed):
        for order in (
            figure2_compressed.preorder(),
            figure2_compressed.postorder(),
            figure2_compressed.topological_order(),
        ):
            assert sorted(order) == sorted(figure2_compressed.reachable())
            assert len(set(order)) == len(order)

    def test_deep_chain_does_not_overflow(self):
        # 50k-deep chain: traversals must be iterative.
        instance = Instance()
        vertex = instance.new_vertex()
        for _ in range(50_000):
            vertex = instance.new_vertex(children=[(vertex, 1)])
        instance.set_root(vertex)
        assert len(instance.postorder()) == 50_001
        instance.validate()


class TestValidate:
    def test_cycle_detected(self):
        instance = Instance()
        a = instance.new_vertex()
        b = instance.new_vertex(children=[(a, 1)])
        instance.set_children(a, [(b, 1)])
        # Both have incoming edges; add a root above to isolate cycle check.
        root = instance.new_vertex(children=[(a, 1)])
        instance.set_root(root)
        with pytest.raises(InstanceError, match="cycle"):
            instance.validate()

    def test_second_source_detected(self):
        instance = Instance()
        instance.new_vertex()  # orphan vertex
        root = instance.new_vertex()
        instance.set_root(root)
        with pytest.raises(InstanceError, match="no incoming edge"):
            instance.validate()

    def test_root_with_incoming_edge_detected(self):
        instance = Instance()
        a = instance.new_vertex()
        root = instance.new_vertex(children=[(a, 1)])
        instance.set_children(a, [])
        instance.set_children(root, [(a, 1)])
        instance.set_root(a)
        with pytest.raises(InstanceError, match="root has incoming"):
            instance.validate()

    def test_valid_dag_passes(self, figure2_compressed):
        figure2_compressed.validate()


class TestCopyCompactReduct:
    def test_copy_is_independent(self, figure2_compressed):
        clone = figure2_compressed.copy()
        clone.add_to_set(clone.root, "marker")
        assert not figure2_compressed.has_set("marker")

    def test_reduct_restricts_schema(self, figure2_compressed):
        reduct = figure2_compressed.reduct(["author", "title"])
        assert reduct.schema == ("author", "title")
        assert len(reduct.members("author")) == 1

    def test_reduct_unknown_set_raises(self, figure2_compressed):
        with pytest.raises(SchemaError):
            figure2_compressed.reduct(["nope"])


class TestTreeInstance:
    def test_bib_tree_shape(self, bib_tree):
        bib_tree.validate()
        assert bib_tree.num_vertices == 12
        assert bib_tree.is_tree()
        assert len(bib_tree.members("author")) == 5

    def test_compressed_is_not_tree(self, figure2_compressed):
        assert not figure2_compressed.is_tree()

    def test_multi_label_nodes(self):
        instance = tree_instance((("a", "b"), []))
        assert instance.sets_at(instance.root) == ("a", "b")

    def test_to_dot_mentions_all_vertices(self, figure2_compressed):
        dot = figure2_compressed.to_dot()
        for vertex in figure2_compressed.preorder():
            assert f"v{vertex}" in dot
        assert "x3" in dot  # the multiplicity-3 author edge

    def test_repr(self, figure2_compressed):
        text = repr(figure2_compressed)
        assert "|V|=5" in text
