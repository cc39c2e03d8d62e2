"""Bulk mask-plane operations must be observably identical to per-vertex loops.

The evaluator used to implement set operations, ``V``, and temp cleanup as
per-vertex ``mask()``/``set_mask()`` loops; the bulk operations replace them
with single passes over the mask plane.  These tests pin the equivalence:
for every operation, the bulk version and a reference per-vertex loop (the
seed implementation, reconstructed here through the public API) must leave
the instance in the same observable state — same schema, same members for
every set.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError
from repro.model.instance import Instance, tree_instance

from tests.conftest import LABELS, random_dag_instances


def snapshot(instance: Instance) -> dict[str, set[int]]:
    """Observable set state: members of every schema set."""
    return {name: instance.members(name) for name in instance.schema}


def reference_combine(instance: Instance, op: str, left: str, right: str, target: str) -> str:
    """The seed evaluator's per-vertex combine loop, via the public API."""
    instance.ensure_set(target)
    for vertex in instance.preorder():
        a = instance.in_set(vertex, left)
        b = instance.in_set(vertex, right)
        if op == "union":
            value = a or b
        elif op == "intersect":
            value = a and b
        else:
            value = a and not b
        if value:
            instance.add_to_set(vertex, target)
    return target


def reference_fill(instance: Instance, name: str) -> str:
    """The seed evaluator's AllNodes loop, via the public API."""
    instance.ensure_set(name)
    for vertex in instance.preorder():
        instance.add_to_set(vertex, name)
    return name


OPS = ("union", "intersect", "difference")


@given(random_dag_instances(), st.sampled_from(OPS), st.sampled_from(LABELS), st.sampled_from(LABELS))
def test_combine_sets_matches_per_vertex_loop(instance, op, left, right):
    bulk = instance.copy()
    reference = instance.copy()
    bulk.combine_sets(op, left, right, "result")
    reference_combine(reference, op, left, right, "result")
    assert bulk.schema == reference.schema
    assert snapshot(bulk) == snapshot(reference)


@given(random_dag_instances())
def test_fill_set_matches_per_vertex_loop(instance):
    bulk = instance.copy()
    reference = instance.copy()
    bulk.fill_set("all")
    reference_fill(reference, "all")
    assert snapshot(bulk) == snapshot(reference)
    assert bulk.members("all") == set(bulk.preorder())


@given(random_dag_instances(), st.lists(st.sampled_from(LABELS), max_size=3))
def test_drop_sets_matches_repeated_drop_set(instance, names):
    bulk = instance.copy()
    expected_schema = [n for n in instance.schema if n not in set(names)]
    expected = {n: instance.members(n) for n in expected_schema}
    bulk.drop_sets(names)
    assert list(bulk.schema) == expected_schema
    assert snapshot(bulk) == expected


@given(random_dag_instances(), st.integers(min_value=0, max_value=len(LABELS) + 1))
def test_truncate_sets_matches_dropping_the_tail(instance, width):
    bulk = instance.copy()
    reference = instance.copy()
    bulk.truncate_sets(width)
    reference.drop_sets(instance.schema[width:])
    assert bulk.schema == reference.schema == instance.schema[:width]
    assert snapshot(bulk) == snapshot(reference)
    assert all(bulk.bit_of(name) == index for index, name in enumerate(bulk.schema))
    assert not any(bulk.has_set(name) for name in instance.schema[width:])


@given(random_dag_instances(), st.lists(st.sampled_from(LABELS), max_size=3))
def test_clear_sets_empties_only_the_named_sets(instance, names):
    bulk = instance.copy()
    cleared = set(names)
    expected = {
        name: (set() if name in cleared else instance.members(name))
        for name in instance.schema
    }
    bulk.clear_sets(names)
    assert bulk.schema == instance.schema
    assert snapshot(bulk) == expected


class TestBulkOpEdgeCases:
    def build(self) -> Instance:
        instance = tree_instance(
            ("a", [("b", []), ("c", [("a", []), ("b", [])]), ("a", [])]),
            schema=LABELS,
        )
        instance.ensure_set("empty")
        instance.fill_set("full")
        return instance

    def test_combine_with_empty_and_full_sets(self):
        instance = self.build()
        everything = set(instance.preorder())
        assert instance.members(instance.combine_sets("union", "a", "empty", "u")) == instance.members("a")
        assert instance.members(instance.combine_sets("intersect", "a", "full", "i")) == instance.members("a")
        assert instance.members(instance.combine_sets("difference", "full", "empty", "d")) == everything
        assert instance.members(instance.combine_sets("difference", "empty", "full", "d2")) == set()

    def test_combine_rejects_unknown_operation(self):
        instance = self.build()
        with pytest.raises(ValueError):
            instance.combine_sets("xor", "a", "b", "t")

    def test_combine_rejects_unknown_operand(self):
        instance = self.build()
        with pytest.raises(SchemaError):
            instance.combine_sets("union", "a", "nope", "t")

    def test_drop_sets_middle_of_schema(self):
        # Dropping non-suffix bits exercises the multi-segment recompose.
        instance = self.build()
        members_c = instance.members("c")
        members_full = instance.members("full")
        instance.drop_sets(["a", "empty"])
        assert list(instance.schema) == ["b", "c", "full"]
        assert instance.members("c") == members_c
        assert instance.members("full") == members_full

    def test_drop_sets_everything(self):
        instance = self.build()
        instance.drop_sets(list(instance.schema))
        assert instance.schema == ()
        assert all(instance.mask(v) == 0 for v in range(instance.num_vertices))

    def test_drop_sets_deduplicates_names(self):
        instance = self.build()
        instance.drop_sets(["a", "a", "a"])
        assert "a" not in instance.schema

    def test_drop_sets_empty_is_noop(self):
        instance = self.build()
        before = snapshot(instance)
        instance.drop_sets([])
        assert snapshot(instance) == before

    def test_fill_set_only_touches_reachable_vertices(self):
        instance = self.build()
        orphan = instance.new_vertex(["b"])  # unreachable
        instance.fill_set("all")
        assert orphan not in instance.members("all")
        assert instance.members("all") == set(instance.preorder())

    def test_combine_only_touches_reachable_vertices(self):
        instance = self.build()
        orphan = instance.new_vertex(["a"])  # unreachable but in 'a'
        instance.combine_sets("union", "a", "b", "u")
        assert orphan not in instance.members("u")

    def test_drop_sets_adjacent_names_compact_into_one_segment(self):
        # "b" and "c" occupy consecutive bit positions: the historical
        # segment-based compaction produced a zero-width segment between
        # them; the plane representation must shift "full" down by two.
        instance = self.build()
        members_a = instance.members("a")
        members_full = instance.members("full")
        instance.drop_sets(["b", "c"])
        assert list(instance.schema) == ["a", "empty", "full"]
        assert instance.members("a") == members_a
        assert instance.members("full") == members_full

    def test_drop_sets_duplicates_of_adjacent_names(self):
        # Duplicates of *adjacent* names in one call: the exact input shape
        # that corrupted the old order-sensitive segment walk.
        instance = self.build()
        expected = {"a": instance.members("a"), "full": instance.members("full")}
        instance.drop_sets(["b", "c", "b", "empty", "c", "b"])
        assert list(instance.schema) == ["a", "full"]
        assert {n: instance.members(n) for n in instance.schema} == expected

    def test_drop_sets_order_insensitive(self):
        instance = self.build()
        forward = instance.copy()
        backward = instance.copy()
        forward.drop_sets(["a", "c", "full"])
        backward.drop_sets(["full", "c", "a"])
        assert forward.schema == backward.schema
        assert snapshot(forward) == snapshot(backward)

    def test_drop_sets_unknown_name_raises_before_mutating(self):
        instance = self.build()
        before = snapshot(instance)
        with pytest.raises(SchemaError):
            instance.drop_sets(["a", "nope"])
        assert snapshot(instance) == before
