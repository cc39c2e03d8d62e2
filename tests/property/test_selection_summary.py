"""``selection_summary`` over the upward closure equals the full walk.

On the vector tier the summary visits only ``ancestor-or-self(S)``, found by
the shared :meth:`EdgeCSR.strict_ancestors` pass and ordered by the cached
postorder array.  The reference below is the loop it replaced — every
reachable vertex, children first — and the whole ``below`` dict must agree:
on random DAGs and selections, with counts far beyond a machine word, with
selected vertices the root cannot reach, after splits through both seams of
:meth:`Instance.split_vertices`, and on a fork whose master splits later.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import planes
from repro.model.instance import Instance
from repro.model.paths import selection_summary

from tests.conftest import random_dag_instances
from tests.property.test_delta_split import (
    SPLITTING,
    TIERS,
    apply_on_tier,
    forced_tier,
    shared_master,
    warmed,
)


def full_walk_summary(instance: Instance, name: str) -> dict[int, int]:
    """The recurrence over every reachable vertex (the pre-closure loop)."""
    members = instance.members(name)
    below: dict[int, int] = {}
    for vertex in instance.postorder():
        total = int(vertex in members)
        for child, count in instance.children(vertex):
            total += count * below.get(child, 0)
        if total:
            below[vertex] = total
    return below


def summary_on_tier(instance: Instance, name: str, tier: str) -> dict[int, int]:
    with forced_tier(tier):
        below = selection_summary(instance, name)
        if tier == "vector" and planes.numpy_active() and instance.has_edge_csr:
            assert instance._post_array is not None  # the closure route ran
    return below


@settings(max_examples=150, deadline=None)
@given(random_dag_instances(), st.booleans(), st.sampled_from(sorted(TIERS)), st.data())
def test_summary_equals_the_full_walk(instance, with_levels, tier, data):
    for vertex in data.draw(st.sets(st.integers(0, instance.num_vertices - 1))):
        instance.add_to_set(vertex, "S")
    instance.ensure_set("S")
    if with_levels:
        instance.edge_csr()  # without it every tier takes the full walk
    assert summary_on_tier(instance, "S", tier) == full_walk_summary(instance, "S")


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_counts_outgrow_a_machine_word(tier):
    chain = Instance(["S"])
    vertex = chain.new_vertex(["S"])
    for _ in range(80):
        vertex = chain.new_vertex([], [(vertex, 2)])
    chain.set_root(vertex)
    chain.edge_csr()
    below = summary_on_tier(chain, "S", tier)
    assert below == full_walk_summary(chain, "S")
    assert below[chain.root] == 2**80 and type(below[chain.root]) is int


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_unreachable_selected_vertices_do_not_count(tier):
    instance = Instance(["S"])
    leaf = instance.new_vertex(["S"])
    instance.new_vertex(["S"])  # selected, no parent
    instance.new_vertex(["S"], [(leaf, 3)])  # selected, unreachable parent of a reachable leaf
    instance.set_root(instance.new_vertex([], [(leaf, 2)]))
    instance.edge_csr()
    assert summary_on_tier(instance, "S", tier) == {leaf: 1, instance.root: 2}


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("axis", SPLITTING)  # downward: ``redirect``; sibling: ``rewritten``
def test_summary_after_a_split_through_either_seam(axis, tier):
    working = warmed(shared_master()).copy()
    before = working.num_vertices
    apply_on_tier(working, axis, "b", "T", tier)
    assert working.num_vertices > before
    working.edge_csr()  # dropped under ``rewritten`` and on the stdlib tier
    assert summary_on_tier(working, "T", tier) == full_walk_summary(working, "T")


@pytest.mark.skipif(not planes.numpy_active(), reason="the postorder array needs numpy")
@pytest.mark.parametrize("axis", SPLITTING)
def test_a_fork_keeps_its_postorder_array_when_the_master_splits(axis):
    master = warmed(shared_master())
    fork = master.copy()
    shared = fork._post_array
    assert shared is master._post_array is not None
    apply_on_tier(master, axis, "b", "T", "vector")
    assert master._post_array is not shared and fork._post_array is shared
    assert shared.tolist() == fork.postorder()
    assert master.postorder_array().tolist() == master.postorder()
    master.edge_csr()
    assert summary_on_tier(master, "T", "vector") == full_walk_summary(master, "T")
    assert summary_on_tier(fork, "b", "vector") == full_walk_summary(fork, "b")
