"""The cached path counts ``|Pi(v)|`` answer what the full walk answers.

:meth:`Instance.path_counts` is derived once per structure, shared by
:meth:`Instance.copy` and patched by :meth:`Instance.split_vertices`;
Figure 7 column (8) of a selection is its sum over the selection, and the
result decode is guided by the selection and its strict ancestors alone.
The references below are the bottom-up recurrence the table replaced
(every reachable vertex, children first) and the brute-force walk of
:func:`iter_edge_paths`.  Pinned on every kernel tier: the table equals a
fresh derivation on random DAGs, after splits through both seams of
:meth:`Instance.split_vertices` and after chained splits; a fork's split
never touches its master's table, nor a master's split its fork's; counts
beyond a machine word stay exact Python integers; a selected vertex the
root cannot reach counts 0.
"""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.engine.results import QueryResult
from repro.model import planes
from repro.model.instance import Instance
from repro.model.paths import iter_edge_paths, selected_tree_count, tree_size

from tests.conftest import LABELS, random_dag_instances
from tests.property.test_delta_split import (
    SPLITTING,
    TIERS,
    apply_on_tier,
    forced_tier,
    shared_master,
    warmed,
)


def full_walk_summary(instance: Instance, name: str) -> dict[int, int]:
    """``below[v]``: selected tree nodes under ``v``, over every reachable vertex."""
    members = instance.members(name)
    below: dict[int, int] = {}
    for vertex in instance.postorder():
        total = int(vertex in members)
        for child, count in instance.children(vertex):
            total += count * below.get(child, 0)
        if total:
            below[vertex] = total
    return below


def fresh_counts(instance: Instance) -> list[int]:
    """The table derived from scratch on an uncached copy of the structure."""
    fresh = instance.copy()
    fresh._touch()
    return list(fresh.path_counts())


def count_on_tier(instance: Instance, name: str, tier: str) -> int:
    with forced_tier(tier):
        return selected_tree_count(instance, name)


def assert_counts_match(instance: Instance, tier: str) -> None:
    """The cached table is exact, and every set's sum is the full walk's."""
    counts = instance.path_counts()
    assert list(counts) == fresh_counts(instance)
    for name in instance.schema:
        expected = full_walk_summary(instance, name).get(instance.root, 0)
        assert count_on_tier(instance, name, tier) == expected


@settings(max_examples=150, deadline=None)
@given(
    random_dag_instances(),
    st.lists(
        st.tuples(st.sampled_from(SPLITTING), st.sampled_from(LABELS)), min_size=2, max_size=2
    ),
    st.sampled_from(sorted(TIERS)),
)
def test_patched_table_equals_a_fresh_derivation(master, steps, tier):
    warmed(master)
    table = master.path_counts()
    before = list(table)
    working = master.copy()
    assert working.path_counts() is table
    for number, (axis, source) in enumerate(steps):
        apply_on_tier(working, axis, source, f"T{number}", tier)
        assert working._count_cache is not None  # patched, never dropped
        assert_counts_match(working, tier)
    assert master._count_cache is table and list(table) == before  # copy-on-write


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("axis", SPLITTING)  # downward: ``redirect``; sibling: ``rewritten``
def test_table_after_a_split_through_either_seam(axis, tier):
    master = warmed(shared_master())
    table = master.path_counts()
    before = list(table)
    working = master.copy()
    apply_on_tier(working, axis, "b", "T", tier)
    assert working.num_vertices > master.num_vertices  # it did split
    assert_counts_match(working, tier)
    apply_on_tier(working, "child", "T", "U", tier)  # a chained split
    assert_counts_match(working, tier)
    assert master._count_cache is table and list(table) == before


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_counts_outgrow_a_machine_word(tier):
    chain = Instance(["S"])
    vertex = chain.new_vertex(["S"])
    for _ in range(80):
        vertex = chain.new_vertex([], [(vertex, 2)])
    marked = chain.new_vertex(["S"], [(vertex, 1)])
    chain.set_root(chain.new_vertex([], [(vertex, 1), (marked, 1)]))
    warmed(chain)
    assert max(chain.path_counts()) == 2**81  # exact, beyond a machine word
    assert count_on_tier(chain, "S", tier) == 2**81 + 1
    working = chain.copy()
    apply_on_tier(working, "descendant", "S", "T", tier)  # splits the whole chain
    assert working.num_vertices == chain.num_vertices + 81
    assert_counts_match(working, tier)
    assert count_on_tier(working, "T", tier) == 2**81 - 1


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_unreachable_selected_vertices_count_zero(tier):
    instance = Instance(["S"])
    leaf = instance.new_vertex(["S"])
    orphan = instance.new_vertex(["S"])  # selected, no parent
    stray = instance.new_vertex(["S"], [(leaf, 3)])  # selected, unreachable parent of leaf
    instance.set_root(instance.new_vertex([], [(leaf, 2)]))
    instance.edge_csr()
    counts = instance.path_counts()
    assert (counts[orphan], counts[stray], counts[leaf]) == (0, 0, 2)
    assert count_on_tier(instance, "S", tier) == 2
    with forced_tier(tier):
        assert QueryResult(instance, "S").tree_paths() == [(1,), (2,)]


@settings(max_examples=150, deadline=None)
@given(
    random_dag_instances(),
    st.booleans(),
    st.sampled_from(SPLITTING),
    st.sampled_from(sorted(TIERS)),
    st.data(),
)
def test_count_and_decode_equal_the_brute_force_walk(instance, warm, axis, tier, data):
    assume(tree_size(instance) <= 300)
    if warm:
        warmed(instance)
    apply_on_tier(instance, axis, "a", "T", tier)  # decode over patched caches
    chosen = data.draw(st.sets(st.integers(0, instance.num_vertices - 1)))
    instance.ensure_set("S")
    for vertex in chosen:
        instance.add_to_set(vertex, "S")
    walk = list(iter_edge_paths(instance))
    for name in ("S", "T"):
        members = instance.members(name)
        oracle = [(path, vertex) for vertex, path in walk if vertex in members]
        with forced_tier(tier):
            result = QueryResult(instance, name)
            assert result.tree_count() == len(oracle)
            assert list(result.iter_tree_matches()) == oracle
            assert list(islice(result.iter_tree_matches(), 1)) == oracle[:1]


@pytest.mark.skipif(not planes.numpy_active(), reason="the postorder array needs numpy")
@pytest.mark.parametrize("axis", SPLITTING)
def test_a_fork_keeps_its_caches_when_the_master_splits(axis):
    master = warmed(shared_master())
    fork = master.copy()
    shared = fork._post_array
    table = fork._count_cache
    assert shared is master._post_array is not None
    assert table is master._count_cache is not None
    apply_on_tier(master, axis, "b", "T", "vector")
    assert master._post_array is not shared and fork._post_array is shared
    assert master._count_cache is not table and fork._count_cache is table
    assert shared.tolist() == fork.postorder()
    assert master.postorder_array().tolist() == master.postorder()
    assert_counts_match(master, "vector")
    assert_counts_match(fork, "vector")
