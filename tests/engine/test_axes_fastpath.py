"""Splitting axes vs their reference implementations (DESIGN.md section 5).

The downward and sibling axes split only the vertices that hold both
context bits and otherwise leave the instance alone.  These tests pin the
contract from both sides:

* whatever happens structurally, the outcome must be *equivalent*
  (Definition 2.1: same unfolded tree, same path sets for every selection)
  to the reference — the Figure 4 port for the downward axes, the axis on
  the decompressed tree for the sibling axes — on random trees and random
  shared DAGs;
* on trees no split is ever needed, and the instance is then untouched
  structurally.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, strategies as st

from repro.compress.decompress import decompress
from repro.corpora.binary_tree import compressed_instance
from repro.engine.axes_compressed import apply_axis
from repro.engine.axes_inplace import downward_axis_inplace
from repro.engine.axes_tree import TreeIndex, tree_axis
from repro.model.equivalence import equivalent
from repro.model.instance import tree_instance
from repro.model.paths import tree_size

from tests.conftest import LABELS, random_dag_instances, random_tree_instances, tree_specs

SPLITTING_AXES = (
    "child",
    "descendant",
    "descendant-or-self",
    "following-sibling",
    "preceding-sibling",
)


def reference(instance, axis, source, target):
    """The reference: Figure 4 (downward) or the naive tree walk (sibling)."""
    if axis in ("child", "descendant", "descendant-or-self"):
        return downward_axis_inplace(instance, axis, source, target)
    tree = decompress(instance).tree
    tree.ensure_set(target)
    for vertex in tree_axis(TreeIndex(tree), axis, tree.members(source)):
        tree.add_to_set(vertex, target)
    return tree


@given(random_dag_instances(), st.sampled_from(SPLITTING_AXES), st.sampled_from(LABELS))
def test_split_equivalent_to_reference_on_dags(instance, axis, source):
    assume(tree_size(instance) <= 3000)
    via_apply = apply_axis(instance.copy(), axis, source, "T")
    via_reference = reference(instance.copy(), axis, source, "T")
    assert equivalent(via_apply, via_reference)


@given(random_tree_instances(), st.sampled_from(SPLITTING_AXES), st.sampled_from(LABELS))
def test_fast_path_fires_and_matches_on_trees(instance, axis, source):
    working = instance.copy()
    result = apply_axis(working, axis, source, "T")
    if instance.members(source):
        # Trees never split, so trees never grow.
        assert result is working
        assert result.num_vertices == instance.num_vertices
    assert equivalent(result, reference(instance.copy(), axis, source, "T"))


@pytest.mark.parametrize("axis", SPLITTING_AXES)
@pytest.mark.parametrize("source", ["a", "b"])
def test_fast_path_on_shared_binary_tree_corpus(axis, source):
    # Figure 5's maximally shared DAG: every interior vertex is shared, so
    # the split instance and the reference genuinely diverge in
    # representation; results must still be equivalent.
    instance = compressed_instance(depth=5)
    via_apply = apply_axis(instance.copy(), axis, source, "T")
    via_reference = reference(instance.copy(), axis, source, "T")
    assert equivalent(via_apply, via_reference)


def test_descendant_from_root_avoids_the_split_on_a_shared_dag():
    # All parents agree on the context bit ("has an ancestor in S" is true
    # everywhere below the root), so even a heavily shared DAG adds no
    # vertex for descendant-from-root.
    instance = compressed_instance(depth=6)
    instance.add_to_set(instance.root, "ctx")
    working = instance.copy()
    result = apply_axis(working, "descendant", "ctx", "T")
    assert result is working
    assert result.num_vertices == instance.num_vertices
    assert result.members("T") == result.reachable() - {result.root}


def test_child_axis_splits_when_parents_disagree():
    # One parent in S, the other not: the shared child must split — in
    # place, growing the given instance by exactly the one clone.
    from repro.model.instance import Instance

    instance = Instance(LABELS)
    leaf = instance.new_vertex(["c"])
    shared = instance.new_vertex(["b"], [(leaf, 1)])
    left = instance.new_vertex(["b"], [(shared, 1)])
    root = instance.new_vertex(["a"], [(left, 1), (shared, 1)])
    instance.set_root(root)
    working = instance.copy()
    result = apply_axis(working, "child", "a", "T")
    assert result is working
    assert result.num_vertices == instance.num_vertices + 1
    assert equivalent(result, reference(instance.copy(), "child", "a", "T"))


def test_sibling_run_split_clones_the_run_target():
    # A multiplicity run whose child is in S splits the run itself:
    # (w, 3) becomes (w, 1) + (w', 2) under following-sibling — in place.
    from repro.model.instance import Instance

    instance = Instance(["a", "b"])
    w = instance.new_vertex(["b"])
    root = instance.new_vertex(["a"], [(w, 3)])
    instance.set_root(root)
    working = instance.copy()
    result = apply_axis(working, "following-sibling", "b", "T")
    assert result is working
    expected = reference(instance.copy(), "following-sibling", "b", "T")
    assert equivalent(result, expected)
    # Occurrences 2 and 3 have a preceding occurrence of w in S before them.
    assert result.num_vertices == instance.num_vertices + 1
    assert result.children(result.root) == ((w, 1), (w + 2, 2))


@given(tree_specs())
def test_full_query_results_agree_between_paths(spec):
    # End to end through the evaluator: decoded tree paths must not depend
    # on whether axes split or take the fast path.
    from tests.engine.util import assert_engines_agree

    instance = tree_instance(spec, schema=LABELS)
    assert_engines_agree(instance, "//a/b")
    assert_engines_agree(instance, "//b/following-sibling::c")
