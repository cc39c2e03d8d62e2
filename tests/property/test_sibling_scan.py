"""The sibling flag scan is one segmented prefix sum on the vector tier.

``_sibling`` decides, per reachable vertex, which context bits it receives
(``got0`` / ``got1``).  The scalar tiers walk every edge list with a running
flag; the vector tier takes two prefix sums over the flat edge columns of
the level-grouped :class:`EdgeCSR`, segmented by :meth:`EdgeCSR.runs`.  On
random DAGs with multiplicity runs, in both directions, for ``S`` empty,
full, or any subset (so runs straddle their own flag flip), on a fresh
instance and on one whose caches a prior downward split has patched
(clones' entries inserted at the end of their level, mid-array), every
tier must

* hand out exactly the bits the definition gives, read off what the scan
  decides: the vertices holding both bits are the ones cloned, in id order,
  and the selection is the bit-1-only vertices plus the clones;
* build the same edge table, id for id;
* select, composed after a downward step, what the Figure 4 oracle engine
  and the uncompressed tree select.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.compress.decompress import decompress
from repro.engine.axes_tree import TreeIndex, tree_axis
from repro.engine.evaluator import CompressedEvaluator
from repro.model import planes
from repro.model.instance import Instance
from repro.model.paths import set_path_sets, tree_size
from repro.xpath.algebra import AxisApply, NamedSet

from tests.conftest import LABELS, random_dag_instances
from tests.engine.util import Figure4Evaluator, engine_paths, oracle_paths
from tests.property.test_delta_split import (
    TIERS,
    apply_on_tier,
    forced_tier,
    shared_master,
    warmed,
)

SIBLING = ("following-sibling", "preceding-sibling")


def context_bits(instance: Instance, axis: str, members: set[int]) -> tuple[set[int], set[int]]:
    """``(got0, got1)`` by definition, one expanded child sequence at a time."""
    got0, got1 = {instance.root}, set()
    for vertex in instance.reachable():
        sequence = list(instance.expanded_children(vertex))
        if axis == "preceding-sibling":
            sequence.reverse()
        seen = False
        for child in sequence:
            (got1 if seen else got0).add(child)
            seen = seen or child in members
    return got0, got1


@settings(max_examples=200, deadline=None)
@given(
    random_dag_instances(),
    st.sampled_from(SIBLING),
    st.sampled_from(("empty", "full", "subset")),
    st.sampled_from((None, "child", "descendant")),
    st.sampled_from(LABELS),
    st.data(),
)
def test_scan_hands_out_the_defined_bits_on_every_tier(master, axis, shape, prior, label, data):
    base = warmed(master)
    if prior is not None:
        # Patched caches: the clones' entries sit at the end of their level.
        apply_on_tier(base, prior, label, "P", "vector")
    base.ensure_set("S")
    if shape == "full":
        base.fill_set("S")
    elif shape == "subset":
        for vertex in data.draw(st.sets(st.integers(0, base.num_vertices - 1))):
            base.add_to_set(vertex, "S")
    got0, got1 = context_bits(base, axis, base.members("S"))
    both = sorted(got0 & got1)
    first = base.num_vertices
    clones = list(range(first, first + len(both)))
    built = []
    for tier in sorted(TIERS):
        result = apply_on_tier(base.copy(), axis, "S", "T", tier)
        assert [result._origin[clone] for clone in clones] == [
            vertex if base._origin is None else base._origin[vertex] for vertex in both
        ]
        assert result.num_vertices == first + len(both)
        assert result.members("T") == (got1 - got0) | set(clones)
        result.validate()
        built.append(list(result.edge_table()))
    assert built[0] == built[1] == built[2]


@settings(max_examples=60, deadline=None)
@given(
    random_dag_instances(),
    st.sampled_from(SIBLING),
    st.sampled_from(("child", "descendant")),
    st.sampled_from(LABELS),
)
def test_scan_after_a_downward_step_matches_figure4_and_the_tree(master, axis, downward, label):
    assume(tree_size(master) <= 3000)
    query = AxisApply(axis, AxisApply(downward, NamedSet(label)))
    expected = oracle_paths(master, query)
    with forced_tier("stdlib"):
        assert engine_paths(master, query, Figure4Evaluator) == expected
    for tier in sorted(TIERS):
        with forced_tier(tier):
            assert engine_paths(warmed(master.copy()), query, CompressedEvaluator) == expected


@pytest.mark.skipif(not planes.numpy_active(), reason="the vector tier needs numpy")
@pytest.mark.parametrize("axis", SIBLING)
def test_scan_reads_clone_entries_inserted_mid_array(axis):
    master = warmed(shared_master())
    unfolded = decompress(master)
    index = TreeIndex(unfolded.tree)
    base = master.copy()
    first = base.num_vertices
    apply_on_tier(base, "child", "b", "P", "vector")
    # A clone's entries go to the end of its original's level, not the tail:
    # here the higher clones' entries precede the whole last level.
    csr = base.edge_csr()
    clone_entries = [i for i, vertex in enumerate(csr.esrc.tolist()) if vertex >= first]
    assert clone_entries and min(clone_entries) < csr.spans[-1][0]
    built = []
    for tier in sorted(TIERS):
        result = apply_on_tier(base.copy(), axis, "b", "T", tier)
        assert result.num_vertices > base.num_vertices  # the sibling step split too
        built.append((list(result.edge_table()), result._origin, sorted(result.members("T"))))
    assert built[0] == built[1] == built[2]
    expected = tree_axis(index, axis, unfolded.tree.members("b"))
    paths = unfolded.paths()
    assert set_path_sets(result)["T"] == {paths[vertex] for vertex in expected}
