"""The splitting axes split only what splits, in place (DESIGN.md section 5).

``_downward`` and ``_sibling`` scan for the reachable ``(vertex, bit)``
product states, clone exactly the vertices that hold both through
:meth:`Instance.split_vertices`, and commit the selection — on both kernel
tiers.  Pinned here, on random shared DAGs:

* the result selects what naive evaluation on the uncompressed tree
  selects and, for the downward axes, is equivalent to the Figure 4 oracle;
* it is the instance that was passed in, grown to exactly the number of
  reachable product states, with no unreachable garbage, and applying the
  same axis again splits nothing;
* every structure cache — patched or re-derived — still satisfies the
  contract its readers rely on;
* patching is copy-on-write: the master a working copy was taken from is
  untouched, object for object;
* the kernel tiers build the same instance, id for id;
* a working copy of a warmed master never derives a cache from scratch on
  a downward query, nor to count its result.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bench.queries import queries_for
from repro.compress.decompress import decompress
from repro.corpora import binary_tree, generate
from repro.engine import axes_compressed
from repro.engine.axes_inplace import downward_axis_inplace
from repro.engine.axes_tree import TreeIndex, tree_axis
from repro.engine.evaluator import CompressedEvaluator
from repro.model import instance as instance_module, planes
from repro.model.equivalence import equivalent
from repro.model.instance import Instance
from repro.model.paths import set_path_sets, tree_size
from repro.skeleton.loader import load

from tests.conftest import LABELS, random_dag_instances

DOWNWARD = ("child", "descendant", "descendant-or-self")
SPLITTING = DOWNWARD + ("following-sibling", "preceding-sibling")


#: Scan tier x patch tier: the level-synchronous scan (threshold forced to
#: zero), the scalar scan with numpy still patching the edge caches (small
#: instances on a numpy install), and no numpy at all.
TIERS = {"vector": (True, 0), "scalar": (True, 1 << 30), "stdlib": (False, 0)}


@contextmanager
def forced_tier(tier: str):
    """Run the body under one of :data:`TIERS`."""
    numpy, threshold = TIERS[tier]
    previous_threshold = instance_module.VECTOR_THRESHOLD
    previous_tier = planes.set_numpy(numpy)
    instance_module.VECTOR_THRESHOLD = threshold
    try:
        yield
    finally:
        instance_module.VECTOR_THRESHOLD = previous_threshold
        planes.set_numpy(previous_tier)


def apply_on_tier(instance: Instance, axis: str, source: str, target: str, tier: str) -> Instance:
    """``apply_axis`` in place under one of :data:`TIERS`."""
    with forced_tier(tier):
        return axes_compressed.apply_axis(instance, axis, source, target)


def warmed(instance: Instance) -> Instance:
    """``instance`` with every structure cache derived (as a pool master)."""
    instance.postorder()
    instance.preorder()
    instance.reachable_plane()
    instance.edge_csr()
    instance.path_counts()
    if planes.numpy_active():
        instance.postorder_array()
        instance.edge_csr().runs()
    assert instance.fully_reachable
    return instance


def product_states(instance: Instance, axis: str, source: str) -> int:
    """Reachable ``(vertex, bit)`` states of Proposition 3.2 / 3.4's product."""
    members = instance.members(source)
    seen = {(instance.root, 0)}
    if axis not in DOWNWARD:
        # The bit belongs to a *position* — "a sibling before (after) this
        # occurrence is in S" — whatever the parent's own bit is.
        for vertex in instance.reachable():
            sequence = list(instance.expanded_children(vertex))
            if axis == "preceding-sibling":
                sequence.reverse()
            bit = 0
            for child in sequence:
                seen.add((child, bit))
                bit |= child in members
        return len(seen)
    stack = [(instance.root, 0)]
    while stack:
        vertex, bit = stack.pop()
        handed = int(vertex in members or (bit and axis != "child"))
        for child, _ in instance.children(vertex):
            if (child, handed) not in seen:
                seen.add((child, handed))
                stack.append((child, handed))
    return len(seen)


def assert_cache_contracts(instance: Instance) -> None:
    table = instance.edge_table()
    reachable = instance.reachable()
    entries = Counter(
        (vertex, child) for vertex in reachable for child, _ in table[vertex]
    )
    post = instance.postorder()
    assert len(post) == len(set(post)) == instance.num_reachable
    assert set(post) == reachable
    position = {vertex: i for i, vertex in enumerate(post)}
    assert all(position[child] < position[vertex] for vertex, child in entries)
    assert set(planes.iter_bits(instance.reachable_plane())) == reachable
    csr = instance.edge_csr()
    assert Counter(zip(csr.esrc, csr.edst)) == entries
    # A vertex's entries are contiguous and in child order, runs flagged.
    esrc, edst, emulti = list(csr.esrc), list(csr.edst), list(csr.emulti)
    first = {}
    for i, vertex in enumerate(esrc):
        first.setdefault(int(vertex), i)
    for vertex, start in first.items():
        end = start + len(table[vertex])
        assert esrc[start:end] == [vertex] * len(table[vertex])
        assert list(zip(edst[start:end], emulti[start:end])) == [
            (child, count > 1) for child, count in table[vertex]
        ]
    assert sum(len(table[vertex]) for vertex in first) == len(esrc)
    if planes.numpy_active():
        multi, starts, sizes = csr.runs()
        assert multi.tolist() == [bool(flag) for flag in emulti]
        assert starts.tolist() == sorted(first.values())
        assert sizes.tolist() == [len(table[int(esrc[start])]) for start in starts]
        assert instance.postorder_array().tolist() == post
    # Spans tile the columns; every parent sits at a level above its children.
    bounds = [0, *(end for _, end in csr.spans)]
    assert list(csr.spans) == list(zip(bounds, bounds[1:])) and bounds[-1] == len(esrc)
    level = {}
    for number, (start, end) in enumerate(csr.spans):
        for vertex in esrc[start:end]:
            assert level.setdefault(int(vertex), number) == number
    depth = len(csr.spans)  # leaves own no entries: below every parent
    assert all(level[vertex] < level.get(child, depth) for vertex, child in entries)
    # |Pi(v)| per vertex id, exactly as a fresh top-down pass derives it.
    counts = {instance.root: 1}
    for vertex in reversed(post):
        for child, count in table[vertex]:
            counts[child] = counts.get(child, 0) + count * counts[vertex]
    assert list(instance.path_counts()) == [
        counts.get(vertex, 0) for vertex in range(instance.num_vertices)
    ]


@settings(max_examples=150, deadline=None)
@given(
    random_dag_instances(),
    st.lists(st.tuples(st.sampled_from(SPLITTING), st.sampled_from(LABELS)), min_size=1, max_size=3),
    st.sampled_from(sorted(TIERS)),
)
def test_split_matches_oracles_and_keeps_caches_valid(master, steps, tier):
    assume(tree_size(master) <= 3000)
    warmed(master)
    unfolded = decompress(master)
    paths = unfolded.paths()
    index = TreeIndex(unfolded.tree)
    working = master.copy()
    # Later steps split an instance whose caches are already patched.
    for number, (axis, source) in enumerate(steps):
        target = f"T{number}"
        before = working.copy()
        states = product_states(working, axis, source)
        result = apply_on_tier(working, axis, source, target, tier)
        assert result is working
        result.validate()  # in particular: no unreachable garbage
        assert result.num_reachable == result.num_vertices == states
        assert_cache_contracts(result)
        if axis in DOWNWARD:
            assert equivalent(result, downward_axis_inplace(before, axis, source, target))
        expected = tree_axis(index, axis, unfolded.tree.members(source))
        assert set_path_sets(result)[target] == {paths[vertex] for vertex in expected}
        again = apply_on_tier(result.copy(), axis, source, "again", tier)
        assert again.num_vertices == states  # every vertex now holds one bit


def snapshot(instance: Instance) -> dict:
    """Identity and content of everything a split must leave alone."""
    caches = {
        name: getattr(instance, name)
        for name in (
            "_pre_cache",
            "_post_cache",
            "_post_array",
            "_reach_cache",
            "_csr_cache",
            "_count_cache",
        )
    }
    csr = caches["_csr_cache"]
    return {
        "children": [(id(edges), edges) for edges in instance.edge_table()],
        "planes": {name: bytes(instance.plane_of(name)) for name in instance.schema},
        "cache_ids": {name: id(value) for name, value in caches.items()},
        "orders": (list(caches["_pre_cache"]), list(caches["_post_cache"])),
        "reach": bytes(caches["_reach_cache"]),
        "path_counts": list(caches["_count_cache"]),
        "edges": (
            list(csr.esrc), list(csr.edst), list(csr.emulti), list(csr.spans),
            None if caches["_post_array"] is None else caches["_post_array"].tolist(),
        ),
        "counts": (instance.num_vertices, instance.num_edge_entries, instance.num_reachable),
    }


def shared_master() -> Instance:
    """Figure 5's maximally shared DAG under a root that also makes the
    sibling axes split from ``b``: the old root sits on both sides of a
    ``b`` run, and the run straddles its own flag flip."""
    instance = binary_tree.compressed_instance(depth=6)
    top = instance.root
    b = instance.children(top)[1][0]
    instance.set_root(instance.new_vertex(["a"], [(top, 1), (b, 2), (top, 1)]))
    return instance


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("axis", SPLITTING)
def test_split_is_copy_on_write(axis, tier):
    master = warmed(shared_master())
    before = snapshot(master)
    working = master.copy()
    apply_on_tier(working, axis, "b", "T", tier)
    assert working.num_vertices > master.num_vertices  # it did split
    assert snapshot(master) == before
    # The master still answers like a fresh instance.
    assert equivalent(
        apply_on_tier(master.copy(), axis, "b", "T", tier),
        apply_on_tier(shared_master(), axis, "b", "T", tier),
    )


@settings(max_examples=100, deadline=None)
@given(random_dag_instances(), st.sampled_from(SPLITTING), st.sampled_from(LABELS))
def test_tiers_build_identical_instances(master, axis, source):
    built = []
    for tier in sorted(TIERS):
        result = apply_on_tier(warmed(master.copy()), axis, source, "T", tier)
        built.append(
            (
                result.root,
                list(result.edge_table()),
                {name: sorted(result.members(name)) for name in result.schema},
                result.postorder(),
            )
        )
    assert built[0] == built[1] == built[2]


@pytest.mark.skipif(not planes.numpy_active(), reason="the vector tier needs numpy")
def test_warmed_master_serves_treebank_q2_without_deriving_a_cache(monkeypatch):
    master = load(generate("treebank", 400, 0).xml).instance
    axes_compressed.warm(master)
    assert instance_module.vectorized(master)
    derived = []
    for method, cache in (
        ("postorder", "_post_cache"),
        ("postorder_array", "_post_array"),
        ("edge_csr", "_csr_cache"),
        ("path_counts", "_count_cache"),
    ):
        original = getattr(Instance, method)

        def counting(self, original=original, method=method, cache=cache):
            if getattr(self, cache) is None:
                derived.append(method)
            return original(self)

        monkeypatch.setattr(Instance, method, counting)
    result = CompressedEvaluator(master).evaluate(queries_for("treebank")["Q2"])
    assert result.tree_count() > 0
    assert result.after[0] > result.before[0]  # Q2 splits shared vertices
    assert derived == []
