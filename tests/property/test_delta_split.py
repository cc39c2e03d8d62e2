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
* the kernel tiers build the same instance, id for id, and so do the
  frontier and whole-instance routes of ``child``, ``parent`` and
  ``ancestor(-or-self)`` on either side of the frontier limit;
* a working copy of a warmed master derives no cache from scratch on a
  cold query but the in-edge caches a split drops, and none at all on a
  warm one, nor to count its result.
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
from repro.server.catalog import Catalog
from repro.server.service import QueryService
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
    instance.in_edges()
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
    # Reachable in-entries per child: counted, and grouped by child.
    into = Counter(child for _, child in entries.elements())
    degree = instance.in_degree()
    assert list(degree) == [into[vertex] for vertex in range(instance.num_vertices)]
    start, parents = instance.in_edges()
    assert len(start) == instance.num_vertices + 1 and start[-1] == len(parents)
    assert Counter(
        (parents[entry], vertex)
        for vertex in range(instance.num_vertices)
        for entry in range(start[vertex], start[vertex + 1])
    ) == Counter(entries.elements())


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
            "_degree_cache",
            "_in_cache",
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
        "in_edges": (
            list(caches["_degree_cache"]), *(list(column) for column in caches["_in_cache"])
        ),
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


#: Frontier limits that force each side of it, and one small enough that an
#: ``ancestor`` walk runs out of budget part way up.
FRONTIER_SIDES = {"frontier": 1 << 30, "whole": 0, "budget": 7}
FRONTIER_AXES = ("child", "parent", "ancestor", "ancestor-or-self")


@contextmanager
def forced_route(limit: int):
    """Run the body with :data:`axes_compressed.FRONTIER_LIMIT` at ``limit``."""
    previous = axes_compressed.FRONTIER_LIMIT
    axes_compressed.FRONTIER_LIMIT = limit
    try:
        yield
    finally:
        axes_compressed.FRONTIER_LIMIT = previous


@settings(max_examples=150, deadline=None)
@given(
    random_dag_instances(),
    st.sampled_from((None,) + SPLITTING),
    st.sampled_from(FRONTIER_AXES),
    st.sampled_from(LABELS),
    st.sampled_from(sorted(TIERS)),
)
def test_frontier_and_whole_routes_build_identical_instances(
    master, prior, axis, source, tier
):
    warmed(master)
    built, routes = {}, {}
    for side in sorted(FRONTIER_SIDES):
        working = master.copy()
        if prior is not None:  # the step then reads split-patched caches
            apply_on_tier(working, prior, "a", "P", tier)
            working.in_edges()  # a split drops it; the service re-derives it
        before = working.num_vertices
        with forced_tier(tier), forced_route(FRONTIER_SIDES[side]):
            routes[side] = axes_compressed.run_axis(working, axis, source, "T")
        working.validate()
        assert_cache_contracts(working)
        built[side] = (
            working.num_vertices - before,  # vertices split by the step
            list(working.edge_table()),  # clone ids and edges
            {name: bytes(working.plane_of(name)) for name in working.schema},
            working.postorder(),
        )
    assert built["frontier"] == built["whole"] == built["budget"]
    if not working.members("T") and not working.members(source):
        return  # an empty selection takes no pass at all
    assert routes["whole"] == axes_compressed.WHOLE
    # Unbounded, only a child step that splits leaves the frontier route.
    split = built["whole"][0] > 0
    assert routes["frontier"] == (
        axes_compressed.WHOLE if split else axes_compressed.FRONTIER
    )
    if routes["budget"] == axes_compressed.FRONTIER:
        # Within the limit: the popcount gate, then the members plus every
        # entry the route must read.
        members = working.members(source)
        assert 2 * len(members) <= FRONTIER_SIDES["budget"]
        if axis == "child":
            read = [len(working.children(vertex)) for vertex in members]
        else:
            degree = working.in_degree()
            walked = members if axis == "parent" else members | working.members("T")
            read = [degree[vertex] for vertex in walked]
        assert len(members) + sum(read) <= FRONTIER_SIDES["budget"]


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("axis", FRONTIER_AXES)
def test_the_frontier_route_stays_within_its_limit(axis, tier):
    # One "a" hub under ten parents and over ten leaves: a step from it reads
    # 1 + 10 units (child, parent) or 1 + 10 + 10 (the ancestor walk).
    instance = Instance(LABELS)
    hub = instance.new_vertex(["a"], [(instance.new_vertex(["c"]), 1) for _ in range(10)])
    parents = [instance.new_vertex(["b"], [(hub, 1)]) for _ in range(10)]
    instance.set_root(instance.new_vertex([], [(parent, 1) for parent in parents]))
    warmed(instance)
    selected = {}
    for limit, route in ((10, axes_compressed.WHOLE), (21, axes_compressed.FRONTIER)):
        working = instance.copy()
        with forced_tier(tier), forced_route(limit):
            assert axes_compressed.run_axis(working, axis, "a", "T") == route
        selected[limit] = working.members("T")
    assert selected[10] == selected[21]


def count_derivations(monkeypatch) -> list[str]:
    """Record every structure cache an :class:`Instance` derives from scratch."""
    derived: list[str] = []
    for method, cache in (
        ("postorder", "_post_cache"),
        ("postorder_array", "_post_array"),
        ("edge_csr", "_csr_cache"),
        ("path_counts", "_count_cache"),
        ("in_degree", "_degree_cache"),
        ("in_edges", "_in_cache"),
    ):
        original = getattr(Instance, method)

        def counting(self, original=original, method=method, cache=cache):
            if getattr(self, cache) is None:
                derived.append(method)
            return original(self)

        monkeypatch.setattr(Instance, method, counting)
    return derived


@pytest.mark.skipif(not planes.numpy_active(), reason="the vector tier needs numpy")
def test_warmed_master_serves_treebank_q2_without_deriving_a_cache(monkeypatch):
    master = load(generate("treebank", 400, 0).xml).instance
    axes_compressed.warm(master)
    assert instance_module.vectorized(master)
    derived = count_derivations(monkeypatch)
    splits = []
    split_vertices = Instance.split_vertices

    def counting_splits(self, *args, **kwargs):
        splits.append(1)
        return split_vertices(self, *args, **kwargs)

    monkeypatch.setattr(Instance, "split_vertices", counting_splits)
    query = queries_for("treebank")["Q2"]
    cold = CompressedEvaluator(master).evaluate(query)
    assert cold.tree_count() > 0
    assert cold.after[0] > cold.before[0]  # Q2 splits shared vertices
    # A split drops the in-edge caches (and patches every other one); each
    # split structure derives them at most once, the service's re-warm after
    # a batch that split included.
    axes_compressed.warm(cold.instance)
    assert set(derived) <= {"in_degree", "in_edges"}
    assert max(Counter(derived).values(), default=0) <= len(splits)
    derived.clear()
    warm = CompressedEvaluator(cold.instance, copy=False).evaluate(query)
    assert warm.tree_count() == cold.tree_count()
    assert warm.after == cold.after  # nothing left to split
    assert derived == []


def test_a_served_fork_derives_no_cache_on_warm_queries(monkeypatch, tmp_path):
    # Treebank Q1-Q5 split downward; the sibling steps split siblings too,
    # which drops the EdgeCSR as well.  Once each query ran on the fork,
    # serving them again derives nothing, on either kernel tier.
    catalog = Catalog(str(tmp_path))
    catalog.add("treebank", generate("treebank", 400, 0).xml)
    service = QueryService(catalog)
    queries = [queries_for("treebank")[name] for name in ("Q1", "Q2", "Q3", "Q4", "Q5")]
    queries += ["//VP/NP/following-sibling::PP", "//PP/preceding-sibling::NP/NN"]
    cold = [service.query("treebank", query)["tree_count"] for query in queries]
    assert service.stats.split_vertices > 0
    derived = count_derivations(monkeypatch)
    assert [service.query("treebank", query)["tree_count"] for query in queries] == cold
    assert derived == []


def test_the_frontier_route_waits_for_the_index():
    # Deriving the index would cost more than the pass it saves, so an
    # instance without one (no warm(), or a split since) takes the whole pass.
    instance = shared_master()
    assert axes_compressed.run_axis(instance, "parent", "b", "T") == axes_compressed.WHOLE
    assert not instance.has_in_edges
    instance.in_edges()
    assert axes_compressed.run_axis(instance, "parent", "b", "U") == axes_compressed.FRONTIER
    assert instance.members("T") == instance.members("U")
    axes_compressed.run_axis(instance, "child", "b", "V")  # splits: drops it again
    assert not instance.has_in_edges
