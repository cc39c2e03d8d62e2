"""Both plane-kernel tiers are byte-identical on every vectorized operation.

The bit-plane refactor split every hot operation into two implementations:
the numpy tier (zero-copy buffer views, C word ops) and the pure-stdlib
tier (big-int arithmetic over ``tobytes()``).  Correctness of the whole
engine rests on the two tiers being *indistinguishable* — same plane bytes,
same schemas, same structures — so this module pins that equivalence for

* the bulk set operations (``combine_sets`` / ``fill_set`` / ``clear_sets``
  / ``drop_sets``) and the split's row copy (``clone_bits``),
* every axis fast path in :mod:`repro.engine.axes_compressed` (with the
  vectorization threshold forced to zero so small inputs take the numpy
  kernels too),
* the shred-time string pass (:func:`repro.skeleton.loader.load` with
  containment needles),

across three corpus families (binary tree, relational, XMark) plus
hypothesis-generated random DAGs.  When numpy is absent (the
``REPRO_NO_NUMPY=1`` CI leg) the comparisons degenerate to stdlib-vs-stdlib
and still assert the operations are deterministic.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpora import binary_tree, relational, xmark
from repro.engine import axes_compressed
from repro.model import instance as instance_module, planes
from repro.model.instance import Instance
from repro.skeleton.loader import load

from tests.conftest import LABELS, random_dag_instances

AXES = (
    "self",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "child",
    "descendant",
    "descendant-or-self",
    "following-sibling",
    "preceding-sibling",
    "following",
    "preceding",
)


def observable(instance: Instance) -> tuple:
    """Everything a caller can see: schema, structure, and every set."""
    return (
        tuple(instance.schema),
        instance.num_vertices,
        instance.root,
        tuple(instance.children(v) for v in range(instance.num_vertices)),
        tuple(instance.row_masks()),
    )


def plane_bytes(instance: Instance) -> dict[str, bytes]:
    """The raw plane payloads, trimmed to the vertex-bearing words."""
    nwords = planes.words_for(instance.num_vertices)
    return {
        name: instance.plane_of(name)[:nwords].tobytes()
        for name in instance.schema
    }


def under_tier(numpy: bool, operation):
    """Run ``operation()`` with the kernel tier forced, restoring after."""
    previous = planes.set_numpy(numpy)
    try:
        return operation()
    finally:
        planes.set_numpy(previous)


def tier_pair(operation):
    """``operation()`` under the numpy tier and under the stdlib tier.

    Without numpy installed both runs use the stdlib tier, which still
    checks the operation is deterministic.
    """
    return under_tier(True, operation), under_tier(False, operation)


# ----------------------------------------------------------------------
# Corpus instances (small scales: these run per-axis, per-corpus)
# ----------------------------------------------------------------------


def _xmark_instance() -> Instance:
    return load(xmark.generate(scale=12).xml).instance


CORPUS_BUILDERS = {
    "binary-tree": lambda: binary_tree.compressed_instance(depth=7),
    "relational": lambda: relational.direct_instance(rows=40, cols=5),
    "xmark": _xmark_instance,
}


@pytest.fixture(scope="module", params=sorted(CORPUS_BUILDERS))
def corpus_instance(request) -> Instance:
    return CORPUS_BUILDERS[request.param]()


def tag_pair(instance: Instance) -> tuple[str, str]:
    """Two distinct populated tags to use as operands."""
    names = [n for n in instance.schema if instance.members(n)]
    if len(names) < 2:
        names = list(instance.schema)[:2]
    return names[0], names[-1]


# ----------------------------------------------------------------------
# Bulk set operations
# ----------------------------------------------------------------------


class TestBulkOpsTierEquivalence:
    def test_combine_sets(self, corpus_instance):
        left, right = tag_pair(corpus_instance)

        def run():
            work = corpus_instance.copy()
            for op in ("union", "intersect", "difference"):
                work.combine_sets(op, left, right, f"t-{op}")
            return plane_bytes(work), observable(work)

        assert under_tier(True, run) == under_tier(False, run)

    def test_fill_clear_drop(self, corpus_instance):
        left, right = tag_pair(corpus_instance)

        def run():
            work = corpus_instance.copy()
            work.fill_set("all")
            work.combine_sets("union", left, right, "u")
            work.clear_sets([left, "u"])
            work.drop_sets(["all", right, "all"])
            return plane_bytes(work), observable(work)

        assert under_tier(True, run) == under_tier(False, run)

    @settings(max_examples=40, deadline=None)
    @given(
        random_dag_instances(),
        st.sampled_from(("union", "intersect", "difference")),
        st.sampled_from(LABELS),
        st.sampled_from(LABELS),
    )
    def test_combine_on_random_dags(self, instance, op, left, right):
        def run():
            work = instance.copy()
            work.combine_sets(op, left, right, "t")
            work.fill_set("all")
            return plane_bytes(work), observable(work)

        assert under_tier(True, run) == under_tier(False, run)


class TestCloneBitsTierEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=6, max_size=6), max_size=5),
        st.lists(st.integers(0, 6 * 64 - 1), unique=True, max_size=40),
    )
    def test_clone_bits(self, words, origins):
        first = 6 * 64  # clones land in two fresh words past the originals

        def run():
            plane_list = [planes.array("Q", row + [0, 0]) for row in words]
            planes.clone_bits(plane_list, origins, first)
            return [plane.tobytes() for plane in plane_list]

        expected = [planes.array("Q", row + [0, 0]) for row in words]
        for plane in expected:
            for clone, vertex in enumerate(origins, first):
                if planes.get_bit(plane, vertex):
                    planes.set_bit(plane, clone)
        vectorized, scalar = tier_pair(run)
        assert vectorized == scalar == [plane.tobytes() for plane in expected]


# ----------------------------------------------------------------------
# Axis fast paths
# ----------------------------------------------------------------------


def apply_forced(instance: Instance, axis: str, source: str, numpy: bool) -> tuple:
    """One ``apply_axis`` with the tier forced and the threshold at zero."""
    previous_threshold = instance_module.VECTOR_THRESHOLD
    instance_module.VECTOR_THRESHOLD = 0
    try:

        def run():
            result = axes_compressed.apply_axis(
                instance.copy(), axis, source, "result"
            )
            return plane_bytes(result), observable(result)

        return under_tier(numpy, run)
    finally:
        instance_module.VECTOR_THRESHOLD = previous_threshold


class TestAxisTierEquivalence:
    @pytest.mark.parametrize("axis", AXES)
    def test_axis_on_corpora(self, corpus_instance, axis):
        source, _ = tag_pair(corpus_instance)
        vectorized = apply_forced(corpus_instance, axis, source, numpy=True)
        scalar = apply_forced(corpus_instance, axis, source, numpy=False)
        assert vectorized == scalar

    @settings(max_examples=30, deadline=None)
    @given(random_dag_instances(), st.sampled_from(AXES), st.sampled_from(LABELS))
    def test_axis_on_random_dags(self, instance, axis, source):
        vectorized = apply_forced(instance, axis, source, numpy=True)
        scalar = apply_forced(instance, axis, source, numpy=False)
        assert vectorized == scalar

    def test_threshold_gates_vectorization(self):
        # Below the threshold the scalar path runs even with numpy active;
        # the dispatch predicate is what the equivalence above licenses.
        small = binary_tree.compressed_instance(depth=3)
        assert small.num_edge_entries < instance_module.VECTOR_THRESHOLD
        assert not instance_module.vectorized(small)
        if planes.numpy_active():
            wide = Instance(LABELS)
            leaves = [wide.new_vertex(["b"]) for _ in range(300)]
            wide.set_root(wide.new_vertex(["a"], [(leaf, 1) for leaf in leaves]))
            assert instance_module.vectorized(wide)


# ----------------------------------------------------------------------
# The shred-time string pass
# ----------------------------------------------------------------------


class TestStringPassTierEquivalence:
    @pytest.mark.parametrize(
        "xml_builder, needles",
        [
            (lambda: relational.generate_xml(30, 4, distinct_texts=True).xml, ("r1c1", "r2")),
            (lambda: xmark.generate(scale=10).xml, ("item", "credit")),
            (lambda: binary_tree.generate_xml(depth=6).xml, ("x",)),
        ],
        ids=["relational", "xmark", "binary-tree"],
    )
    def test_load_with_strings(self, xml_builder, needles):
        xml = xml_builder()

        def run():
            instance = load(xml, strings=list(needles)).instance
            return plane_bytes(instance), observable(instance)

        assert under_tier(True, run) == under_tier(False, run)
