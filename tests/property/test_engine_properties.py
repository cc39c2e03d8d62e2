"""Property-based tests for the query engine.

The central invariant of the paper: evaluating on the compressed instance
and decoding the selection gives exactly the nodes the baseline tree engine
selects on the decompressed tree — for random instances and random algebra
expressions, with both axis implementations (the delta split and the
Figure 4 in-place splitter).
"""

from hypothesis import given, settings, strategies as st

from repro.engine.evaluator import evaluate
from repro.model.paths import tree_size
from repro.xpath.algebra import (
    AllNodes,
    AxisApply,
    Difference,
    Intersect,
    NamedSet,
    RootSet,
    Union,
)
from repro.xpath.ast import AXES

from tests.conftest import LABELS, random_dag_instances
from tests.engine.util import Figure4Evaluator, engine_paths, oracle_paths

_AXIS_LIST = sorted(AXES)
_SPLITTING = {
    "child",
    "descendant",
    "descendant-or-self",
    "following-sibling",
    "preceding-sibling",
}


def algebra_expressions(max_depth: int = 3):
    leaves = st.one_of(
        st.sampled_from([NamedSet(label) for label in LABELS]),
        st.just(RootSet()),
        st.just(AllNodes()),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(_AXIS_LIST), children).map(
                lambda t: AxisApply(t[0], t[1])
            ),
            st.tuples(children, children).map(lambda t: Union(t[0], t[1])),
            st.tuples(children, children).map(lambda t: Intersect(t[0], t[1])),
            st.tuples(children, children).map(lambda t: Difference(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=4)


@given(random_dag_instances(), algebra_expressions())
@settings(max_examples=150, deadline=None)
def test_compressed_engines_match_tree_oracle(instance, expr):
    if tree_size(instance) > 4000:
        return  # keep the oracle cheap
    expected = oracle_paths(instance, expr)
    assert engine_paths(instance, expr) == expected
    assert engine_paths(instance, expr, Figure4Evaluator) == expected


@given(random_dag_instances(), st.sampled_from(_AXIS_LIST), st.sampled_from(LABELS))
@settings(max_examples=150, deadline=None)
def test_single_axis_matches_oracle(instance, axis, label):
    if tree_size(instance) > 4000:
        return
    expr = AxisApply(axis, NamedSet(label))
    expected = oracle_paths(instance, expr)
    assert engine_paths(instance, expr) == expected
    assert engine_paths(instance, expr, Figure4Evaluator) == expected


@given(random_dag_instances(), st.sampled_from(sorted(_SPLITTING)), st.sampled_from(LABELS))
@settings(max_examples=100, deadline=None)
def test_splitting_axes_at_most_double(instance, axis, label):
    """Proposition 3.2 / the growth argument behind Theorem 3.6.

    Vertices and *expanded* edges at most double per operation.  Run-length
    edge *entries* can grow 4x under the sibling axes (2x from vertex
    splitting times 2x from multiplicity-run splitting, e.g. ``(w, 3)`` ->
    ``(w, 1)(w', 2)`` under two parent variants) — a subtlety the paper's
    "at most doubles" wording glosses over; its |E| is the expanded count.
    """
    before_v = len(instance.preorder())
    reachable = instance.preorder()
    before_entries = sum(len(instance.children(v)) for v in reachable)
    before_expanded = sum(instance.out_degree(v) for v in reachable)
    result = evaluate(instance, AxisApply(axis, NamedSet(label)))
    after = result.instance.preorder()
    after_v = len(after)
    after_entries = sum(len(result.instance.children(v)) for v in after)
    after_expanded = sum(result.instance.out_degree(v) for v in after)
    assert after_v <= 2 * before_v
    assert after_expanded <= 2 * before_expanded
    if axis in ("child", "descendant", "descendant-or-self"):
        assert after_entries <= 2 * before_entries  # runs never split downward
    else:
        assert after_entries <= 4 * before_entries


@given(random_dag_instances(), st.sampled_from(["self", "parent", "ancestor", "ancestor-or-self"]), st.sampled_from(LABELS))
@settings(max_examples=100, deadline=None)
def test_upward_axes_never_change_structure(instance, axis, label):
    """Proposition 3.3 as a property."""
    before = (
        len(instance.preorder()),
        sum(len(instance.children(v)) for v in instance.preorder()),
    )
    result = evaluate(instance, AxisApply(axis, NamedSet(label)))
    after = (
        len(result.instance.preorder()),
        sum(len(result.instance.children(v)) for v in result.instance.preorder()),
    )
    assert before == after


@given(random_dag_instances(), algebra_expressions())
@settings(max_examples=60, deadline=None)
def test_result_is_equivalent_instance(instance, expr):
    """Partial decompression must preserve the represented tree (section 3.3)."""
    from repro.model.equivalence import equivalent

    if tree_size(instance) > 4000:
        return
    final = evaluate(instance, expr).instance
    original_names = sorted(set(instance.schema))
    assert equivalent(final.reduct(original_names), instance.reduct(original_names))


@given(random_dag_instances(), algebra_expressions())
@settings(max_examples=60, deadline=None)
def test_tree_count_equals_decoded_paths(instance, expr):
    if tree_size(instance) > 4000:
        return
    result = evaluate(instance, expr)
    assert result.tree_count() == len(result.tree_paths())
