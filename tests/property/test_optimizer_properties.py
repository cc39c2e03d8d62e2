"""Property tests pinning the optimizer's answer contract.

The contract (docs/optimizer.md, DESIGN.md section 13): for ANY document
and ANY plan, evaluating the optimized plan yields the byte-identical
served payload (``encode_result``) — same master-counted ``dag_count``,
same exact tree-node count, same decoded paths — as the unoptimized plan
on the same instance, with and without the runtime short-circuit.  The two
plans may split different vertices, so the raw ``QueryResult.dag_count()``
is deliberately not compared.
"""

from hypothesis import given, settings, strategies as st

from repro.api.envelope import encode_result
from repro.compress.stats import DocumentStats
from repro.engine.evaluator import CompressedEvaluator
from repro.model.paths import tree_size
from repro.xpath.algebra import (
    AllNodes,
    AxisApply,
    Difference,
    Intersect,
    NamedSet,
    RootFilter,
    RootSet,
    Union,
)
from repro.xpath.ast import AXES
from repro.xpath.optimizer import optimize

from tests.conftest import LABELS, random_dag_instances

_AXIS_LIST = sorted(AXES)

#: Beyond the suite-wide labels, an always-absent tag so fold-empty-set
#: and empty-propagation actually fire on random plans.
_SET_NAMES = LABELS + ("missing",)


def algebra_expressions(max_leaves: int = 4):
    leaves = st.one_of(
        st.sampled_from([NamedSet(name) for name in _SET_NAMES]),
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
            children.map(RootFilter),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _payload(instance, expr, short_circuit: bool) -> dict:
    """The served payload: master-counted dag_count, tree_count, all paths."""
    working = instance.copy()
    working.ensure_set("missing")
    evaluator = CompressedEvaluator(working, copy=False, short_circuit=short_circuit)
    return encode_result(evaluator.evaluate(expr), paths=4000)


@given(random_dag_instances(), algebra_expressions())
@settings(max_examples=150, deadline=None)
def test_optimized_plan_payload_is_byte_identical(instance, expr):
    if tree_size(instance) > 4000:
        return
    stats_source = instance.copy()
    stats_source.ensure_set("missing")
    stats = DocumentStats.from_instance(stats_source, complete_tags=True)
    optimization = optimize(expr, stats)
    baseline = _payload(instance, expr, short_circuit=False)
    assert _payload(instance, optimization.expr, short_circuit=False) == baseline
    assert _payload(instance, optimization.expr, short_circuit=True) == baseline


@given(random_dag_instances(), algebra_expressions())
@settings(max_examples=100, deadline=None)
def test_short_circuit_alone_is_byte_identical(instance, expr):
    """The runtime guard is sound even on unrewritten plans."""
    if tree_size(instance) > 4000:
        return
    assert _payload(instance, expr, short_circuit=True) == _payload(
        instance, expr, short_circuit=False
    )


@given(random_dag_instances(), st.sampled_from(LABELS))
@settings(max_examples=100, deadline=None)
def test_tag_estimates_are_exact(instance, label):
    """For a tag leaf the 'estimate' is the catalog's exact tree count."""
    from repro.model.paths import selected_tree_count

    stats = DocumentStats.from_instance(instance, complete_tags=True)
    result = optimize(NamedSet(label), stats)
    estimate = result.estimates[id(result.expr)]
    exact = selected_tree_count(instance, label)
    assert estimate == float(min(exact, 10**300))


@given(random_dag_instances(), algebra_expressions())
@settings(max_examples=100, deadline=None)
def test_estimates_stay_in_bounds(instance, expr):
    """Every node estimate lies in [0, tree_nodes] — the clamp invariant."""
    stats_source = instance.copy()
    stats_source.ensure_set("missing")
    stats = DocumentStats.from_instance(stats_source, complete_tags=True)
    optimization = optimize(expr, stats)
    ceiling = min(float(stats.tree_nodes), 1e300)
    stack = [optimization.expr]
    while stack:
        node = stack.pop()
        estimate = optimization.estimates[id(node)]
        assert 0.0 <= estimate <= ceiling
        stack.extend(node.children())
