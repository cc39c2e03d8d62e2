"""Unit tests for the cost-based plan optimizer: one class per rule family.

The answer contract itself (byte-identical served payloads) is pinned by
the property suite in ``tests/property/test_optimizer_properties.py``;
these tests pin each rewrite's *shape* — what fires, what folds, and what
the estimator reports.
"""

import pytest

from repro.compress.stats import DocumentStats
from repro.model.instance import tree_instance
from repro.model.schema import string_set
from repro.xpath.algebra import (
    AllNodes,
    AxisApply,
    Difference,
    EmptySet,
    Intersect,
    NamedSet,
    RootFilter,
    RootSet,
    Union,
)
from repro.xpath.optimizer import (
    RULE_FOLD_EMPTY,
    RULE_PROPAGATE_EMPTY,
    RULE_REORDER,
    RULE_ROOT_AXIS,
    optimize,
)

from tests.conftest import BIB_SPEC


@pytest.fixture
def bib_stats() -> DocumentStats:
    """Complete-tag statistics of the Example 1.1 bibliography (12 nodes)."""
    return DocumentStats.from_instance(tree_instance(BIB_SPEC), complete_tags=True)


@pytest.fixture
def partial_stats() -> DocumentStats:
    """The same document, but with an incomplete tag universe."""
    return DocumentStats.from_instance(tree_instance(BIB_SPEC), complete_tags=False)


class TestUntouchedPlans:
    def test_untouched_plan_keeps_object_identity(self, bib_stats):
        # Nothing folds, no axis has a closed form, and the leaf is already
        # first: the result is the input object itself.
        expr = Intersect(NamedSet("title"), AxisApply("child", NamedSet("book")))
        result = optimize(expr, bib_stats)
        assert result.expr is expr
        assert result.original is expr
        assert not result.optimized
        assert result.rules_applied == ()


class TestFoldEmptySet:
    def test_absent_tag_folds_with_complete_tags(self, bib_stats):
        result = optimize(NamedSet("absent"), bib_stats)
        assert isinstance(result.expr, EmptySet)
        assert RULE_FOLD_EMPTY in result.rules_applied

    def test_absent_tag_kept_without_complete_tags(self, partial_stats):
        expr = NamedSet("absent")
        result = optimize(expr, partial_stats)
        assert result.expr is expr
        assert not result.optimized

    def test_unknown_string_set_never_folds(self, bib_stats):
        # Tags-only statistics say nothing about a needle: no proof.
        expr = NamedSet(string_set("zzzq"))
        result = optimize(expr, bib_stats)
        assert result.expr is expr

    def test_known_string_set_folds_when_counted_empty(self):
        instance = tree_instance(BIB_SPEC)
        name = string_set("xyz")
        instance.ensure_set(name)  # in the schema, provably empty
        stats = DocumentStats.from_instance(instance)
        result = optimize(NamedSet(name), stats)
        assert isinstance(result.expr, EmptySet)


class TestPropagateEmpty:
    def test_axis_image_of_empty_folds(self, bib_stats):
        expr = AxisApply("child", NamedSet("absent"))
        result = optimize(expr, bib_stats)
        assert isinstance(result.expr, EmptySet)
        assert RULE_PROPAGATE_EMPTY in result.rules_applied

    def test_whole_downward_chain_folds(self, bib_stats):
        # //absent/title: the fold empties the child step's source, so the
        # entire conjunction collapses.
        expr = Intersect(
            AxisApply(
                "child",
                Intersect(
                    AxisApply("descendant", RootSet()), NamedSet("absent")
                ),
            ),
            NamedSet("title"),
        )
        result = optimize(expr, bib_stats)
        assert isinstance(result.expr, EmptySet)

    def test_union_drops_empty_branch(self, bib_stats):
        keep = AxisApply("child", NamedSet("book"))
        result = optimize(Union(NamedSet("absent"), keep), bib_stats)
        assert result.expr == keep
        result = optimize(Union(keep, NamedSet("absent")), bib_stats)
        assert result.expr == keep

    @pytest.mark.parametrize("axis", ["ancestor", "child"])  # split-free or not
    def test_difference_empty_left_folds(self, bib_stats, axis):
        right = AxisApply(axis, NamedSet("book"))
        folded = optimize(Difference(NamedSet("absent"), right), bib_stats)
        assert isinstance(folded.expr, EmptySet)
        assert folded.rules_applied == (RULE_FOLD_EMPTY, RULE_PROPAGATE_EMPTY)

    def test_difference_empty_right_drops(self, bib_stats):
        keep = AxisApply("child", NamedSet("book"))
        result = optimize(Difference(keep, NamedSet("absent")), bib_stats)
        assert result.expr == keep

    def test_conjunction_with_empty_conjunct_folds(self, bib_stats):
        splitting = AxisApply("descendant", NamedSet("book"))
        result = optimize(Intersect(splitting, NamedSet("absent")), bib_stats)
        assert isinstance(result.expr, EmptySet)
        assert RULE_REORDER not in result.rules_applied

    def test_root_filter_of_empty_folds(self, bib_stats):
        result = optimize(RootFilter(NamedSet("absent")), bib_stats)
        assert isinstance(result.expr, EmptySet)


class TestRootAxisIdentity:
    @pytest.mark.parametrize(
        "axis",
        [
            "parent",
            "ancestor",
            "following-sibling",
            "preceding-sibling",
            "following",
            "preceding",
        ],
    )
    def test_root_has_no_relatives(self, bib_stats, axis):
        result = optimize(AxisApply(axis, RootSet()), bib_stats)
        assert isinstance(result.expr, EmptySet)
        assert RULE_ROOT_AXIS in result.rules_applied

    def test_descendant_of_root(self, bib_stats):
        result = optimize(AxisApply("descendant", RootSet()), bib_stats)
        assert result.expr == Difference(AllNodes(), RootSet())

    def test_descendant_or_self_of_root(self, bib_stats):
        result = optimize(AxisApply("descendant-or-self", RootSet()), bib_stats)
        assert result.expr == AllNodes()

    @pytest.mark.parametrize("axis", ["self", "ancestor-or-self"])
    def test_root_self_identities(self, bib_stats, axis):
        result = optimize(AxisApply(axis, RootSet()), bib_stats)
        assert result.expr == RootSet()

    def test_child_of_root_is_left_alone(self, bib_stats):
        expr = AxisApply("child", RootSet())
        result = optimize(expr, bib_stats)
        assert result.expr is expr

    @pytest.mark.parametrize("axis", ["child", "descendant"])
    def test_downward_image_of_all_nodes(self, bib_stats, axis):
        result = optimize(AxisApply(axis, AllNodes()), bib_stats)
        assert result.expr == Difference(AllNodes(), RootSet())

    @pytest.mark.parametrize("axis", ["self", "descendant-or-self", "ancestor-or-self"])
    def test_reflexive_image_of_all_nodes(self, bib_stats, axis):
        result = optimize(AxisApply(axis, AllNodes()), bib_stats)
        assert result.expr == AllNodes()

    @pytest.mark.parametrize("axis", ["parent", "ancestor"])
    def test_upward_image_of_all_nodes_left_alone(self, bib_stats, axis):
        # The forward image is the set of non-leaves — no closed form.
        expr = AxisApply(axis, AllNodes())
        result = optimize(expr, bib_stats)
        assert result.expr is expr


class TestReorderConjuncts:
    def test_leaf_moves_ahead_of_structural_join(self, bib_stats):
        join = AxisApply("descendant", NamedSet("book"))
        result = optimize(Intersect(join, NamedSet("title")), bib_stats)
        assert isinstance(result.expr, Intersect)
        assert result.expr.left == NamedSet("title")
        assert result.expr.right == join
        assert RULE_REORDER in result.rules_applied

    def test_selective_leaf_first_within_cost_class(self, bib_stats):
        # 'book' selects 1 tree node, 'author' selects 5: book goes first.
        result = optimize(Intersect(NamedSet("author"), NamedSet("book")), bib_stats)
        assert result.expr == Intersect(NamedSet("book"), NamedSet("author"))

    def test_equal_conjuncts_keep_input_order(self, bib_stats):
        expr = Intersect(NamedSet("paper"), NamedSet("book"))
        # paper (2 nodes) vs book (1 node): book first — deterministic.
        once = optimize(expr, bib_stats).expr
        again = optimize(expr, bib_stats).expr
        assert once == again == Intersect(NamedSet("book"), NamedSet("paper"))

    def test_all_conjuncts_survive_reordering(self, bib_stats):
        from repro.xpath.optimizer import _Optimizer

        parts = [
            AxisApply("descendant", NamedSet("book")),
            NamedSet("title"),
            AxisApply("ancestor", NamedSet("author")),
        ]
        expr = Intersect(Intersect(parts[0], parts[1]), parts[2])
        result = optimize(expr, bib_stats)
        flat = _Optimizer(bib_stats)._conjuncts(result.expr)
        assert sorted(map(repr, flat)) == sorted(map(repr, parts))


class TestAnnotations:
    def test_estimates_cover_every_node(self, bib_stats):
        expr = Intersect(AxisApply("descendant", RootSet()), NamedSet("book"))
        result = optimize(expr, bib_stats)
        stack, seen = [result.expr], 0
        while stack:
            node = stack.pop()
            seen += 1
            assert id(node) in result.estimates
            stack.extend(node.children())
        assert seen >= 3

    def test_estimates_exact_for_tag_leaves(self, bib_stats):
        result = optimize(NamedSet("author"), bib_stats)
        assert result.estimates[id(result.expr)] == 5.0

    def test_uncounted_string_leaf_estimates_one_node(self, bib_stats):
        result = optimize(NamedSet(string_set("Codd")), bib_stats)
        assert result.estimates[id(result.expr)] == 1.0

    def test_string_leaf_orders_as_one_node(self, bib_stats):
        # book selects 1 node and so does the needle's estimate: within a
        # cost class ties keep input order, so the needle stays second.
        expr = Intersect(NamedSet("book"), NamedSet(string_set("Codd")))
        assert optimize(expr, bib_stats).expr is expr
        # author selects 5: the needle's one node goes first.
        expr = Intersect(NamedSet("author"), NamedSet(string_set("Codd")))
        reordered = optimize(expr, bib_stats).expr
        assert reordered == Intersect(NamedSet(string_set("Codd")), NamedSet("author"))

    def test_estimates_clamped_to_document(self, bib_stats):
        result = optimize(AxisApply("descendant", AllNodes()), bib_stats)
        for value in result.estimates.values():
            assert 0.0 <= value <= float(bib_stats.tree_nodes)

    def test_rule_tags_pruned_to_final_tree_and_deduped(self, bib_stats):
        # //absent/title folds in several steps; all intermediate EmptySet
        # nodes die, and the surviving node carries each tag at most once.
        expr = Intersect(
            AxisApply(
                "child",
                Intersect(AxisApply("descendant", RootSet()), NamedSet("absent")),
            ),
            NamedSet("title"),
        )
        result = optimize(expr, bib_stats)
        live = set()
        stack = [result.expr]
        while stack:
            node = stack.pop()
            live.add(id(node))
            stack.extend(node.children())
        assert set(result.rules) <= live
        for tags in result.rules.values():
            assert len(tags) == len(set(tags))

    def test_original_preserved(self, bib_stats):
        expr = AxisApply("child", NamedSet("absent"))
        result = optimize(expr, bib_stats)
        assert result.original is expr
        assert result.optimized
