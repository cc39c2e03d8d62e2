"""Cost-based rewriting of compiled algebra plans over document statistics.

The compiler (:mod:`repro.xpath.compiler`) emits the algebra exactly as the
query is written: axis direction, predicate placement and branch order are
whatever the parser produced.  This pass sits between compilation and
evaluation and uses a :class:`repro.compress.stats.DocumentStats` catalog
to rewrite the tree.  Four rule families (docs/optimizer.md walks worked
before/after plans for each):

* ``fold-empty-set`` — a leaf set the catalog *proves* empty (exact tree
  counts, never an estimate) becomes :class:`EmptySet`;
* ``propagate-empty`` — emptiness flows upward: the image of the empty set
  is empty under every axis, an intersection with a provably empty
  conjunct is empty, the empty branch of a union disappears;
* ``root-axis-identity`` — axis applications whose source is ``{root}``
  or ``V`` have closed forms (``descendant({root})`` is ``V − {root}``,
  ``parent({root})`` is empty, ``descendant-or-self(V)`` is ``V``, ...):
  the context scan the axis would run is replaced by pure mask
  arithmetic, the optimizer's "choose axis direction" lever;
* ``reorder-conjuncts`` / ``push-string-predicate`` — conjunction chains
  re-associate cheapest-and-most-selective-first: leaf sets (including
  string-containment sets; an uncounted one is estimated at one node)
  ahead of split-free predicate subtrees ahead of subtrees containing
  structural joins (non-upward axis applications).

**The answer contract** (property-pinned in
``tests/property/test_optimizer_properties.py``): every rewrite preserves
the *byte-identical* result payload of
:func:`repro.api.envelope.encode_result` — tree-node count, decoded paths
and the master-counted ``dag_count``.  All three are functions of the
selected tree-node set, so set-semantics equivalence is the whole
obligation: a rewrite may eliminate any work whose result is provably
unused, splitting or not (which vertices evaluation happens to split
shows only in the in-process ``QueryResult.dag_count()``, the paper's
Figure 7 column, which may differ between two plans).  The evaluator's
short-circuit mode is the same rule applied at runtime.

Estimates are in *tree-node* units (what ``result.tree_count()``
reports), computed bottom-up under independence assumptions; see
``DocumentStats`` and docs/optimizer.md for the model and its limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compress.stats import DocumentStats
from repro.model.schema import is_string_set
from repro.xpath.algebra import (
    AlgebraExpr,
    AllNodes,
    AxisApply,
    ContextSet,
    Difference,
    EmptySet,
    Intersect,
    NamedSet,
    RootFilter,
    RootSet,
    Union,
    uses_only_upward_axes,
)

#: Rule tags attached to plan nodes (the `rules` field of explain output).
RULE_FOLD_EMPTY = "fold-empty-set"
RULE_PROPAGATE_EMPTY = "propagate-empty"
RULE_ROOT_AXIS = "root-axis-identity"
RULE_REORDER = "reorder-conjuncts"
RULE_PUSH_STRING = "push-string-predicate"


@dataclass
class OptimizationResult:
    """One optimized plan: the rewritten tree plus its annotations.

    ``rules`` and ``estimates`` are keyed by ``id()`` of the nodes of
    ``expr`` (expressions are immutable and alive as long as this result
    is); :class:`repro.api.plan.Plan` turns them into per-node
    ``est_cardinality`` / ``rules`` fields.
    """

    expr: AlgebraExpr
    original: AlgebraExpr
    #: True when at least one rewrite rule fired (``expr`` differs).
    optimized: bool = False
    #: Distinct rule tags fired, in first-fired order.
    rules_applied: tuple[str, ...] = ()
    #: id(node) -> rule tags that produced that node.
    rules: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: id(node) -> estimated result cardinality in tree nodes.
    estimates: dict[int, float] = field(default_factory=dict)


def optimize(expr: AlgebraExpr, stats: DocumentStats) -> OptimizationResult:
    """Rewrite ``expr`` using ``stats``."""
    optimizer = _Optimizer(stats)
    rewritten = optimizer.rewrite(expr)
    # Keep only tags on nodes that survived into the final tree: those are
    # alive as long as the result is, so their ids cannot be reused.
    live: set[int] = set()
    stack = [rewritten]
    while stack:
        node = stack.pop()
        if id(node) not in live:
            live.add(id(node))
            stack.extend(node.children())
    result = OptimizationResult(
        expr=rewritten,
        original=expr,
        optimized=rewritten is not expr,
        rules_applied=tuple(optimizer.fired),
        rules={key: tags for key, tags in optimizer.rules.items() if key in live},
        estimates={},
    )
    _estimate(rewritten, stats, result.estimates)
    return result


class _Optimizer:
    """One bottom-up rewrite pass (see the module doc for the rules)."""

    def __init__(self, stats: DocumentStats):
        self.stats = stats
        self.rules: dict[int, tuple[str, ...]] = {}
        self.fired: list[str] = []
        # Tagged nodes are pinned for the lifetime of the pass: ``rules``
        # is keyed by id(), and letting an intermediate node be collected
        # would allow a later allocation to reuse its id and inherit its
        # tags.  ``optimize`` prunes the map to the final tree's nodes.
        self._pinned: list[AlgebraExpr] = []

    def _tag(self, expr: AlgebraExpr, *rule_names: str) -> AlgebraExpr:
        self._pinned.append(expr)
        merged = self.rules.get(id(expr), ()) + rule_names
        self.rules[id(expr)] = tuple(dict.fromkeys(merged))
        for name in rule_names:
            if name not in self.fired:
                self.fired.append(name)
        return expr

    # -- the dispatch ----------------------------------------------------

    def rewrite(self, expr: AlgebraExpr) -> AlgebraExpr:
        if isinstance(expr, NamedSet):
            if self.stats.is_empty(expr.name):
                return self._tag(EmptySet(), RULE_FOLD_EMPTY)
            return expr
        if isinstance(expr, AxisApply):
            return self._rewrite_axis(expr)
        if isinstance(expr, Intersect):
            return self._rewrite_conjunction(expr)
        if isinstance(expr, Union):
            return self._rewrite_union(expr)
        if isinstance(expr, Difference):
            return self._rewrite_difference(expr)
        if isinstance(expr, RootFilter):
            operand = self.rewrite(expr.operand)
            if isinstance(operand, EmptySet):
                # root ∈ ∅ never holds: V|root(∅) = ∅.
                return self._tag(EmptySet(), RULE_PROPAGATE_EMPTY)
            if operand is expr.operand:
                return expr
            return RootFilter(operand)
        return expr  # leaves: RootSet, AllNodes, ContextSet, EmptySet

    # -- axis applications -----------------------------------------------

    def _rewrite_axis(self, expr: AxisApply) -> AlgebraExpr:
        operand = self.rewrite(expr.operand)
        if isinstance(operand, EmptySet):
            # chi(∅) = ∅ for every axis.
            return self._tag(EmptySet(), RULE_PROPAGATE_EMPTY)
        identity = self._axis_identity(expr.axis, operand)
        if identity is not None:
            return self._tag(identity, RULE_ROOT_AXIS)
        if operand is expr.operand:
            return expr
        return AxisApply(expr.axis, operand)

    @staticmethod
    def _axis_identity(axis: str, operand: AlgebraExpr) -> AlgebraExpr | None:
        """Closed forms for axis images of ``{root}`` and ``V``.

        Each identity replaces an application the engine would evaluate
        with a structure pass by plain mask arithmetic; results are
        identical selections.
        """
        if isinstance(operand, RootSet):
            if axis == "self":
                return operand
            if axis == "ancestor-or-self":
                # The root's only ancestor-or-self is the root.
                return operand
            if axis == "descendant":
                # Every non-root node has the root as an ancestor.
                return Difference(AllNodes(), RootSet())
            if axis == "descendant-or-self":
                return AllNodes()
            if axis in (
                "parent",
                "ancestor",
                "following-sibling",
                "preceding-sibling",
                "following",
                "preceding",
            ):
                # The root has no parent, hence none of these relatives.
                return EmptySet()
            if axis == "child":
                return None  # a genuine (cheap, split-free) image
        if isinstance(operand, AllNodes):
            if axis in ("self", "descendant-or-self", "ancestor-or-self"):
                return operand
            if axis in ("child", "descendant"):
                # Every node but the root has a parent (hence an ancestor).
                return Difference(AllNodes(), RootSet())
            if axis in ("parent", "ancestor"):
                # Forward image: nodes with a child (resp. descendant) in V
                # are exactly the non-leaves; no closed form — leave it.
                return None
        return None

    # -- conjunction chains ----------------------------------------------

    def _conjuncts(self, expr: AlgebraExpr) -> list[AlgebraExpr]:
        if isinstance(expr, Intersect):
            return self._conjuncts(expr.left) + self._conjuncts(expr.right)
        return [expr]

    def _rewrite_conjunction(self, expr: Intersect) -> AlgebraExpr:
        conjuncts = [self.rewrite(part) for part in self._conjuncts(expr)]
        if any(isinstance(part, EmptySet) for part in conjuncts):
            # One provably empty conjunct empties the whole conjunction.
            return self._tag(EmptySet(), RULE_PROPAGATE_EMPTY)
        ordered = self._ordered(conjuncts)
        if ordered == conjuncts:
            # Order unchanged: keep the original node when nothing below
            # changed either, so untouched plans stay identical objects.
            if all(a is b for a, b in zip(conjuncts, self._conjuncts(expr))):
                return expr
            return _fold_intersect(conjuncts)
        rules = [RULE_REORDER]
        if self._pushed_string(conjuncts, ordered):
            rules.append(RULE_PUSH_STRING)
        return self._tag(_fold_intersect(ordered), *rules)

    def _ordered(self, conjuncts: list[AlgebraExpr]) -> list[AlgebraExpr]:
        """Cheapest-first stable order: (cost class, estimate, input order)."""
        keyed = []
        for index, part in enumerate(conjuncts):
            keyed.append((self._cost_class(part), self._quick_estimate(part), index, part))
        keyed.sort(key=lambda item: item[:3])
        return [part for *_, part in keyed]

    @staticmethod
    def _cost_class(expr: AlgebraExpr) -> int:
        """0 = leaf set (free mask), 1 = split-free subtree (in-place
        passes), 2 = contains a structural join (may split)."""
        if not expr.children():
            return 0
        return 1 if uses_only_upward_axes(expr) else 2

    def _quick_estimate(self, expr: AlgebraExpr) -> float:
        """Selectivity used only for ordering (full model in ``_estimate``)."""
        store: dict[int, float] = {}
        _estimate(expr, self.stats, store)
        return store.get(id(expr), float(self.stats.tree_nodes))

    @staticmethod
    def _pushed_string(before: list[AlgebraExpr], after: list[AlgebraExpr]) -> bool:
        """Did a string-containment leaf move ahead of a structural join?"""

        def has_join(expr: AlgebraExpr) -> bool:
            return bool(expr.children()) and not uses_only_upward_axes(expr)

        for ordering, direction in ((before, False), (after, True)):
            seen_join = False
            for part in ordering:
                if has_join(part):
                    seen_join = True
                elif (
                    isinstance(part, NamedSet)
                    and is_string_set(part.name)
                    and seen_join != direction
                ):
                    # before: a string leaf after a join; after: before one.
                    break
            else:
                return False
        return True

    # -- union / difference ----------------------------------------------

    def _rewrite_union(self, expr: Union) -> AlgebraExpr:
        left = self.rewrite(expr.left)
        right = self.rewrite(expr.right)
        if isinstance(left, EmptySet):
            return self._tag(right, RULE_PROPAGATE_EMPTY)
        if isinstance(right, EmptySet):
            return self._tag(left, RULE_PROPAGATE_EMPTY)
        if left is expr.left and right is expr.right:
            return expr
        return Union(left, right)

    def _rewrite_difference(self, expr: Difference) -> AlgebraExpr:
        left = self.rewrite(expr.left)
        right = self.rewrite(expr.right)
        if isinstance(left, EmptySet):
            # ∅ − R = ∅ for any R.
            return self._tag(EmptySet(), RULE_PROPAGATE_EMPTY)
        if isinstance(right, EmptySet):
            # L − ∅ = L.
            return self._tag(left, RULE_PROPAGATE_EMPTY)
        if left is expr.left and right is expr.right:
            return expr
        return Difference(left, right)


def _fold_intersect(parts: list[AlgebraExpr]) -> AlgebraExpr:
    expr = parts[0]
    for part in parts[1:]:
        expr = Intersect(expr, part)
    return expr


# ----------------------------------------------------------------------
# Cardinality estimation (tree-node units)
# ----------------------------------------------------------------------

#: Fallback selectivity for a tag set the catalog knows nothing about (an
#: incomplete tag universe): a tenth of the document.
_UNKNOWN_FRACTION = 0.1


def _estimate(
    expr: AlgebraExpr, stats: DocumentStats, store: dict[int, float]
) -> float:
    """Estimated tree-node cardinality of every node of ``expr``.

    Fills ``store`` (``id(node) -> estimate``) bottom-up and returns the
    root estimate.  The model and its assumptions (independence of
    conjuncts, uniform fanout/depth, one node per uncounted string needle)
    are documented in docs/optimizer.md; estimates are clamped to
    ``[0, tree_nodes]``.
    """
    total = float(stats.tree_nodes) if stats.tree_nodes < 1e300 else 1e300
    estimate = _estimate_node(expr, stats, total, store)
    return estimate


def _estimate_node(
    expr: AlgebraExpr, stats: DocumentStats, total: float, store: dict[int, float]
) -> float:
    cached = store.get(id(expr))
    if cached is not None:
        return cached
    children = [
        _estimate_node(child, stats, total, store) for child in expr.children()
    ]
    value: float
    if isinstance(expr, EmptySet):
        value = 0.0
    elif isinstance(expr, (RootSet, ContextSet)):
        # The default context is the root singleton; a user context is
        # unknowable here and assumed small.
        value = 1.0
    elif isinstance(expr, AllNodes):
        value = total
    elif isinstance(expr, NamedSet):
        known = stats.tree_count(expr.name)
        if known is not None:
            value = float(known) if known < 1e300 else 1e300
        elif is_string_set(expr.name):
            # A needle the statistics did not count (catalog statistics
            # hold tags only): one tree node.  Measured against a
            # 128-character text sketch over the five e2e workloads'
            # queries and the Figure 7 mix of their corpora, the optimized
            # plans were byte-identical on all 32 distinct queries.
            value = 1.0
        else:
            value = total * _UNKNOWN_FRACTION
    elif isinstance(expr, AxisApply):
        value = _axis_image_estimate(expr.axis, children[0], stats, total)
    elif isinstance(expr, Intersect):
        value = children[0] * children[1] / total if total else 0.0
    elif isinstance(expr, Union):
        overlap = children[0] * children[1] / total if total else 0.0
        value = children[0] + children[1] - overlap
    elif isinstance(expr, Difference):
        keep = 1.0 - (children[1] / total if total else 0.0)
        value = children[0] * max(keep, 0.0)
    elif isinstance(expr, RootFilter):
        # All-or-nothing: N weighted by P(root selected) ~ |S| / N.
        value = total * min(1.0, children[0] / total if total else 0.0)
    else:  # pragma: no cover - future algebra nodes
        value = total * _UNKNOWN_FRACTION
    value = min(max(value, 0.0), total)
    store[id(expr)] = value
    return value


def _axis_image_estimate(
    axis: str, source: float, stats: DocumentStats, total: float
) -> float:
    """Expected size of a forward axis image (see docs/optimizer.md)."""
    fanout = max(stats.avg_fanout, 1e-9)
    if axis == "self":
        return source
    if axis == "child":
        return source * stats.avg_fanout
    if axis == "descendant":
        return source * max(stats.avg_subtree - 1.0, 0.0)
    if axis == "descendant-or-self":
        return source * max(stats.avg_subtree, 1.0)
    if axis == "parent":
        return source / fanout
    if axis == "ancestor":
        return min(total, source * max(stats.avg_depth, 1.0))
    if axis == "ancestor-or-self":
        return min(total, source * (max(stats.avg_depth, 1.0) + 1.0))
    if axis in ("following-sibling", "preceding-sibling"):
        return min(total, source * stats.avg_fanout / 2.0)
    if axis in ("following", "preceding"):
        return total / 2.0 if source >= 1.0 else source * total / 2.0
    return total * _UNKNOWN_FRACTION  # pragma: no cover - unknown axis
