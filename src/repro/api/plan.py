"""Structured query plans: the JSON-able view of a compiled algebra tree.

``Engine.explain`` renders the Figure 3 algebra tree as ASCII; every other
surface (the CLI's ``explain --json``, ``repro query --explain-json``, the
HTTP ``/explain`` route) needs the *same* tree as data.  A :class:`Plan`
wraps one compiled query: the per-node operator tree, the schema the query
requires (tags and string-containment needles — exactly what the one-scan
loader extracts), the upward-only flag of Corollary 3.7, and — when a
:class:`repro.api.Database` or a query service produced the plan — where
the instance answering it would come from (engine schema cache, pool
residency, worker shard).

The ASCII rendering of :meth:`Plan.render` is byte-identical to
``AlgebraExpr.render`` for unannotated plans, so the human-facing
``repro explain`` output did not change when it moved onto this structure;
annotated nodes append a bracketed suffix per node.

**The explain output contract** (``Plan.to_dict()`` — stable JSON shape,
documented in README "Explain output contract"):

.. code-block:: text

    {
      "query":        str | null,
      "nodes":        int,                     # operator count |Q|
      "upward_only":  bool,                    # Corollary 3.7
      "required":     {"tags": [str], "strings": [str]},
      "algebra":      <node>,                  # the plan evaluation runs
      "instance":     {...}?,                  # provenance (surface-specific)
      "optimizer": {                           # present iff an optimizer ran
        "optimized":        bool,              # did any rewrite fire
        "rules_applied":    [str],             # distinct rule tags, fire order
        "unoptimized":      <node>?            # original tree, iff optimized
      }?
    }

    <node> = {
      "op":             "axis" | "named-set" | "union" | "intersect" |
                        "difference" | "root-filter" | "root-set" |
                        "all-nodes" | "context" | "empty-set",
      "axis":           str?,                  # op == "axis" only
      "set":            str?,                  # op == "named-set" only
      "est_cardinality": number?,              # estimated result tree nodes
      "rules":          [str]?,                # rewrite rules that made it
      "actual":         {"dag_count": int, "tree_count": int}?,  # analyze
      "children":       [<node>]?
    }

``est_cardinality`` is present on every node whenever the optimizer ran
(estimates are in tree-node units, the model documented in
docs/optimizer.md); ``actual`` is present only for ``explain`` in analyze
mode, where the plan was executed and per-node selection cardinalities
measured — estimated vs. actual on the same node is the estimation-error
view.  Nodes skipped by runtime short-circuiting carry no ``actual``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xpath.optimizer import OptimizationResult

#: Operator names used in plan JSON, keyed by algebra node class.
_OPS = {
    RootSet: "root-set",
    AllNodes: "all-nodes",
    ContextSet: "context",
    EmptySet: "empty-set",
    NamedSet: "named-set",
    AxisApply: "axis",
    Union: "union",
    Intersect: "intersect",
    Difference: "difference",
    RootFilter: "root-filter",
}


@dataclass(frozen=True)
class PlanNode:
    """One operator of the plan tree (a mirror of one algebra node)."""

    #: Operator name: ``axis``, ``named-set``, ``union``, ... (see ``_OPS``).
    op: str
    #: ASCII label, identical to ``AlgebraExpr.label()`` (drives rendering).
    label: str
    #: The axis applied (``op == "axis"`` only).
    axis: str | None = None
    #: The schema set read (``op == "named-set"`` only).
    set_name: str | None = None
    children: tuple["PlanNode", ...] = ()
    #: Estimated result cardinality in tree nodes (optimized plans only).
    est_cardinality: float | None = None
    #: Optimizer rules that produced this node (empty for compiler output).
    rules: tuple[str, ...] = ()
    #: Measured ``{"dag_count", "tree_count"}`` (explain analyze mode only).
    actual: dict | None = None

    def to_dict(self) -> dict:
        node: dict = {"op": self.op}
        if self.axis is not None:
            node["axis"] = self.axis
        if self.set_name is not None:
            node["set"] = self.set_name
        if self.est_cardinality is not None:
            node["est_cardinality"] = self.est_cardinality
        if self.rules:
            node["rules"] = list(self.rules)
        if self.actual is not None:
            node["actual"] = self.actual
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    def render(self, indent: str = "") -> str:
        suffix = self._annotation_suffix()
        lines = [indent + self.label + suffix]
        for child in self.children:
            lines.append(child.render(indent + "    "))
        return "\n".join(lines)

    def _annotation_suffix(self) -> str:
        """``  [est=…, actual=…, rules=…]`` — empty for unannotated nodes,
        keeping unoptimized renderings byte-identical to the algebra's."""
        parts = []
        if self.est_cardinality is not None:
            parts.append(f"est={self.est_cardinality:g}")
        if self.actual is not None:
            parts.append(f"actual={self.actual.get('tree_count')}")
        if self.rules:
            parts.append("rules=" + "+".join(self.rules))
        return f"  [{', '.join(parts)}]" if parts else ""

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


def _node_from_expr(
    expr: AlgebraExpr,
    estimates: dict[int, float] | None = None,
    rules: dict[int, tuple[str, ...]] | None = None,
    actuals: dict[int, dict] | None = None,
) -> PlanNode:
    op = _OPS.get(type(expr))
    if op is None:  # pragma: no cover - future algebra nodes
        op = type(expr).__name__.lower()
    return PlanNode(
        op=op,
        label=expr.label(),
        axis=expr.axis if isinstance(expr, AxisApply) else None,
        set_name=expr.name if isinstance(expr, NamedSet) else None,
        children=tuple(
            _node_from_expr(child, estimates, rules, actuals)
            for child in expr.children()
        ),
        est_cardinality=estimates.get(id(expr)) if estimates else None,
        rules=rules.get(id(expr), ()) if rules else (),
        actual=actuals.get(id(expr)) if actuals else None,
    )


@dataclass
class Plan:
    """A compiled query as structured data (one per :class:`PreparedQuery`).

    ``instance`` is optional provenance describing where the answering
    instance would come from; it is attached by whichever surface produced
    the plan (embedded engine cache state, pool residency for a served
    document, shard id under a worker fleet) and is ``None`` for a plan of
    a bare query text.

    ``optimizer`` is present when a cost-based optimization pass ran (see
    the module doc for its shape); ``root`` is then the tree evaluation
    actually runs — the *optimized* one — with per-node
    ``est_cardinality`` / ``rules`` annotations, and the unrewritten tree
    is kept under ``optimizer["unoptimized"]`` when any rule fired.
    """

    query: str | None
    root: PlanNode
    required_tags: tuple[str, ...]
    required_strings: tuple[str, ...]
    upward_only: bool
    #: Where the instance answering this plan would come from (see class doc).
    instance: dict | None = field(default=None)
    #: Optimizer metadata (see the module-doc contract); ``None`` = no pass.
    optimizer: dict | None = field(default=None)

    @classmethod
    def from_compiled(
        cls,
        query_text: str | None,
        expr: AlgebraExpr,
        tags: tuple[str, ...],
        strings: tuple[str, ...],
        optimization: "OptimizationResult | None" = None,
        actuals: dict[int, dict] | None = None,
    ) -> "Plan":
        """Build a plan from an already-compiled query (no re-parse).

        With ``optimization`` the plan describes the *optimized* tree and
        carries the optimizer block; ``actuals`` (``id(node) -> counts``
        measured after execution) fills each node's ``actual`` field.
        """
        if optimization is None:
            return cls(
                query=query_text,
                root=_node_from_expr(expr, actuals=actuals),
                required_tags=tuple(tags),
                required_strings=tuple(strings),
                upward_only=uses_only_upward_axes(expr),
            )
        optimizer: dict = {
            "optimized": optimization.optimized,
            "rules_applied": list(optimization.rules_applied),
        }
        if optimization.optimized:
            optimizer["unoptimized"] = _node_from_expr(optimization.original).to_dict()
        return cls(
            query=query_text,
            root=_node_from_expr(
                optimization.expr,
                estimates=optimization.estimates or None,
                rules=optimization.rules or None,
                actuals=actuals,
            ),
            required_tags=tuple(tags),
            required_strings=tuple(strings),
            upward_only=uses_only_upward_axes(optimization.expr),
            optimizer=optimizer,
        )

    @classmethod
    def from_query(cls, query_text: str) -> "Plan":
        """Parse + compile ``query_text`` and build its plan."""
        from repro.xpath.compiler import compile_query, required_strings, required_tags
        from repro.xpath.parser import parse_query

        ast = parse_query(query_text)
        return cls.from_compiled(
            query_text,
            compile_query(ast),
            tuple(sorted(required_tags(ast))),
            tuple(sorted(required_strings(ast))),
        )

    def size(self) -> int:
        """Number of operator nodes — the |Q| of Theorem 3.6."""
        return self.root.size()

    def render(self) -> str:
        """The ASCII tree (byte-identical to ``AlgebraExpr.render`` when
        unannotated; annotated nodes gain a bracketed suffix)."""
        return self.root.render()

    def to_dict(self) -> dict:
        plan: dict = {
            "query": self.query,
            "nodes": self.size(),
            "upward_only": self.upward_only,
            "required": {
                "tags": list(self.required_tags),
                "strings": list(self.required_strings),
            },
            "algebra": self.root.to_dict(),
        }
        if self.instance is not None:
            plan["instance"] = self.instance
        if self.optimizer is not None:
            plan["optimizer"] = self.optimizer
        return plan

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, ensure_ascii=False)

    def __str__(self) -> str:
        return self.render()
