"""The node-set algebra of Core XPath (section 3.1, Figure 3).

A query compiles to an expression tree over:

* leaf node sets: the root singleton, the full vertex set, named sets from
  the schema (tags / string constraints / user context),
* the binary set operations (union, intersection, difference),
* axis applications ``chi(S)``,
* the root-filter ``V|root(S)`` (all of V if the root is in S, else empty).

Axis application uses *forward-image* semantics as in Gottlob-Koch-Pichler:
``n in child(S)`` iff the parent of ``n`` is in ``S`` — this is what lets
predicates be evaluated by reversing their paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xpath.ast import AXES


class AlgebraExpr:
    """Base class of algebra expressions."""

    __slots__ = ()

    def children(self) -> tuple["AlgebraExpr", ...]:
        return ()

    def label(self) -> str:
        raise NotImplementedError

    def render(self, indent: str = "") -> str:
        """ASCII rendering of the expression tree (Figure 3 style)."""
        lines = [indent + self.label()]
        for child in self.children():
            lines.append(child.render(indent + "    "))
        return "\n".join(lines)

    def size(self) -> int:
        """Number of operator/leaf nodes — the |Q| of Theorem 3.6."""
        return 1 + sum(child.size() for child in self.children())

    def structural_key(self) -> tuple:
        """A canonical, hashable key identifying this subtree up to structure.

        Two expressions have equal keys iff they denote the same algebra
        subtree (same operators, axes, and set names in the same shape) —
        the sharing unit of the batch engine's common-subexpression cache.
        Keys are nested tuples ``(label, child_key, ...)``, so no string
        parsing ambiguity can conflate distinct trees; the key is computed
        once per node and cached (expressions are immutable).
        """
        key = getattr(self, "_structural_key", None)
        if key is None:
            key = (self.label(), *(child.structural_key() for child in self.children()))
            # Subclasses are frozen dataclasses; bypass their setattr guard.
            object.__setattr__(self, "_structural_key", key)
        return key


@dataclass(frozen=True)
class RootSet(AlgebraExpr):
    """The singleton {root}."""

    def label(self) -> str:
        return "{root}"


@dataclass(frozen=True)
class AllNodes(AlgebraExpr):
    """The full vertex set V."""

    def label(self) -> str:
        return "V"


@dataclass(frozen=True)
class ContextSet(AlgebraExpr):
    """The user-supplied context selection (relative queries start here)."""

    def label(self) -> str:
        return "context"


@dataclass(frozen=True)
class EmptySet(AlgebraExpr):
    """The empty selection — only ever produced by the optimizer.

    The compiler never emits this node: it appears when the statistics
    catalog proves a leaf set (or, through propagation, a whole branch)
    selects nothing (:mod:`repro.xpath.optimizer`).  Evaluation
    materialises a fresh empty selection without touching the structure.
    """

    def label(self) -> str:
        return "∅"


@dataclass(frozen=True)
class NamedSet(AlgebraExpr):
    """A schema set: a tag set ``L_t`` or a string-constraint set."""

    name: str

    def label(self) -> str:
        return f"L[{self.name}]"


@dataclass(frozen=True)
class AxisApply(AlgebraExpr):
    """``chi(S)`` for one of the Core XPath axes."""

    axis: str
    operand: AlgebraExpr

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}")

    def children(self):
        return (self.operand,)

    def label(self) -> str:
        return self.axis


@dataclass(frozen=True)
class Union(AlgebraExpr):
    left: AlgebraExpr
    right: AlgebraExpr

    def children(self):
        return (self.left, self.right)

    def label(self) -> str:
        return "∪"


@dataclass(frozen=True)
class Intersect(AlgebraExpr):
    left: AlgebraExpr
    right: AlgebraExpr

    def children(self):
        return (self.left, self.right)

    def label(self) -> str:
        return "∩"


@dataclass(frozen=True)
class Difference(AlgebraExpr):
    left: AlgebraExpr
    right: AlgebraExpr

    def children(self):
        return (self.left, self.right)

    def label(self) -> str:
        return "−"


@dataclass(frozen=True)
class RootFilter(AlgebraExpr):
    """``V|root(S)``: all of V if root in S, else the empty set (section 3.1)."""

    operand: AlgebraExpr

    def children(self):
        return (self.operand,)

    def label(self) -> str:
        return "V|root"


def named_sets(expr: AlgebraExpr) -> set[str]:
    """All schema set names referenced by ``expr``."""
    found: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, NamedSet):
            found.add(node.name)
        stack.extend(node.children())
    return found


def axis_applications(expr: AlgebraExpr) -> list[str]:
    """All axes applied in ``expr`` (with repetition), in evaluation order."""
    out: list[str] = []

    def visit(node: AlgebraExpr) -> None:
        for child in node.children():
            visit(child)
        if isinstance(node, AxisApply):
            out.append(node.axis)

    visit(expr)
    return out


def uses_only_upward_axes(expr: AlgebraExpr) -> bool:
    """True if Corollary 3.7 applies: evaluation will never decompress.

    Upward axes and ``self`` are in-place mask passes (Proposition 3.3);
    downward and sibling axes, and the ``following`` / ``preceding``
    compositions that contain them, may split vertices.
    """
    from repro.xpath.ast import UPWARD_AXES

    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, AxisApply) and node.axis not in UPWARD_AXES:
            return False
        stack.extend(node.children())
    return True
