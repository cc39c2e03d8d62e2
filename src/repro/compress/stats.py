"""Size statistics for instances — the quantities reported in Figures 6 and 7 —
plus the per-document statistics catalog the plan optimizer runs on.

The paper measures compression as ``|E^{M(T)}| / |E^T|`` where DAG edges are
counted as run-length *entries* (one multiplicity edge counts once) and tree
edges are ``|V^T| - 1``.

:class:`DocumentStats` is the optimizer's input (DESIGN.md section 13,
``docs/optimizer.md``): exact per-set tree cardinalities from one linear
pass over the skeleton DAG (the path-summary node counts of Arion et al.:
the minimal DAG already *is* that summary) and shape aggregates (average
depth, fanout, subtree size) for axis-image estimation.  It is a pure
function of an instance; the catalog derives it from the tags-only master
it publishes and keeps it in memory only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.model.instance import Instance
from repro.model.paths import tree_size


@dataclass(frozen=True)
class InstanceStats:
    """Vertex/edge counts of an instance and of its tree version."""

    vertices: int
    edge_entries: int
    edges_expanded: int
    tree_vertices: int

    @property
    def tree_edges(self) -> int:
        return self.tree_vertices - 1

    @property
    def edge_ratio(self) -> float:
        """The paper's compression measure ``|E^M| / |E^T|`` (entries)."""
        return self.edge_entries / self.tree_edges if self.tree_edges else 1.0

    def row(self) -> str:
        """One formatted line in the style of Figure 6."""
        return (
            f"|V^T|={self.tree_vertices:>12,} |V^M|={self.vertices:>9,} "
            f"|E^M|={self.edge_entries:>10,} ratio={100 * self.edge_ratio:6.2f}%"
        )


def instance_stats(instance: Instance) -> InstanceStats:
    """Compute the Figure 6 quantities for ``instance``."""
    return InstanceStats(
        vertices=len(instance.preorder()),
        edge_entries=instance.num_edge_entries,
        edges_expanded=instance.num_edges_expanded,
        tree_vertices=tree_size(instance),
    )


# ----------------------------------------------------------------------
# The optimizer's statistics catalog
# ----------------------------------------------------------------------


def _ratio(numerator: int, denominator: int) -> float:
    """Big-int division as a float: exact while the *ratio* fits a double
    (Python scales internally), saturating instead of overflowing."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class DocumentStats:
    """The per-document statistics catalog driving plan optimization.

    One linear pass over the skeleton DAG yields, per schema set, its exact
    tree-node count (path-summary cardinalities), plus the shape aggregates
    the axis-image estimator uses.

    ``complete_tags`` records whether the tag universe was complete when
    the stats were collected (catalog documents are shredded over *every*
    tag, so an unknown tag set is provably empty; an instance loaded over
    one query's schema proves nothing about other tags).  String sets are
    only exact when they were part of the schema at collection time —
    otherwise :meth:`tree_count` returns ``None`` and the optimizer must
    treat them as unknown (estimate, never fold).
    """

    #: Exact number of tree nodes ``|V^T|`` (big int).
    tree_nodes: int
    avg_depth: float
    avg_fanout: float
    avg_subtree: float
    #: Schema set name -> exact tree-node count (big int).
    sets: dict[str, int] = field(default_factory=dict)
    complete_tags: bool = False

    @classmethod
    def from_instance(cls, instance: Instance, complete_tags: bool = False) -> "DocumentStats":
        """Collect the full catalog from one compressed instance.

        Cost is linear in the DAG (plus big-int arithmetic on the path
        counts): the per-vertex tree multiplicities are the instance's
        cached :meth:`Instance.path_counts`, one topological pass sums
        depths top-down, a reverse pass computes subtree sizes bottom-up.
        """
        from repro.model.paths import selected_tree_count
        from repro.model.schema import is_result, is_temp

        order = instance.topological_order()
        counts = instance.path_counts()
        depth_sums: dict[int, int] = dict.fromkeys(order, 0)
        subtree: dict[int, int] = {}
        for vertex in order:
            multiplier = counts[vertex]
            depths = depth_sums[vertex]
            for child, count in instance.children(vertex):
                depth_sums[child] += count * (depths + multiplier)
        internal = 0
        for vertex in reversed(order):
            size = 1
            for child, count in instance.children(vertex):
                size += count * subtree[child]
            subtree[vertex] = size
            if instance.out_degree(vertex):
                internal += counts[vertex]
        tree_nodes = sum(counts)
        sets = {
            name: selected_tree_count(instance, name)
            for name in instance.schema
            if not is_temp(name) and not is_result(name)
        }
        return cls(
            tree_nodes=tree_nodes,
            avg_depth=_ratio(sum(depth_sums.values()), tree_nodes) if tree_nodes else 0.0,
            avg_fanout=_ratio(tree_nodes - 1, internal) if internal else 0.0,
            avg_subtree=(
                _ratio(sum(counts[v] * subtree[v] for v in order), tree_nodes)
                if tree_nodes
                else 0.0
            ),
            sets=sets,
            complete_tags=complete_tags,
        )

    def tree_count(self, name: str) -> int | None:
        """Exact tree-node count of schema set ``name``, or ``None`` unknown.

        An unknown *tag* is provably empty when the tag universe was
        complete at collection time; an unknown string set is never
        assumed anything (string schemas are per-query, not per-document).
        """
        from repro.model.schema import is_string_set

        known = self.sets.get(name)
        if known is not None:
            return known
        if is_string_set(name):
            return None
        return 0 if self.complete_tags else None

    def is_empty(self, name: str) -> bool:
        """True only when the catalog *proves* ``name`` selects nothing."""
        return self.tree_count(name) == 0
