"""Size statistics for instances — the quantities reported in Figures 6 and 7 —
plus the per-document statistics catalog the plan optimizer runs on.

The paper measures compression as ``|E^{M(T)}| / |E^T|`` where DAG edges are
counted as run-length *entries* (one multiplicity edge counts once) and tree
edges are ``|V^T| - 1``.

:class:`DocumentStats` is the optimizer's input (DESIGN.md section 13,
``docs/optimizer.md``): per-set DAG/tree cardinalities from one linear pass
over the skeleton DAG (the path-summary node counts of Arion et al.), shape
aggregates (average depth, fanout, subtree size) for axis-image estimation,
and a character-frequency sketch of the document text for string-predicate
selectivity.  It is collected at shred time, persisted as ``stats.json``
beside the chunk store, and versioned (:data:`STATS_FORMAT_VERSION`) so an
instance published without statistics — or with an older format — falls
back to the unoptimized plan instead of erroring.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.model.instance import Instance
from repro.model.paths import tree_size

#: Version stamp of the persisted statistics format.  Bump on any change to
#: the ``to_dict`` layout; readers treat other versions as "no statistics".
STATS_FORMAT_VERSION = 1


def _clamped(value: int | float) -> float:
    """A big int as a float, saturating to ``inf`` (compressed instances can
    represent trees with astronomically many nodes)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


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

#: Character-sketch size cap: only this many most-common characters are
#: persisted (enough for selectivity *ordering*; see ``string_selectivity``).
_SKETCH_CHARS = 128

#: Cap for persisted float aggregates: JSON has no ``Infinity``, and a
#: Figure-5 binary tree's average subtree size overflows a double anyway.
_FLOAT_CAP = 1e300


def _capped(value: float) -> float:
    return value if value < _FLOAT_CAP else _FLOAT_CAP


def _ratio(numerator: int, denominator: int) -> float:
    """Big-int division as a float: exact while the *ratio* fits a double
    (Python scales internally), saturating instead of overflowing."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SetStats:
    """Cardinalities of one schema set: DAG vertices and tree nodes.

    ``tree_count`` is exact big-integer arithmetic (the per-vertex path
    counts of :func:`repro.model.paths.tree_node_counts` summed over the
    set), so "provably empty" really is a proof, not an estimate.
    """

    dag_count: int
    tree_count: int


@dataclass(frozen=True)
class DocumentStats:
    """The per-document statistics catalog driving plan optimization.

    One linear pass over the skeleton DAG yields, per schema set, its DAG
    vertex count and exact tree-node count (path-summary cardinalities);
    plus the shape aggregates the axis-image estimator uses and an optional
    character-frequency sketch for string-predicate selectivity.

    ``complete_tags`` records whether the tag universe was complete when
    the stats were collected (catalog documents are shredded over *every*
    tag, so an unknown tag set is provably empty; an instance loaded over
    one query's schema proves nothing about other tags).  String sets are
    only exact when they were part of the schema at collection time —
    otherwise :meth:`tree_count` returns ``None`` and the optimizer must
    treat them as unknown (estimate via the sketch, never fold).
    """

    format_version: int
    #: Exact number of tree nodes ``|V^T|`` (big int).
    tree_nodes: int
    dag_vertices: int
    avg_depth: float
    avg_fanout: float
    avg_subtree: float
    #: Schema sets containing the document root.
    root_sets: tuple[str, ...]
    sets: dict[str, SetStats] = field(default_factory=dict)
    complete_tags: bool = False
    #: Character counts over the document text (most common only).
    chars: dict[str, int] = field(default_factory=dict)
    total_chars: int = 0

    # -- collection ------------------------------------------------------

    @classmethod
    def from_instance(
        cls,
        instance: Instance,
        text: str | None = None,
        complete_tags: bool = False,
    ) -> "DocumentStats":
        """Collect the full catalog from one compressed instance.

        Cost is linear in the DAG (plus big-int arithmetic on the path
        counts): one topological pass computes per-vertex tree
        multiplicities and depth sums top-down, a reverse pass computes
        subtree sizes bottom-up.  ``text`` (when given) feeds the
        character sketch used for string-predicate selectivity.
        """
        from repro.model.schema import is_result, is_temp

        order = instance.topological_order()
        counts: dict[int, int] = {}
        depth_sums: dict[int, int] = {}
        subtree: dict[int, int] = {}
        for vertex in order:
            counts.setdefault(vertex, 0)
            depth_sums.setdefault(vertex, 0)
            if vertex == instance.root:
                counts[vertex] += 1
            multiplier = counts[vertex]
            depths = depth_sums[vertex]
            for child, count in instance.children(vertex):
                counts[child] = counts.get(child, 0) + multiplier * count
                depth_sums[child] = depth_sums.get(child, 0) + count * (
                    depths + multiplier
                )
        internal = 0
        for vertex in reversed(order):
            size = 1
            for child, count in instance.children(vertex):
                size += count * subtree[child]
            subtree[vertex] = size
            if instance.out_degree(vertex):
                internal += counts[vertex]
        tree_nodes = sum(counts.values())
        sets: dict[str, SetStats] = {}
        for name in instance.schema:
            if is_temp(name) or is_result(name):
                continue
            members = instance.members(name)
            tree_count = sum(counts.get(v, 0) for v in members)
            sets[name] = SetStats(
                dag_count=sum(1 for v in members if v in counts),
                tree_count=tree_count,
            )
        avg_depth = (
            _capped(_ratio(sum(depth_sums.values()), tree_nodes))
            if tree_nodes
            else 0.0
        )
        avg_subtree = (
            _capped(_ratio(sum(counts[v] * subtree[v] for v in order), tree_nodes))
            if tree_nodes
            else 0.0
        )
        avg_fanout = _ratio(tree_nodes - 1, internal) if internal else 0.0
        chars: dict[str, int] = {}
        total_chars = 0
        if text is not None:
            total_chars = len(text)
            chars = dict(Counter(text).most_common(_SKETCH_CHARS))
        return cls(
            format_version=STATS_FORMAT_VERSION,
            tree_nodes=tree_nodes,
            dag_vertices=len(order),
            avg_depth=avg_depth,
            avg_fanout=_capped(avg_fanout),
            avg_subtree=avg_subtree,
            root_sets=tuple(
                name
                for name in instance.sets_at(instance.root)
                if not is_temp(name) and not is_result(name)
            ),
            sets=sets,
            complete_tags=complete_tags,
            chars=chars,
            total_chars=total_chars,
        )

    # -- lookups ---------------------------------------------------------

    def tree_count(self, name: str) -> int | None:
        """Exact tree-node count of schema set ``name``, or ``None`` unknown.

        An unknown *tag* is provably empty when the tag universe was
        complete at collection time; an unknown string set is never
        assumed anything (string schemas are per-query, not per-document).
        """
        from repro.model.schema import is_string_set

        entry = self.sets.get(name)
        if entry is not None:
            return entry.tree_count
        if is_string_set(name):
            return None
        return 0 if self.complete_tags else None

    def dag_count(self, name: str) -> int | None:
        from repro.model.schema import is_string_set

        entry = self.sets.get(name)
        if entry is not None:
            return entry.dag_count
        if is_string_set(name):
            return None
        return 0 if self.complete_tags else None

    def is_empty(self, name: str) -> bool:
        """True only when the catalog *proves* ``name`` selects nothing."""
        return self.tree_count(name) == 0

    def root_in(self, name: str) -> bool | None:
        """Whether the root is in set ``name`` (``None`` when unknown)."""
        if name in self.root_sets:
            return True
        if name in self.sets or self.complete_tags:
            from repro.model.schema import is_string_set

            if name in self.sets or not is_string_set(name):
                return False
        return None

    def string_selectivity(self, needle: str) -> float | None:
        """Estimated number of tree nodes matching ``contains(needle)``.

        The crudest sketch that still orders predicates usefully: under a
        character-independence assumption, the expected number of match
        *positions* is ``total_chars * prod(freq(c)/total_chars)``; a node
        matches when its subtree text has at least one position, so the
        node estimate is the position estimate clamped to the node count.
        Assumptions (documented in docs/optimizer.md): character
        independence (wrong for natural language, fine for ordering),
        match positions spread over distinct nodes, and a sketch truncated
        to the most common characters (a missing character estimates as
        frequency 1).  Returns ``None`` without a sketch.
        """
        if not self.total_chars:
            return None
        if not needle:
            return _clamped(self.tree_nodes)
        probability = 1.0
        for char in needle:
            probability *= self.chars.get(char, 1) / self.total_chars
            if probability == 0.0:
                break
        expected = self.total_chars * probability
        return min(_clamped(self.tree_nodes), expected)

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "tree_nodes": self.tree_nodes,
            "dag_vertices": self.dag_vertices,
            "avg_depth": self.avg_depth,
            "avg_fanout": self.avg_fanout,
            "avg_subtree": self.avg_subtree,
            "root_sets": list(self.root_sets),
            "sets": {
                name: [entry.dag_count, entry.tree_count]
                for name, entry in sorted(self.sets.items())
            },
            "complete_tags": self.complete_tags,
            "chars": self.chars,
            "total_chars": self.total_chars,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "DocumentStats":
        """Rebuild persisted statistics; raises ``ValueError`` on a version
        or shape mismatch (callers treat that as "no statistics")."""
        if not isinstance(raw, dict) or raw.get("format_version") != STATS_FORMAT_VERSION:
            found = raw.get("format_version") if isinstance(raw, dict) else raw
            raise ValueError(f"unsupported stats format: {found!r}")
        try:
            return cls(
                format_version=int(raw["format_version"]),
                tree_nodes=int(raw["tree_nodes"]),
                dag_vertices=int(raw["dag_vertices"]),
                avg_depth=float(raw["avg_depth"]),
                avg_fanout=float(raw["avg_fanout"]),
                avg_subtree=float(raw["avg_subtree"]),
                root_sets=tuple(raw["root_sets"]),
                sets={
                    name: SetStats(dag_count=int(pair[0]), tree_count=int(pair[1]))
                    for name, pair in raw["sets"].items()
                },
                complete_tags=bool(raw["complete_tags"]),
                chars={str(k): int(v) for k, v in raw.get("chars", {}).items()},
                total_chars=int(raw.get("total_chars", 0)),
            )
        except (KeyError, TypeError, IndexError) as error:
            raise ValueError(f"malformed stats payload: {error}") from error


def document_stats(
    instance: Instance, text: str | None = None, complete_tags: bool = False
) -> DocumentStats:
    """Convenience wrapper: collect :class:`DocumentStats` for ``instance``."""
    return DocumentStats.from_instance(instance, text=text, complete_tags=complete_tags)
