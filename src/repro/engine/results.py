"""Decoding query results from compressed instances (Figure 7 columns 5-8).

A query result is a named selection on a (possibly partially decompressed)
instance.  A selected DAG vertex represents all tree nodes that unfold from
it, so the result offers both counts: selected DAG vertices (column 7) and
the tree nodes they stand for (column 8, a sum of the instance's cached
path counts over the selection), plus bounded materialisation of the actual
tree nodes as edge paths, guided by the selection's ancestors — never by
walking the uncompressed tree (:mod:`repro.model.paths`).

Results are **read-only views**: the evaluator hands them a finished
instance and never mutates it afterwards, so every traversal-derived value
(`dag_count`, `tree_count`, `after`) is memoised on first use and
never invalidated.  A :class:`BatchResult` bundles the
per-query results of one batch evaluation, which all share the same final
instance, together with the shared-work statistics of the
common-subexpression cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.model.instance import Instance
from repro.model.paths import iter_selected_paths, selected_tree_count


def reachable_sizes(instance: Instance) -> tuple[int, int]:
    """(vertices, edge entries) of the root-reachable part of ``instance``."""
    if instance.fully_reachable:
        return (instance.num_vertices, instance.num_edge_entries)
    table = instance.edge_table()
    return (instance.num_reachable, sum(len(table[v]) for v in instance.postorder()))


@dataclass
class QueryResult:
    """A selection ``set_name`` on the evaluation's final ``instance``."""

    instance: Instance
    set_name: str
    #: Sizes of the instance before evaluation (vertices, edge entries).
    before: tuple[int, int] = (0, 0)
    #: Wall-clock seconds spent in evaluation (set by the evaluator).
    seconds: float = 0.0
    # Memoised traversal-derived values (results are read-only views, so
    # nothing ever invalidates these).
    _dag_count: int | None = field(default=None, init=False, repr=False, compare=False)
    _after: tuple[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    _tree_count: int | None = field(default=None, init=False, repr=False, compare=False)

    def vertices(self) -> set[int]:
        """The selected DAG vertices (a fresh set; callers may mutate it)."""
        return self.instance.members(self.set_name)

    def dag_count(self) -> int:
        """Figure 7 column (7): #nodes selected in the compressed instance this
        evaluation ended on (the served count is :mod:`repro.api.envelope`'s)."""
        if self._dag_count is None:
            self._dag_count = self.instance.count_set(self.set_name)
        return self._dag_count

    def tree_count(self) -> int:
        """Figure 7 column (8): #tree nodes the selection represents."""
        if self._tree_count is None:
            self._tree_count = selected_tree_count(self.instance, self.set_name)
        return self._tree_count

    @property
    def after(self) -> tuple[int, int]:
        """Instance size after evaluation (vertices, edge entries)."""
        if self._after is None:
            self._after = reachable_sizes(self.instance)
        return self._after

    def is_empty(self) -> bool:
        return self.dag_count() == 0

    def tree_paths(self, limit: int = 1_000_000) -> list[tuple[int, ...]]:
        """Edge paths of all selected tree nodes, in document order.

        The "decode" step the paper describes for column (8): a traversal
        that enters only subtrees holding a match (at most ``limit`` nodes).
        """
        return [path for path, _ in self.iter_tree_matches(limit=limit)]

    def iter_tree_matches(self, limit: int = 1_000_000) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield ``(edge_path, dag_vertex)`` for each selected tree node.

        Lazy and selection-guided: after one upward pass over the DAG (the
        selection's strict ancestors), a prefix of k matches (e.g. via
        ``itertools.islice``) costs O(k * depth * fan-out) wherever they
        lie, on any size of tree.
        """
        return iter_selected_paths(self.instance, self.set_name, limit)

    def decompression_ratio(self) -> float:
        """How much the instance grew during evaluation (1.0 = not at all)."""
        if not self.before[0]:
            return 1.0
        return self.after[0] / self.before[0]

    def summary(self) -> str:
        after = self.after
        return (
            f"query time {self.seconds * 1000:8.2f} ms | instance "
            f"{self.before[0]}v/{self.before[1]}e -> {after[0]}v/{after[1]}e | "
            f"selected {self.dag_count()} dag / {self.tree_count()} tree nodes"
        )


@dataclass
class BatchStats:
    """Shared-work accounting of one batch evaluation.

    ``nodes_total`` counts every algebra-node evaluation the batch *asked*
    for; ``nodes_reused`` of those were answered from the cross-query
    common-subexpression cache without touching the instance, and
    ``nodes_evaluated`` ran for real.  Each axis application that ran is
    counted by the route that served it
    (:func:`repro.engine.axes_compressed.run_axis`): ``frontier_steps``
    read only the selection's own edges, ``whole_steps`` passed over the
    whole instance.
    """

    queries: int = 0
    nodes_total: int = 0
    nodes_evaluated: int = 0
    nodes_reused: int = 0
    frontier_steps: int = 0
    whole_steps: int = 0

    @property
    def sharing_ratio(self) -> float:
        """Fraction of algebra-node evaluations served by the cache."""
        return self.nodes_reused / self.nodes_total if self.nodes_total else 0.0


@dataclass
class BatchResult:
    """Per-query results of one batch evaluation over a shared instance.

    All contained :class:`QueryResult`\\ s point at the *same* final
    instance; each holds its own durable snapshot selection (``#q<i>``), so
    decoding any of them remains valid regardless of which later query
    forced a partial decompression.
    """

    results: list[QueryResult]
    #: Wall-clock seconds for the whole batch (>= sum of per-query times).
    seconds: float = 0.0
    stats: BatchStats = field(default_factory=BatchStats)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]

    @property
    def instance(self) -> Instance:
        """The shared final instance all per-query selections live on."""
        if not self.results:
            raise ValueError("empty batch has no instance")
        return self.results[0].instance

    def summary(self) -> str:
        stats = self.stats
        lines = [
            f"batch of {stats.queries} queries in {self.seconds * 1000:.2f} ms | "
            f"algebra nodes {stats.nodes_evaluated} evaluated / "
            f"{stats.nodes_reused} reused ({100 * stats.sharing_ratio:.0f}% shared)"
        ]
        for index, result in enumerate(self.results):
            lines.append(f"  [{index}] {result.summary()}")
        return "\n".join(lines)
