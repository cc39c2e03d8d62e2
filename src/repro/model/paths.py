"""Edge paths (section 2.1): the bridge between an instance and its tree.

An *edge path* from the root to a vertex is the sequence of child positions
``i1 ... in`` taken at each step.  The set of all edge paths of an instance is
exactly the vertex set of its unique equivalent tree ``T(I)``
(Proposition 2.2), so edge paths are how a selection on a compressed DAG is
interpreted as a selection of tree nodes.

Enumerating edge paths is exponential in general (that is the whole point of
the compression), so this module offers:

* :func:`selection_summary` / :func:`iter_selected_paths` — the serving
  path.  One bottom-up pass computes, for a selection ``S``,
  ``below[v] = [v in S] + sum(m * below[c] for (c, m) in children(v))``:
  the selected tree nodes in the subtree unfolded from ``v`` (exact big
  integers).  ``below[root]`` is Figure 7 column (8), and a document-order
  walk that descends only where ``below > 0`` (stepping over match-free
  runs by position arithmetic) decodes the first ``k`` selected paths in
  ``O(k * depth * fan-out)`` on top of the summary, never ``O(|tree|)``.
  The summary's big-integer recurrence visits only
  ``ancestor-or-self(S)`` on the vector kernel tier — the one part of the
  DAG where ``below`` is non-zero, found by one whole-array upward pass —
  and the whole postorder, ``O(|DAG|)``, on the scalar tier;
* :func:`tree_node_counts` — per-vertex counts ``|Pi(v)|`` by top-down
  dynamic programming (linear in the DAG; one table answers many sets);
* :func:`tree_size` — ``|V^{T(I)}|`` without materialising the tree;
* :func:`iter_edge_paths` / :func:`edge_path_set` — bounded explicit
  enumeration of *every* tree node, the brute-force oracle of the tests.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import DecompressionLimitError
from repro.model import instance as _instance, planes as _pl
from repro.model.instance import Edge, Instance, vectorized


def tree_node_counts(instance: Instance) -> dict[int, int]:
    """For each reachable vertex ``v``, the number of edge paths root -> v.

    ``counts[root] == 1``; an edge ``v -> w`` with multiplicity ``m``
    contributes ``m * counts[v]`` paths to ``w``.  Exact big-integer
    arithmetic — compressed instances can represent astronomically large
    trees.  Independent of any selection, so this is the tool when one
    table answers many sets (``measure_actuals``, :func:`tree_size`,
    compression statistics) — not the serving path, which decodes one
    selection through the cheaper :func:`selection_summary`.
    """
    counts: dict[int, int] = {}
    for vertex in instance.topological_order():
        counts.setdefault(vertex, 0)
        if vertex == instance.root:
            counts[vertex] += 1
        multiplier = counts[vertex]
        for child, count in instance.children(vertex):
            counts[child] = counts.get(child, 0) + multiplier * count
    return counts


def tree_size(instance: Instance) -> int:
    """``|V^{T(I)}|``: the number of nodes of the equivalent tree."""
    return sum(tree_node_counts(instance).values())


def tree_edge_count(instance: Instance) -> int:
    """``|E^{T(I)}|``, which is always ``tree_size - 1``."""
    return tree_size(instance) - 1


def selected_tree_count(instance: Instance, name: str) -> int:
    """How many *tree* nodes the DAG selection ``name`` represents.

    This is the paper's Figure 7 column (8): the sum of ``|Pi(v)|`` over the
    selected DAG vertices ``v``.
    """
    counts = tree_node_counts(instance)
    return sum(counts.get(v, 0) for v in instance.members(name))


def selection_summary(instance: Instance, name: str) -> dict[int, int]:
    """``below[v]``: selected tree nodes in the subtree unfolded from ``v``.

    One pass of the module doc's recurrence over the cached postorder.
    Only non-zero entries are stored: ``v in below`` means "a match at or
    under ``v``", and ``below.get(root, 0)`` is the tree-node count.

    ``below`` is non-zero exactly on the reachable part of
    ``ancestor-or-self(S)`` (Proposition 3.3: one upward pass, no split),
    so on the vector tier the pass skips every other vertex — provided
    there are vertices to skip (a DAG of a few dozen keeps its edge
    entries on the root path, inside every closure) and the level
    structure is at hand, as on every served instance (the pool warms its
    masters and splits patch it): deriving one costs more interpreter time
    than the full walk it would save.  DESIGN.md section 11 has both
    measurements.  The counts stay Python integers on both tiers: they
    outgrow any machine word.
    """
    plane = instance.plane_of(name)
    table = instance.edge_table()
    if (
        vectorized(instance)
        and instance.num_vertices >= _instance.VECTOR_THRESHOLD
        and instance.has_edge_csr
    ):
        selected = _pl.unpack_bool(plane, instance.num_vertices)
        closure = instance.edge_csr().strict_ancestors(selected) | selected
        post = instance.postorder_array()
        order = post[closure[post].view(bool)].tolist()
    else:
        order = instance.postorder()
    below: dict[int, int] = {}
    for vertex in order:
        total = plane[vertex >> 6] >> (vertex & 63) & 1
        for child, count in table[vertex]:
            if child in below:
                total += count * below[child]
        if total:
            below[vertex] = total
    return below


def _matching_children(edges: tuple[Edge, ...], below: dict[int, int]):
    """``(position, child)`` for each child slot holding a match, in order."""
    position = 0
    for child, count in edges:
        if child in below:
            for position in range(position + 1, position + count + 1):
                yield position, child
        else:
            position += count


def iter_selected_paths(
    instance: Instance, name: str, below: dict[int, int], limit: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(edge_path, vertex)`` per selected tree node, in document order.

    ``below`` is :func:`selection_summary` of the same selection.  An
    iterative DFS with one mutable path stack that enters a child only when
    its subtree holds a match: ``k`` results cost ``O(k * depth * fan-out)``
    whatever the tree's size.  ``limit`` bounds the tree nodes *entered*
    (:class:`DecompressionLimitError` beyond it), always a subset of what
    :func:`iter_edge_paths` walks to reach the same results.
    """
    root = instance.root
    if root not in below:
        return
    plane = instance.plane_of(name)
    table = instance.edge_table()
    entered = 1
    if plane[root >> 6] >> (root & 63) & 1:
        yield (), root
    path: list[int] = []
    stack = [_matching_children(table[root], below)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if path:
                path.pop()
            continue
        position, child = step
        entered += 1
        if entered > limit:
            raise DecompressionLimitError(f"result decode exceeded {limit} tree nodes")
        if plane[child >> 6] >> (child & 63) & 1:
            yield (*path, position), child
            if below[child] == 1:
                continue  # no further match under this node
        path.append(position)
        stack.append(_matching_children(table[child], below))


def iter_edge_paths(
    instance: Instance, target: int | None = None, limit: int = 1_000_000
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(vertex, edge_path)`` for *every* tree node, in document order.

    The brute-force oracle of the tests (O(|tree|)); results are decoded by
    :func:`iter_selected_paths`.  Edge positions are 1-based as in the
    paper (``v -i-> w``).  If ``target``
    is given, only paths ending at that vertex are yielded (but the whole
    tree is still walked).  Raises :class:`DecompressionLimitError` after
    ``limit`` tree nodes, since the tree may be exponentially larger than the
    instance.
    """
    produced = 0
    # Iterative DFS over (vertex, path) with explicit expansion of runs.
    stack: list[tuple[int, tuple[int, ...]]] = [(instance.root, ())]
    while stack:
        vertex, path = stack.pop()
        produced += 1
        if produced > limit:
            raise DecompressionLimitError(
                f"edge-path enumeration exceeded limit of {limit} tree nodes"
            )
        if target is None or vertex == target:
            yield vertex, path
        position = instance.out_degree(vertex)
        for child in reversed(list(instance.expanded_children(vertex))):
            stack.append((child, path + (position,)))
            position -= 1


def edge_path_set(instance: Instance, limit: int = 100_000) -> frozenset[tuple[int, ...]]:
    """``Pi(V)``: the set of all edge paths of the instance (bounded)."""
    return frozenset(path for _, path in iter_edge_paths(instance, limit=limit))


def set_path_sets(
    instance: Instance, limit: int = 100_000
) -> dict[str, frozenset[tuple[int, ...]]]:
    """``Pi(S)`` for every set ``S`` of the schema (bounded enumeration)."""
    collected: dict[str, set[tuple[int, ...]]] = {name: set() for name in instance.schema}
    names = instance.schema
    row_masks = instance.row_masks()
    for vertex, path in iter_edge_paths(instance, limit=limit):
        mask = row_masks[vertex]
        for i, name in enumerate(names):
            if mask >> i & 1:
                collected[name].add(path)
    return {name: frozenset(paths) for name, paths in collected.items()}
