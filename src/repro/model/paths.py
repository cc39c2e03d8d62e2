"""Edge paths (section 2.1): the bridge between an instance and its tree.

An *edge path* from the root to a vertex is the sequence of child positions
``i1 ... in`` taken at each step.  The set of all edge paths of an instance is
exactly the vertex set of its unique equivalent tree ``T(I)``
(Proposition 2.2), so edge paths are how a selection on a compressed DAG is
interpreted as a selection of tree nodes.

Enumerating edge paths is exponential in general (that is the whole point of
the compression), so this module offers:

* :func:`selected_tree_count` / :func:`iter_selected_paths` — the serving
  path.  Figure 7 column (8) of a selection ``S`` is the sum of
  ``|Pi(v)|`` over ``S``'s members, read from :meth:`Instance.path_counts`
  (derived once per structure by a top-down pass: a pool master's, shared
  by its forks, patched by their splits).  A document-order walk that
  descends only into children holding a match (``S`` or a strict ancestor
  of ``S``, :func:`selection_marks`: the one upward pass of Proposition
  3.3), stepping over match-free runs by position arithmetic, decodes the
  first ``k`` selected paths in ``O(k * depth * fan-out)`` on top of that
  pass, never ``O(|tree|)``;
* :func:`tree_node_counts` / :func:`tree_size` — the same table as a dict
  of the reachable vertices, and its sum ``|V^{T(I)}|``;
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

    A dict view of the cached :meth:`Instance.path_counts` table.
    """
    counts = instance.path_counts()
    return {vertex: counts[vertex] for vertex in instance.postorder()}


def tree_size(instance: Instance) -> int:
    """``|V^{T(I)}|``: the number of nodes of the equivalent tree."""
    return sum(instance.path_counts())


def tree_edge_count(instance: Instance) -> int:
    """``|E^{T(I)}|``, which is always ``tree_size - 1``."""
    return tree_size(instance) - 1


def selected_tree_count(instance: Instance, name: str) -> int:
    """How many *tree* nodes the DAG selection ``name`` represents.

    This is the paper's Figure 7 column (8): the sum of ``|Pi(v)|`` over the
    selected DAG vertices ``v``, ``O(words + |S|)``.
    """
    counts = instance.path_counts()
    return sum(counts[vertex] for vertex in _pl.iter_bits(instance.plane_of(name)))


def selection_marks(instance: Instance, plane) -> bytes | bytearray:
    """One byte per vertex id: bit 0 where it is in ``plane``, bit 1 where
    a proper descendant is (a strict ancestor of the selection).

    The ``ancestor`` recurrence (Proposition 3.3): the shared
    :meth:`EdgeCSR.strict_ancestors` kernel on the vector tier — provided
    there are vertices to skip and the level structure is at hand (DESIGN.md
    section 11 has the measurements) — and one pass over the cached
    postorder otherwise.  A non-zero byte is a child the decode enters.
    """
    n = instance.num_vertices
    if vectorized(instance) and n >= _instance.VECTOR_THRESHOLD and instance.has_edge_csr:
        selected = _pl.unpack_bool(plane, n)
        return (selected | instance.edge_csr().strict_ancestors(selected) << 1).tobytes()
    marks = bytearray(n)
    for vertex in _pl.iter_bits(plane):
        marks[vertex] = 1
    table = instance.edge_table()
    for vertex in instance.postorder():
        for child, _ in table[vertex]:
            if marks[child]:
                marks[vertex] |= 2
                break
    return marks


def _matching_children(edges: tuple[Edge, ...], marks):
    """``(position, child)`` for each child slot holding a match, in order."""
    position = 0
    for child, count in edges:
        if marks[child]:
            for position in range(position + 1, position + count + 1):
                yield position, child
        else:
            position += count


def iter_selected_paths(
    instance: Instance, name: str, limit: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(edge_path, vertex)`` per selected tree node, in document order.

    An iterative DFS with one mutable path stack that enters a child only
    when its subtree holds a match (:func:`selection_marks`): ``k``
    results cost ``O(k * depth * fan-out)`` whatever the tree's size.
    ``limit`` bounds the tree nodes *entered*
    (:class:`DecompressionLimitError` beyond it), always a subset of what
    :func:`iter_edge_paths` walks to reach the same results.
    """
    root = instance.root
    marks = selection_marks(instance, instance.plane_of(name))
    if not marks[root]:
        return
    table = instance.edge_table()
    entered = 1
    if marks[root] & 1:
        yield (), root
    path: list[int] = []
    stack = [_matching_children(table[root], marks)]
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
        mark = marks[child]
        if mark & 1:
            yield (*path, position), child
            if not mark & 2:
                continue  # no further match under this node
        path.append(position)
        stack.append(_matching_children(table[child], marks))


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
