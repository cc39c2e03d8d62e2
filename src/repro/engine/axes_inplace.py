"""A faithful port of the paper's Figure 4 in-place downward-axis procedure.

This is the literal algorithm of Proposition 3.2: traverse the DAG from the
root visiting each vertex once, pass the desired new selection ``sv`` down,
and *split* a shared child (create a copy, remembered in ``aux_ptr``) when a
second parent requires the opposite selection; for the descendant axes the
copy is recursively re-processed so the selection reaches its subtree.

The primary engine (:mod:`repro.engine.axes_compressed`) computes the set
of vertices to split up front and clones them in one step; this module
exists because the paper's pseudocode is a contribution in itself, and as
the test oracle the two are property-tested equivalent
(``tests/property/test_delta_split.py``).  Like the primary engine it
mutates the instance (vertex ids are stable, copies are appended) and
leaves no garbage: a vertex is first visited from an original, whose edge
to it is never re-pointed.  Copies are numbered in visiting order, so the
two engines agree up to :func:`~repro.model.equivalence.equivalent`.

The recursion of Figure 4 is unrolled onto an explicit stack so arbitrarily
deep DAGs (compressed chains) do not hit Python's recursion limit.
"""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.model import planes as _pl
from repro.model.instance import Instance

_DOWNWARD = ("child", "descendant", "descendant-or-self")


def downward_axis_inplace(instance: Instance, axis: str, source: str, target: str) -> Instance:
    """Figure 4: apply a downward axis, splitting shared vertices as needed."""
    if axis not in _DOWNWARD:
        raise EvaluationError(f"{axis!r} is not a downward axis")
    if instance.has_set(target):
        raise EvaluationError(f"target set {target!r} already exists")
    # Hoisted plane references: planes grow *in place* when splits append
    # vertices, so these locals stay valid across new_vertex_masked calls.
    source_plane = instance.plane_of(source)
    target_index = instance.ensure_set(target)
    target_plane = instance.plane_of(target)
    target_bit = 1 << target_index
    descend = axis in ("descendant", "descendant-or-self")
    or_self = axis == "descendant-or-self"

    visited: dict[int, bool] = {}
    aux: dict[int, int] = {}  # aux_ptr of Figure 4

    def in_source(vertex: int) -> bool:
        return bool(source_plane[vertex >> 6] >> (vertex & 63) & 1)

    def selection(vertex: int) -> bool:
        return bool(target_plane[vertex >> 6] >> (vertex & 63) & 1)

    def set_selection(vertex: int, value: bool) -> None:
        if value:
            target_plane[vertex >> 6] |= 1 << (vertex & 63)
        else:
            target_plane[vertex >> 6] &= _pl.FULL_WORD ^ (1 << (vertex & 63))

    root = instance.root
    initial = in_source(root) if or_self else False

    # Stack frames: [vertex, sv, child_index, mutable edge list].
    stack: list[list] = []

    def open_frame(vertex: int, sv: bool) -> None:
        visited[vertex] = True  # line 1
        set_selection(vertex, sv)  # line 2
        stack.append([vertex, sv, 0, list(instance.children(vertex))])

    open_frame(root, initial)
    while stack:
        frame = stack[-1]
        vertex, sv, index, edges = frame
        if index >= len(edges):
            instance.set_children(vertex, edges)
            stack.pop()
            continue
        child, count = edges[index]
        # Line 4: the selection this parent requires for the child.
        sw = in_source(vertex) or (sv and descend) or (or_self and in_source(child))
        if not visited.get(child, False):
            frame[2] = index + 1
            open_frame(child, sw)  # line 5
        elif selection(child) != sw:  # line 6
            copy = aux.get(child)
            if copy is None:  # line 7 (aux_ptr = 0)
                copy = instance.new_vertex_masked(  # lines 8-9
                    instance.mask(child) ^ target_bit, instance.children(child)
                )
                aux[child] = copy  # line 13
                if descend:  # lines 10-12: re-process the copy's subtree
                    edges[index] = (copy, count)
                    frame[2] = index + 1
                    open_frame(copy, sw)
                    continue
                visited[copy] = True
            edges[index] = (copy, count)  # line 14
            frame[2] = index + 1
        else:
            frame[2] = index + 1
    return instance
