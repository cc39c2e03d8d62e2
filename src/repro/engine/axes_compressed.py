"""Axis application directly on compressed instances (section 3.2).

Upward axes (Proposition 3.3) never change the DAG: whether a vertex has a
descendant in ``S`` is a property of its (shared) subtree, so one memoized
bottom-up pass adds the new selection in place.

Downward and sibling axes may need to *split* shared vertices, because the
new selection of a tree node depends on its ancestors/left siblings, which
differ between the tree nodes a shared vertex represents.  The output
instance is (a reachable part of) the product ``V x {0,1}``, where the bit
is the one piece of context the axis needs — "has an ancestor in S" for
descendant axes, "parent is in S" for child, "has a preceding/following
sibling in S" for the sibling axes.  A vertex exists once per reachable
``(vertex, bit)`` state, which makes the at-most-2x growth of Proposition
3.2 and Theorem 3.6 structurally evident.  (The paper's literal in-place
splitting procedure of Figure 4 is in :mod:`repro.engine.axes_inplace`,
the test oracle; both are property-tested equivalent.)

Multiplicity edges: for downward axes the bit is constant along a run, so
runs survive untouched.  For sibling axes a run ``(w, m)`` with ``w in S``
is where multiplicities genuinely interact — occurrences after the first
have a preceding sibling *inside the run* — so a run may split into
``(w,1) + (w', m-1)``, and symmetrically for preceding-sibling.  Note the
precise growth accounting: vertices and *expanded* edges at most double per
operation, but run-length edge *entries* can reach 4x under sibling axes
(run splitting on top of vertex splitting); the paper's "at most doubles"
refers to the expanded counts.

Splitting only what splits (DESIGN.md section 5): an O(|E|) scan computes,
for every reachable vertex, which context bits it receives.  Only a vertex
receiving both differs from the input (none on a tree, none where shared
vertices happen to agree — e.g. ``descendant`` from the root).  Both axis
families clone exactly those vertices in place through the one growth seam
:meth:`Instance.split_vertices` and commit the selection on the grown
instance; existing selections survive because a clone copies its
original's membership row.

Kernel tiers (DESIGN.md section 11): with set memberships stored as
contiguous bit planes, the in-place passes come in two shapes.  When numpy
is active and the instance has at least
:data:`~repro.model.instance.VECTOR_THRESHOLD` edge entries, every pass is
whole-array over the one cached :class:`~repro.model.instance.EdgeCSR`:
unpack the source plane to a bool vector once, then either one
gather/scatter per level (ascending for downward propagation, descending for
upward) or — where the recurrence stays inside one edge list — one pass over
the whole columns: a single scatter for ``parent`` and the ``child`` scan, a
prefix sum segmented by edge list for the sibling flag scan.  The result is
packed back into the
target plane at the end.  Below the threshold, or without numpy, the scalar
loops walk the cached traversal orders reading single plane bits — the
historical shape, still O(|E|), and the reference the vector tier is
property-tested against.
"""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.model import planes as _pl
from repro.model.instance import Instance, vectorized


def warm(instance: Instance) -> None:
    """Derive the structure caches the axis kernels and result counts read.

    For a resident master: :meth:`Instance.copy` shares what exists at copy
    time, and splits patch the caches from then on, so a working copy of a
    warmed master never derives one from scratch.
    """
    instance.postorder()
    instance.path_counts()
    if vectorized(instance):
        instance.postorder_array()
        instance.edge_csr().runs()


def _restrict_reachable(instance: Instance, plane) -> None:
    """``plane &= reachable`` unless every vertex is reachable anyway."""
    if not instance.fully_reachable:
        _pl.intersect_into(plane, instance.reachable_plane())


def apply_axis(instance: Instance, axis: str, source: str, target: str) -> Instance:
    """Apply ``axis`` to set ``source``, adding the result as set ``target``.

    Every axis mutates ``instance`` in place and returns it — always the
    object passed in; the downward and sibling axes append one clone per
    vertex that splits.  ``target`` must not already exist.
    """
    if instance.has_set(target):
        raise EvaluationError(f"target set {target!r} already exists")
    source_plane = instance.plane_of(source)
    live = _pl.copy_plane(source_plane)
    _restrict_reachable(instance, live)
    if not _pl.any_bit(live):
        # chi(empty) = empty for every axis: add an empty target set without
        # touching the structure (a common case for queries over tags the
        # document does not use).
        instance.ensure_set(target)
        return instance
    if axis == "self":
        return _self(instance, live, target)
    if axis == "parent":
        return _parent(instance, source, target)
    if axis == "ancestor":
        return _ancestor(instance, source, target, or_self=False)
    if axis == "ancestor-or-self":
        return _ancestor(instance, source, target, or_self=True)
    if axis in ("child", "descendant", "descendant-or-self"):
        return _downward(instance, axis, source, target)
    if axis == "following-sibling":
        return _sibling(instance, source, target, following=True)
    if axis == "preceding-sibling":
        return _sibling(instance, source, target, following=False)
    if axis == "following":
        return _composite(instance, source, target, ("ancestor-or-self", "following-sibling", "descendant-or-self"))
    if axis == "preceding":
        return _composite(instance, source, target, ("ancestor-or-self", "preceding-sibling", "descendant-or-self"))
    raise EvaluationError(f"unknown axis {axis!r}")


def _composite(instance: Instance, source: str, target: str, chain) -> Instance:
    """following/preceding via the section 3.2 composition, through temps.

    The first stage is an upward pass and the later stages usually split
    nothing, so all three stages share the instance's cached orders
    (mask-only passes do not invalidate them); the temporaries are then
    dropped in a single :meth:`Instance.drop_sets` pass.
    """
    current = source
    temps = []
    for index, axis in enumerate(chain):
        name = f"{target}~{index}" if index < len(chain) - 1 else target
        apply_axis(instance, axis, current, name)
        if current != source:
            temps.append(current)
        current = name
    instance.drop_sets(temps)
    return instance


# ----------------------------------------------------------------------
# Upward axes: in place, one pass, no splitting (Proposition 3.3)
# ----------------------------------------------------------------------


def _self(instance: Instance, live, target: str) -> Instance:
    # ``live`` is already source & reachable: one plane OR commits the axis.
    _pl.or_into(instance.ensure_plane(target), live)
    return instance


def _parent(instance: Instance, source: str, target: str) -> Instance:
    source_plane = instance.plane_of(source)
    if vectorized(instance):
        numpy = _pl._numpy
        esrc, edst = instance.edge_csr().np_arrays()
        # One gather + one scatter: a vertex is selected iff any of its
        # run-length edges points into S.  No level schedule needed.
        source_bool = _pl.unpack_bool(source_plane, instance.num_vertices)
        selected = numpy.zeros(instance.num_vertices, dtype=numpy.uint8)
        selected[esrc[source_bool[edst].astype(bool)]] = 1
        _pl.or_into(
            instance.ensure_plane(target), _pl.pack_bool(selected, instance.nwords)
        )
        return instance
    target_plane = instance.ensure_plane(target)
    children = instance.edge_table()
    for vertex in instance.postorder():
        for child, _ in children[vertex]:
            if source_plane[child >> 6] >> (child & 63) & 1:
                target_plane[vertex >> 6] |= 1 << (vertex & 63)
                break
    return instance


def _ancestor(instance: Instance, source: str, target: str, or_self: bool) -> Instance:
    source_plane = instance.plane_of(source)
    if vectorized(instance):
        # The recurrence is the same for both variants: or-self only changes
        # the final commit (strict | S), not what flows upward.
        strict = instance.edge_csr().strict_ancestors(
            _pl.unpack_bool(source_plane, instance.num_vertices)
        )
        result = _pl.pack_bool(strict, instance.nwords)
        if or_self:
            _pl.or_into(result, source_plane)
            _restrict_reachable(instance, result)
        _pl.or_into(instance.ensure_plane(target), result)
        return instance
    target_plane = instance.ensure_plane(target)
    children = instance.edge_table()
    # Children before parents: selection flows upward.
    for vertex in instance.postorder():
        selected = bool(
            or_self and source_plane[vertex >> 6] >> (vertex & 63) & 1
        )
        if not selected:
            for child, _ in children[vertex]:
                word, shift = child >> 6, child & 63
                if (source_plane[word] | target_plane[word]) >> shift & 1:
                    selected = True
                    break
        # ancestor-or-self additionally keeps S itself selected.
        if selected:
            target_plane[vertex >> 6] |= 1 << (vertex & 63)
    return instance


# ----------------------------------------------------------------------
# Downward axes: delta split of the (vertex, bit) product (Proposition 3.2)
# ----------------------------------------------------------------------


def _downward(instance: Instance, axis: str, source: str, target: str) -> Instance:
    """Scan, split, commit — in place (DESIGN.md section 5).

    The *scan* computes which product states ``(vertex, bit)`` are
    reachable: ``has0``/``has1`` per vertex, where a state-0 parent hands
    its children the bit ``[parent in S]`` and a state-1 parent hands them
    1 under the descendant axes and ``[parent in S]`` under ``child``.  Only
    vertices holding *both* states split: each gets one clone for state 1,
    and ``redirect`` tells :meth:`Instance.split_vertices` which vertices
    (per final id) hand their children bit 1, i.e. point at the clones.  The
    selection is then the state-1 vertices — plus ``S`` itself for or-self.
    """
    descend = axis != "child"
    or_self = axis == "descendant-or-self"
    source_plane = instance.plane_of(source)
    nvertices = instance.num_vertices
    if vectorized(instance):
        numpy = _pl._numpy
        in_source = _pl.unpack_bool(source_plane, nvertices)
        has0 = numpy.zeros(nvertices, dtype=numpy.uint8)
        has1 = numpy.zeros(nvertices, dtype=numpy.uint8)
        has0[instance.root] = 1
        csr = instance.edge_csr()
        esrc, edst = csr.np_arrays()
        if descend:
            # Levels ascending: both state flags of a parent are final once
            # its level is reached, because all of its in-edges fired
            # earlier.
            for start, end in csr.spans:
                src = esrc[start:end]
                dst = edst[start:end]
                member = in_source[src]
                has1[dst[(member | has1[src]).astype(bool)]] = 1
                has0[dst[has0[src] > member]] = 1
        else:
            # The child bit depends only on the parent's own membership, so
            # no level schedule is needed: one scatter over all the edges.
            member = in_source[esrc].astype(bool)
            has1[edst[member]] = 1
            has0[edst[~member]] = 1
        only1 = has1 > has0
        originals = numpy.flatnonzero(has0 & has1)
        selected = only1 | (in_source & has0) if or_self else only1
        if len(originals):
            redirect = in_source | only1 if descend else in_source
            cloned = numpy.ones(len(originals), dtype=numpy.uint8)
            instance.split_vertices(
                originals.tolist(),
                numpy.concatenate((redirect, cloned if descend else in_source[originals])),
            )
            selected = numpy.concatenate((selected, cloned))
        _pl.or_into(
            instance.ensure_plane(target), _pl.pack_bool(selected, instance.nwords)
        )
        return instance
    children = instance.edge_table()
    has0 = bytearray(nvertices)
    has1 = bytearray(nvertices)
    redirect = bytearray(nvertices)
    has0[instance.root] = 1
    originals: list[int] = []
    selected: list[int] = []
    # Parents precede their children in the topological order, so both
    # state flags of a vertex are final when it is visited.
    for vertex in instance.topological_order():
        member = source_plane[vertex >> 6] >> (vertex & 63) & 1
        zero = has0[vertex]
        if zero and has1[vertex]:
            originals.append(vertex)
        if not zero or (or_self and member):
            selected.append(vertex)
        redirect[vertex] = member or (descend and not zero)
        edges = children[vertex]
        if zero:
            received = has1 if member else has0
            for child, _ in edges:
                received[child] = 1
        if has1[vertex]:
            received = has1 if member or descend else has0
            for child, _ in edges:
                received[child] = 1
    if originals:
        originals.sort()  # clone ids follow vertex ids, as on the vector tier
        redirect.extend(
            descend or source_plane[vertex >> 6] >> (vertex & 63) & 1 for vertex in originals
        )
        first = instance.split_vertices(originals, redirect)
        selected.extend(range(first, first + len(originals)))
    target_plane = instance.ensure_plane(target)
    for vertex in selected:
        target_plane[vertex >> 6] |= 1 << (vertex & 63)
    return instance


# ----------------------------------------------------------------------
# Sibling axes: delta split with per-run splitting (Proposition 3.4)
# ----------------------------------------------------------------------


def _sibling(instance: Instance, source: str, target: str, following: bool) -> Instance:
    """Scan, split, commit — in place, like :func:`_downward`.

    The context bit is per *position*: "a sibling before (after, for
    ``preceding-sibling``) this occurrence is in S".  Along an edge list
    the first occurrence of a run ``(w, m)`` gets the flag "an earlier
    entry is in S" and the other ``m - 1`` get ``flag | [w in S]``, so a
    run that straddles the flip hands ``w`` both bits by itself.  The
    scalar tier carries the flag down each list; the vector tier reads it
    off two prefix sums over ``S[edst]``, because an edge list is one
    contiguous, child-ordered stretch of the :class:`EdgeCSR` columns
    (also after a downward split patched them).  Vertices holding both
    bits are cloned for bit 1 and only the parents owning one have their
    edge tuples rewritten: a bit-1 occurrence points at the clone and a
    straddling run becomes ``(w, 1) + (w', m - 1)`` (mirrored for
    ``preceding-sibling``).  The bit never depends on the parent's own bit,
    so a split parent and its clone share the rewritten tuple.
    """
    source_plane = instance.plane_of(source)
    children = instance.edge_table()
    order = instance.postorder()
    nvertices = instance.num_vertices
    vector = vectorized(instance)
    if vector:
        numpy = _pl._numpy
        csr = instance.edge_csr()
        edst = csr.np_arrays()[1]
        multi, starts, sizes = csr.runs()
        member = _pl.unpack_bool(source_plane, nvertices)[edst]
        # before[e] = entries in S ahead of e in the flat order; an edge
        # list is one contiguous stretch of it, so a difference of two
        # prefix sums counts the siblings in S on either side of e.
        before = numpy.zeros(len(edst) + 1, dtype=numpy.intp)
        numpy.cumsum(member, out=before[1:])
        if following:
            flagged = before[:-1] > numpy.repeat(before[starts], sizes)
        else:
            flagged = numpy.repeat(before[starts + sizes], sizes) > before[1:]
        got0 = numpy.zeros(nvertices, dtype=numpy.uint8)
        got1 = numpy.zeros(nvertices, dtype=numpy.uint8)
        got0[instance.root] = 1
        got1[edst[flagged]] = 1
        got0[edst[~flagged]] = 1
        got1[edst[~flagged & multi & member.view(bool)]] = 1  # the run itself splits
        originals = numpy.flatnonzero(got0 & got1).tolist()
        selected = got1 > got0
    else:
        got0 = bytearray(nvertices)
        got1 = bytearray(nvertices)
        got0[instance.root] = 1
        for vertex in order:
            edges = children[vertex]
            flag = 0
            for child, count in edges if following else reversed(edges):
                if flag:
                    got1[child] = 1
                    continue
                got0[child] = 1
                if source_plane[child >> 6] >> (child & 63) & 1:
                    flag = 1
                    if count > 1:
                        got1[child] = 1  # the run itself splits
        originals = sorted(vertex for vertex in order if got0[vertex] and got1[vertex])
        selected = [vertex for vertex in order if got1[vertex] > got0[vertex]]
    if originals:  # sorted: clone ids follow vertex ids, as in _downward
        first = nvertices
        clone_of = {vertex: first + i for i, vertex in enumerate(originals)}
        rewritten: dict[int, tuple] = {}
        for vertex in order:
            edges = children[vertex]
            if clone_of.keys().isdisjoint([child for child, _ in edges]):
                continue
            runs = []
            flag = 0
            for child, count in edges if following else reversed(edges):
                clone = clone_of.get(child, child)
                if flag:
                    runs.append((clone, count))
                    continue
                flag = source_plane[child >> 6] >> (child & 63) & 1
                if flag and count > 1:
                    runs.extend([(child, 1), (clone, count - 1)])
                else:
                    runs.append((child, count))
            rewritten[vertex] = tuple(runs if following else reversed(runs))
        instance.split_vertices(originals, rewritten=rewritten)
    if vector:
        selected = numpy.concatenate((selected, numpy.ones(len(originals), dtype=bool)))
        _pl.or_into(instance.ensure_plane(target), _pl.pack_bool(selected, instance.nwords))
        return instance
    selected.extend(range(nvertices, instance.num_vertices))
    target_plane = instance.ensure_plane(target)
    for vertex in selected:
        target_plane[vertex >> 6] |= 1 << (vertex & 63)
    return instance
