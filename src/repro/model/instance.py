"""The sigma-instance data structure (section 2.1 of the paper).

An instance is a tuple ``(V, gamma, root, S_1 ... S_n)`` where ``gamma`` maps
each vertex to the *ordered sequence* of its children, the induced directed
graph is acyclic with a single root, and each ``S_i`` is a vertex subset named
by the schema.  Both uncompressed XML skeletons (trees) and their compressed
DAG versions are values of this one type.

Representation choices (see DESIGN.md sections 4 and 11):

* vertices are dense integers ``0 .. num_vertices-1``;
* child sequences are stored run-length encoded as ``(child, count)`` pairs —
  the *edge multiplicities* of Figure 1(c); ``count >= 1`` and adjacent
  entries with the same child are merged by :meth:`Instance.set_children`;
* set membership is **transposed** into contiguous bit planes: each schema
  set owns one fixed-width ``array('Q')`` (bit ``v`` = membership of vertex
  ``v``; see :mod:`repro.model.planes`), so whole-set algebra, emptiness
  tests and set dropping are word operations instead of per-vertex loops,
  and a plane's bytes are exactly what the succinct on-disk skeleton format
  stores and maps back.

The row-mask view survives as an *interface*: :meth:`mask`,
:meth:`set_mask` and :meth:`new_vertex_masked` still speak per-vertex
integer bitmasks (bit position = schema position), which keeps the
compressor's hash-consing key a cheap ``(mask, children)`` tuple.  Reading
one row mask gathers across all planes (O(S)); writers that need many rows
should use :meth:`row_masks`.

The structure is mutable: the query engine adds selections (new sets) and
splits shared vertices during partial decompression.  Use :meth:`copy` when
an evaluation must not disturb its input.

Four facilities keep the query engine's constant factors down (DESIGN.md
sections 5 and 11):

* *bulk plane operations* (:meth:`combine_sets`, :meth:`fill_set`,
  :meth:`clear_sets`, :meth:`drop_sets`) run word-at-a-time over whole
  planes; dropping a set is now just deleting its plane — no mask
  compaction pass at all;
* *cached traversals*: :meth:`preorder`/:meth:`postorder` memoise their
  result, invalidated by a structural generation counter that every
  structure-mutating method bumps.  Callers must treat the returned lists
  as read-only.
* *cached edge structure*: :meth:`edge_csr` memoises the one flat edge
  list every vectorised axis kernel reads — grouped into levels, each
  vertex's entries contiguous and in child order, run flags alongside;
  :meth:`reachable_plane` memoises the reachable vertex set as a plane.
  Both are structural, so :meth:`copy` shares them like the traversal
  caches.
* *cached path counts*: :meth:`path_counts` memoises ``|Pi(v)|``, the
  root-to-``v`` edge paths of every vertex (Proposition 2.2), so a
  selection's tree-node count is a sum over its members, not a walk.

The general mutators drop every cache; :meth:`split_vertices`, the
structural step of partial decompression, patches them instead.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from repro.errors import InstanceError, SchemaError
from repro.model import planes as _pl

#: A run-length encoded edge: ``(child vertex, multiplicity)``.
Edge = tuple[int, int]

#: Minimum run-length edge entries before the numpy whole-array kernels pay
#: for themselves; tiny instances (the paper's Figure 1 scale) stay on the
#: scalar loops.
VECTOR_THRESHOLD = 256


def vectorized(instance: "Instance") -> bool:
    """True when ``instance`` is served by the vector kernel tier."""
    return _pl.numpy_active() and instance.num_edge_entries >= VECTOR_THRESHOLD


def normalize_edges(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """Merge adjacent runs with equal targets and validate multiplicities.

    ``[(a, 2), (a, 3), (b, 1)]`` becomes ``((a, 5), (b, 1))``.  Entries with
    ``count == 0`` are dropped; negative counts are rejected.
    """
    out: list[Edge] = []
    for child, count in edges:
        if count < 0:
            raise InstanceError(f"negative edge multiplicity {count} to vertex {child}")
        if count == 0:
            continue
        if out and out[-1][0] == child:
            out[-1] = (child, out[-1][1] + count)
        else:
            out.append((child, count))
    return tuple(out)


def expand_edges(edges: Iterable[Edge]) -> Iterator[int]:
    """Yield the child sequence with multiplicities expanded."""
    for child, count in edges:
        for _ in range(count):
            yield child


class EdgeCSR:
    """The reachable edge entries of an instance as flat, level-grouped columns.

    ``esrc[i]``/``edst[i]`` are the parent and child of the ``i``-th
    run-length edge entry and ``emulti[i]`` is 1 where its multiplicity
    exceeds one (all a sibling scan asks of a run; a flag cannot overflow a
    machine column where an exact multiplicity, a Python int, could).

    The entries are grouped by a *level assignment with every parent
    strictly above its children*: ``spans[L] = (start, end)`` delimits the
    entries whose parent sits at level ``L``, so iterating spans in order
    gives a level-synchronous schedule for downward propagation, and
    iterating them reversed gives one for upward propagation.  Freshly
    derived, a vertex's level is its longest-path depth; a clone made by
    :meth:`Instance.split_vertices` inherits its original's level (its
    parents are parents of the original or their clones, its children the
    original's or their clones).

    Invariant, for freshly derived and :meth:`split`-patched arrays alike:
    **a vertex's entries are contiguous and in child order** — what the
    sibling flag scan, a prefix sum segmented by :meth:`runs`, relies on.

    Built once per structure and shared by :meth:`Instance.copy`; strictly
    read-only — a downward :meth:`Instance.split_vertices` replaces it by a
    patched copy (:meth:`split`) instead of re-deriving it.
    """

    __slots__ = ("esrc", "edst", "emulti", "spans", "_np", "_runs")

    def __init__(self, esrc, edst, emulti, spans: list[tuple[int, int]]):
        self.esrc = esrc
        self.edst = edst
        self.emulti = emulti
        self.spans = spans
        self._np: tuple | None = None
        self._runs: tuple | None = None

    def np_arrays(self):
        """``(esrc, edst)`` as numpy intp arrays, built lazily, memoised."""
        if self._np is None:
            numpy = _pl._numpy
            self._np = (
                numpy.asarray(self.esrc, dtype=numpy.intp),
                numpy.asarray(self.edst, dtype=numpy.intp),
            )
        return self._np

    def runs(self):
        """``(multi, starts, sizes)``, memoised (numpy tier).

        ``multi`` is :attr:`emulti` as a bool array; edge list ``k`` — the
        entries of one vertex — is ``[starts[k], starts[k] + sizes[k])``,
        found from where ``esrc`` changes, which is what the class
        invariant buys: no pass over the edge table.
        """
        if self._runs is None:
            numpy = _pl._numpy
            esrc = self.np_arrays()[0]
            opens = numpy.ones(len(esrc), dtype=bool)
            opens[1:] = esrc[1:] != esrc[:-1]
            starts = numpy.flatnonzero(opens)
            self._runs = (
                numpy.frombuffer(self.emulti, dtype=bool),
                starts,
                numpy.diff(starts, append=len(esrc)),
            )
        return self._runs

    def split(self, remap, redirect) -> "EdgeCSR":
        """The patched copy after a vertex split (numpy tier).

        ``remap[v]`` is the clone of ``v`` (``v`` itself when it is not
        split) and ``redirect`` the per-vertex flag of
        :meth:`Instance.split_vertices`: a flagged parent's entries follow
        their child to its clone, and every split vertex's entries and run
        flags are copied, in order, for its clone — inserted at the end of
        its original's level.  ``owned`` is ascending, so each clone's copy
        is one in-order stretch: the contiguity invariant survives.
        """
        numpy = _pl._numpy
        esrc, edst = self.np_arrays()
        moved = remap[edst]
        owned = numpy.flatnonzero(remap[esrc] != esrc)
        clone_src = remap[esrc[owned]]
        clone_dst = numpy.where(redirect[clone_src], moved[owned], edst[owned])
        multi = numpy.frombuffer(self.emulti, dtype=numpy.uint8)
        ends = numpy.array([end for _, end in self.spans], dtype=numpy.intp)
        level = numpy.searchsorted(ends, owned, side="right")
        at = ends[level]
        ends += numpy.cumsum(numpy.bincount(level, minlength=len(ends)))
        bounds = [0, *ends.tolist()]
        return EdgeCSR(
            numpy.insert(esrc, at, clone_src),
            numpy.insert(numpy.where(redirect[esrc], moved, edst), at, clone_dst),
            numpy.insert(multi, at, multi[owned]),
            list(zip(bounds, bounds[1:])),
        )

    def strict_ancestors(self, selected):
        """``strict[v]`` = "``v`` has a proper descendant in ``selected``".

        The ``ancestor`` recurrence (Proposition 3.3) over uint8 0/1
        vectors, numpy tier.  Levels descending: every child sits at a
        strictly greater level than its parents, so ``strict[child]`` is
        final before any of the child's in-edges fire.
        """
        numpy = _pl._numpy
        esrc, edst = self.np_arrays()
        strict = numpy.zeros(len(selected), dtype=numpy.uint8)
        for start, end in reversed(self.spans):
            if start == end:
                continue
            dst = edst[start:end]
            hit = (selected[dst] | strict[dst]).astype(bool)
            strict[esrc[start:end][hit]] = 1
        return strict


class Instance:
    """A rooted, ordered, acyclic sigma-instance with multiplicity edges."""

    __slots__ = (
        "_schema",
        "_bits",
        "_children",
        "_planes",
        "_nwords",
        "_nedge_entries",
        "_root",
        "_origin",
        "_generation",
        "_pre_cache",
        "_post_cache",
        "_post_array",
        "_reach_cache",
        "_csr_cache",
        "_count_cache",
    )

    def __init__(self, schema: Iterable[str] = ()):
        self._schema: list[str] = []
        self._bits: dict[str, int] = {}
        self._planes: list[array] = []
        self._nwords: int = 0
        for name in schema:
            self.ensure_set(name)
        self._children: list[tuple[Edge, ...]] = []
        self._nedge_entries: int = 0
        self._root: int = -1
        #: ``_origin[v]`` = the vertex ``v`` stood for in the instance this
        #: one was forked from; ``None`` = identity (see :meth:`count_origins`).
        self._origin: list[int] | None = None
        self._generation: int = 0
        self._pre_cache: list[int] | None = None
        self._post_cache: list[int] | None = None
        self._post_array = None  # _post_cache as a numpy intp array
        self._reach_cache: array | None = None
        self._csr_cache: EdgeCSR | None = None
        self._count_cache: list[int] | None = None

    @classmethod
    def from_parts(
        cls,
        schema: Sequence[str],
        children: list[tuple[Edge, ...]],
        plane_list: list[array],
        nwords: int,
        root: int,
    ) -> "Instance":
        """Adopt pre-built columns wholesale (the RSKL skeleton fast path).

        ``children`` and every plane are adopted, not copied; planes must
        all be ``nwords`` long with no bits at or above ``len(children)``.
        """
        if len(plane_list) != len(schema):
            raise InstanceError(
                f"{len(plane_list)} planes for {len(schema)} schema sets"
            )
        if nwords < _pl.words_for(len(children)):
            raise InstanceError(
                f"{nwords} words cannot hold {len(children)} vertex bits"
            )
        for plane in plane_list:
            if len(plane) != nwords:
                raise InstanceError("plane width disagrees with nwords")
        instance = cls.__new__(cls)
        instance._schema = list(schema)
        instance._bits = {name: i for i, name in enumerate(instance._schema)}
        if len(instance._bits) != len(instance._schema):
            raise InstanceError("duplicate set name in schema")
        instance._planes = plane_list
        instance._nwords = nwords
        instance._children = children
        instance._nedge_entries = sum(len(edges) for edges in children)
        instance._root = root
        instance._origin = None
        instance._generation = 0
        instance._pre_cache = None
        instance._post_cache = None
        instance._post_array = None
        instance._reach_cache = None
        instance._csr_cache = None
        instance._count_cache = None
        if children:
            instance._check_vertex(root)
        return instance

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------

    @property
    def schema(self) -> tuple[str, ...]:
        """The schema as an ordered tuple of set names (order = bit position)."""
        return tuple(self._schema)

    def has_set(self, name: str) -> bool:
        """True if ``name`` is in the schema."""
        return name in self._bits

    def bit_of(self, name: str) -> int:
        """Bit position of set ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._bits[name]
        except KeyError:
            raise SchemaError(f"set {name!r} is not in the schema {self._schema!r}") from None

    def ensure_set(self, name: str) -> int:
        """Add ``name`` to the schema if missing; return its bit position."""
        if not name:
            raise SchemaError("set names must be non-empty")
        bit = self._bits.get(name)
        if bit is None:
            bit = len(self._schema)
            self._schema.append(name)
            self._bits[name] = bit
            self._planes.append(_pl.new_plane(self._nwords))
        return bit

    def drop_set(self, name: str) -> None:
        """Remove set ``name`` from the schema."""
        self.drop_sets((name,))

    def drop_sets(self, names: Iterable[str]) -> None:
        """Remove several sets from the schema in one pass.

        With transposed planes a dropped set is simply a deleted plane;
        surviving sets keep their planes untouched and only their bit
        positions shift.  Duplicate and adjacent names are handled
        uniformly (the historical mask-compaction segments were
        order-sensitive; planes make the question moot).
        """
        dropped = {self.bit_of(name) for name in dict.fromkeys(names)}
        if not dropped:
            return
        self._schema = [name for i, name in enumerate(self._schema) if i not in dropped]
        self._planes = [plane for i, plane in enumerate(self._planes) if i not in dropped]
        self._bits = {n: i for i, n in enumerate(self._schema)}

    def truncate_sets(self, width: int) -> None:
        """Drop every set at schema position ``width`` or later, in O(dropped).

        The working-fork rollback: the sets added since the schema was
        ``width`` wide are exactly those past it, as long as none of the
        first ``width`` was dropped in between.
        """
        for name in self._schema[width:]:
            del self._bits[name]
        del self._schema[width:]
        del self._planes[width:]

    def clear_sets(self, names: Iterable[str]) -> None:
        """Empty several sets (schema unchanged); one plane wipe per set."""
        for bit in {self.bit_of(name) for name in dict.fromkeys(names)}:
            _pl.zero(self._planes[bit])

    # ------------------------------------------------------------------
    # Vertices and edges
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._children)

    @property
    def root(self) -> int:
        """The root vertex; raises if unset."""
        if self._root < 0:
            raise InstanceError("instance has no root (call set_root)")
        return self._root

    @property
    def has_root(self) -> bool:
        return self._root >= 0

    @property
    def generation(self) -> int:
        """Structural generation: bumped by every mutation of the DAG shape.

        Mask-only updates (set membership) do not count — traversal orders
        depend only on ``_children`` and the root.
        """
        return self._generation

    def _touch(self) -> None:
        """Invalidate structure-derived caches after a structural mutation."""
        self._generation += 1
        self._pre_cache = None
        self._post_cache = None
        self._post_array = None
        self._reach_cache = None
        self._csr_cache = None
        self._count_cache = None

    def _grow(self, nbits: int) -> None:
        """Ensure every plane can hold ``nbits`` vertex bits (doubling)."""
        needed = _pl.words_for(nbits)
        if needed <= self._nwords:
            return
        nwords = self._nwords or 1
        while nwords < needed:
            nwords <<= 1
        for plane in self._planes:
            _pl.grow_plane(plane, nwords)
        self._nwords = nwords

    def set_root(self, vertex: int) -> None:
        self._check_vertex(vertex)
        self._root = vertex
        self._touch()

    def new_vertex(self, sets: Iterable[str] = (), children: Iterable[Edge] = ()) -> int:
        """Create a vertex, optionally with set memberships and children.

        Children must already exist, which enforces acyclicity for instances
        built bottom-up.  (Top-down construction can use
        :meth:`set_children` later; :meth:`validate` re-checks acyclicity.)
        """
        mask = 0
        for name in sets:
            mask |= 1 << self.ensure_set(name)
        vertex = self.new_vertex_masked(mask)
        if children:
            self.set_children(vertex, children)
        return vertex

    def new_vertex_masked(self, mask: int, children: tuple[Edge, ...] = ()) -> int:
        """Fast-path vertex creation from a precomputed mask and normalized edges."""
        vertex = len(self._children)
        self._children.append(children)
        self._nedge_entries += len(children)
        if vertex >= self._nwords << 6:
            self._grow(vertex + 1)
        if mask:
            plane_list = self._planes
            if mask >> len(plane_list):
                raise SchemaError(
                    f"mask {mask:#x} has bits outside the {len(plane_list)}-set schema"
                )
            word = vertex >> 6
            bit = 1 << (vertex & 63)
            while mask:
                low = mask & -mask
                plane_list[low.bit_length() - 1][word] |= bit
                mask ^= low
        self._touch()
        return vertex

    def set_children(self, vertex: int, edges: Iterable[Edge]) -> None:
        """Replace the child sequence of ``vertex`` (normalizing runs)."""
        self._check_vertex(vertex)
        normalized = normalize_edges(edges)
        for child, _ in normalized:
            self._check_vertex(child)
        self._nedge_entries += len(normalized) - len(self._children[vertex])
        self._children[vertex] = normalized
        self._touch()

    def split_vertices(
        self,
        originals: Sequence[int],
        redirect=None,
        *,
        rewritten: dict[int, tuple[Edge, ...]] | None = None,
    ) -> int:
        """Clone every vertex of ``originals``; return the first clone's id.

        The structural step of partial decompression (Propositions 3.2 and
        3.4) and the one place an evaluation grows an instance: clone ``i``
        gets id ``first + i`` (``first`` = :attr:`num_vertices` before the
        call) and the membership row of ``originals[i]``.  The caller says
        which edges follow the clones in one of two ways:

        * ``redirect`` (downward axes) holds one 0/1 byte per vertex id,
          clones included: a flagged vertex has each of its edges into
          ``originals`` re-pointed at the matching clone, an unflagged one
          keeps its — for a clone, its original's — child sequence;
        * ``rewritten`` (sibling axes, where the bit is per position and a
          run can split) maps each vertex owning an edge into ``originals``
          to its new, normalized child sequence in final ids; a clone takes
          its original's new sequence.

        Nothing else changes.  The caller guarantees that all ``originals``
        are reachable and that each keeps a reachable parent edge and its
        clone gains one, so no vertex becomes garbage.

        Structure caches are never mutated (:meth:`copy` shares them).  A
        clone's parents are parents of its original or their clones, and
        its children are the original's or their clones, so it can sit
        right after its original in the cached postorder and inherit its
        level in the :class:`EdgeCSR`.  The postorder (list and array) is
        always patched; the :class:`EdgeCSR` is patched under ``redirect``
        on the numpy tier (:meth:`EdgeCSR.split`) and dropped otherwise —
        under ``rewritten`` run splitting changes the entry count.  Each
        clone also inherits its original's origin (:meth:`count_origins`).
        The path counts are patched too (:func:`_split_path_counts`).
        """
        table = self._children
        first = len(table)
        origin = self._origin
        if origin is None:
            origin = self._origin = list(range(first))
        origin.extend([origin[vertex] for vertex in originals])
        clone_of = {vertex: first + i for i, vertex in enumerate(originals)}
        csr = self._csr_cache
        self._csr_cache = None
        counts = self._count_cache
        self._count_cache = None
        if rewritten is not None:
            clone_edges = [rewritten.get(vertex, table[vertex]) for vertex in originals]
        else:
            if _pl.numpy_active() and csr is not None:
                numpy = _pl._numpy
                remap = numpy.arange(first, dtype=numpy.intp)
                remap[originals] = numpy.arange(first, first + len(originals))
                flags = numpy.frombuffer(redirect, dtype=numpy.uint8)
                esrc, edst = csr.np_arrays()
                parents = numpy.unique(
                    esrc[flags[esrc].astype(bool) & (remap[edst] != edst)]
                ).tolist()
                self._csr_cache = csr.split(remap, flags)
            else:
                parents = [
                    vertex
                    for vertex in self.postorder()
                    if redirect[vertex] and any(child in clone_of for child, _ in table[vertex])
                ]

            def repointed(vertex: int) -> tuple[Edge, ...]:
                return tuple(
                    [(clone_of.get(child, child), count) for child, count in table[vertex]]
                )

            # Clones copy their originals' *old* child sequences.
            clone_edges = [
                repointed(vertex) if redirect[clone] else table[vertex]
                for clone, vertex in enumerate(originals, first)
            ]
            rewritten = {vertex: repointed(vertex) for vertex in parents}
        post = self._post_cache
        split_order: list[int] = []  # the originals, children first
        if post is not None:
            patched: list[int] = []
            for vertex in post:
                patched.append(vertex)
                if vertex in clone_of:
                    patched.append(clone_of[vertex])
                    split_order.append(vertex)
            self._post_cache = patched
            if self._post_array is not None:
                self._post_array = _pl._numpy.asarray(patched, dtype=_pl._numpy.intp)
        self._pre_cache = None
        self._reach_cache = None
        self._generation += 1
        for vertex, edges in rewritten.items():
            self._nedge_entries += len(edges) - len(table[vertex])
            table[vertex] = edges
        table.extend(clone_edges)
        self._nedge_entries += sum(map(len, clone_edges))
        self._grow(len(table))
        _pl.clone_bits(self._planes, originals, first)
        if counts is not None:  # then so is ``post``: deriving the counts cached it
            self._count_cache = _split_path_counts(
                counts, clone_of, split_order, rewritten, clone_edges
            )
        return first

    def children(self, vertex: int) -> tuple[Edge, ...]:
        """The run-length encoded child sequence of ``vertex``."""
        return self._children[vertex]

    def expanded_children(self, vertex: int) -> Iterator[int]:
        """The child sequence of ``vertex`` with multiplicities expanded."""
        return expand_edges(self._children[vertex])

    def out_degree(self, vertex: int) -> int:
        """Number of children counting multiplicities."""
        return sum(count for _, count in self._children[vertex])

    @property
    def num_edge_entries(self) -> int:
        """Number of run-length edge entries (the paper's ``|E|`` for DAGs).

        Maintained incrementally, so reading it per evaluation is free.
        """
        return self._nedge_entries

    @property
    def num_edges_expanded(self) -> int:
        """Number of edges counting multiplicities (``|E|`` of the tree if a tree)."""
        return sum(self.out_degree(v) for v in range(len(self._children)))

    @property
    def num_reachable(self) -> int:
        """Number of root-reachable vertices (the length of the cached order)."""
        return len(self.postorder())

    @property
    def fully_reachable(self) -> bool:
        """True when every vertex is reachable from the root (no garbage)."""
        return self.num_reachable == len(self._children)

    # ------------------------------------------------------------------
    # Set membership
    # ------------------------------------------------------------------

    def mask(self, vertex: int) -> int:
        """The set-membership bitmask of ``vertex`` (an O(S) plane gather).

        Callers touching many vertices should take :meth:`row_masks` once.
        """
        word = vertex >> 6
        shift = vertex & 63
        mask = 0
        for i, plane in enumerate(self._planes):
            mask |= (plane[word] >> shift & 1) << i
        return mask

    def set_mask(self, vertex: int, mask: int) -> None:
        """Overwrite the membership row of ``vertex`` across all planes."""
        plane_list = self._planes
        if mask >> len(plane_list):
            raise SchemaError(
                f"mask {mask:#x} has bits outside the {len(plane_list)}-set schema"
            )
        word = vertex >> 6
        bit = 1 << (vertex & 63)
        clear = _pl.FULL_WORD ^ bit
        for i, plane in enumerate(plane_list):
            if mask >> i & 1:
                plane[word] |= bit
            else:
                plane[word] &= clear

    def row_masks(self) -> list[int]:
        """All per-vertex masks at once (popcount-bounded plane iteration)."""
        rows = [0] * len(self._children)
        for i, plane in enumerate(self._planes):
            row_bit = 1 << i
            for vertex in _pl.iter_bits(plane):
                rows[vertex] |= row_bit
        return rows

    def in_set(self, vertex: int, name: str) -> bool:
        """True if ``vertex`` is a member of set ``name``."""
        return bool(self._planes[self.bit_of(name)][vertex >> 6] >> (vertex & 63) & 1)

    def add_to_set(self, vertex: int, name: str) -> None:
        """Add ``vertex`` to set ``name`` (creating the set if needed)."""
        self._planes[self.ensure_set(name)][vertex >> 6] |= 1 << (vertex & 63)

    def remove_from_set(self, vertex: int, name: str) -> None:
        self._planes[self.bit_of(name)][vertex >> 6] &= _pl.FULL_WORD ^ (
            1 << (vertex & 63)
        )

    def members(self, name: str) -> set[int]:
        """The vertex set named ``name`` as a Python set."""
        return set(_pl.iter_bits(self._planes[self.bit_of(name)]))

    def _live_plane(self, name: str) -> array:
        """Set ``name`` restricted to reachable vertices (read-only)."""
        plane = self._planes[self.bit_of(name)]
        if not self.fully_reachable:
            plane = _pl.copy_plane(plane)
            _pl.intersect_into(plane, self.reachable_plane())
        return plane

    def count_set(self, name: str, reachable_only: bool = True) -> int:
        """``|S|`` by popcount — without materialising a Python set."""
        if reachable_only:
            return _pl.count_bits(self._live_plane(name))
        return _pl.count_bits(self._planes[self.bit_of(name)])

    def count_origins(self, name: str) -> int:
        """Distinct *origins* among the reachable members of set ``name``.

        A vertex's origin is the vertex it stood for in the instance this
        one was forked from: itself, or its original's origin for a clone
        (:meth:`split_vertices`; :meth:`copy` carries the map).  Splits only
        refine which tree nodes share a vertex, so this counts the vertices
        *of the forked-from instance* that hold a selected tree node,
        whichever splits evaluation ran.
        """
        origin = self._origin
        if origin is None:
            return self.count_set(name)
        return len({origin[vertex] for vertex in _pl.iter_bits(self._live_plane(name))})

    def sets_at(self, vertex: int) -> tuple[str, ...]:
        """Names of all sets containing ``vertex`` (in schema order)."""
        word = vertex >> 6
        shift = vertex & 63
        return tuple(
            name
            for name, plane in zip(self._schema, self._planes)
            if plane[word] >> shift & 1
        )

    # ------------------------------------------------------------------
    # Bulk plane operations (word-at-a-time over whole sets)
    # ------------------------------------------------------------------

    def combine_sets(self, op: str, left: str, right: str, target: str) -> str:
        """Compute ``target = left <op> right`` over all reachable vertices.

        ``op`` is ``"union"``, ``"intersect"`` or ``"difference"``.
        ``target`` is created if missing and accumulates (bits already in an
        existing target survive, matching the historical per-vertex OR).
        Returns ``target``.
        """
        left_plane = self._planes[self.bit_of(left)]
        right_plane = self._planes[self.bit_of(right)]
        fully_reachable = self.fully_reachable
        target_plane = self._planes[self.ensure_set(target)]
        if fully_reachable and not _pl.any_bit(target_plane):
            # Fresh target on a fully reachable instance (the common case on
            # the evaluator's temp sets): combine straight into its plane.
            _pl.combine(op, left_plane, right_plane, target_plane)
            return target
        result = _pl.new_plane(self._nwords)
        _pl.combine(op, left_plane, right_plane, result)
        if not fully_reachable:
            _pl.intersect_into(result, self.reachable_plane())
        _pl.or_into(target_plane, result)
        return target

    def fill_set(self, name: str) -> str:
        """Add every reachable vertex to set ``name`` in one plane OR.

        Creates the set if missing and returns ``name`` (the ``V`` of the
        algebra's ``AllNodes``).
        """
        reach = self.reachable_plane()  # raises without a root, as before
        _pl.or_into(self._planes[self.ensure_set(name)], reach)
        return name

    # ------------------------------------------------------------------
    # Hot-path accessors (engine internals)
    # ------------------------------------------------------------------

    def plane_of(self, name: str) -> array:
        """The internal bit plane of set ``name``, for engine hot loops.

        Setting and clearing vertex bits in place is allowed (membership
        carries no structural information, so traversal caches stay valid);
        never resize the array.  The reference stays live across vertex
        growth — planes grow in place.
        """
        return self._planes[self.bit_of(name)]

    def ensure_plane(self, name: str) -> array:
        """:meth:`ensure_set` + :meth:`plane_of` in one step."""
        return self._planes[self.ensure_set(name)]

    @property
    def nwords(self) -> int:
        """Current plane width in 64-bit words (capacity, not ``|V|/64``)."""
        return self._nwords

    def reachable_plane(self) -> array:
        """The root-reachable vertex set as a plane (cached; read-only)."""
        cached = self._reach_cache
        if cached is not None:
            return cached
        if self.fully_reachable:
            nbits = len(self._children)
            words = [_pl.FULL_WORD] * (nbits >> 6)
            if nbits & 63:
                words.append((1 << (nbits & 63)) - 1)
            words.extend([0] * (self._nwords - len(words)))
            plane = array("Q", words)
        else:
            plane = _pl.plane_from_bits(self.postorder(), self._nwords)
        self._reach_cache = plane
        return plane

    def edge_table(self) -> Sequence[tuple[Edge, ...]]:
        """The internal per-vertex edge-tuple list, for engine hot loops.

        Strictly read-only: all structural mutation must go through
        :meth:`set_children` / :meth:`new_vertex` so caches invalidate.
        """
        return self._children

    def edge_csr(self) -> EdgeCSR:
        """The cached level-grouped flat edge list (see :class:`EdgeCSR`)."""
        cached = self._csr_cache
        if cached is not None:
            return cached
        children = self._children
        order = self.topological_order()
        level = [0] * len(children)
        # A vertex's level is final when it is visited (all in-edges fired),
        # so one pass both relaxes the children and buckets the vertex.
        buckets: list[list[int]] = []
        for vertex in order:
            vertex_level = level[vertex]
            edges = children[vertex]
            if not edges:
                continue
            next_level = vertex_level + 1
            for child, _ in edges:
                if level[child] < next_level:
                    level[child] = next_level
            while vertex_level >= len(buckets):
                buckets.append([])
            buckets[vertex_level].append(vertex)
        esrc: list[int] = []
        edst: list[int] = []
        emulti = bytearray()
        spans: list[tuple[int, int]] = []
        add_src = esrc.append
        add_dst = edst.append
        add_multi = emulti.append
        for bucket in buckets:
            start = len(esrc)
            for vertex in bucket:
                for child, count in children[vertex]:
                    add_src(vertex)
                    add_dst(child)
                    add_multi(count > 1)
            spans.append((start, len(esrc)))
        csr = EdgeCSR(esrc, edst, emulti, spans)
        self._csr_cache = csr
        return csr

    @property
    def has_edge_csr(self) -> bool:
        """True when :meth:`edge_csr` is at hand: a warmed master, its forks,
        or any instance a vector-tier axis ran on (a sibling split drops it)."""
        return self._csr_cache is not None

    def path_counts(self) -> list[int]:
        """``|Pi(v)|`` per vertex id: the edge paths root -> ``v`` (cached).

        The top-down recurrence: ``counts[root] == 1`` and an edge
        ``v -> w`` of multiplicity ``m`` adds ``m * counts[v]`` to
        ``counts[w]``; an unreachable vertex counts 0.  Exact Python ints,
        however far a count outgrows a machine word.  Structural, so
        :meth:`copy` shares it and :meth:`split_vertices` patches it.
        Read-only.
        """
        cached = self._count_cache
        if cached is not None:
            return cached
        children = self._children
        counts = [0] * len(children)
        counts[self.root] = 1
        for vertex in reversed(self.postorder()):
            multiplier = counts[vertex]
            for child, count in children[vertex]:
                counts[child] += multiplier * count
        self._count_cache = counts
        return counts

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def topological_order(self) -> list[int]:
        """Vertices reachable from the root, every parent before its children.

        The reverse of :meth:`postorder`, which is derived iteratively
        (instances can be very deep chains, e.g. compressed complete binary
        trees).
        """
        return list(reversed(self.postorder()))

    def postorder(self) -> list[int]:
        """The vertices reachable from the root in a children-first order.

        DFS postorder when freshly derived; :meth:`split_vertices` keeps the
        cached order children-first without re-running the DFS.  Treat the
        returned list as read-only.
        """
        cached = self._post_cache
        if cached is not None:
            return cached
        root = self.root
        order: list[int] = []
        visited = bytearray(len(self._children))
        # Stack entries: (vertex, index of next distinct child to expand).
        stack: list[list[int]] = [[root, 0]]
        visited[root] = 1
        while stack:
            top = stack[-1]
            vertex, i = top
            edges = self._children[vertex]
            while i < len(edges) and visited[edges[i][0]]:
                i += 1
            top[1] = i + 1
            if i < len(edges):
                child = edges[i][0]
                visited[child] = 1
                stack.append([child, 0])
            else:
                order.append(vertex)
                stack.pop()
        self._post_cache = order
        return order

    def postorder_array(self):
        """:meth:`postorder` as a cached numpy intp array (numpy tier)."""
        cached = self._post_array
        if cached is None:
            numpy = _pl._numpy
            cached = self._post_array = numpy.asarray(self.postorder(), dtype=numpy.intp)
        return cached

    def preorder(self) -> list[int]:
        """Vertices reachable from the root in DFS preorder (first visit).

        The result is cached until the next structural mutation; treat the
        returned list as read-only.
        """
        cached = self._pre_cache
        if cached is not None:
            return cached
        root = self.root
        order: list[int] = []
        visited = bytearray(len(self._children))
        stack = [root]
        visited[root] = 1
        while stack:
            vertex = stack.pop()
            order.append(vertex)
            for child, _ in reversed(self._children[vertex]):
                if not visited[child]:
                    visited[child] = 1
                    stack.append(child)
        self._pre_cache = order
        return order

    def reachable(self) -> set[int]:
        """Vertices reachable from the root."""
        return set(self.preorder())

    # ------------------------------------------------------------------
    # Structure checks and transformations
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; raise :class:`InstanceError` if violated.

        Invariants: a root exists; the graph is acyclic; the root is the only
        vertex without incoming edges; every vertex is reachable from the
        root (implied by the former two, checked directly); multiplicities
        are positive and runs are merged.
        """
        root = self.root
        n = len(self._children)
        in_degree = [0] * n
        for edges in self._children:
            previous = -1
            for child, count in edges:
                if not 0 <= child < n:
                    raise InstanceError(f"edge target {child} out of range")
                if count < 1:
                    raise InstanceError(f"non-positive multiplicity {count}")
                if child == previous:
                    raise InstanceError(f"unmerged run of edges to vertex {child}")
                previous = child
                in_degree[child] += 1
        if in_degree[root]:
            raise InstanceError("root has incoming edges")
        for vertex, degree in enumerate(in_degree):
            if degree == 0 and vertex != root:
                raise InstanceError(f"vertex {vertex} has no incoming edge and is not the root")
        # Cycle check via iterative three-color DFS.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = bytearray(n)
        stack: list[list[int]] = [[root, 0]]
        color[root] = GRAY
        while stack:
            top = stack[-1]
            vertex, i = top
            edges = self._children[vertex]
            advanced = False
            while i < len(edges):
                child = edges[i][0]
                i += 1
                if color[child] == GRAY:
                    raise InstanceError(f"cycle through vertex {child}")
                if color[child] == WHITE:
                    top[1] = i
                    color[child] = GRAY
                    stack.append([child, 0])
                    advanced = True
                    break
            if not advanced:
                color[vertex] = BLACK
                stack.pop()
        if any(c == WHITE for c in color):
            unreachable = [v for v in range(n) if color[v] == WHITE]
            raise InstanceError(f"vertices not reachable from root: {unreachable[:10]}")

    def is_tree(self) -> bool:
        """True if every vertex has in-degree at most 1 and all counts are 1."""
        n = len(self._children)
        in_degree = [0] * n
        for edges in self._children:
            for child, count in edges:
                if count != 1:
                    return False
                in_degree[child] += 1
                if in_degree[child] > 1:
                    return False
        return True

    def copy(self) -> "Instance":
        """An independent copy (vertex numbering preserved)."""
        clone = Instance.__new__(Instance)
        clone._schema = list(self._schema)
        clone._bits = dict(self._bits)
        clone._children = list(self._children)  # edge tuples are immutable
        clone._planes = [_pl.copy_plane(plane) for plane in self._planes]
        clone._nwords = self._nwords
        clone._nedge_entries = self._nedge_entries
        clone._root = self._root
        clone._origin = None if self._origin is None else list(self._origin)
        clone._generation = self._generation
        # Structure-derived caches are read-only values over identical
        # structure, so the clone shares them; either side's next structural
        # mutation drops its own references only.
        clone._pre_cache = self._pre_cache
        clone._post_cache = self._post_cache
        clone._post_array = self._post_array
        clone._reach_cache = self._reach_cache
        clone._csr_cache = self._csr_cache
        clone._count_cache = self._count_cache
        return clone

    def reduct(self, names: Iterable[str]) -> "Instance":
        """The sigma'-reduct: same DAG, schema restricted to ``names`` (section 2.3)."""
        keep = list(names)
        kept_planes = [_pl.copy_plane(self._planes[self.bit_of(name)]) for name in keep]
        clone = Instance(keep)
        clone._planes = kept_planes
        clone._nwords = self._nwords
        clone._children = list(self._children)
        clone._nedge_entries = self._nedge_entries
        clone._root = self._root
        return clone

    # ------------------------------------------------------------------
    # Debugging / rendering
    # ------------------------------------------------------------------

    def to_dot(self, highlight: str | None = None) -> str:
        """Render the reachable subgraph in Graphviz dot syntax.

        Vertices are labeled with their set memberships; if ``highlight``
        names a set, its members are drawn with a double circle (used by the
        examples to mirror Figure 5 of the paper).
        """
        lines = ["digraph instance {", "  node [shape=circle];"]
        for vertex in self.preorder():
            label = ",".join(self.sets_at(vertex)) or str(vertex)
            shape = ""
            if highlight is not None and self.in_set(vertex, highlight):
                shape = ", shape=doublecircle"
            lines.append(f'  v{vertex} [label="{label}"{shape}];')
        for vertex in self.preorder():
            for position, (child, count) in enumerate(self._children[vertex]):
                attr = f' [label="x{count}"]' if count > 1 else ""
                lines.append(f"  v{vertex} -> v{child}{attr};")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        root = self._root if self._root >= 0 else None
        return (
            f"<Instance |V|={self.num_vertices} |E|={self.num_edge_entries} "
            f"root={root} schema={self._schema!r}>"
        )

    # ------------------------------------------------------------------

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < len(self._children):
            raise InstanceError(f"vertex {vertex} does not exist")


def _split_path_counts(
    counts: list[int],
    clone_of: dict[int, int],
    split_order: list[int],
    rewritten: dict[int, tuple[Edge, ...]],
    clone_edges: list[tuple[Edge, ...]],
) -> list[int]:
    """:meth:`Instance.path_counts` after :meth:`Instance.split_vertices`.

    A split only re-partitions the tree nodes each original stood for: a
    vertex that does not split keeps its count, a clone's count is the sum
    of ``m * count[parent]`` over its in-edges, and its original keeps the
    remainder.  Every in-edge of a clone is on a ``rewritten`` or a cloned
    edge list.  Unsplit parents push their (final) counts first; then the
    originals resolve parents first (``split_order``, children first,
    reversed): a clone sits right after its original in the postorder, so
    every split parent of a clone, and the original of every cloned
    parent, has pushed by then.  ``counts`` is shared with forks, so this
    builds a new list (DESIGN.md section 5).
    """
    first = len(counts)
    patched = counts[:]
    patched.extend([0] * len(clone_edges))

    def push(parent: int, edges: tuple[Edge, ...]) -> None:
        multiplier = patched[parent]
        for child, count in edges:
            if child >= first:
                patched[child] += count * multiplier

    for parent, edges in rewritten.items():
        if parent not in clone_of:
            push(parent, edges)
    for original in reversed(split_order):
        clone = clone_of[original]
        patched[original] -= patched[clone]
        if original in rewritten:
            push(original, rewritten[original])
        push(clone, clone_edges[clone - first])
    return patched


# ----------------------------------------------------------------------
# Convenience constructors (used heavily by tests and examples)
# ----------------------------------------------------------------------

#: A nested tree spec: ``(sets, [children])`` where ``sets`` is a set name or
#: a sequence of set names.
TreeSpec = tuple


def tree_instance(spec: TreeSpec, schema: Iterable[str] = ()) -> Instance:
    """Build a tree-instance from a nested ``(sets, children)`` spec.

    Example::

        tree_instance(("bib", [("book", [("title", []), ("author", [])])]))

    builds the Example 1.1 skeleton fragment.  ``sets`` may be a single name,
    a tuple of names, or ``()`` for an unlabeled vertex.
    """
    instance = Instance(schema)

    def build(node: TreeSpec) -> int:
        sets, children = node
        if isinstance(sets, str):
            sets = (sets,)
        child_edges = [(build(child), 1) for child in children]
        return instance.new_vertex(sets, child_edges)

    # Recursion depth equals tree depth; tests keep specs shallow.  Corpus
    # generators use the streaming DagBuilder instead.
    root = build(spec)
    instance.set_root(root)
    return instance
