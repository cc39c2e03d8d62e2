"""Localized DAG maintenance: apply mutations without a full re-shred.

A mutation touches one subtree, but the document lives as a *shared* DAG —
editing a vertex in place would edit every tree occurrence of it.  The fix
is the classic copy-on-write spine: walk the tree path from the root to the
mutation point, privatizing each vertex on the way (a private copy replaces
exactly the addressed occurrence in its parent's edge list, leaving all
other occurrences on the shared original).  The edit then lands on private
vertices only.  Fragments are shredded by the same loader that registered
the document — only the fragment text is parsed, not the document — and
grafted by remapping their set bits into the host schema.  One final
:func:`repro.compress.minimize.minimize` re-establishes minimality, folding
the privatized spine back into shared vertices wherever bisimilarity
reappears.  Total cost is O(|DAG| + |fragment|), independent of the
document's text size — that is the whole ≥5x headline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.compress.minimize import minimize
from repro.errors import MutationError, XMLSyntaxError
from repro.model.instance import Instance, normalize_edges
from repro.mutation.ops import Mutation, as_mutations
from repro.mutation.textedit import splice
from repro.skeleton.loader import load


@dataclass(frozen=True)
class MutationOutcome:
    """Everything a mutation batch produced, ready to publish."""

    #: The minimized post-mutation instance (a fresh object; inputs untouched).
    instance: Instance
    #: The post-mutation document text (splice of the input text).
    text: str
    #: Wall-clock seconds spent on maintenance (splice + graft + minimize).
    seconds: float
    #: Number of mutations applied.
    applied: int
    #: Per-op application counts, e.g. ``{"append_child": 2}``.
    ops: dict[str, int]


def _is_attribute_node(instance: Instance, vertex: int, cache: dict[int, bool]) -> bool:
    """True for the synthetic ``@name`` children of ``attributes="nodes"`` mode."""
    known = cache.get(vertex)
    if known is None:
        known = any(name.startswith("@") for name in instance.sets_at(vertex))
        cache[vertex] = known
    return known


def _locate_child(
    instance: Instance,
    parent: int,
    ordinal: int,
    attr_cache: dict[int, bool],
    path_so_far: Sequence[int],
) -> tuple[int, int, int]:
    """Find element child ``ordinal`` of ``parent`` in its run-length edges.

    Returns ``(entry_index, occurrence_within_entry, child_vertex)``.
    Attribute nodes do not consume ordinals, matching the text-side count.
    """
    remaining = ordinal
    for index, (child, count) in enumerate(instance.children(parent)):
        if _is_attribute_node(instance, child, attr_cache):
            continue
        if remaining < count:
            return index, remaining, child
        remaining -= count
    raise MutationError(
        f"path {list(path_so_far)} addresses no element in the document "
        f"(ordinal {ordinal} is past the last element child)"
    )


def _replace_occurrence(
    instance: Instance, parent: int, index: int, occurrence: int, replacement: int
) -> None:
    """Swap one tree occurrence inside run-length entry ``index`` of ``parent``.

    The run ``(c, n)`` splits into ``(c, occurrence), (replacement, 1),
    (c, n - occurrence - 1)``; ``set_children`` normalizes away the empty
    halves and re-merges adjacent equal runs.
    """
    edges = instance.children(parent)
    child, count = edges[index]
    patched = (
        edges[:index]
        + ((child, occurrence), (replacement, 1), (child, count - occurrence - 1))
        + edges[index + 1 :]
    )
    instance.set_children(parent, patched)


def _remove_occurrence(instance: Instance, parent: int, index: int, occurrence: int) -> None:
    """Delete one tree occurrence inside run-length entry ``index`` of ``parent``."""
    edges = instance.children(parent)
    child, count = edges[index]
    patched = (
        edges[:index]
        + ((child, occurrence), (child, count - occurrence - 1))
        + edges[index + 1 :]
    )
    instance.set_children(parent, patched)


def _privatize(instance: Instance, parent: int, index: int, occurrence: int) -> int:
    """Give the addressed occurrence its own copy of the child vertex."""
    child = instance.children(parent)[index][0]
    private = instance.new_vertex_masked(instance.mask(child), instance.children(child))
    _replace_occurrence(instance, parent, index, occurrence, private)
    return private


def _graft(host: Instance, xml: str, attributes: str) -> int:
    """Shred ``xml`` and copy it into ``host``; returns its root-element vertex.

    Only the fragment is parsed.  Its set bits are remapped into the host
    schema (new tags get fresh sets — they simply read as empty for older
    stats snapshots), its vertices are appended postorder so children exist
    before parents, and the fragment's virtual document root is dropped.
    """
    try:
        fragment = load(xml, tags=None, attributes=attributes).instance
    except XMLSyntaxError as error:
        raise MutationError(f"mutation fragment is not well-formed XML: {error}") from None
    bit_map = [host.ensure_set(name) for name in fragment.schema]
    rows = fragment.row_masks()
    mapping: dict[int, int] = {}
    for vertex in fragment.postorder():
        if vertex == fragment.root:
            continue
        mask = rows[vertex]
        remapped = 0
        bit = 0
        while mask:
            if mask & 1:
                remapped |= 1 << bit_map[bit]
            mask >>= 1
            bit += 1
        mapping[vertex] = host.new_vertex_masked(
            remapped,
            normalize_edges(
                (mapping[child], count) for child, count in fragment.children(vertex)
            ),
        )
    (element, _count), = fragment.children(fragment.root)
    return mapping[element]


def _apply_one(
    instance: Instance, mutation: Mutation, attributes: str, attr_cache: dict[int, bool]
) -> None:
    """Apply one mutation to the (scratch) instance via spine privatization."""
    steps = (0,) + mutation.path  # first step: document root -> root element
    if mutation.op == "append_child":
        spine_steps, final = steps, None
    else:
        spine_steps, final = steps[:-1], steps[-1]
    parent = instance.root
    for depth, ordinal in enumerate(spine_steps):
        index, occurrence, _child = _locate_child(
            instance, parent, ordinal, attr_cache, steps[1 : depth + 1]
        )
        parent = _privatize(instance, parent, index, occurrence)
    if mutation.op == "append_child":
        grafted = _graft(instance, mutation.xml or "", attributes)
        instance.set_children(parent, instance.children(parent) + ((grafted, 1),))
        return
    index, occurrence, _child = _locate_child(
        instance, parent, final, attr_cache, mutation.path
    )
    if mutation.op == "delete_subtree":
        _remove_occurrence(instance, parent, index, occurrence)
        return
    grafted = _graft(instance, mutation.xml or "", attributes)
    _replace_occurrence(instance, parent, index, occurrence, grafted)


def apply_mutations(
    instance: Instance,
    text: str,
    mutations: Iterable,
    attributes: str = "ignore",
    old_stats=None,
) -> MutationOutcome:
    """Apply a validated mutation batch to a document's instance and text.

    ``instance`` must be the document's master skeleton (shredded over every
    tag, no string or temp sets — exactly what the catalog stores); it is
    not modified — the work happens on a scratch copy and the returned
    instance is the re-minimized result.  ``attributes`` must match the
    mode the document was registered with, so fragment shredding and path
    addressing agree with the original load.  Each mutation's path is
    interpreted against the *current* state, i.e. after the preceding
    mutations in the batch.

    ``old_stats`` is ignored: the catalog derives statistics from the
    published instance.  It stays only because existing callers pass it
    positionally.

    Raises :class:`MutationError` (nothing useful was produced — callers
    publish nothing) on invalid specs, unreachable paths, or malformed
    fragments.
    """
    batch = as_mutations(mutations if not isinstance(mutations, Mutation) else [mutations])
    started = time.perf_counter()
    scratch = instance.copy()
    attr_cache: dict[int, bool] = {}
    ops: dict[str, int] = {}
    for mutation in batch:
        # Text first: locate() validates the path against the authoritative
        # text before the DAG is touched, keeping both sides in lockstep.
        text = splice(text, mutation)
        _apply_one(scratch, mutation, attributes, attr_cache)
        ops[mutation.op] = ops.get(mutation.op, 0) + 1
    return MutationOutcome(
        instance=minimize(scratch),
        text=text,
        seconds=time.perf_counter() - started,
        applied=len(batch),
        ops=ops,
    )
