"""Shredded secondary storage for compressed instances (section 6).

A loader-produced instance (virtual document root above one root element)
is *shredded* into chunks: one serialized sub-DAG per **distinct** top-level
subtree of the root element.  Because top-level subtrees of regular
documents repeat heavily, distinct chunks are few (one per record shape for
DBLP-like data) and the manifest's run-length child list carries the
repetition — the same trick as multiplicity edges, one level up.

Queries load only the chunks they can observe
(:func:`repro.storage.prune.prunable_top_tags`); the assembled partial
instance behaves exactly like the full one for such queries, which the test
suite verifies against unshredded evaluation.

Layout on disk::

    <dir>/manifest.json        schema, masks, ordered (chunk, count) list,
                               one sha256 per chunk file
    <dir>/chunk-<n>.dag        one REPRO-DAG file per distinct subtree

This is the partial-residency *experiment* (``benchmarks/bench_shredding.py``
measures it); the serving catalog does not use it.  Chunking is not free:
assembly re-numbers vertices and duplicates every sub-DAG shared between
two top-level subtrees, so an assembled instance is equivalent to, but
generally larger than, the minimal DAG it was shredded from.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

from repro.errors import IntegrityError, ReproError
from repro.model.instance import Instance, normalize_edges
from repro.model.serialize import load_file as load_dag, save_file as save_dag
from repro.storage.prune import prunable_top_tags

_MANIFEST = "manifest.json"
_FORMAT = "repro-chunks-1"


def _file_checksum(path: str) -> str:
    """sha256 of a chunk file, streamed (chunks can be large)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def extract_subdag(instance: Instance, vertex: int) -> Instance:
    """The sub-instance reachable from ``vertex`` (same schema, new ids)."""
    sub = Instance(instance.schema)
    row_masks = instance.row_masks()
    built: dict[int, int] = {}
    stack: list[tuple[int, bool]] = [(vertex, False)]
    while stack:
        current, expanded = stack.pop()
        if current in built:
            continue
        if not expanded:
            stack.append((current, True))
            stack.extend(
                (child, False)
                for child, _ in instance.children(current)
                if child not in built
            )
            continue
        edges = tuple((built[child], count) for child, count in instance.children(current))
        built[current] = sub.new_vertex_masked(row_masks[current], edges)
    sub.set_root(built[vertex])
    return sub


class ChunkedStore:
    """A shredded instance on disk; open lazily, load partially."""

    def __init__(self, directory: str):
        self.directory = directory
        with open(os.path.join(directory, _MANIFEST), "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != _FORMAT or "checksums" not in manifest:
            raise ReproError(f"not a chunk store: {directory}")
        self.schema: list[str] = manifest["schema"]
        self._doc_mask: int = manifest["doc_mask"]
        self._root_mask: int = manifest["root_mask"]
        #: Ordered top-level children: (chunk id, multiplicity).
        self._top: list[tuple[int, int]] = [tuple(e) for e in manifest["top"]]
        #: Tags (plain set names) of each chunk's top vertex, for pruning.
        self._chunk_tags: list[list[str]] = manifest["chunk_tags"]
        #: sha256 per chunk file, recorded at shred time.
        self.checksums: list[str] = manifest["checksums"]
        self._cache: dict[int, Instance] = {}
        # Serialises cache fills so concurrent readers load each chunk from
        # disk exactly once.
        self._cache_lock = threading.Lock()

    # -- construction ---------------------------------------------------

    @staticmethod
    def save(instance: Instance, directory: str) -> "ChunkedStore":
        """Shred ``instance`` (a loader-produced document) into ``directory``."""
        os.makedirs(directory, exist_ok=True)
        document = instance.root
        root_children = instance.children(document)
        if len(root_children) != 1 or root_children[0][1] != 1:
            raise ReproError("shredding expects a document instance (one root element)")
        root_element = root_children[0][0]

        chunk_ids: dict[int, int] = {}
        chunk_tags: list[list[str]] = []
        checksums: list[str] = []
        top: list[tuple[int, int]] = []
        for child, count in instance.children(root_element):
            chunk = chunk_ids.get(child)
            if chunk is None:
                chunk = len(chunk_ids)
                chunk_ids[child] = chunk
                chunk_path = os.path.join(directory, f"chunk-{chunk}.dag")
                save_dag(extract_subdag(instance, child), chunk_path)
                checksums.append(_file_checksum(chunk_path))
                chunk_tags.append(
                    [name for name in instance.sets_at(child) if not name.startswith("#")]
                )
            top.append((chunk, count))

        manifest = {
            "format": _FORMAT,
            "schema": list(instance.schema),
            "doc_mask": instance.mask(document),
            "root_mask": instance.mask(root_element),
            "top": top,
            "chunk_tags": chunk_tags,
            "checksums": checksums,
        }
        with open(os.path.join(directory, _MANIFEST), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        return ChunkedStore(directory)

    # -- loading ---------------------------------------------------------

    @property
    def num_chunks(self) -> int:
        return len(self._chunk_tags)

    def chunk(self, chunk_id: int) -> Instance:
        """Load (and cache) one chunk's sub-instance, verifying its checksum.

        Thread-safe; the cached instance is shared between callers and must
        be treated as read-only (:meth:`assemble` only reads it).  Its
        traversal caches are warmed under the lock, so concurrent readers
        never race on the lazy memoisation either.  A chunk whose bytes no
        longer hash to the manifest's shred-time checksum (torn write, bit
        rot, truncation) raises :class:`~repro.errors.IntegrityError`
        *before* deserialisation — corrupt data is never decoded, cached,
        or served.
        """
        cached = self._cache.get(chunk_id)
        if cached is None:
            with self._cache_lock:
                cached = self._cache.get(chunk_id)
                if cached is None:
                    path = os.path.join(self.directory, f"chunk-{chunk_id}.dag")
                    self._verify_chunk(chunk_id, path)
                    cached = load_dag(path)
                    cached.postorder()  # pre-warm: later readers only read
                    cached.preorder()
                    self._cache[chunk_id] = cached
        return cached

    def _verify_chunk(self, chunk_id: int, path: str) -> None:
        try:
            actual = _file_checksum(path)
        except FileNotFoundError:
            raise IntegrityError(
                f"chunk {chunk_id} of {self.directory} is missing"
            ) from None
        if actual != self.checksums[chunk_id]:
            raise IntegrityError(
                f"chunk {chunk_id} of {self.directory} failed its checksum "
                f"(stored {self.checksums[chunk_id][:12]}..., actual {actual[:12]}...)"
            )

    def chunks_with_tags(self, tags: set[str] | None) -> list[int]:
        """Chunk ids whose top vertex carries one of ``tags`` (None = all)."""
        if tags is None:
            return list(range(self.num_chunks))
        return [
            chunk_id
            for chunk_id, chunk_tag_list in enumerate(self._chunk_tags)
            if set(chunk_tag_list) & tags
        ]

    def assemble(self, chunk_ids: list[int] | None = None) -> Instance:
        """Rebuild an instance from selected chunks (None = all, lossless).

        The result is a document instance with the same schema; omitted
        top-level subtrees are absent (the partial-residency model of
        section 6: queries that cannot observe them run unchanged).
        """
        selected = set(chunk_ids if chunk_ids is not None else range(self.num_chunks))
        combined = Instance(self.schema)
        roots: dict[int, int] = {}
        for chunk_id in sorted(selected):
            chunk = self.chunk(chunk_id)
            row_masks = chunk.row_masks()
            offset_map: dict[int, int] = {}
            for vertex in chunk.postorder():
                edges = tuple(
                    (offset_map[child], count) for child, count in chunk.children(vertex)
                )
                offset_map[vertex] = combined.new_vertex_masked(row_masks[vertex], edges)
            roots[chunk_id] = offset_map[chunk.root]
        top_edges = normalize_edges(
            (roots[chunk_id], count)
            for chunk_id, count in self._top
            if chunk_id in selected
        )
        root_element = combined.new_vertex_masked(self._root_mask, top_edges)
        document = combined.new_vertex_masked(self._doc_mask, ((root_element, 1),))
        combined.set_root(document)
        return combined

    def instance_for_query(self, query: str) -> tuple[Instance, int]:
        """Assemble just enough chunks to answer ``query``.

        Returns ``(instance, chunks_loaded)``.  Correct for every query:
        the pruning analysis falls back to loading everything whenever the
        query could observe other chunks.
        """
        tags = prunable_top_tags(query)
        chunk_ids = self.chunks_with_tags(tags)
        return self.assemble(chunk_ids), len(chunk_ids)
