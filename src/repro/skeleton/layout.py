"""Skeleton layouts: text placement records and the succinct on-disk format.

XMILL-style decomposition (section 1) splits a document into the skeleton
(compressed here into a DAG) and string containers.  To be a *lossless*
decomposition — and to support the paper's section 4 workflow of labeling a
stored skeleton with new string constraints without re-reading the XML —
we must remember where each text chunk sat relative to the markup.

A :class:`TextLayout` records, for every text chunk in document order::

    (element_ordinal, slot)

where ``element_ordinal`` numbers elements in document order (0 = the root
element; the virtual document root is -1) and ``slot`` is how many child
*elements* of that element had already been closed when the chunk appeared
(so mixed content interleaves correctly on reassembly).

The second half of this module is the **RSKL succinct skeleton codec**
(DESIGN.md section 11): a compressed instance flattened into a handful of
contiguous little-endian arrays — CSR edge structure plus the raw bit
planes of :mod:`repro.model.planes` — so a stored skeleton loads by one
read + memcpy + digest check instead of re-parsing text.  Layout of
version 1 (all offsets 8-aligned)::

    0   magic  b"RSKL"
    4   u32 x 9  version, plane_format, |V|, |S|, |E|, root, nwords,
                 name_table_len, reserved(0)
    40  blake2b-256 digest of the payload (everything from offset 72)
    72  name table   '\\n'-joined set names, zero-padded to 8 bytes
    ..  edge_index   u32[|V|+1]   CSR offsets into the edge arrays
    ..  edge_child   u32[|E|]     run-length edge targets
    ..  (4 zero bytes iff |V|+1+|E| is odd, keeping the next array aligned)
    ..  edge_count   u64[|E|]     run-length edge multiplicities
    ..  planes       u64[|S| * nwords]  one bit plane per set, schema order

Instances that do not fit the fixed widths (vertex ids or name-table over
u32, multiplicities over u64, newlines in set names) raise
:class:`SkeletonUnsupported`, which refuses the publish: the image is the
catalog's only stored form of an instance, so there is nothing to fall
back to.  A corrupted payload raises
:class:`repro.errors.IntegrityError`, which flows into the catalog's
quarantine machinery.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from dataclasses import dataclass, field
from hashlib import blake2b

from repro.errors import IntegrityError, ReproError
from repro.model import planes as _pl
from repro.model.instance import Instance


@dataclass
class TextLayout:
    """Placement records for all text chunks, in document order."""

    placements: list[tuple[int, int]] = field(default_factory=list)

    def record(self, element_ordinal: int, slot: int) -> None:
        self.placements.append((element_ordinal, slot))

    def __len__(self) -> int:
        return len(self.placements)

    def by_element(self) -> dict[int, list[tuple[int, int]]]:
        """Group placements per element: ordinal -> [(slot, chunk_index)].

        ``chunk_index`` indexes the document-order chunk list (which is also
        the order of :meth:`repro.strings.containers.ContainerStore.in_document_order`).
        """
        grouped: dict[int, list[tuple[int, int]]] = {}
        for chunk_index, (ordinal, slot) in enumerate(self.placements):
            grouped.setdefault(ordinal, []).append((slot, chunk_index))
        return grouped


class LayoutTracker:
    """Streaming helper the loader drives to build a :class:`TextLayout`."""

    __slots__ = ("layout", "_ordinals", "_closed_children", "_next_ordinal")

    def __init__(self) -> None:
        self.layout = TextLayout()
        self._ordinals: list[int] = [-1]  # the virtual document root
        self._closed_children: list[int] = [0]
        self._next_ordinal = 0

    def open_element(self) -> int:
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        self._ordinals.append(ordinal)
        self._closed_children.append(0)
        return ordinal

    def close_element(self) -> None:
        self._ordinals.pop()
        self._closed_children.pop()
        self._closed_children[-1] += 1

    def text(self) -> None:
        self.layout.record(self._ordinals[-1], self._closed_children[-1])


# ----------------------------------------------------------------------
# RSKL: the succinct on-disk skeleton codec
# ----------------------------------------------------------------------

SKELETON_MAGIC = b"RSKL"
SKELETON_VERSION = 1

_HEADER = "<4s9I"
_HEADER_LEN = struct.calcsize(_HEADER)  # 40
_DIGEST_LEN = 32
_PAYLOAD_OFFSET = _HEADER_LEN + _DIGEST_LEN  # 72, 8-aligned

_U32_MAX = (1 << 32) - 1
_U64_MAX = (1 << 64) - 1

#: The 4-byte unsigned array typecode on this platform ('I' everywhere that
#: matters, but checked rather than assumed).
_U32 = next(tc for tc in ("I", "L") if array(tc).itemsize == 4)

_LITTLE = sys.byteorder == "little"


class SkeletonUnsupported(ReproError):
    """The instance does not fit RSKL's fixed-width columns (or is empty)."""


def _le(values: array) -> bytes:
    """The array's little-endian bytes (byteswapping off-platform)."""
    if _LITTLE:
        return values.tobytes()
    swapped = array(values.typecode, values)
    swapped.byteswap()
    return swapped.tobytes()


def _from_le(typecode: str, raw: bytes) -> array:
    values = array(typecode, raw)
    if not _LITTLE:
        values.byteswap()
    return values


def encode_skeleton(instance: Instance) -> bytes:
    """Serialise ``instance`` into the RSKL byte layout.

    The instance is stored as-is — same vertex numbering, same schema order
    — so decoding reproduces it exactly: an image of the shredder's minimal
    DAG decodes to the shredder's vertex ids.
    """
    nvertices = instance.num_vertices
    if nvertices == 0 or not instance.has_root:
        raise SkeletonUnsupported("empty or rootless instance")
    schema = instance.schema
    names_blob = "\n".join(schema).encode("utf-8")
    if schema and any("\n" in name for name in schema):
        raise SkeletonUnsupported("set name contains a newline")
    children = instance.edge_table()
    nentries = instance.num_edge_entries
    nwords = _pl.words_for(nvertices)
    if (
        nvertices > _U32_MAX
        or nentries > _U32_MAX
        or len(names_blob) > _U32_MAX
        or nwords > _U32_MAX
    ):
        raise SkeletonUnsupported("instance exceeds u32 column widths")

    edge_index = array(_U32, bytes(4 * (nvertices + 1)))
    edge_child = array(_U32, bytes(4 * nentries))
    edge_count = array("Q", bytes(8 * nentries))
    position = 0
    for vertex, edges in enumerate(children):
        edge_index[vertex] = position
        for child, count in edges:
            if count > _U64_MAX:
                raise SkeletonUnsupported("edge multiplicity exceeds u64")
            edge_child[position] = child
            edge_count[position] = count
            position += 1
    edge_index[nvertices] = position

    payload = bytearray()
    payload += names_blob
    payload += bytes(-len(names_blob) % 8)
    payload += _le(edge_index)
    payload += _le(edge_child)
    if (nvertices + 1 + nentries) & 1:
        payload += bytes(4)
    payload += _le(edge_count)
    for name in schema:
        plane = instance.plane_of(name)
        if len(plane) > nwords:
            plane = plane[:nwords]
        elif len(plane) < nwords:  # pragma: no cover - planes track capacity
            padded = array("Q", plane)
            padded.frombytes(bytes(8 * (nwords - len(padded))))
            plane = padded
        payload += _le(plane)

    header = struct.pack(
        _HEADER,
        SKELETON_MAGIC,
        SKELETON_VERSION,
        _pl.PLANE_FORMAT_VERSION,
        nvertices,
        len(schema),
        nentries,
        instance.root,
        nwords,
        len(names_blob),
        0,
    )
    digest = blake2b(bytes(payload), digest_size=_DIGEST_LEN).digest()
    return header + digest + bytes(payload)


def decode_skeleton(buffer) -> Instance:
    """Rebuild an instance from RSKL bytes (any buffer supporting slicing).

    Verifies the payload digest before trusting any of it; a mismatch (or a
    malformed layout) raises :class:`IntegrityError` so catalog loads
    quarantine the document rather than serve garbage.
    """
    if len(buffer) < _PAYLOAD_OFFSET:
        raise IntegrityError("skeleton file shorter than its header")
    (
        magic,
        version,
        plane_format,
        nvertices,
        nsets,
        nentries,
        root,
        nwords,
        name_len,
        _reserved,
    ) = struct.unpack_from(_HEADER, buffer, 0)
    if magic != SKELETON_MAGIC:
        raise IntegrityError("bad skeleton magic")
    if version != SKELETON_VERSION:
        raise IntegrityError(f"unsupported skeleton version {version}")
    if plane_format > _pl.PLANE_FORMAT_VERSION:
        raise IntegrityError(f"unsupported plane format {plane_format}")

    name_pad = (name_len + 7) & ~7
    edge_words = nvertices + 1 + nentries
    index_off = _PAYLOAD_OFFSET + name_pad
    child_off = index_off + 4 * (nvertices + 1)
    count_off = child_off + 4 * nentries + (4 if edge_words & 1 else 0)
    planes_off = count_off + 8 * nentries
    total = planes_off + 8 * nsets * nwords
    if len(buffer) != total:
        raise IntegrityError(
            f"skeleton length {len(buffer)} does not match layout ({total})"
        )

    view = memoryview(buffer)
    try:
        stored = bytes(view[_HEADER_LEN:_PAYLOAD_OFFSET])
        actual = blake2b(view[_PAYLOAD_OFFSET:], digest_size=_DIGEST_LEN).digest()
        if stored != actual:
            raise IntegrityError("skeleton payload failed its checksum (blake2b digest mismatch)")

        names_raw = bytes(view[_PAYLOAD_OFFSET : _PAYLOAD_OFFSET + name_len])
        schema = names_raw.decode("utf-8").split("\n") if name_len else []
        if len(schema) != nsets:
            raise IntegrityError(f"name table holds {len(schema)} names, header says {nsets}")
        edge_index = _from_le(_U32, bytes(view[index_off:child_off]))
        edge_child = _from_le(_U32, bytes(view[child_off : child_off + 4 * nentries]))
        edge_count = _from_le("Q", bytes(view[count_off:planes_off]))
        pairs = list(zip(edge_child, edge_count))
        try:
            children = [
                tuple(pairs[edge_index[v] : edge_index[v + 1]])
                for v in range(nvertices)
            ]
        except IndexError:
            raise IntegrityError("skeleton edge index out of bounds") from None
        plane_bytes = 8 * nwords
        plane_list = [
            _from_le("Q", bytes(view[planes_off + i * plane_bytes : planes_off + (i + 1) * plane_bytes]))
            for i in range(nsets)
        ]
    finally:
        view.release()
    try:
        return Instance.from_parts(schema, children, plane_list, nwords, root)
    except ReproError as error:
        raise IntegrityError(f"skeleton decodes to an invalid instance: {error}") from None


@dataclass
class SkeletonLoadInfo:
    """How a skeleton load was served (surfaced through ``/stats``)."""

    bytes_mapped: int
    format_version: int = SKELETON_VERSION
    plane_format_version: int = _pl.PLANE_FORMAT_VERSION

    def as_dict(self) -> dict:
        return {
            "format": "skeleton",
            "format_version": self.format_version,
            "plane_format_version": self.plane_format_version,
            "bytes_mapped": self.bytes_mapped,
        }


def write_skeleton(path: str, instance: Instance) -> int:
    """Encode ``instance`` to ``path`` (atomically); returns bytes written."""
    blob = encode_skeleton(instance)
    temp = f"{path}.tmp.{os.getpid()}"
    with open(temp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    return len(blob)


def read_skeleton(path: str) -> tuple[Instance, SkeletonLoadInfo]:
    """Load an RSKL file: one read, then :func:`decode_skeleton`.

    The decoded arrays are private copies, so the file can be replaced or
    deleted freely after return.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    return decode_skeleton(data), SkeletonLoadInfo(bytes_mapped=len(data))
