"""Contiguous bit-plane kernels: the word-level tier under the instance model.

The vertex-set representation of :class:`repro.model.instance.Instance` is
*transposed*: instead of one Python int bitmask per vertex, each schema set
owns a fixed-width contiguous **plane** — an ``array('Q')`` holding one bit
per vertex, 64 vertices per machine word.  Set algebra then runs word-at-a-
time instead of vertex-at-a-time, and a plane's bytes are exactly what the
succinct on-disk skeleton format (:mod:`repro.skeleton.layout`) stores and
reads back.

Two kernel tiers implement every operation:

* the **numpy tier** views a plane's buffer zero-copy
  (``np.frombuffer``) and runs the word ops / bit unpacking in C;
* the **stdlib tier** uses Python big-int arithmetic over ``tobytes()``
  snapshots — still C-speed word operations, no third-party dependency.

Both tiers are property-tested byte-identical
(``tests/property/test_plane_kernels.py``); :func:`set_numpy` lets the tests
(and the ``REPRO_NO_NUMPY=1`` CI leg) force the stdlib tier at runtime.

NumPy views are created inside a kernel call and dropped before it returns:
``array`` objects refuse to grow while a buffer export is live, and plane
arrays grow whenever the instance gains vertices.  Never cache a view.
"""

from __future__ import annotations

import os
from array import array
from typing import Iterable

try:  # pragma: no cover - exercised by the no-numpy CI leg
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

if os.environ.get("REPRO_NO_NUMPY"):
    _numpy = None

#: Module switch consulted by every kernel; flipped by :func:`set_numpy`.
_active = _numpy is not None

#: Planes narrower than this many words run on the stdlib tier even when
#: numpy is active: below a few hundred vertices, big-int arithmetic on the
#: whole plane is cheaper than the fixed cost of creating numpy buffer
#: views.  Both tiers are byte-identical, so the cutover is unobservable.
SMALL_PLANE_WORDS = 4

WORD_BITS = 64
FULL_WORD = (1 << 64) - 1

#: The plane-format version reported in plans and ``/stats`` and written in
#: the succinct skeleton header.
PLANE_FORMAT_VERSION = 1


def numpy_active() -> bool:
    """True when kernels currently dispatch to the numpy tier."""
    return _active


def kernel_tier() -> str:
    """``"numpy"`` or ``"stdlib"`` — which tier serves word kernels now."""
    return "numpy" if _active else "stdlib"


def set_numpy(flag: bool) -> bool:
    """Force the kernel tier (test seam); returns the previous setting.

    Enabling requires numpy to actually be importable.
    """
    global _active
    previous = _active
    _active = bool(flag) and _numpy is not None
    return previous


# ----------------------------------------------------------------------
# Plane construction and bit access
# ----------------------------------------------------------------------


def words_for(nbits: int) -> int:
    """Words needed to hold ``nbits`` vertex bits."""
    return (nbits + WORD_BITS - 1) >> 6


def new_plane(nwords: int) -> array:
    """An all-zero plane of ``nwords`` words."""
    return array("Q", bytes(8 * nwords))


def copy_plane(plane: array) -> array:
    """An independent copy (one C memcpy)."""
    return array("Q", plane)


def get_bit(plane: array, vertex: int) -> int:
    return plane[vertex >> 6] >> (vertex & 63) & 1


def set_bit(plane: array, vertex: int) -> None:
    plane[vertex >> 6] |= 1 << (vertex & 63)


def grow_plane(plane: array, nwords: int) -> None:
    """Extend ``plane`` with zero words up to ``nwords`` (in place)."""
    missing = nwords - len(plane)
    if missing > 0:
        plane.frombytes(bytes(8 * missing))


# ----------------------------------------------------------------------
# Whole-plane conversions
# ----------------------------------------------------------------------


def to_int(plane: array) -> int:
    """The plane as one big little-endian integer (bit v = vertex v)."""
    return int.from_bytes(plane.tobytes(), "little")


def write_int(plane: array, value: int) -> None:
    """Overwrite ``plane`` from a big integer (must fit its width)."""
    raw = value.to_bytes(8 * len(plane), "little")
    plane[:] = array("Q", raw)


def plane_from_bits(bits: Iterable[int], nwords: int) -> array:
    """A plane with exactly the given vertex bits set."""
    words = [0] * nwords
    for vertex in bits:
        words[vertex >> 6] |= 1 << (vertex & 63)
    return array("Q", words)


# ----------------------------------------------------------------------
# Word-level kernels (numpy tier + stdlib big-int tier)
# ----------------------------------------------------------------------


def _view(plane: array):
    return _numpy.frombuffer(plane, dtype=_numpy.uint64)


def _np_worthwhile(plane: array) -> bool:
    return _active and len(plane) >= SMALL_PLANE_WORDS


def combine(op: str, left: array, right: array, out: array) -> None:
    """``out = left <op> right`` word-at-a-time; ``out`` may alias an input.

    ``op`` is ``"union"``, ``"intersect"`` or ``"difference"``.
    """
    if _np_worthwhile(out):
        lv, rv, ov = _view(left), _view(right), _view(out)
        if op == "union":
            _numpy.bitwise_or(lv, rv, out=ov)
        elif op == "intersect":
            _numpy.bitwise_and(lv, rv, out=ov)
        elif op == "difference":
            # l & ~r == l ^ (l & r): avoids materialising ~r.
            _numpy.bitwise_xor(lv, lv & rv, out=ov)
        else:
            raise ValueError(f"unknown set operation {op!r}")
        del lv, rv, ov
        return
    l, r = to_int(left), to_int(right)
    if op == "union":
        value = l | r
    elif op == "intersect":
        value = l & r
    elif op == "difference":
        value = l ^ (l & r)
    else:
        raise ValueError(f"unknown set operation {op!r}")
    write_int(out, value)


def intersect_into(out: array, keep: array) -> None:
    """``out &= keep`` (restrict a result to e.g. the reachable plane)."""
    if _np_worthwhile(out):
        ov, kv = _view(out), _view(keep)
        _numpy.bitwise_and(ov, kv, out=ov)
        del ov, kv
        return
    write_int(out, to_int(out) & to_int(keep))


def or_into(out: array, other: array) -> None:
    """``out |= other``."""
    if _np_worthwhile(out):
        ov, sv = _view(out), _view(other)
        _numpy.bitwise_or(ov, sv, out=ov)
        del ov, sv
        return
    write_int(out, to_int(out) | to_int(other))


def zero(plane: array) -> None:
    plane[:] = array("Q", bytes(8 * len(plane)))


def any_bit(plane: array) -> bool:
    if _np_worthwhile(plane):
        view = _view(plane)
        result = bool(view.any())
        del view
        return result
    return any(plane)


def count_bits(plane: array) -> int:
    """Population count of the whole plane."""
    if _np_worthwhile(plane) and hasattr(_numpy, "bitwise_count"):
        view = _view(plane)
        result = int(_numpy.bitwise_count(view).sum())
        del view
        return result
    return to_int(plane).bit_count()


def iter_bits_of(value: int):
    """Yield the set bit positions of a big integer, increasing."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


def iter_bits(plane: array):
    """Yield set vertex ids in increasing order (popcount-bounded work)."""
    return iter_bits_of(to_int(plane))


# ----------------------------------------------------------------------
# Bool-array helpers (numpy tier only; kernels guard on numpy_active())
# ----------------------------------------------------------------------


def unpack_bool(plane: array, nbits: int):
    """One uint8 0/1 per vertex (numpy tier only)."""
    raw = _numpy.frombuffer(plane, dtype=_numpy.uint8)
    return _numpy.unpackbits(raw, count=nbits, bitorder="little")


def pack_bool(bools, nwords: int) -> array:
    """Pack a 0/1 array back into a fresh plane (numpy tier only)."""
    packed = _numpy.packbits(bools, bitorder="little")
    out = bytearray(8 * nwords)
    out[: len(packed)] = packed.tobytes()
    return array("Q", bytes(out))


def clone_bits(plane_list, origins, first: int) -> None:
    """In every plane, set bit ``first + i`` where bit ``origins[i]`` is set.

    The membership half of a vertex split: clones are appended after the
    existing vertices and inherit their originals' rows.  Planes must
    already be wide enough for the clones.
    """
    if not plane_list:
        return
    if _np_worthwhile(plane_list[0]):
        # One (planes x origins) bit gather over the stacked plane words.
        stacked = _numpy.frombuffer(
            b"".join([plane.tobytes() for plane in plane_list]), dtype=_numpy.uint64
        ).reshape(len(plane_list), -1)
        at = _numpy.asarray(origins, dtype=_numpy.intp)
        shift = (at & 63).astype(_numpy.uint64)
        rows, cols = _numpy.nonzero(stacked[:, at >> 6] >> shift & 1)
        hits = zip(rows.tolist(), (cols + first).tolist())
    else:
        select = 0
        for vertex in origins:
            select |= 1 << vertex
        clone_of = {vertex: first + i for i, vertex in enumerate(origins)}
        hits = (
            (row, clone_of[vertex])
            for row, plane in enumerate(plane_list)
            for vertex in iter_bits_of(to_int(plane) & select)
        )
    for row, clone in hits:
        plane_list[row][clone >> 6] |= 1 << (clone & 63)

