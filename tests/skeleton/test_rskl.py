"""The succinct on-disk skeleton codec (RSKL).

Round-trips must be *byte-identical*, not merely bisimilar: the skeleton is
the catalog's only stored form of an instance, and a decoded instance that
numbered its vertices differently from the shredder's would make the
manifest's counts and every result comparison describe something else.  So
the tests compare full observable state — schema order, vertex numbering,
run-length children, plane bytes — between the instance and codec output.
"""

from __future__ import annotations

import os

import pytest

from repro.corpora import binary_tree, relational, xmark
from repro.errors import IntegrityError
from repro.model import planes
from repro.model.instance import Instance
from repro.skeleton.layout import (
    SkeletonUnsupported,
    decode_skeleton,
    encode_skeleton,
    read_skeleton,
    write_skeleton,
)
from repro.skeleton.loader import load_instance

from tests.skeleton.test_loader import BIB_XML


def observable(instance: Instance) -> tuple:
    return (
        tuple(instance.schema),
        instance.num_vertices,
        instance.root,
        tuple(instance.children(v) for v in range(instance.num_vertices)),
        tuple(instance.row_masks()),
    )


CORPUS_INSTANCES = {
    "bib-strings": lambda: load_instance(BIB_XML, strings=["Codd"]),
    "binary-tree": lambda: binary_tree.compressed_instance(depth=9),
    "relational": lambda: relational.direct_instance(rows=25, cols=4),
    "xmark": lambda: load_instance(xmark.generate(scale=10).xml),
}


class TestCodecRoundTrip:
    @pytest.mark.parametrize("corpus", sorted(CORPUS_INSTANCES))
    def test_encode_decode_byte_identical(self, corpus):
        instance = CORPUS_INSTANCES[corpus]()
        decoded = decode_skeleton(encode_skeleton(instance))
        assert observable(decoded) == observable(instance)
        decoded.validate()

    def test_encoding_is_deterministic(self):
        instance = load_instance(BIB_XML)
        assert encode_skeleton(instance) == encode_skeleton(instance)

    def test_decode_under_either_kernel_tier(self):
        instance = load_instance(BIB_XML)
        payload = encode_skeleton(instance)
        previous = planes.set_numpy(False)
        try:
            stdlib_decoded = decode_skeleton(payload)
        finally:
            planes.set_numpy(previous)
        assert observable(stdlib_decoded) == observable(instance)

    def test_empty_instance_is_unsupported(self):
        with pytest.raises(SkeletonUnsupported):
            encode_skeleton(Instance(("a",)))

    def test_newline_in_name_is_unsupported(self):
        instance = Instance(("a\nb",))
        instance.set_root(instance.new_vertex(["a\nb"]))
        with pytest.raises(SkeletonUnsupported):
            encode_skeleton(instance)


class TestFileAndMmap:
    @pytest.fixture
    def skeleton_file(self, tmp_path):
        instance = load_instance(BIB_XML, strings=["Codd"])
        path = str(tmp_path / "bib.rskl")
        written = write_skeleton(path, instance)
        assert written == os.path.getsize(path)
        return path, instance

    def test_read_round_trips(self, skeleton_file):
        """``write_skeleton(load_instance(xml))`` → ``read_skeleton``: what the
        catalog publishes and serves — vertex ids are the shredder's."""
        path, instance = skeleton_file
        loaded, info = read_skeleton(path)
        assert observable(loaded) == observable(instance)
        assert info.bytes_mapped == os.path.getsize(path)
        assert info.as_dict()["format"] == "skeleton"

    def test_file_replaceable_after_read(self, skeleton_file):
        # The decoded arrays are private copies: nothing of the file is
        # referenced after return, so it can be replaced in place.
        path, instance = skeleton_file
        loaded, _ = read_skeleton(path)
        os.remove(path)
        assert observable(loaded) == observable(instance)

    def test_corrupt_payload_fails_checksum(self, skeleton_file):
        path, _ = skeleton_file
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(IntegrityError, match="failed its checksum"):
            read_skeleton(path)

    def test_truncated_file_is_integrity_error(self, skeleton_file):
        path, _ = skeleton_file
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(IntegrityError):
            read_skeleton(path)

    def test_bad_magic_is_integrity_error(self, skeleton_file):
        path, _ = skeleton_file
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(IntegrityError):
            read_skeleton(path)
