"""Chaos scenarios for the mutation write path.

The durability contract under attack: a crash **anywhere** between the
journal append and the manifest publish leaves the catalog either fully
at the old version or — after the writer's startup replay — fully at
the new one.  Never a torn middle state, never a half-visible document.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.errors import IntegrityError
from repro.mutation.textedit import splice
from repro.mutation.ops import Mutation
from repro.server.catalog import Catalog
from repro.server.resilience import FAULTS
from repro.server.service import QueryService

from tests.skeleton.test_loader import BIB_XML

pytestmark = pytest.mark.chaos

APPEND_BOOK = {
    "op": "append_child",
    "path": [],
    "xml": "<book><title>New</title><author>Crash</author></book>",
}

EDITED_XML = splice(BIB_XML, Mutation.from_dict(APPEND_BOOK))


@pytest.fixture(autouse=True)
def disarmed_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


def test_crash_between_append_and_publish_recovers_on_replay(tmp_path):
    """SIGKILL at the commit point: the journaled intent replays to v2."""
    root = str(tmp_path / "cat")
    Catalog(root).add("bib", BIB_XML)
    script = textwrap.dedent(
        """
        import json, os, signal, sys
        from repro.server.catalog import Catalog
        from repro.server.resilience import FAULTS

        def die(**context):
            if context.get("op") == "commit":
                os.kill(os.getpid(), signal.SIGKILL)

        FAULTS.arm("catalog.journal", callback=die)
        catalog = Catalog(sys.argv[1], journal_replay=False)
        catalog.mutate("bib", json.loads(sys.argv[2]))
        raise SystemExit("mutate survived a SIGKILL at the commit point")
        """
    )
    process = subprocess.run(
        [sys.executable, "-c", script, root, f"[{__import__('json').dumps(APPEND_BOOK)}]"],
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        timeout=120,
    )
    assert process.returncode == -signal.SIGKILL, process.stderr.decode()

    # The manifest still names v1; the intent is journaled, not published.
    reader = Catalog(root, journal_replay=False)
    assert reader.entry("bib").doc_version == 1
    assert reader.xml("bib") == BIB_XML

    # The next writer replays the journal and finishes the publish.
    writer = Catalog(root)
    assert writer.last_replay["bib"]["replayed"] == [2]
    assert writer.entry("bib").doc_version == 2
    assert writer.xml("bib") == EDITED_XML
    service = QueryService(writer)
    try:
        assert service.query("bib", "//author")["tree_count"] == 6
    finally:
        service.close()


def test_crash_during_journal_append_changes_nothing(tmp_path):
    """A torn WAL frame (crash mid-append) is truncated; v1 stands."""
    root = str(tmp_path / "cat")
    catalog = Catalog(root)
    catalog.add("bib", BIB_XML)
    journal_path = os.path.join(root, "bib", "journal.wal")
    with open(journal_path, "w", encoding="utf-8") as handle:
        frame_start = "00" * 16 + ' {"name": "bib", "base_version": 1'
        handle.write(frame_start)  # no newline: the crash point

    writer = Catalog(root)
    assert writer.last_replay["bib"]["torn_truncated"]
    assert not writer.last_replay["bib"]["replayed"]
    assert writer.entry("bib").doc_version == 1
    assert writer.xml("bib") == BIB_XML
    assert not os.path.exists(journal_path)  # truncated-to-empty is removed


def test_injected_error_at_commit_is_atomic_and_replayable(tmp_path):
    """An in-process failure at the commit point rolls back, then replays."""
    root = str(tmp_path / "cat")
    catalog = Catalog(root)
    catalog.add("bib", BIB_XML)

    def boom(**context):
        if context.get("op") == "commit":
            raise IntegrityError("injected: disk died at the commit point")

    FAULTS.arm("catalog.journal", callback=boom)
    with pytest.raises(IntegrityError):
        catalog.mutate("bib", [APPEND_BOOK])
    FAULTS.disarm()

    # This writer's in-memory view still serves v1 consistently.
    assert catalog.entry("bib").doc_version == 1
    assert catalog.xml("bib") == BIB_XML

    # A restarted writer replays the journaled intent to completion.
    writer = Catalog(root)
    assert writer.last_replay["bib"]["replayed"] == [2]
    assert writer.xml("bib") == EDITED_XML


def test_stray_version_directory_is_swept(tmp_path):
    """A crashed publish's half-renamed v<N> dir is garbage-collected."""
    root = str(tmp_path / "cat")
    catalog = Catalog(root)
    catalog.add("bib", BIB_XML)
    stray = os.path.join(root, "bib", "v7")
    os.makedirs(stray)
    with open(os.path.join(stray, "document.xml"), "w") as handle:
        handle.write("<half/>")

    writer = Catalog(root)
    assert writer.last_replay["bib"]["stray_versions_swept"] == ["v7"]
    assert not os.path.exists(stray)
    assert writer.xml("bib") == BIB_XML
