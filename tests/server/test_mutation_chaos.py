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
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.envelope import MAX_PATHS
from repro.errors import IntegrityError
from repro.mutation.textedit import splice
from repro.mutation.ops import Mutation
from repro.server.catalog import Catalog
from repro.server.cluster import WorkerFleet
from repro.server.resilience import FAULTS
from repro.server.service import QueryService

from tests.server.util import wait_until
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


# -- one version per request ------------------------------------------------


def test_fleet_string_query_answers_from_the_version_it_was_routed_at(tmp_path):
    """A commit retires the version a string query was routed at while the
    only worker thread is still loading it: the dispatcher's pin keeps the
    version's files, and the answer is that version's, never an error."""
    root = str(tmp_path / "cat")
    catalog = Catalog(root)
    catalog.add("d", "<r><a>hello</a><b/></r>")
    fleet = WorkerFleet(
        catalog, workers=1, worker_threads=1, health_interval=0.1,
        faults={"catalog.load_instance": {"latency": 0.6, "times": 3}},
    )
    try:
        assert fleet.wait_ready(timeout=60)
        assert fleet.query("d", "//a")["tree_count"] == 1
        outcome: dict = {}

        def ask():
            try:
                outcome["payload"] = fleet.query("d", '//a["hello"]')
            except Exception as error:  # noqa: BLE001 - asserted below
                outcome["error"] = error

        thread = threading.Thread(target=ask)
        thread.start()
        assert wait_until(lambda: fleet._slots[0].inflight)
        fleet.mutate("d", [{"op": "append_child", "path": [], "xml": "<c/>"}])
        thread.join(timeout=60)
        assert "error" not in outcome, outcome.get("error")
        assert outcome["payload"]["tree_count"] == 1
        assert catalog.entry("d").doc_version == 2
        # The request's release deleted the retired version.
        assert "v1" not in os.listdir(os.path.join(root, "d"))
    finally:
        FAULTS.disarm()
        fleet.close()


ONE_VERSION_QUERIES = ["//a", "//a | //x", "/r/b/a", '//a["hi"]', "//b[a]"]

ONE_VERSION_EDITS = [
    {"op": "append_child", "path": [], "xml": "<a>hi</a>"},
    {"op": "append_child", "path": [], "xml": "<x/>"},
    {"op": "append_child", "path": [], "xml": "<b><a/></b>"},
    {"op": "delete_subtree", "path": [0]},
]

#: The ``(operation, seam)`` pairs at which each backend reads a version
#: after pinning it.  A fleet query's reads happen in the worker, past the
#: dispatcher's ``cluster.dispatch`` seam.
ONE_VERSION_SEAMS = {
    "service": [
        (operation, seam)
        for operation in ("query", "analyze")
        for seam in ("catalog.load_instance", "pool.load")
    ],
    "fleet": [("query", "cluster.dispatch"), ("analyze", "catalog.load_instance")],
}


def one_version_oracle(text: str, query: str) -> list[str]:
    """The paths ``query`` selects in ``text``, by a walk of the tree."""
    from repro.api.envelope import encode_path
    from repro.skeleton.loader import load
    from repro.xpath.compiler import required_strings, required_tags

    from tests.engine.util import oracle_paths

    instance = load(text, tags=None, strings=sorted(required_strings(query))).instance
    for tag in required_tags(query):
        instance.ensure_set(tag)  # absent tags select nothing
    return [encode_path(path) for path in sorted(oracle_paths(instance, query))]


@pytest.fixture(scope="module", params=["service", "fleet"])
def versioned_backend(request, tmp_path_factory):
    catalog = Catalog(str(tmp_path_factory.mktemp("one-version")))
    catalog.add("d", "<r><a>hi</a><b><a/></b></r>")
    if request.param == "service":
        backend = QueryService(catalog)
    else:
        backend = WorkerFleet(catalog, workers=1, health_interval=0.1)
    try:
        assert backend.wait_ready(timeout=60)
        yield request.param, backend
    finally:
        FAULTS.disarm()
        backend.close()


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_answer_is_the_pinned_versions(versioned_backend, data):
    """A commit at a read seam, after the request pinned its version, on a
    hypothesis-chosen schedule: every answer equals the tree oracle of the
    version the request pinned, and the next request sees the new one."""
    kind, backend = versioned_backend
    catalog = backend.catalog
    for _ in range(data.draw(st.integers(1, 3), label="steps")):
        operation, seam = data.draw(st.sampled_from(ONE_VERSION_SEAMS[kind]))
        query = data.draw(st.sampled_from(ONE_VERSION_QUERIES), label="query")
        edit = data.draw(st.sampled_from(ONE_VERSION_EDITS), label="edit")
        pinned_text = catalog.xml("d")
        if edit["op"] == "delete_subtree" and pinned_text.count("<") < 5:
            edit = ONE_VERSION_EDITS[0]  # keep the document non-trivial
        committed = []

        def commit(**_):
            committed.append(backend.mutate("d", [edit])["doc_version"])

        backend.evict("d")  # a cold request: every read seam fires
        FAULTS.arm(seam, times=1, callback=commit)
        try:
            if operation == "query":
                # Every path, not a prefix: the shared document grows with
                # each example, and the oracle lists all of its matches.
                payload = backend.query("d", query, paths=MAX_PATHS)
                answer = (payload["tree_count"], payload["paths"])
                expected = one_version_oracle(pinned_text, query)
                assert answer == (len(expected), expected), (query, edit)
            else:
                plan = backend.explain("d", query, analyze=True)["plan"]
                actual = plan["algebra"]["actual"]["tree_count"]
                assert actual == len(one_version_oracle(pinned_text, query)), (query, edit)
        finally:
            FAULTS.disarm()
        assert committed == [catalog.entry("d").doc_version]
        fresh = backend.query("d", query, paths=MAX_PATHS)
        assert fresh["paths"] == one_version_oracle(catalog.xml("d"), query)
