"""The five named workloads: documents, request streams and the oracle.

Everything here is a pure function of ``--seed``.  The request order of each
client is drawn from ``random.Random(f"{seed}/{client}")``; documents come
from :mod:`repro.corpora` at registry default scale and are the same for
every seed (see :data:`CORPUS_SEED`).  The server only ever sees the
generated XML and the generated requests.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass

from repro.bench.queries import queries_for
from repro.corpora import binary_tree, generate, relational
from repro.engine.pipeline import Engine
from repro.server.service import decode_result

#: The ten ``bench_server`` queries (five per document), kept as data so
#: this directory imports nothing from the legacy ``benchmarks/bench_*.py``.
SMALL_QUERIES = (
    ("binary-tree", "/a/b/a/b"),
    ("binary-tree", "//b[a]"),
    ("binary-tree", "/descendant::a[b/b]"),
    ("binary-tree", "//a/following-sibling::b"),
    ("binary-tree", "//b/preceding-sibling::a"),
    ("relational", "/table/row/col0"),
    ("relational", '//row[col1["r1c1"]]/col2'),
    ("relational", "//col3/following-sibling::col5"),
    ("relational", '//row[col0["r0c0"]]'),
    ("relational", "//col1/preceding-sibling::col0"),
)

#: Element appended (and then deleted again) by the ``mutate_mix`` writer
#: and by the traced mutation probe.  It matches ``//item`` and
#: ``//listitem/text`` so the two legal document states answer differently.
FRAGMENT = (
    "<item><location>Benchmark</location><description><parlist><listitem>"
    "<text>appended by the e2e writer</text></listitem></parlist></description></item>"
)


def appendix(corpus: str, *ids: str) -> tuple[tuple[str, str], ...]:
    queries = queries_for(corpus)
    return tuple((corpus, queries[query_id]) for query_id in ids)


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for ``BENCHMARK.json``: why the workload exists.
    why: str
    #: ``(document, query)`` pairs; every client cycles through all of them.
    requests: tuple[tuple[str, str], ...]
    #: Result paths requested with every query (0 = counts only).
    paths: int = 0
    #: ``repro serve --workers`` (0 = evaluate in the serving process).
    workers: int = 0
    #: Element path the open-loop writer appends under, or ``None`` for a
    #: read-only workload.  The traced mutation probe uses ``()`` (the root
    #: element) on read-only workloads.
    writer_path: tuple[int, ...] | None = None
    #: Discarded closed-loop warm-up before the measured window (seconds).
    warmup_s: float = 2.0

    @property
    def documents(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(document for document, _ in self.requests))

    @property
    def mutated_document(self) -> str:
        return self.documents[0]


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="small_hot",
        why="tiny documents: evaluation is ~10% of a request, so transport, executor hop, "
        "coalescing bookkeeping and JSON dominate (the serving tax); bypasses the engine",
        requests=SMALL_QUERIES,
    ),
    Workload(
        name="heavy_eval",
        why="treebank Q1-Q5 + dblp Q4,Q5, counts only: axis evaluation and partial "
        "decompression are ~90% of a request; bypasses transport and result decode",
        requests=appendix("treebank", "Q1", "Q2", "Q3", "Q4", "Q5") + appendix("dblp", "Q4", "Q5"),
    ),
    Workload(
        name="paths_decode",
        why="seven selective queries with paths=25: decode_result walks the uncompressed "
        "tree and bodies are large, so api/result materialisation dominates evaluation",
        requests=appendix("dblp", "Q2", "Q3")
        + appendix("shakespeare", "Q2", "Q3")
        + appendix("xmark", "Q2", "Q3", "Q4"),
        paths=25,
    ),
    Workload(
        name="mutate_mix",
        why="open-loop writer (10 /mutate per s) beside a closed-loop reader on xmark: every "
        "commit is a pool miss and an RSKL reload; stresses mutation, journal, catalog, pool",
        requests=appendix("xmark", "Q1", "Q2") + (("xmark", "//item"), ("xmark", "//listitem/text")),
        writer_path=(0, 0),
        warmup_s=3.0,
    ),
    Workload(
        name="fleet1_small",
        why="the small_hot stream through serve --workers 1: identical work plus one "
        "dispatch/pickle/queue hop, so the cluster wire cost is the only difference",
        requests=SMALL_QUERIES,
        workers=1,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: Writer schedule of ``mutate_mix``: one ``/mutate`` every 100 ms.
WRITER_RATE = 10.0

#: Closed-loop clients (never more than the two cores of the reference box).
CLIENTS = 2


#: Seed of every generated corpus.  The documents do not follow ``--seed``:
#: two treebank seeds differ by up to 9% in evaluation cost (Q2: 57-77 ms),
#: which is more than the regression bounds, and the driver compares runs
#: made with different seeds.  ``--seed`` decides the order of the requests.
CORPUS_SEED = 0


def build_documents(workload: Workload) -> dict[str, str]:
    """The workload's documents as ``name -> xml``."""
    documents = {}
    for name in workload.documents:
        if name == "binary-tree":
            documents[name] = binary_tree.generate_xml(depth=10).xml
        elif name == "relational":
            documents[name] = relational.generate_xml(250, 10, distinct_texts=True).xml
        else:
            documents[name] = generate(name, None, CORPUS_SEED).xml
    return documents


def request_stream(workload: Workload, seed: int, client: int, blocks: int = 64) -> list[int]:
    """Indexes into ``workload.requests`` for one client, cycled by the caller.

    A concatenation of seeded shuffles, so every block holds each distinct
    request exactly once: the mix is exactly uniform whatever the window
    length, and only the order depends on the seed.
    """
    rng = random.Random(f"{seed}/{client}")
    order = list(range(len(workload.requests)))
    stream: list[int] = []
    for _ in range(blocks):
        rng.shuffle(order)
        stream.extend(order)
    return stream


def query_body(workload: Workload, index: int) -> dict:
    document, query = workload.requests[index]
    return {"document": document, "query": query, "paths": workload.paths}


# -- the oracle --------------------------------------------------------------


def canonical(payload: dict) -> tuple:
    """The comparable part of a ``/query`` answer (nothing volatile)."""
    return payload["tree_count"], tuple(payload.get("paths", ()))


def oracle_answers(workload: Workload, documents: dict[str, str]) -> list[tuple]:
    """Canonical answers by direct one-shot evaluation, one per request.

    ``Engine(xml).query`` re-extracts a query-specific minimal instance and
    evaluates the unoptimized plan, so it shares neither the catalog, the
    pool, the optimizer nor the all-tags schema with the served stack.
    ``dag_count`` depends on the schema an instance was shredded over, so
    it is not part of the canonical answer; the benchmark instead requires
    it to take one value per (request, document state) across a whole run.
    """
    engines = {name: Engine(xml) for name, xml in documents.items()}
    return [
        canonical(decode_result(engines[document].query(query), paths=workload.paths))
        for document, query in workload.requests
    ]


# -- the writer's two document states ----------------------------------------


def child_count(xml: str, path: tuple[int, ...]) -> int:
    """Element children of the element at ``path`` (ordinals from the root)."""
    node = ElementTree.fromstring(xml)
    for step in path:
        node = node[step]
    return len(node)


def mutation_pair(xml: str, path: tuple[int, ...]) -> tuple[dict, dict]:
    """``(append, delete)``: append :data:`FRAGMENT` under ``path``, then delete it.

    Applied alternately they move the document between exactly two legal
    states and never let it drift.
    """
    append = {"op": "append_child", "path": list(path), "xml": FRAGMENT}
    delete = {"op": "delete_subtree", "path": [*path, child_count(xml, path)]}
    return append, delete


def appended_state(xml: str, path: tuple[int, ...]) -> str:
    """The document text after the writer's append (built without ``repro``)."""
    root = ElementTree.fromstring(xml)
    node = root
    for step in path:
        node = node[step]
    node.append(ElementTree.fromstring(FRAGMENT))
    return ElementTree.tostring(root, encoding="unicode")
