"""The traced pass: per-layer numbers, all taken from outside the program.

Nothing in ``src/`` records spans yet (ROADMAP "one clock"), so every span
here is a timed call from this file into one layer's public function: the
traced HTTP round trip, then the same request list replayed in this process
stage by stage, then as one ``QueryService.query``, one ``Router.dispatch``
and one ``WorkerFleet.query``.  A request's spans share its ``request``
identifier; ``parent`` names the span that causes this one inside the server.

A layer's ``*_ms`` metric is the time of a *typical request*: the median
over the repetitions of each distinct request, averaged over the distinct
requests (every client sends them in equal shares).  Unlike a median over
the whole mix, that statistic adds up across stages, so self times (span
minus children) reconcile with the enclosing span.  Durations are in
reference milliseconds (:class:`loadgen.SpeedClock`).
"""

from __future__ import annotations

import json
import os
import statistics
import time

import loadgen
import measure
import workloads
from repro.api.envelope import DEFAULT_LIMIT
from repro.engine.batch import BatchEvaluator
from repro.mutation.apply import apply_mutations
from repro.server.catalog import Catalog
from repro.server.cluster import WorkerFleet
from repro.server.journal import Journal
from repro.server.metrics import ServerMetrics
from repro.server.routes import Headers, Request, Router
from repro.server.service import QueryService, decode_result
from repro.skeleton.loader import load
from repro.xpath.compiler import compile_query, required_strings, required_tags
from repro.xpath.optimizer import optimize
from repro.xpath.parser import parse_query

#: Which span each span is a child of (the server-side call structure).
PARENTS = {
    "routes.dispatch": "transport.http",
    "routes.json": "routes.dispatch",
    "cluster.query": "routes.dispatch",
    "service.query": "routes.dispatch",
    "model.copy": "service.query",
    "engine.evaluate": "service.query",
    "api.encode_result": "service.query",
    "catalog.mutate": "transport.mutate",
    "mutation.apply": "catalog.mutate",
    "journal.append": "catalog.mutate",
}

#: ``append``/``delete`` pairs of the mutation probes.
PROBE_PAIRS = 3


class Spans:
    """In-memory span table, written out once when the benchmark ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list[tuple[str, float, float, str]] = []

    def timed(self, name: str, request: str, function, *args, **kwargs):
        """Call ``function`` as the span ``name`` of ``request`` (``class#repetition``)."""
        started = time.perf_counter()
        result = function(*args, **kwargs)
        self.rows.append((name, started, time.perf_counter(), request))
        return result

    def _by_class(self, name: str, speed: loadgen.SpeedTable) -> dict[str, list[float]]:
        by_class: dict[str, list[float]] = {}
        for span_name, started, ended, request in self.rows:
            if span_name == name:
                by_class.setdefault(request.partition("#")[0], []).append(
                    1000.0 * (ended - started) / speed.index_at(started)
                )
        if not by_class:
            raise RuntimeError(f"no {name} span was recorded")
        return by_class

    def typical_ms(self, name: str, speed: loadgen.SpeedTable) -> float:
        """Per-class medians of ``name``, averaged over the classes."""
        return statistics.fmean(
            statistics.median(values) for values in self._by_class(name, speed).values()
        )

    def total_ms(self, name: str, speed: loadgen.SpeedTable) -> float:
        """Per-class medians of ``name``, summed over the classes."""
        return sum(statistics.median(values) for values in self._by_class(name, speed).values())

    def count(self, name: str) -> int:
        return sum(1 for row in self.rows if row[0] == name)

    def dump(self) -> list[dict]:
        """One JSON-able row per span, in the order recorded."""
        return [
            {"workload": self.workload, "request": request, "name": name,
             "parent": PARENTS.get(name), "start": started, "end": ended}
            for name, started, ended, request in self.rows
        ]


def request_list(inputs: measure.Inputs, cap: int) -> list[tuple[str, int]]:
    """``(request id, request index)`` for the traced pass: client 0's stream."""
    seen: dict[int, int] = {}
    rows = []
    for index in workloads.request_stream(inputs.workload, inputs.seed, 0)[:cap]:
        rows.append((f"{index}#{seen.get(index, 0)}", index))
        seen[index] = seen.get(index, 0) + 1
    return rows


def _blocks(inputs: measure.Inputs, requests: list[tuple[str, int]], budget_s: float):
    """The request list block by block (every distinct request once per
    block), stopping at the first block boundary past the time budget."""
    size = len(inputs.workload.requests)
    deadline = time.perf_counter() + budget_s
    for offset in range(0, len(requests), size):
        if offset and time.perf_counter() > deadline:
            return
        yield requests[offset:offset + size]


def _require(problem: str | None) -> None:
    if problem is not None:
        raise RuntimeError(f"traced pass: {problem}")


# -- over HTTP, against the live server --------------------------------------


def http_passes(inputs: measure.Inputs, stack: measure.Stack, spans: Spans,
                requests: list[tuple[str, int]], budget_s: float) -> None:
    """The request list at one client, untraced and with ``X-Repro-Trace`` set.

    The two passes alternate block by block so that drift hits both alike.
    ``engine.served`` is not timed here: it is the evaluation time the server
    itself reports in each answer (``seconds``), recorded as a span so the
    replay's ``engine.evaluate`` can be held against it.
    """
    workload = inputs.workload
    traced = [
        loadgen.encode_request(
            "POST", "/query", workloads.query_body(workload, index), trace=f"e2e{index:013x}"
        )
        for index in range(len(workload.requests))
    ]
    healthz = loadgen.encode_request("GET", "/healthz")
    with loadgen.Connection(stack.address) as connection:
        for repetition in range(50):
            spans.timed("transport.healthz", f"healthz#{repetition}", connection.request, healthz)
        for block in _blocks(inputs, requests, budget_s):
            for request, index in block:
                status, body = spans.timed(
                    "transport.http_untraced", request, connection.request, inputs.encoded[index]
                )
                _require(inputs.check_query(index, status, body))
            for request, index in block:
                status, body = spans.timed(
                    "transport.http", request, connection.request, traced[index]
                )
                _require(inputs.check_query(index, status, body))
                ended = spans.rows[-1][2]
                spans.rows.append(
                    ("engine.served", ended - json.loads(body)["seconds"], ended, request)
                )
        for repetition in range(PROBE_PAIRS):
            for index, raw in enumerate(inputs.mutate_requests()):
                status, body = spans.timed(
                    "transport.mutate", f"{index}#{repetition}", connection.request, raw
                )
                _require(inputs.check_mutation(index, status, body))


# -- replayed in this process ---------------------------------------------------


def replay(inputs: measure.Inputs, catalog_dir: str, spans: Spans,
           requests: list[tuple[str, int]], budget_s: float) -> dict:
    """Stage by stage, then whole ``service.query`` and ``Router.dispatch``.

    Returns the exact counts (Figure 7's columns among them), summed over
    the distinct requests.
    """
    workload = inputs.workload
    catalog = Catalog(catalog_dir)
    service = QueryService(catalog)
    router = Router(lambda: service, metrics=ServerMetrics(lambda: service, frontend="async"))
    schemas = []
    masters: dict[tuple, object] = {}
    for index, (document, query) in enumerate(workload.requests):
        ast = parse_query(query)
        strings = tuple(sorted(required_strings(ast)))
        if (document, strings) not in masters:
            masters[document, strings] = spans.timed(
                "catalog.load_strings" if strings else "catalog.load_structural",
                f"{document}/{'+'.join(strings)}#0", catalog.load_instance, document, strings,
            )
        schemas.append((tuple(sorted(required_tags(ast))), strings))
        service.query(document, query, paths=workload.paths)  # fill the service's caches
    for document in workload.documents:
        # The pool-miss cost of every commit on mutate_mix; first-request
        # cost elsewhere.  Workloads without a string constraint still
        # report the re-parse, against a needle of their first document.
        for repetition in range(1, 5):
            spans.timed("catalog.load_structural", f"{document}/#{repetition}",
                        catalog.load_instance, document, ())
    if not any(strings for _, strings in schemas):
        spans.timed("catalog.load_strings", f"{workload.documents[0]}/e#0",
                    catalog.load_instance, workload.documents[0], ("e",))
    counts = dict.fromkeys(
        ("xpath.rules_applied", "engine.vertices_before", "engine.vertices_after",
         "engine.selected_dag", "engine.selected_tree", "paths_returned"), 0,
    )
    counted: set[int] = set()
    response_bytes = []
    for block in _blocks(inputs, requests, budget_s):
        for request, index in block:
            document, query = workload.requests[index]
            tags, strings = schemas[index]
            expr = spans.timed("xpath.compile", request, _compile, query)
            plan = spans.timed(
                "xpath.optimize", request, optimize, expr, catalog.document_stats(document)
            )
            working = spans.timed(
                "model.copy", request, _working_copy, masters[document, strings], tags
            )
            result = spans.timed(
                "engine.evaluate", request,
                BatchEvaluator(working, copy=False, short_circuit=True).evaluate_batch,
                [plan.expr],
            )[0]
            decoded = spans.timed(
                "api.encode_result", request, decode_result, result, workload.paths, DEFAULT_LIMIT
            )
            if index not in counted:
                counted.add(index)
                if workloads.canonical(decoded) not in inputs.expected[index]:
                    raise RuntimeError(f"staged replay of {query!r} differs from the oracle")
                counts["xpath.rules_applied"] += len(plan.rules_applied)
                counts["engine.vertices_before"] += result.before[0]
                counts["engine.vertices_after"] += result.after[0]
                counts["engine.selected_dag"] += decoded["dag_count"]
                counts["engine.selected_tree"] += decoded["tree_count"]
                counts["paths_returned"] += len(decoded.get("paths", ()))
            payload = spans.timed(
                "service.query", request, service.query, document, query,
                paths=workload.paths, trace=request,
            )
            spans.timed("routes.json", request, _encode_json, payload)
            body = json.dumps(workloads.query_body(workload, index)).encode("utf-8")
            response = spans.timed(
                "routes.dispatch", request, router.dispatch,
                Request("POST", "/query", headers=Headers({"x-repro-trace": request}), body=body),
            )
            if response.status != 200:
                raise RuntimeError(f"in-process dispatch of {query!r} answered {response.status}")
            response_bytes.append(len(response.body))
    requested = workload.paths * len(workload.requests)
    return {
        "xpath.rules_applied": counts["xpath.rules_applied"],
        "engine.vertices_before": counts["engine.vertices_before"],
        "engine.vertices_after": counts["engine.vertices_after"],
        "engine.split_vertices": counts["engine.vertices_after"] - counts["engine.vertices_before"],
        "engine.selected_dag": counts["engine.selected_dag"],
        "engine.selected_tree": counts["engine.selected_tree"],
        "api.paths_returned_share": counts["paths_returned"] / requested if requested else 0.0,
        "routes.response_bytes": statistics.fmean(response_bytes),
        "skeleton.rskl_bytes": sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, files in os.walk(catalog.root)
            for name in files if name == "skeleton.rskl"
        ),
    }


def _compile(query: str):
    return compile_query(parse_query(query))


def _working_copy(master, tags):
    """What a snapshot batch starts from: a copy plus the absent tag sets."""
    working = master.copy()
    for tag in tags:
        if not working.has_set(tag):
            working.ensure_set(tag)
    return working


def _encode_json(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def fleet_replay(inputs: measure.Inputs, catalog_dir: str, spans: Spans,
                 requests: list[tuple[str, int]], budget_s: float) -> dict:
    """``WorkerFleet(workers=1).query`` from this process: the wire hop alone."""
    workload = inputs.workload
    fleet = WorkerFleet(Catalog(catalog_dir), workers=1)
    try:
        if not fleet.wait_ready(timeout=60.0):
            raise RuntimeError("the in-process worker fleet never became ready")
        for document, query in workload.requests:
            fleet.query(document, query, paths=workload.paths)
        for block in _blocks(inputs, requests, budget_s):
            for request, index in block:
                document, query = workload.requests[index]
                payload = spans.timed(
                    "cluster.query", request, fleet.query, document, query,
                    paths=workload.paths, trace=request,
                )
                if workloads.canonical(payload) not in inputs.expected[index]:
                    raise RuntimeError(f"fleet answer to {query!r} differs from the oracle")
        cluster = fleet.stats_dict()["cluster"]
    finally:
        fleet.close()
    return {"cluster.failed": cluster["failed"], "cluster.respawns": cluster["respawns"]}


# -- writes and shredding --------------------------------------------------------


def mutation_probe(inputs: measure.Inputs, catalog_dir: str, scratch_dir: str,
                   spans: Spans) -> dict:
    """``apply_mutations``, ``Journal.append`` and ``Catalog.mutate`` on their own.

    Runs against the stopped server's catalog: append/delete pairs on the
    workload's first document, so the document ends where it started.
    """
    catalog = Catalog(catalog_dir)
    document = inputs.workload.mutated_document
    journal = Journal(os.path.join(scratch_dir, "probe.wal"))
    written = []
    for repetition in range(PROBE_PAIRS):
        for index, mutation in enumerate(inputs.mutations):
            request = f"{index}#{repetition}"
            entry = catalog.entry(document)
            spans.timed(
                "mutation.apply", request, apply_mutations,
                catalog.store(document).assemble(), catalog.xml(document), [mutation],
                entry.attributes, catalog.document_stats(document),
            )
            record = {"name": document, "base_version": entry.doc_version,
                      "doc_version": entry.doc_version + 1, "mutations": [mutation],
                      "ts": time.time()}
            size_before = os.path.getsize(journal.path) if repetition or index else 0
            spans.timed("journal.append", request, journal.append, record)
            entry = spans.timed("catalog.mutate", request, catalog.mutate, document, [mutation])
            written.append(
                os.path.getsize(journal.path) - size_before
                + measure.tree_bytes(os.path.join(catalog.root, document, entry.version_dir))
            )
    fresh = load(catalog.xml(document), tags=None, attributes=entry.attributes).instance
    return {
        "catalog.bytes_written_per_mutation": statistics.fmean(written),
        "mutation.dag_vertices_drift": entry.dag_vertices - fresh.num_vertices,
    }


def shred_probe(inputs: measure.Inputs, spans: Spans) -> None:
    for name, xml in inputs.documents.items():
        spans.timed("skeleton.shred", f"{name}#0", load, xml, tags=None)


# -- putting the table together ----------------------------------------------------


def table(inputs: measure.Inputs, stack: measure.Stack, spans: Spans,
          speed: loadgen.SpeedTable) -> dict:
    """Typical times per layer, self times (span minus children), reconciliation."""
    def typical(name: str) -> float:
        return spans.typical_ms(name, speed)

    def self_ms(parent: float, *children: float) -> float:
        return max(0.0, parent - sum(children))

    http, untraced = typical("transport.http"), typical("transport.http_untraced")
    dispatch, service, encode_json = (
        typical("routes.dispatch"), typical("service.query"), typical("routes.json")
    )
    copy, evaluate, encode = (
        typical("model.copy"), typical("engine.evaluate"), typical("api.encode_result")
    )
    cluster = typical("cluster.query")
    apply_ms, append_ms, mutate_ms = (
        typical("mutation.apply"), typical("journal.append"), typical("catalog.mutate")
    )
    wire_self = self_ms(cluster, service)
    routes_self = self_ms(dispatch, service, encode_json)
    service_self = self_ms(service, copy, evaluate, encode)
    return {
        "transport.healthz_ms": typical("transport.healthz"),
        "transport.self_ms": self_ms(
            http, dispatch, wire_self if inputs.workload.workers else 0.0
        ),
        "transport.mutate_ms": typical("transport.mutate"),
        "routes.dispatch_ms": dispatch,
        "routes.self_ms": routes_self,
        "routes.json_ms": encode_json,
        "service.query_ms": service,
        "service.self_ms": service_self,
        "xpath.compile_ms": typical("xpath.compile"),
        "xpath.optimize_ms": typical("xpath.optimize"),
        "catalog.load_structural_ms": typical("catalog.load_structural"),
        "catalog.load_strings_ms": typical("catalog.load_strings"),
        "model.copy_ms": copy,
        "engine.evaluate_ms": evaluate,
        "engine.served_ms": typical("engine.served"),
        "api.encode_result_ms": encode,
        "cluster.query_ms": cluster,
        "cluster.wire_self_ms": wire_self,
        "mutation.apply_ms": apply_ms,
        "journal.append_ms": append_ms,
        "catalog.mutate_ms": mutate_ms,
        "catalog.publish_self_ms": self_ms(mutate_ms, apply_ms, append_ms),
        "skeleton.shred_ms_per_mb": spans.total_ms("skeleton.shred", speed)
        / (inputs.xml_bytes / 1e6),
        "storage.catalog_add_ms": 1000.0 * speed.reference_seconds(stack.started, stack.added),
        "compress.dag_vertices_per_tree_node": (
            sum(entry.dag_vertices for entry in stack.entries)
            / sum(entry.skeleton_nodes for entry in stack.entries)
        ),
        "trace.overhead_share": http / untraced - 1.0,
        "trace.stage_sum_share": (
            routes_self + encode_json + service_self + copy + evaluate + encode
        ) / dispatch,
    }
