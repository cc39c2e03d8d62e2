"""The end-to-end pass: bring the stack up, drive it, check every answer.

Tracing is off here; the per-layer numbers come from :mod:`layers`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import loadgen
import workloads
from repro.engine.pipeline import Engine
from repro.server.catalog import Catalog
from repro.server.service import decode_result

#: Bring-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Requests per second from which on a window is summarised second by second.
STEADY_RATE = 100


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the sample at or above ``fraction``)."""
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, max(0, math.ceil(fraction * len(ranked)) - 1))]


def tree_bytes(directory: str) -> int:
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:  # a version directory GCed between walk and stat
                pass
    return total


@dataclass
class Inputs:
    """Everything generated from ``--seed`` before any clock starts."""

    workload: workloads.Workload
    seed: int
    documents: dict[str, str]
    #: Per request index, the canonical answers of every legal document state.
    expected: list[set]
    #: Pre-encoded ``POST /query`` bytes per request index.
    encoded: list[bytes]
    #: ``(append, delete)`` bodies for the mutated document.
    mutations: tuple[dict, dict]
    xml_bytes: int = 0
    #: ``dag_count`` values seen per request index (one per document state).
    dag_counts: list[set] = field(default_factory=list)

    @classmethod
    def build(cls, workload: workloads.Workload, seed: int) -> "Inputs":
        documents = workloads.build_documents(workload)
        target = workload.mutated_document
        path = workload.writer_path if workload.writer_path is not None else ()
        states = [workloads.oracle_answers(workload, documents)]
        if workload.writer_path is not None:
            appended = dict(documents)
            appended[target] = workloads.appended_state(documents[target], path)
            states.append(workloads.oracle_answers(workload, appended))
        count = len(workload.requests)
        return cls(
            workload=workload,
            seed=seed,
            documents=documents,
            expected=[{state[index] for state in states} for index in range(count)],
            encoded=[
                loadgen.encode_request("POST", "/query", workloads.query_body(workload, index))
                for index in range(count)
            ],
            mutations=workloads.mutation_pair(documents[target], path),
            xml_bytes=sum(len(xml.encode("utf-8")) for xml in documents.values()),
            dag_counts=[set() for _ in range(count)],
        )

    def check_query(self, index: int, status: int, body: bytes) -> str | None:
        if status != 200:
            return f"HTTP {status} for {self.workload.requests[index]}: {body[:200]!r}"
        payload = json.loads(body)
        if workloads.canonical(payload) not in self.expected[index]:
            return f"answer to {self.workload.requests[index]} differs from the oracle"
        self.dag_counts[index].add(payload["dag_count"])
        return None

    def check_mutation(self, index: int, status: int, body: bytes) -> str | None:
        if status != 200:
            return f"HTTP {status} for /mutate: {body[:200]!r}"
        return None if json.loads(body)["applied"] == 1 else "mutation not applied"

    def mutate_requests(self) -> list[bytes]:
        return [
            loadgen.encode_request(
                "POST", "/mutate",
                {"document": self.workload.mutated_document, "mutations": [mutation]},
            )
            for mutation in self.mutations
        ]

    def dag_counts_consistent(self) -> bool:
        return all(
            len(seen) <= len(expected) for seen, expected in zip(self.dag_counts, self.expected)
        )


class Stack:
    """A throw-away catalog plus the server subprocess serving it."""

    def __init__(self, inputs: Inputs, directory: str, src_dir: str):
        self.directory = directory
        self.catalog_dir = os.path.join(directory, "catalog")
        self.server: loadgen.ServerProcess | None = None
        os.makedirs(self.catalog_dir)
        try:
            self.started = time.perf_counter()
            catalog = Catalog(self.catalog_dir)
            self.entries = [catalog.add(name, xml) for name, xml in inputs.documents.items()]
            self.added = time.perf_counter()
            self.server = loadgen.ServerProcess(
                self.catalog_dir, src_dir, inputs.workload.workers,
                os.path.join(directory, "server.log"),
            )
            self.server.wait_ready()
            self.ready = time.perf_counter()
            # The cold pass: every distinct request once, so compile,
            # optimize, pool loads and (on the fleet) worker start-up are
            # paid here and never inside a measured window.
            with loadgen.Connection(self.server.address) as connection:
                for index, raw in enumerate(inputs.encoded):
                    problem = inputs.check_query(index, *connection.request(raw))
                    if problem is not None:
                        raise RuntimeError(f"cold pass: {problem}")
            self.done = time.perf_counter()
        except BaseException:
            self.close()
            raise

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def get_json(self, path: str) -> dict:
        with loadgen.Connection(self.address) as connection:
            status, body = connection.request(loadgen.encode_request("GET", path))
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        try:
            if self.server is not None:
                self.server.stop()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


def pool_stats(stats: dict) -> dict:
    """The pool block of ``/stats`` (summed over workers on a fleet)."""
    if "pool" in stats:
        return stats["pool"]
    total = {"hits": 0, "misses": 0, "evictions": 0}
    for worker in stats.get("workers", []):
        for key in total:
            total[key] += (worker.get("pool") or {}).get(key, 0)
    return total


def service_stats(stats: dict) -> dict:
    """The service block of ``/stats`` (summed over workers on a fleet)."""
    if "service" in stats:
        return stats["service"]
    total = {"requests": 0, "coalesced_requests": 0, "max_batch_size": 0}
    for worker in stats.get("workers", []):
        block = worker.get("service") or {}
        total["requests"] += block.get("requests", 0)
        total["coalesced_requests"] += block.get("coalesced_requests", 0)
        total["max_batch_size"] = max(total["max_batch_size"], block.get("max_batch_size", 0))
    return total


def drive(inputs: Inputs, stack: Stack, seconds: float, warmup_s: float) -> dict:
    """Warm up, then load the server for ``seconds``; returns raw observations."""
    workload = inputs.workload
    has_writer = workload.writer_path is not None
    reader_count = 1 if has_writer else workloads.CLIENTS
    readers = [loadgen.Samples() for _ in range(reader_count)]
    writer = loadgen.Samples() if has_writer else None
    begin = time.perf_counter()
    window_start = begin + warmup_s
    stop_at = window_start + seconds
    targets = [
        (loadgen.closed_loop,
         (stack.address, inputs.encoded,
          workloads.request_stream(workload, inputs.seed, client),
          inputs.check_query, stop_at, samples))
        for client, samples in enumerate(readers)
    ]
    if has_writer:
        targets.append(
            (loadgen.open_loop,
             (stack.address, inputs.mutate_requests(), inputs.check_mutation,
              workloads.WRITER_RATE, begin, stop_at, writer))
        )
    marks: dict = {}
    cpu_marks: list[tuple[float, float]] = []

    def sample_server() -> None:
        """``/stats`` at window start; the server's CPU clock every second."""
        time.sleep(max(0.0, window_start - time.perf_counter()))
        marks["stats"] = stack.get_json("/stats")
        marks["client_cpu"] = time.process_time()
        while True:
            cpu_marks.append((time.perf_counter(), stack.server.cpu_seconds()))
            due = window_start + len(cpu_marks)
            if due > stop_at:
                return
            time.sleep(max(0.0, due - time.perf_counter()))

    loadgen.run_threads(targets + [(sample_server, ())])
    cpu_marks.append((time.perf_counter(), stack.server.cpu_seconds()))
    return {
        "window_start": window_start,
        "window_end": cpu_marks[-1][0],
        "readers": readers,
        "writer": writer,
        "cpu_marks": cpu_marks,
        "client_cpu_s": time.process_time() - marks["client_cpu"],
        "stats_before": marks["stats"],
        "stats_after": stack.get_json("/stats"),
    }


def final_state_problems(inputs: Inputs, stack: Stack) -> list[str]:
    """After a writer workload: the served state must equal a fresh shred.

    The writer stops after a whole append/delete cycle, so the final text is
    the base state again; its answers must match both the oracle and a
    fresh one-shot evaluation of the text the catalog now holds.
    """
    problems = []
    workload = inputs.workload
    final_text = Catalog(stack.catalog_dir).xml(workload.mutated_document)
    fresh = Engine(final_text)
    with loadgen.Connection(stack.address) as connection:
        for index, (document, query) in enumerate(workload.requests):
            status, body = connection.request(inputs.encoded[index])
            if status != 200:
                problems.append(f"final state: HTTP {status} for {query!r}")
                continue
            served = workloads.canonical(json.loads(body))
            if document == workload.mutated_document:
                direct = workloads.canonical(
                    decode_result(fresh.query(query), paths=workload.paths)
                )
                if served != direct:
                    problems.append(f"final state: {query!r} differs from a fresh shred")
            if served not in inputs.expected[index]:
                problems.append(f"final state: {query!r} is not a legal document state")
    return problems


def verify_problems(catalog_dir: str) -> list[str]:
    """``Catalog.verify()`` must report every document and journal clean."""
    problems = []
    for name, row in Catalog(catalog_dir).verify().items():
        journal = row["journal"]
        if row["status"] != "ok" or journal["torn"] or journal["pending"]:
            problems.append(f"catalog verify: {name} -> {row}")
    return problems


def summarize(inputs: Inputs, observed: dict, stacks: list[Stack],
              speed: loadgen.SpeedTable) -> dict:
    """Raw observations -> the end-to-end metrics plus the report's extras.

    ``stacks`` are the run's set-ups; the window ran against the last one.

    Every duration is in reference seconds (see :class:`loadgen.SpeedClock`):
    a latency is divided by the speed index of the second it started in,
    the window and the set-ups by the index over their whole extent.

    ``latency_p50_ms`` is the median latency of each distinct request,
    averaged over the distinct requests (all are sent equally often).  With
    2 clients behind one GIL a fast query often waits for a slow one, so the
    mix's own median falls where the distribution is sparse and moved 13%
    between runs that agreed within 5% on throughput.

    ``rps``, ``latency_p95_ms`` and ``server_cpu_ms_per_req`` are taken per
    second of the window, and the median second is reported, when the
    workload completes at least :data:`STEADY_RATE` requests per second: a
    second or two in which the sandbox's host takes the CPU away then moves
    neither the tail nor the rate.  Slower workloads have too few samples
    per second for that and use the whole window.
    """
    start, end = observed["window_start"], observed["window_end"]
    rows = [row for samples in observed["readers"] for row in samples.since(start)]
    writer = observed["writer"]
    writes = writer.since(start) if writer is not None else []
    latencies = []
    by_request: dict[int, list[float]] = {}
    for started, latency, _, ok, index in rows:
        if ok:
            latencies.append(latency * 1000.0 / speed.index_at(started))
            by_request.setdefault(index, []).append(latencies[-1])
    cpu_marks = observed["cpu_marks"]
    slices = [(start, end, cpu_marks[-1][1] - cpu_marks[0][1])]
    if len(rows) >= STEADY_RATE * (end - start):
        slices = [
            (begin, finish, cpu_after - cpu_before)
            for (begin, cpu_before), (finish, cpu_after) in zip(cpu_marks, cpu_marks[1:])
            if finish - begin > 0.5
        ]
    rates, tails, cpu_per_request = [], [], []
    for begin, finish, cpu_s in slices:
        answered = [
            latency * 1000.0 / speed.index_at(started)
            for started, latency, _, ok, _ in rows if ok and begin <= started < finish
        ]
        completed = sum(1 for row in rows + writes if begin <= row[0] < finish)
        if answered:
            rates.append(len(answered) / speed.reference_seconds(begin, finish))
            tails.append(percentile(answered, 0.95))
            cpu_per_request.append(
                cpu_s * 1000.0 / speed.index_over(begin, finish) / completed
            )
    clients = observed["readers"] + ([writer] if writer is not None else [])
    transport_errors = sum(samples.errors for samples in clients)
    attempted = len(rows) + len(writes) + transport_errors
    failed = sum(1 for row in rows + writes if not row[3]) + transport_errors
    metrics = {
        "setup_s": statistics.median(
            speed.reference_seconds(one.started, one.done) for one in stacks
        ),
        "rps": statistics.median(rates),
        "latency_p50_ms": statistics.fmean(
            statistics.median(values) for values in by_request.values()
        ),
        "latency_p95_ms": statistics.median(tails),
        "server_cpu_ms_per_req": statistics.median(cpu_per_request),
        "server_rss_peak_mb": stacks[-1].server.rss_peak_mb(),
        "response_bytes_mean": statistics.fmean(row[2] for row in rows),
        "catalog_bytes_per_xml_byte": tree_bytes(stacks[-1].catalog_dir) / inputs.xml_bytes,
    }
    extras = {
        "failed_share": failed / attempted,
        "latency_samples": len(latencies),
        "latency_p99_ms": percentile(latencies, 0.99),
        "speed_index": speed.index_over(start, end),
        "client_cpu_s": observed["client_cpu_s"],
        "window_s": end - start,
        "setup_add_s": statistics.median(one.added - one.started for one in stacks),
        "setup_ready_s": statistics.median(one.ready - one.started for one in stacks),
        "setup_wall_s": statistics.median(one.done - one.started for one in stacks),
    }
    if writes:
        write_latencies = [
            latency * 1000.0 / speed.index_at(due) for due, latency, _, ok, _ in writes if ok
        ]
        extras["mutate_latency_p50_ms"] = percentile(write_latencies, 0.50)
        extras["mutate_latency_p95_ms"] = percentile(write_latencies, 0.95)
        extras["mutate_samples"] = len(write_latencies)
        extras["loadgen_late_max_ms"] = max(writer.late) * 1000.0
    return {
        "metrics": metrics,
        "extras": extras,
        "attempted": attempted,
        "failed": failed,
        # One example of what went wrong is enough for the report.
        "problems": [samples.first_failure for samples in clients if samples.first_failure][:1],
    }
