#!/usr/bin/env python
"""Concurrent serving vs sequential one-shot evaluation of the same workload.

The seed CLI answers every query with a one-shot process: re-parse the
document, evaluate, exit.  PR 3's serving layer registers each document in
the persistent catalog once and answers a concurrent request stream from
resident instances, coalescing simultaneous requests for one document into
single :class:`repro.engine.batch.BatchEvaluator` runs.  This benchmark
measures that difference end to end, over real HTTP:

* **one-shot** — the baseline the acceptance criterion names: for every
  request, a fresh ``Engine(xml).query(q)`` (document re-parsed per
  request, exactly what ``repro query doc.xml Q`` per-process does);
* **warm-sequential** — a generous baseline: one long-lived
  ``Engine(reparse_per_query=False)`` answering the stream sequentially
  (no parse after warm-up, no concurrency, no coalescing);
* **served** — N client threads firing the same request stream at a live
  ``repro serve`` instance.

Before timing anything, every distinct query's server response is checked
**byte-identical** (canonical JSON of counts + decoded paths) against
direct evaluation; any divergence fails the run.  Results go to
``BENCH_server.json``; the run fails when the served throughput is
below ``--min-speedup`` x the one-shot baseline (default 2.0).

Usage::

    PYTHONPATH=src python benchmarks/bench_server.py [--smoke]
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from corpus_cache import cached_xml
from repro.corpora import binary_tree, relational
from repro.corpora.registry import CORPORA
from repro.engine.pipeline import Engine
from repro.server.catalog import Catalog
from repro.server.http import create_server, wait_ready
from repro.server.service import decode_result

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

BINARY_TREE_QUERIES = {
    "Q1": "/a/b/a/b",
    "Q2": "//b[a]",
    "Q3": "/descendant::a[b/b]",
    "Q4": "//a/following-sibling::b",
    "Q5": "//b/preceding-sibling::a",
}

RELATIONAL_QUERIES = {
    "Q1": "/table/row/col0",
    "Q2": '//row[col1["r1c1"]]/col2',
    "Q3": "//col3/following-sibling::col5",
    "Q4": '//row[col0["r0c0"]]',
    "Q5": "//col1/preceding-sibling::col0",
}

CORPUS_NAMES = ("binary-tree", "relational", "xmark")

#: Result paths requested per query during the correctness check.
CHECK_PATHS = 25


def corpus_xml(name: str, smoke: bool) -> str:
    if name == "binary-tree":
        depth = 7 if smoke else 10
        return cached_xml(
            "binary-tree", lambda: binary_tree.generate_xml(depth=depth).xml, depth=depth
        )
    if name == "relational":
        rows, cols = (50, 8) if smoke else (250, 10)
        return cached_xml(
            "relational",
            lambda: relational.generate_xml(rows, cols, distinct_texts=True).xml,
            rows=rows,
            cols=cols,
            distinct=True,
        )
    if name == "xmark":
        info = CORPORA["xmark"]
        scale = max(1, int(info.default_scale * (0.1 if smoke else 0.3)))
        return cached_xml("xmark", lambda: info.generate(scale, 0).xml, scale=scale, seed=0)
    raise ValueError(name)


def corpus_queries(name: str) -> list[str]:
    if name == "binary-tree":
        return list(BINARY_TREE_QUERIES.values())
    if name == "relational":
        return list(RELATIONAL_QUERIES.values())
    from repro.bench.queries import queries_for

    return list(queries_for(name).values())


def percentile(samples: list[float], fraction: float) -> float:
    ranked = sorted(samples)
    index = min(len(ranked) - 1, max(0, math.ceil(fraction * len(ranked)) - 1))
    return ranked[index]


def canonical(payload: dict) -> str:
    """The byte-comparable answer: counts + decoded paths, nothing volatile."""
    return json.dumps(
        {"tree_count": payload["tree_count"], "paths": payload.get("paths", [])},
        sort_keys=True,
    )


class ServerUnderTest:
    """A live ``repro serve`` on an ephemeral port over a throwaway catalog."""

    def __init__(self, catalog_dir: str, workers: int = 0):
        self.server = create_server(catalog_dir, port=0, workers=workers)
        self.host, self.port = self.server.server_address[:2]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        # A failed readiness probe must not leak the serving thread or the
        # spawned fleet: a leaked earlier config would keep competing for
        # cores with every later measured one, skewing the scaling curve.
        try:
            if not wait_ready(self.host, self.port, timeout=60):
                raise AssertionError(f"server on port {self.port} never became ready")
            if not self.server.service.wait_ready(timeout=120):
                raise AssertionError("the worker fleet never became ready")
        except BaseException:
            self.close()
            raise

    def request(self, connection, document: str, query: str, paths: int = 0) -> dict:
        body = json.dumps({"document": document, "query": query, "paths": paths})
        connection.request("POST", "/query", body)
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        if response.status != 200:
            raise AssertionError(f"server error {response.status}: {payload}")
        return payload

    def connect(self) -> http.client.HTTPConnection:
        import socket

        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        connection.connect()
        # The request line/headers and the JSON body go out as separate
        # segments; without TCP_NODELAY, Nagle + the server's delayed ACK
        # add ~40ms to every request on loopback.
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.server.service.close()
        self.thread.join(timeout=10)


def verify_byte_identical(under_test: ServerUnderTest, document, xml, queries) -> int:
    """Server answers must be byte-identical to direct evaluation. Returns count."""
    connection = under_test.connect()
    try:
        for query in queries:
            served = canonical(
                under_test.request(connection, document, query, paths=CHECK_PATHS)
            )
            direct = canonical(decode_result(Engine(xml).query(query), paths=CHECK_PATHS))
            if served != direct:
                raise AssertionError(
                    f"divergence on {query!r}:\n  served  {served}\n  direct  {direct}"
                )
    finally:
        connection.close()
    return len(queries)


def drive_clients(
    under_test: ServerUnderTest, document: str, requests: list[str], clients: int
) -> dict:
    """Fire ``requests`` from ``clients`` threads; return throughput/latency."""
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    latencies: list[float] = []
    latency_lock = threading.Lock()
    failures: list[str] = []

    def worker():
        connection = under_test.connect()
        local: list[float] = []
        try:
            while True:
                with cursor_lock:
                    index = cursor["next"]
                    if index >= len(requests):
                        break
                    cursor["next"] = index + 1
                started = time.perf_counter()
                under_test.request(connection, document, requests[index])
                local.append(time.perf_counter() - started)
        except Exception as error:  # noqa: BLE001 - reported via failures
            failures.append(repr(error))
        finally:
            connection.close()
            with latency_lock:
                latencies.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_started
    if failures:
        raise AssertionError(f"client failures: {failures[:3]}")
    if len(latencies) != len(requests):
        raise AssertionError(f"served {len(latencies)} of {len(requests)} requests")
    return {
        "wall_seconds": wall,
        "throughput_rps": len(requests) / wall,
        "latency_p50_ms": 1000 * percentile(latencies, 0.50),
        "latency_p95_ms": 1000 * percentile(latencies, 0.95),
        "latency_p99_ms": 1000 * percentile(latencies, 0.99),
        "latency_mean_ms": 1000 * statistics.fmean(latencies),
    }


def coalescing_probe(
    catalog_dir: str, query: str, threads: int = 8, per_thread: int = 20
) -> dict:
    """Measure micro-batch coalescing under same-key contention (no HTTP).

    Drives the service API directly so every thread spends its whole life
    inside ``QueryService.query``: concurrent arrivals for one
    ``(document, schema)`` key must coalesce into shared BatchEvaluator
    runs via the natural-batching drain loop.
    """
    from repro.server.service import QueryService

    service = QueryService(Catalog(catalog_dir))
    service.query("doc", query)  # warm: residency outside the clock
    failures: list[str] = []

    def worker():
        try:
            for _ in range(per_thread):
                service.query("doc", query)
        except Exception as error:  # noqa: BLE001 - reported via failures
            failures.append(repr(error))

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    started = time.perf_counter()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    wall = time.perf_counter() - started
    if failures:
        raise AssertionError(f"probe failures: {failures[:3]}")
    stats = service.stats_dict()["service"]
    total = threads * per_thread
    return {
        "query": query,
        "requests": total,
        "throughput_rps": total / wall,
        "batches": stats["batches"],
        "max_batch_size": stats["max_batch_size"],
        "coalesced_requests": stats["coalesced_requests"],
        "coalesced_fraction": stats["coalesced_requests"] / max(1, stats["requests"]),
    }


def run_sequential_one_shot(xml: str, requests: list[str]) -> float:
    started = time.perf_counter()
    for query in requests:
        Engine(xml).query(query)  # fresh engine: re-parse per request
    return time.perf_counter() - started


def run_sequential_warm(xml: str, requests: list[str]) -> float:
    engine = Engine(xml, reparse_per_query=False)
    for query in requests[: len(set(requests))]:
        engine.query(query)  # warm-up: parse + compile outside the clock
    started = time.perf_counter()
    for query in requests:
        engine.query(query)
    return time.perf_counter() - started


def measure(corpus: str, smoke: bool, clients: int, requests_total: int) -> dict:
    xml = corpus_xml(corpus, smoke)
    queries = corpus_queries(corpus)
    requests = [queries[i % len(queries)] for i in range(requests_total)]

    catalog_dir = tempfile.mkdtemp(prefix=f"repro-bench-{corpus}-")
    try:
        Catalog(catalog_dir).add("doc", xml)
        one_shot_seconds = run_sequential_one_shot(xml, requests)
        warm_seconds = run_sequential_warm(xml, requests)

        under_test = ServerUnderTest(catalog_dir)
        try:
            checked = verify_byte_identical(under_test, "doc", xml, queries)
            # One warm pass so resident instances exist before the clock.
            drive_clients(under_test, "doc", requests[: len(queries)], clients)
            served = drive_clients(under_test, "doc", requests, clients)
            served["stats"] = under_test.server.service.stats_dict()
        finally:
            under_test.close()
        probe = coalescing_probe(catalog_dir, queries[0])
    finally:
        shutil.rmtree(catalog_dir, ignore_errors=True)

    one_shot_rps = len(requests) / one_shot_seconds
    warm_rps = len(requests) / warm_seconds
    row = {
        "corpus": corpus,
        "requests": len(requests),
        "clients": clients,
        "queries_checked_byte_identical": checked,
        "one_shot_seconds": one_shot_seconds,
        "one_shot_rps": one_shot_rps,
        "warm_sequential_seconds": warm_seconds,
        "warm_sequential_rps": warm_rps,
        "served": served,
        "coalescing_probe": probe,
        "speedup_vs_one_shot": served["throughput_rps"] / one_shot_rps,
        "speedup_vs_warm": served["throughput_rps"] / warm_rps,
    }
    print(
        f"  {corpus:12s}  one-shot {one_shot_rps:8.1f} rps  warm {warm_rps:8.1f} rps  "
        f"served {served['throughput_rps']:8.1f} rps  "
        f"{row['speedup_vs_one_shot']:6.1f}x one-shot "
        f"({row['speedup_vs_warm']:4.2f}x warm, p95 "
        f"{served['latency_p95_ms']:.2f} ms, coalesced "
        f"{100 * probe['coalesced_fraction']:.0f}% depth {probe['max_batch_size']})"
    )
    return row


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small corpora, CI smoke mode")
    parser.add_argument("--clients", type=int, default=None, help="client thread count")
    parser.add_argument("--requests", type=int, default=None, help="requests per corpus")
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail when the worst per-corpus speedup vs one-shot is below this",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_server.json"),
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    clients = args.clients or (6 if args.smoke else 12)
    requests_total = args.requests or (48 if args.smoke else 240)

    print(
        f"server workload: concurrent serving vs sequential one-shot Engine.query "
        f"({'smoke' if args.smoke else 'full'}, {clients} clients, "
        f"{requests_total} requests/corpus)"
    )
    rows = [
        measure(corpus, args.smoke, clients, requests_total)
        for corpus in CORPUS_NAMES
    ]

    speedups = [row["speedup_vs_one_shot"] for row in rows]
    report = {
        "benchmark": "server",
        "mode": "smoke" if args.smoke else "full",
        "baseline": "sequential one-shot Engine.query (fresh engine per request)",
        "corpora": list(CORPUS_NAMES),
        "clients": clients,
        "requests_per_corpus": requests_total,
        "rows": rows,
        "geomean_speedup": geomean(speedups),
        "worst_speedup": min(speedups),
        "best_speedup": max(speedups),
        "min_speedup_required": args.min_speedup,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(
        f"\nspeedup vs one-shot: geomean {report['geomean_speedup']:.2f}x  "
        f"worst {report['worst_speedup']:.2f}x  best {report['best_speedup']:.2f}x  "
        f"(required worst >= {args.min_speedup:.2f}x)"
    )
    print(f"wrote {args.output}")
    if report["worst_speedup"] < args.min_speedup:
        print("FAIL: concurrent serving too slow relative to one-shot", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
