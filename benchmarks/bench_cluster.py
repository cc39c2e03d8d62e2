#!/usr/bin/env python
"""Sharded multi-process serving vs the single-process server.

PR 3's ``repro serve`` coalesces batches but runs every evaluation under
one GIL; ``--workers N`` pre-forks worker processes and shards requests by
``(document, string-schema)`` rendezvous hash, so N workers evaluate on N
cores.  This benchmark measures that end to end, over real HTTP, on a
**mixed-corpus workload** (one catalog holding binary-tree + relational +
XMark documents, requests interleaved across them so shards spread over
the fleet):

* **correctness gate** (always enforced): every distinct
  ``(document, query)`` response from every fleet size is byte-identical
  (canonical JSON of counts + decoded paths) to the ``--workers 0``
  single-process server's answer;
* **scaling curve**: aggregate throughput at ``--workers 0`` (the
  baseline) and 1/2/4/8 workers, written to ``BENCH_cluster.json``;
* **scaling gate**: ≥ ``--min-scaling`` (default 3x) aggregate throughput
  at 4 workers vs the single-process server — *enforced only when the
  machine has ≥ 4 usable cores*, because the win is core-level
  parallelism by construction; on smaller machines the curve is still
  recorded and the report says the gate was skipped (a 1-core container
  physically cannot show multi-core scaling, and pretending otherwise
  would just make the gate noise).

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_server import (
    CHECK_PATHS,
    REPO_ROOT,
    ServerUnderTest,
    canonical,
    corpus_queries,
    corpus_xml,
    percentile,
)
from repro.server.catalog import Catalog

DOCUMENTS = ("binary-tree", "relational", "xmark")


def build_catalog(catalog_dir: str, smoke: bool) -> dict[str, list[str]]:
    """Register every corpus as one document; return document -> queries."""
    catalog = Catalog(catalog_dir)
    workload = {}
    for name in DOCUMENTS:
        catalog.add(name, corpus_xml(name, smoke))
        workload[name] = corpus_queries(name)
    return workload


def mixed_requests(workload: dict[str, list[str]], total: int) -> list[tuple[str, str]]:
    """Interleave ``(document, query)`` pairs round-robin across documents.

    Every corpus's full query list is cycled (no silent truncation to the
    shortest list): the measured workload covers exactly the queries the
    correctness gate covers.
    """
    rounds = max(len(queries) for queries in workload.values())
    pairs = [
        (document, workload[document][i % len(workload[document])])
        for i in range(rounds)
        for document in DOCUMENTS
    ]
    return [pairs[i % len(pairs)] for i in range(total)]


def drive_mixed(
    under_test: ServerUnderTest, requests: list[tuple[str, str]], clients: int
) -> dict:
    """Fire the mixed stream from ``clients`` threads; throughput + latency."""
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
                document, query = requests[index]
                started = time.perf_counter()
                under_test.request(connection, document, query)
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


def reference_answers(
    under_test: ServerUnderTest, workload: dict[str, list[str]]
) -> dict[tuple[str, str], str]:
    """Canonical ``--workers 0`` answer per distinct (document, query)."""
    answers = {}
    connection = under_test.connect()
    try:
        for document, queries in workload.items():
            for query in queries:
                answers[(document, query)] = canonical(
                    under_test.request(connection, document, query, paths=CHECK_PATHS)
                )
    finally:
        connection.close()
    return answers


def verify_against_reference(
    under_test: ServerUnderTest,
    workload: dict[str, list[str]],
    reference: dict[tuple[str, str], str],
) -> int:
    """Byte-identical gate: fleet answers == single-process answers."""
    connection = under_test.connect()
    checked = 0
    try:
        for document, queries in workload.items():
            for query in queries:
                served = canonical(
                    under_test.request(connection, document, query, paths=CHECK_PATHS)
                )
                if served != reference[(document, query)]:
                    raise AssertionError(
                        f"divergence on {document}:{query!r}:\n"
                        f"  fleet         {served}\n"
                        f"  single-process {reference[(document, query)]}"
                    )
                checked += 1
    finally:
        connection.close()
    return checked


def measure_config(
    catalog_dir: str,
    workers: int,
    requests: list[tuple[str, str]],
    clients: int,
    workload: dict[str, list[str]],
    reference: dict[tuple[str, str], str] | None,
) -> dict:
    under_test = ServerUnderTest(catalog_dir, workers=workers)
    try:
        checked = 0
        if reference is not None:
            checked = verify_against_reference(under_test, workload, reference)
        # One warm pass: masters become resident in their shards before the
        # clock (the steady state this benchmark is about).
        warm = list({pair for pair in requests})
        drive_mixed(under_test, warm, clients)
        run = drive_mixed(under_test, requests, clients)
        run["workers"] = workers
        run["checked_byte_identical"] = checked
        stats = under_test.server.service.stats_dict()
        if "cluster" in stats:
            run["respawns"] = stats["cluster"]["respawns"]
            run["shards_per_worker"] = [
                len(row.get("shards") or []) for row in stats["workers"]
            ]
        return run
    finally:
        under_test.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small corpora, CI smoke mode")
    parser.add_argument("--clients", type=int, default=None, help="client thread count")
    parser.add_argument("--requests", type=int, default=None, help="total mixed requests")
    parser.add_argument(
        "--worker-counts", type=int, nargs="+", default=None,
        help="fleet sizes to measure (0 = the single-process baseline, "
        "always measured)",
    )
    parser.add_argument(
        "--min-scaling", type=float, default=3.0,
        help="required aggregate-throughput multiple at 4 workers vs the "
        "single-process server (enforced only on machines with >= 4 cores)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_cluster.json"),
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    clients = args.clients or (6 if args.smoke else 16)
    total = args.requests or (60 if args.smoke else 240)
    worker_counts = args.worker_counts or ([2] if args.smoke else [1, 2, 4, 8])
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1

    print(
        f"cluster workload: sharded fleet vs single-process server "
        f"({'smoke' if args.smoke else 'full'}, {clients} clients, {total} mixed "
        f"requests, fleets {worker_counts}, {cores} usable core(s))"
    )
    catalog_dir = tempfile.mkdtemp(prefix="repro-bench-cluster-")
    try:
        workload = build_catalog(catalog_dir, args.smoke)
        requests = mixed_requests(workload, total)

        baseline_server = ServerUnderTest(catalog_dir, workers=0)
        try:
            reference = reference_answers(baseline_server, workload)
            warm = list({pair for pair in requests})
            drive_mixed(baseline_server, warm, clients)
            baseline = drive_mixed(baseline_server, requests, clients)
            baseline["workers"] = 0
        finally:
            baseline_server.close()
        print(
            f"  workers=0  {baseline['throughput_rps']:8.1f} rps  "
            f"p95 {baseline['latency_p95_ms']:7.2f} ms  (single-process baseline)"
        )

        rows = [baseline]
        for workers in worker_counts:
            row = measure_config(
                catalog_dir, workers, requests, clients, workload, reference
            )
            rows.append(row)
            scaling = row["throughput_rps"] / baseline["throughput_rps"]
            row["scaling_vs_single_process"] = scaling
            print(
                f"  workers={workers}  {row['throughput_rps']:8.1f} rps  "
                f"p95 {row['latency_p95_ms']:7.2f} ms  {scaling:5.2f}x baseline  "
                f"shards {row.get('shards_per_worker')}  "
                f"({row['checked_byte_identical']} answers byte-identical)"
            )
    finally:
        shutil.rmtree(catalog_dir, ignore_errors=True)

    scalings = {
        row["workers"]: row["scaling_vs_single_process"] for row in rows[1:]
    }
    best_scaling = max(scalings.values())
    scaling_at_4 = scalings.get(4)
    gate_enforced = scaling_at_4 is not None and cores >= 4
    report = {
        "benchmark": "cluster",
        "mode": "smoke" if args.smoke else "full",
        "baseline": "single-process repro serve (--workers 0), same workload",
        "documents": list(DOCUMENTS),
        "clients": clients,
        "requests_total": total,
        "usable_cores": cores,
        "rows": rows,
        "scaling_by_workers": {str(w): s for w, s in sorted(scalings.items())},
        "best_scaling": best_scaling,
        "scaling_at_4_workers": scaling_at_4,
        "min_scaling_required": args.min_scaling,
        "scaling_gate_enforced": gate_enforced,
        "scaling_gate_skip_reason": (
            None
            if gate_enforced
            else (
                f"machine has {cores} usable core(s); multi-core scaling "
                f"cannot be demonstrated below 4"
                if scaling_at_4 is not None
                else "4-worker configuration not in --worker-counts"
            )
        ),
        "checked_byte_identical_total": sum(
            row.get("checked_byte_identical", 0) for row in rows
        ),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    if scaling_at_4 is not None:
        gate_note = (
            "enforced"
            if gate_enforced
            else "gate skipped: " + report["scaling_gate_skip_reason"]
        )
        tail = (
            f"at-4-workers {scaling_at_4:.2f}x "
            f"(required >= {args.min_scaling:.2f}x, {gate_note})"
        )
    else:
        tail = "(4-worker point not measured)"
    print(f"\nscaling vs single-process: best {best_scaling:.2f}x  {tail}")
    print(f"wrote {args.output}")
    if gate_enforced and scaling_at_4 < args.min_scaling:
        print("FAIL: fleet scaling below the required multiple", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
