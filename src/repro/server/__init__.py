"""Concurrent query serving over the persistent store (load once, query forever).

The subsystem has four layers, bottom up:

* :mod:`repro.server.catalog` — a directory of documents shredded once, at
  registration time, each version stored as one RSKL image of its minimal
  DAG; warm starts map and decode that image instead of re-parsing XML.
  The on-disk layout doubles as the fleet's replication channel (safe for
  concurrent reader processes).
* :mod:`repro.server.pool` — a bounded LRU of resident master instances
  keyed by ``(document, schema key)``, with per-entry locks.
* :mod:`repro.server.service` / :mod:`repro.server.routes` /
  :mod:`repro.server.asyncio_http` / :mod:`repro.server.http` — the
  coalescing evaluation front (concurrent requests for one document share
  one batch of :class:`repro.engine.evaluator.CompressedEvaluator`), the
  transport-agnostic route core, the asyncio HTTP front-end, and the
  ``repro serve`` entry points that build and run it.
* :mod:`repro.server.metrics` — lock-cheap counters/gauges/histograms and
  the Prometheus text exposition served at ``GET /metrics``.
* :mod:`repro.server.cluster` / :mod:`repro.server.worker` — the pre-forked
  worker fleet (``repro serve --workers N``): rendezvous-hashed shard
  affinity, crash detection + respawn, graceful drain; each worker process
  owns its own pool and evaluator over the shared catalog.
* :mod:`repro.server.resilience` — the failure-handling primitives shared
  by every layer above: end-to-end :class:`Deadline` budgets, bounded
  admission with load shedding (:class:`AdmissionController`), per-shard
  :class:`CircuitBreaker` route-around, and the :data:`FAULTS` injection
  seam the chaos suite drives.
"""

from repro.server.asyncio_http import AsyncReproHTTPServer
from repro.server.catalog import Catalog, CatalogEntry
from repro.server.cluster import WorkerFleet
from repro.server.http import create_server, serve, wait_ready
from repro.server.metrics import (
    MetricsRegistry,
    ServerMetrics,
    parse_prometheus_text,
)
from repro.server.pool import InstancePool, PoolEntry
from repro.server.routes import Request, Response, Router
from repro.server.resilience import (
    FAULTS,
    AdmissionController,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    TokenBucket,
)
from repro.server.service import QueryService, decode_result

__all__ = [
    "AdmissionController",
    "AsyncReproHTTPServer",
    "Catalog",
    "CatalogEntry",
    "CircuitBreaker",
    "Deadline",
    "FAULTS",
    "FaultInjector",
    "InstancePool",
    "MetricsRegistry",
    "PoolEntry",
    "QueryService",
    "Request",
    "Response",
    "Router",
    "ServerMetrics",
    "TokenBucket",
    "WorkerFleet",
    "create_server",
    "decode_result",
    "parse_prometheus_text",
    "serve",
    "wait_ready",
]
