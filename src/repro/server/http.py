"""The JSON-over-HTTP front of the query service (stdlib only).

``repro serve`` runs the asyncio front-end
(:class:`repro.server.asyncio_http.AsyncReproHTTPServer`) over the
transport-agnostic route core (:mod:`repro.server.routes`), feeding
either the in-process coalescing
:class:`repro.server.service.QueryService` (``--workers 0``) or the
pre-forked :class:`repro.server.cluster.WorkerFleet` (``--workers N``).
This module builds and runs it.  Endpoints::

    GET    /healthz            liveness + catalog summary (+ fleet summary)
    GET    /stats              serving / pool / coalescing counters
                               (per-worker shard/residency/queue-depth
                               counters under --workers N)
    GET    /metrics            Prometheus text exposition (repro_* families)
    GET    /catalog            registered documents with shred metadata
    POST   /catalog/<name>     register a document  {"xml": "<...>"}
    DELETE /catalog/<name>     evict: drop pool residency + catalog entry
    POST   /query              {"document": d, "query": q,
                                "paths": N?, "limit": N?}
                               paths: first N result paths; limit: guard
                               on tree nodes the decode walk visits — only
                               subtrees holding a match, a subset of a full
                               document-order walk to the same paths
    GET    /explain            ?document=d&query=q -> structured Plan JSON
    POST   /explain            {"document": d?, "query": q}

Every response is ``application/json`` (``/metrics`` is text/plain) and
carries an ``X-Repro-Trace`` header — the client's own trace ID when it
sent one, a freshly minted one otherwise.  Every error body is the
uniform envelope of :func:`repro.api.envelope.error_envelope` —
``{"error": {"kind", "message", "detail"}}`` — whose ``kind`` strings are
the same families the cluster worker wire protocol round-trips, so a
client sees identical error payloads at any worker count.  Status codes
map the same way the CLI maps errors to exit codes: unknown documents
and malformed queries are 400/404 (the caller's fault), engine failures
are 500.  A request whose shard's worker process died mid-flight is 503
— transient by construction, the dispatcher respawns the worker.
"""

from __future__ import annotations

import time

from repro.server.asyncio_http import AsyncReproHTTPServer
from repro.server.catalog import Catalog
from repro.server.service import QueryService

__all__ = [
    "create_server",
    "serve",
    "wait_ready",
]


def create_server(
    catalog_dir: str,
    host: str = "127.0.0.1",
    port: int = 8080,
    pool_capacity: int = 8,
    quiet: bool = True,
    workers: int = 0,
    worker_threads: int = 4,
    deadline_ms: float = 0.0,
    max_queue: int = 0,
    rate_limit: float = 0.0,
) -> AsyncReproHTTPServer:
    """Build a ready-to-run server (``port=0`` binds an ephemeral port).

    ``workers=0`` serves in process; ``workers=N`` pre-forks a
    :class:`repro.server.cluster.WorkerFleet` and the front-end becomes a
    sharding dispatcher.  Callers own the service lifecycle: call
    ``server.service.close()`` after ``server_close()`` to drain the fleet.

    The resilience knobs: ``deadline_ms`` is the default end-to-end budget
    for requests that do not carry their own (0 = unbounded),
    ``max_queue`` caps concurrently admitted requests, and ``rate_limit``
    is per-client requests/second — both shed with 429 + ``Retry-After``
    when exceeded (0 disables each).
    """
    # Bind the socket *before* building the service: a failed bind (port
    # in use) must not leave a spawned worker fleet running with no handle
    # to close it.  The router only reads ``server.service`` per request,
    # so the placeholder is never observed.
    server = AsyncReproHTTPServer(
        (host, port), None, quiet=quiet, default_deadline_ms=deadline_ms
    )
    try:
        if workers:
            from repro.server.cluster import WorkerFleet

            service = WorkerFleet(
                Catalog(catalog_dir),
                workers=workers,
                pool_capacity=pool_capacity,
                worker_threads=worker_threads,
                max_queue=max_queue,
                rate_limit=rate_limit,
            )
        else:
            service = QueryService(
                Catalog(catalog_dir),
                pool_capacity=pool_capacity,
                max_queue=max_queue,
                rate_limit=rate_limit,
            )
    except BaseException:
        server.server_close()
        raise
    server.service = service
    return server


def wait_ready(host: str, port: int, timeout: float = 30.0, path: str = "/healthz") -> bool:
    """Block until the server at ``host:port`` answers ``path`` with 2xx.

    Both 200 (``ok``) and 203 (``degraded``) count as ready: a degraded
    server is *serving* — a probe that refused to consider it up would
    turn partial failures into total ones.

    The shared readiness probe: tests and the benchmark harnesses call
    this one helper instead of hand-rolled retry loops (or, worse, fixed
    sleeps), so "server is up" means the same thing everywhere — the
    socket accepts *and* a real request round-trips.  Returns ``False``
    instead of raising when the deadline passes, so callers produce their
    own diagnostics.
    """
    import http.client

    deadline = time.monotonic() + timeout
    while True:
        # Bound each attempt separately (1 s, or whatever remains of the
        # overall budget): one hanging connect against a full listen
        # backlog must not consume the entire deadline in a single try.
        attempt = max(0.05, min(1.0, deadline - time.monotonic()))
        try:
            connection = http.client.HTTPConnection(host, port, timeout=attempt)
            try:
                connection.request("GET", path)
                if connection.getresponse().status in (200, 203):
                    return True
            finally:
                connection.close()
        except (OSError, http.client.HTTPException):
            pass
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def serve(catalog_dir: str, **kwargs) -> None:
    """Run the server until interrupted (the ``repro serve`` entry point).

    SIGTERM (and SIGINT, even when the process was started as a shell
    background job with SIGINT ignored) triggers the same graceful path:
    the HTTP socket closes and the worker fleet drains — the standard
    ``kill``/systemd/docker stop signal must never orphan workers.  The
    handler only starts a thread calling ``server.shutdown()`` (which
    blocks until ``serve_forever`` returns): raising from the handler
    would throw into whatever frame is running, and inside an asyncio
    callback the loop logs the exception and keeps serving.
    """
    import signal
    import sys
    import threading

    server = create_server(catalog_dir, **kwargs)

    def _signal_shutdown(signum, frame):
        threading.Thread(target=server.shutdown, name="signal-shutdown", daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _signal_shutdown)
        signal.signal(signal.SIGINT, _signal_shutdown)
    except ValueError:  # pragma: no cover - not the main thread (embedded use)
        pass
    service = server.service
    documents = service.catalog.names()
    workers = getattr(service, "workers", 0)
    fleet = f" workers={workers}" if workers else ""
    print(
        f"repro serve: {server.url}  catalog={catalog_dir!r} "
        f"documents={len(documents)}{fleet}",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.server_close()
        service.close()
