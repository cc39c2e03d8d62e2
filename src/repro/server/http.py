"""The JSON-over-HTTP front of the query service (stdlib only).

``repro serve`` runs one of two front-ends over the same route core
(:mod:`repro.server.routes`): the default asyncio server
(:class:`repro.server.asyncio_http.AsyncReproHTTPServer`) or this
module's :class:`ReproHTTPServer` — a ``ThreadingHTTPServer`` whose
handler threads feed either the in-process coalescing
:class:`repro.server.service.QueryService` (``--workers 0``) or the
pre-forked :class:`repro.server.cluster.WorkerFleet` (``--workers N``).
Both front-ends expose the same surface and byte-identical bodies, so
the threaded path doubles as the differential-testing oracle.
Endpoints::

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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.server.catalog import Catalog
from repro.server.metrics import ServerMetrics
from repro.server.routes import (
    MAX_BODY,
    TRANSFER_ENCODING_REFUSAL,
    Request,
    Router,
    body_limit,
    content_length,
)
from repro.server.service import QueryService

__all__ = [
    "MAX_BODY",
    "ReproHTTPServer",
    "create_server",
    "serve",
    "wait_ready",
]


class ReproHTTPServer(ThreadingHTTPServer):
    """One handler thread per connection; requests coalesce in the service."""

    daemon_threads = True
    # socketserver's default listen backlog is 5; a burst of clients
    # connecting at once then overflows the SYN queue and the dropped
    # connects retry after a full second.  128 rides out real bursts.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service,
        quiet: bool = True,
        default_deadline_ms: float = 0.0,
    ):
        self.service = service
        self.quiet = quiet
        #: Applied to /query requests that carry no deadline of their own
        #: (0 = requests without a deadline run unbounded, as before).
        self.default_deadline_ms = default_deadline_ms
        self.metrics = ServerMetrics(lambda: self.service, frontend="threaded")
        self.router = Router(
            lambda: self.service,
            default_deadline_ms=default_deadline_ms,
            metrics=self.metrics,
        )
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    """Reads bytes off the socket; everything else happens in the Router."""

    server: ReproHTTPServer
    protocol_version = "HTTP/1.1"
    # Responses go out as header + body segments on a keep-alive connection;
    # without this (a *handler* attribute, per socketserver), Nagle + the
    # client's delayed ACK stall every request on the connection ~40ms.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if not self.server.quiet:
            super().log_message(format, *args)

    def log_request(self, code="-", size="-") -> None:
        # One access-log line per request, trace ID included.
        self.log_message(
            '"%s" %s trace=%s', self.requestline, str(code), getattr(self, "_trace", "-")
        )

    def _write(self, response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _refuse(self, request: Request, status: int, message: str, kind: str) -> None:
        """Answer from the headers alone.  The body stays unread, so the
        stream cannot be re-synced: the connection closes."""
        response = self.server.router.reject(request, status, message, kind)
        response.headers["Connection"] = "close"
        self.close_connection = True
        self._write(response)

    def _dispatch(self, method: str) -> None:
        request = Request(
            method, self.path, headers=self.headers,
            client=self.client_address[0], received_at=time.monotonic(),
        )
        self._trace = request.trace
        if self.headers.get("Transfer-Encoding") is not None:
            self._refuse(request, 501, TRANSFER_ENCODING_REFUSAL, "bad-request")
            return
        try:
            length = content_length(self.headers.get("Content-Length"))
        except ValueError as error:
            self._refuse(request, 400, str(error), "bad-request")
            return
        limit = body_limit(method, self.path)
        if length > limit:
            self._refuse(
                request, 413, f"request body over {limit} bytes", "payload-too-large"
            )
            return
        if length > 0:
            request.body = self.rfile.read(length)
        self._write(self.server.router.dispatch(request))

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("DELETE")


def create_server(
    catalog_dir: str,
    host: str = "127.0.0.1",
    port: int = 8080,
    window: float = 0.0,
    max_batch: int = 64,
    pool_capacity: int = 8,
    quiet: bool = True,
    workers: int = 0,
    worker_threads: int = 4,
    deadline_ms: float = 0.0,
    max_queue: int = 0,
    rate_limit: float = 0.0,
    frontend: str = "threaded",
    http_threads: int = 0,
):
    """Build a ready-to-run server (``port=0`` binds an ephemeral port).

    ``workers=0`` serves in process (PR 3's single-process path);
    ``workers=N`` pre-forks a :class:`repro.server.cluster.WorkerFleet`
    and the front-end becomes a sharding dispatcher.  Callers own the
    service lifecycle: call ``server.service.close()`` after
    ``server_close()`` to drain the fleet.

    ``frontend`` selects the transport: ``"threaded"`` (this module's
    ``ThreadingHTTPServer``, the default here for embedding/test
    compatibility) or ``"async"`` (the asyncio front-end — ``serve()``
    and the CLI default to it).  ``http_threads`` sizes the async
    front-end's executor bridge (0 = automatic); ignored when threaded.

    The resilience knobs: ``deadline_ms`` is the default end-to-end budget
    for requests that do not carry their own (0 = unbounded),
    ``max_queue`` caps concurrently admitted requests, and ``rate_limit``
    is per-client requests/second — both shed with 429 + ``Retry-After``
    when exceeded (0 disables each).
    """
    if frontend not in ("threaded", "async"):
        raise ValueError(f"unknown frontend {frontend!r} (expected 'async' or 'threaded')")
    # Bind the socket *before* building the service: a failed bind (port
    # in use) must not leave a spawned worker fleet running with no handle
    # to close it.  The handler only reads ``server.service`` per request,
    # so the placeholder is never observed.
    if frontend == "async":
        from repro.server.asyncio_http import AsyncReproHTTPServer

        server = AsyncReproHTTPServer(
            (host, port), None, quiet=quiet, default_deadline_ms=deadline_ms,
            executor_threads=http_threads,
        )
    else:
        server = ReproHTTPServer(
            (host, port), None, quiet=quiet, default_deadline_ms=deadline_ms
        )
    try:
        if workers:
            from repro.server.cluster import WorkerFleet

            service = WorkerFleet(
                Catalog(catalog_dir),
                workers=workers,
                window=window,
                max_batch=max_batch,
                pool_capacity=pool_capacity,
                worker_threads=worker_threads,
                max_queue=max_queue,
                rate_limit=rate_limit,
            )
        else:
            service = QueryService(
                Catalog(catalog_dir),
                window=window,
                max_batch=max_batch,
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


def _stats_line(service) -> str:
    """One greppable line of serving counters (the ``--stats-interval`` log)."""
    stats = service.stats_dict()
    if "cluster" in stats:
        cluster = stats["cluster"]
        depths = ",".join(str(row["queue_depth"]) for row in stats["workers"])
        shards = ",".join(str(len(row.get("shards", []))) for row in stats["workers"])
        return (
            f"workers={cluster['alive']}/{cluster['workers']} "
            f"dispatched={cluster['dispatched']} completed={cluster['completed']} "
            f"failed={cluster['failed']} respawns={cluster['respawns']} "
            f"depth=[{depths}] shards=[{shards}]"
        )
    inner, pool = stats["service"], stats["pool"]
    return (
        f"requests={inner['requests']} batches={inner['batches']} "
        f"coalesced={inner['coalesced_requests']} errors={inner['errors']} "
        f"pool={pool['resident']}/{pool['capacity']} "
        f"hits={pool['hits']} misses={pool['misses']}"
    )


def serve(
    catalog_dir: str,
    stats_interval: float = 0.0,
    frontend: str = "async",
    **kwargs,
) -> None:
    """Run the server until interrupted (the ``repro serve`` entry point).

    ``frontend`` picks the transport (``"async"`` by default — the
    event-loop front-end; ``"threaded"`` keeps the thread-per-connection
    fallback).  ``stats_interval=S`` (seconds, 0 = off) logs one
    :func:`_stats_line` to stderr every S seconds, so CI smoke runs and
    operators can watch queue depth and shard residency without curling
    ``/stats``.

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

    server = create_server(catalog_dir, frontend=frontend, **kwargs)

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
        f"documents={len(documents)} frontend={frontend}{fleet}",
        file=sys.stderr,
    )
    stop_stats = threading.Event()
    if stats_interval > 0:
        def stats_loop() -> None:
            while not stop_stats.wait(stats_interval):
                try:
                    print(f"repro serve: stats {_stats_line(service)}", file=sys.stderr)
                except Exception as error:  # noqa: BLE001 - logging must not kill serving
                    print(f"repro serve: stats unavailable: {error}", file=sys.stderr)

        threading.Thread(target=stats_loop, name="stats-log", daemon=True).start()
    try:
        server.serve_forever()
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        stop_stats.set()
        server.server_close()
        service.close()
