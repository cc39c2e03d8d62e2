"""The worker-process half of the pre-forked serving fleet.

:func:`worker_main` is the spawn entry point: a fresh interpreter (the
fleet uses the ``spawn`` start method, so nothing is inherited except the
two queues and a config dict of primitives) builds its **own**
:class:`repro.server.service.QueryService` — own
:class:`~repro.server.pool.InstancePool`, own
:class:`~repro.engine.evaluator.CompressedEvaluator` runs, own GIL — over the
shared on-disk :class:`~repro.server.catalog.Catalog`.

The published image is the replication channel: a worker *loads* its
resident masters from the document version's ``skeleton.rskl`` (or
re-scans the kept text for string schemas), exactly like the
single-process server.
No instance ever crosses the process boundary — requests and responses
are tuples of primitives, so there is no pickling of engine state, no
shared memory, and a worker crash can never corrupt a sibling.

Wire protocol (multiprocessing queues, all values picklable primitives):

* requests  — ``("query", id, document, query_text, paths, limit,
  deadline_at, trace, entry)`` (``deadline_at`` an absolute
  ``time.monotonic`` stamp or ``None`` — the monotonic clock is
  machine-wide, so the instant means the same thing here; ``trace`` the
  request's trace ID or ``None``, echoed in the payload; ``entry`` the
  :meth:`~repro.server.catalog.CatalogEntry.to_wire` form of the version
  the dispatcher pinned for the request — the worker serves exactly that
  version, whatever its own manifest view says, and the dispatcher keeps
  its files until the answer is in), ``("stats", id)``, ``("ping", id)``,
  ``("evict", id, document)``, ``("shutdown",)``;
* responses — ``(id, "ok", payload)`` or ``(id, "error", kind, message)``
  where ``kind`` names the error family (see :data:`ERROR_KINDS`) so the
  dispatcher re-raises the *same* exception type the in-process service
  would have raised — HTTP status mapping is identical at any worker
  count.

A worker runs a small pool of threads over its request queue, so
concurrent requests for one ``(document, schema)`` shard still coalesce
into shared batches inside its ``QueryService`` (the dispatcher's shard
affinity guarantees all requests for a key land here).  Since every query
names its entry, a document registered by the front-end *after* the
worker spawned is served without the worker re-reading the manifest; the
evict broadcast of a mutation and a quarantine probe are what refresh it.
"""

from __future__ import annotations

import os
import threading
import time

# The error families crossing the process boundary are defined once, in
# the shared envelope module, so the worker wire protocol and the HTTP
# error envelope can never disagree on a kind string.  Re-exported here
# because this module *is* the wire protocol's home for fleet code.
from repro.api.envelope import ERROR_KINDS, error_kind, rebuild_error  # noqa: F401
from repro.errors import ClusterError
from repro.server.catalog import CatalogEntry
from repro.server.resilience import FAULTS, Deadline

SHUTDOWN = ("shutdown",)


def _serve_one(service, message, response_queue) -> None:
    """Handle one request tuple; every outcome becomes exactly one response."""
    kind = message[0]
    request_id = message[1]
    try:
        FAULTS.fire("worker.serve", kind=kind)
        if kind == "query":
            _, _, document, query_text, paths, limit, deadline_at, trace, entry = message
            # Time queued in the request pipe counted against the budget;
            # answer dead-on-arrival requests without touching the service.
            deadline = Deadline.from_wire(deadline_at)
            if deadline is not None:
                deadline.check("request (expired in the worker's queue)")
            payload = service.query(
                document, query_text, paths=paths, limit=limit, deadline=deadline,
                trace=trace, entry=CatalogEntry.from_wire(document, entry),
            )
        elif kind == "stats":
            if service.catalog.quarantined():
                # A repair/re-register in another process lifts quarantine
                # via a fresh manifest stamp; re-read before reporting so
                # health probes see recovery, not a stale verdict.
                service.catalog.refresh()
            payload = service.stats_dict()
            payload["resident"] = [
                [document, list(strings)] for document, strings in service.resident_keys()
            ]
            payload["pid"] = os.getpid()
        elif kind == "ping":
            payload = {"pid": os.getpid()}
        elif kind == "evict":
            _, _, document = message
            evicted = service.evict(document)
            service.catalog.refresh()
            payload = {"evicted": evicted}
        else:
            raise ClusterError(f"unknown worker request kind {kind!r}")
    except BaseException as error:  # noqa: BLE001 - every outcome must answer
        response_queue.put((request_id, "error", error_kind(error), str(error)))
    else:
        response_queue.put((request_id, "ok", payload))


def worker_main(worker_id: int, catalog_dir: str, request_queue, response_queue, config: dict):
    """Run one worker until a shutdown sentinel arrives (spawn entry point).

    ``config`` carries the service knobs as primitives: ``pool_capacity``,
    ``threads``, and optionally ``faults`` — a primitives-only injection spec this
    spawned process arms its own :data:`FAULTS` from (the chaos suite's
    only channel into worker internals).
    """
    # Imported here so the spawn interpreter pays for the engine exactly
    # once, after the process exists (keeps module import light for the
    # dispatcher side, which only needs the protocol helpers above).
    from repro.server.catalog import Catalog
    from repro.server.service import QueryService

    if config.get("faults"):
        FAULTS.arm_from_spec(config["faults"])

    service = QueryService(
        # Readers never replay the journal: N workers re-applying the same
        # intent would race each other's staging renames; the dispatching
        # front-end (the single writer) replays at its own startup.
        Catalog(catalog_dir, journal_replay=False),
        pool_capacity=config.get("pool_capacity", 8),
    )
    threads = max(1, int(config.get("threads", 4)))

    # Orphan watchdog: if the dispatcher dies without draining (SIGKILL,
    # OOM), this process would otherwise block on the request queue
    # forever.  Re-parenting to init is the detectable signal.
    parent = os.getppid()

    def watch_parent() -> None:
        while True:
            time.sleep(1.0)
            if os.getppid() != parent:
                os._exit(0)

    threading.Thread(target=watch_parent, daemon=True, name="parent-watch").start()

    def loop() -> None:
        while True:
            message = request_queue.get()
            if message == SHUTDOWN:
                # Re-post so sibling threads drain and exit too.
                request_queue.put(SHUTDOWN)
                return
            _serve_one(service, message, response_queue)

    workers = [threading.Thread(target=loop, daemon=True) for _ in range(threads - 1)]
    for thread in workers:
        thread.start()
    loop()
    for thread in workers:
        thread.join()
