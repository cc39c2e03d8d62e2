"""The concurrent query service: pool + request coalescing over the evaluator.

One :class:`QueryService` serves many concurrent callers over a
:class:`repro.server.catalog.Catalog`.  The serving pipeline per request:

1. the query text is parsed/compiled once (bounded LRU, shared across
   requests), its **schema key** derived — for catalog documents that is
   just the sorted tuple of string-containment needles, since documents are
   shredded with every tag — and its plan optimized against the statistics
   of one document version (plans are always optimized);
2. the request joins the *pending micro-batch* of its
   ``(document, schema key, version)``; the first arrival becomes the batch
   **leader**, drains the queue and evaluates everything in it as **one**
   batch of the one evaluator,
   :class:`repro.engine.evaluator.CompressedEvaluator` — so requests that
   arrive while a batch is executing coalesce naturally into the next run
   and the evaluator's common-subexpression memo becomes the server's hot
   path;
3. the resident master instance comes from the LRU
   :class:`repro.server.pool.InstancePool`; evaluation never mutates it.
   The request pins one catalog :class:`~repro.server.catalog.Snapshot`
   when it is planned and releases it once its answer is out: its
   statistics, pool key and master load all read that one version, so a
   commit landing meanwhile is simply invisible to it.

Every batch evaluates in place, under the entry lock, on the entry's
long-lived **working fork**: one ``copy()`` of the immutable master, so the
splits of partial decompression (valid for every later query — the paper's
result is again an instance) are paid once.  A fork whose evaluation died
mid-batch is discarded, and one grown past :data:`WORKING_GROWTH_LIMIT`
times its master is re-forked, so growth cannot accumulate across
requests; answers never depend on the fork's history (``dag_count`` is
counted on the master, :func:`repro.api.envelope.encode_result`).

Results are decoded to plain dictionaries *before* any cleanup, so a
response never depends on live engine state.

A request that needs no waiting — plans cached, master resident with its
fork, key idle, last measured cost under the interpreter's switch
interval — is answered on the caller's own thread by
:meth:`QueryService.query_now` (the asyncio front-end's lane thread)
instead of joining a batch; both paths evaluate through
:meth:`QueryService._serve`.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field

# MAX_PATHS is re-exported: it was public here before the encodings moved
# to the shared envelope module, and callers still read the cap from us.
from repro.api.envelope import DEFAULT_LIMIT, MAX_PATHS, encode_result  # noqa: F401
from repro.compress.stats import DocumentStats
from repro.engine.evaluator import CompressedEvaluator
from repro.errors import CatalogError, DeadlineExceededError
from repro.model import planes
from repro.model.instance import Instance
from repro.mutation.ops import as_mutations
from repro.server.catalog import Catalog, CatalogEntry, Snapshot
from repro.server.pool import InstancePool, PoolEntry
from repro.server.resilience import FAULTS, AdmissionController, Deadline
from repro.xpath.algebra import AlgebraExpr
from repro.xpath.compiler import CompiledQueryCache
from repro.xpath.optimizer import OptimizationResult, optimize as optimize_plan


#: :func:`repro.api.envelope.encode_result` — THE canonical wire shape —
#: under its historical name: the benchmarks build their expected payloads
#: through it, so "server response == direct evaluation" is a byte
#: comparison of canonical JSON.
decode_result = encode_result


def kernel_info() -> dict:
    """Which bit-plane kernel tier this process evaluates with.

    Surfaced in ``/stats`` and attached to structured plans so ``explain``
    shows whether queries run on the NumPy word kernels or the pure-stdlib
    fallback (see :mod:`repro.model.planes`).
    """
    return {
        "tier": planes.kernel_tier(),
        "numpy": planes.numpy_active(),
        "plane_format_version": planes.PLANE_FORMAT_VERSION,
    }


#: A working fork holding more than this multiple of its master's |V| is
#: re-forked before its next batch.  Observed maxima over the benchmark
#: workloads are 1.1x-1.6x, so the bound only meets the Theorem 3.6 family.
WORKING_GROWTH_LIMIT = 4

#: Most queued requests one coalesced batch evaluates; the rest take the
#: next batch.
MAX_BATCH = 64


@dataclass
class ServiceStats:
    """Aggregate serving counters (returned by ``/stats``)."""

    requests: int = 0
    batches: int = 0
    max_batch_size: int = 0
    #: Requests that shared their evaluation with at least one other request.
    coalesced_requests: int = 0
    errors: int = 0
    #: Requests answered with ``deadline_exceeded`` instead of a result.
    deadline_expired: int = 0
    #: Vertices added to working instances by partial decompression, summed
    #: over executed batches (the paper's cost of a query, Figure 7).
    split_vertices: int = 0
    #: Working forks dropped for outgrowing :data:`WORKING_GROWTH_LIMIT`.
    working_reforks: int = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "max_batch_size": self.max_batch_size,
            "coalesced_requests": self.coalesced_requests,
            "errors": self.errors,
            "deadline_expired": self.deadline_expired,
            "split_vertices": self.split_vertices,
            "working_reforks": self.working_reforks,
        }


@dataclass
class MutationStats:
    """Write-path counters (the ``mutations`` block of ``/stats``)."""

    #: Mutation batches successfully applied and published.
    applied: int = 0
    #: Mutation batches refused or failed (nothing published).
    failed: int = 0
    #: Individual ops applied, per op name (one batch may carry several).
    ops: dict = field(default_factory=dict)

    def observe(self, ops: dict) -> None:
        self.applied += 1
        for op, count in ops.items():
            self.ops[op] = self.ops.get(op, 0) + count

    def as_dict(self) -> dict:
        return {"applied": self.applied, "failed": self.failed, "ops": dict(self.ops)}


class _Pending:
    """The pending micro-batch of one ``(document, schema key)``."""

    __slots__ = ("mutex", "queue", "busy")

    def __init__(self) -> None:
        self.mutex = threading.Lock()
        self.queue: list[tuple["_Request", Future]] = []
        self.busy = False


@dataclass
class _Request:
    query_text: str
    expr: AlgebraExpr
    tags: tuple[str, ...]
    paths: int
    limit: int
    deadline: Deadline | None = None
    #: Request trace ID (minted at accept by the HTTP front-ends, or
    #: client-supplied); echoed in the response payload when present.
    trace: str | None = None
    #: Set once the request's deadline refusal is counted, so a waiter and
    #: the leader that both see the deadline pass count it once.
    refused: bool = False


def pool_key(document: str, strings: tuple[str, ...], entry) -> tuple:
    """The residency key of ``(document, strings)`` at catalog ``entry``.

    The registration stamp and document version are both part of it: a
    document removed and re-registered under the same name gets fresh
    keys, so a master loaded by a query racing the removal (it can land in
    the pool *after* the eviction scan) is unreachable to later queries —
    stale data is never served, it just ages out of the LRU.  The version
    covers mutations too: a mutated document is a new key, and in-flight
    queries holding the previous key finish on their snapshot (readers
    never block).
    """
    return (document, tuple(strings), entry.registered_at, entry.doc_version)


def _ensure_tag_sets(working: Instance, tags) -> Instance:
    """Materialise (empty) sets for tags the document never uses.

    The one-shot pipeline pre-creates requested tag sets at load time;
    the catalog schema only has tags the document actually contains, so
    a query over an absent tag must select nothing instead of failing.
    """
    for tag in tags:
        if not working.has_set(tag):
            working.ensure_set(tag)
    return working


def _fork_ready(entry: PoolEntry) -> bool:
    """Whether ``entry``'s working fork exists and is within its growth bound."""
    working = entry.working
    return (
        working is not None
        and working.num_vertices <= WORKING_GROWTH_LIMIT * entry.instance.num_vertices
    )


class ServingBackend:
    """The plan / explain / mutate half of a serving backend, written once.

    The in-process :class:`QueryService` and the fleet dispatcher
    (:class:`repro.server.cluster.WorkerFleet`) both compile, optimize,
    explain and mutate through this class, so ``/explain``, ``/mutate``
    and :meth:`repro.api.Database.explain` cannot drift between
    ``--workers 0`` and ``--workers N``.  A backend supplies only
    the things that really differ:

    * :meth:`_analysis_instance` — the private instance ``analyze``
      measures on (a copy of the pooled master in process; a cold
      dispatcher-side load under a fleet);
    * :meth:`_statistics` — what a statistics miss derives from;
    * :meth:`instance_info` — the provenance block attached to plans;
    * :meth:`evict` — dropping a document's resident masters.
    """

    #: Bound of the compiled-query LRU and of the optimized-plan LRU.
    COMPILED_CACHE_LIMIT = 1024

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._stats_lock = threading.Lock()
        self._mutations = MutationStats()
        self._compiled = CompiledQueryCache(limit=self.COMPILED_CACHE_LIMIT)
        #: Optimized plans, LRU-keyed ``(query text, document, registered
        #: stamp, doc_version)``.
        self._optimized: OrderedDict[tuple, OptimizationResult] = OrderedDict()
        self._optimized_lock = threading.Lock()

    # -- the backend hooks -------------------------------------------------

    def _analysis_instance(self, snapshot: Snapshot, strings: tuple[str, ...]) -> Instance:
        """A private instance of ``snapshot``'s version that analyze may mutate."""
        raise NotImplementedError

    def _statistics(self, snapshot: Snapshot, strings: tuple[str, ...]) -> DocumentStats:
        """``snapshot``'s statistics for a query over ``strings``."""
        return snapshot.stats()

    def instance_info(self, snapshot: Snapshot, strings: tuple[str, ...]) -> dict:
        """Where a query over ``strings`` at ``snapshot`` would be answered from."""
        raise NotImplementedError

    def evict(self, document: str) -> int:
        """Drop every resident instance of ``document``; return the count."""
        raise NotImplementedError

    #: ``query`` answered on the calling thread when that cannot wait (see
    #: :meth:`QueryService.query_now`).  A backend that has no such answer
    #: (the worker fleet: every answer crosses a process boundary) leaves
    #: it ``None``, and callers go straight to ``query`` without even
    #: reading the request body.
    query_now = None

    # -- lifecycle (a backend owning processes overrides both) -------------

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Ready once constructed."""
        return True

    def close(self, timeout: float | None = None) -> None:
        """Nothing to tear down."""

    # -- compilation -----------------------------------------------------

    def compiled_entry(self, query_text: str):
        """``(expr, tags, strings)`` — the seam ``repro.api`` prepares through."""
        return self._compiled.entry(query_text)

    def seed_compiled(
        self,
        query_text: str,
        expr: AlgebraExpr,
        tags: tuple[str, ...],
        strings: tuple[str, ...],
    ) -> None:
        """Adopt an externally-compiled query into the shared LRU."""
        self._compiled.seed(query_text, expr, tags, strings)

    def _optimized_for(
        self, snapshot: Snapshot, query_text: str, expr: AlgebraExpr, strings: tuple[str, ...]
    ) -> OptimizationResult:
        """``expr`` optimized against the statistics of ``snapshot``'s version.

        The cache keys on the entry's ``doc_version`` as well as its
        registration stamp: two registrations can land on the same
        wall-clock stamp (remove + re-add within timer resolution), and a
        mutation changes the statistics without the name changing — the
        version counter is the one key that moves on every publish.
        """
        entry = snapshot.entry
        key = (query_text, entry.name, entry.registered_at, entry.doc_version)
        optimization = self._cached_optimization(key)
        if optimization is not None:
            return optimization
        optimization = optimize_plan(expr, self._statistics(snapshot, strings))
        with self._optimized_lock:
            if key not in self._optimized:
                while len(self._optimized) >= self.COMPILED_CACHE_LIMIT:
                    self._optimized.popitem(last=False)
            self._optimized[key] = optimization
        return optimization

    def _cached_optimization(self, key: tuple) -> OptimizationResult | None:
        with self._optimized_lock:
            entry = self._optimized.get(key)
            if entry is not None:
                self._optimized.move_to_end(key)
            return entry

    def _cached_plan(self, document: str, query_text: str):
        """``(catalog entry, optimized expr, tags, strings)`` from the caches alone.

        ``None`` unless the document is known and both the compiled and the
        optimized plan are cached: this never parses, compiles or reads
        statistics, and never raises.
        """
        try:
            catalog_entry = self.catalog.entry(document)
        except CatalogError:
            return None
        compiled = self._compiled.cached(query_text)
        if compiled is None:
            return None
        _, tags, strings = compiled
        optimization = self._cached_optimization(
            (query_text, document, catalog_entry.registered_at, catalog_entry.doc_version)
        )
        if optimization is None:
            return None
        return catalog_entry, optimization.expr, tags, strings

    @contextlib.contextmanager
    def _planned(self, document: str, query_text: str, entry: CatalogEntry | None = None):
        """``(snapshot, tags, strings, optimization)`` of a served query, for
        the ``with`` block that is the request: it pins ``document``'s
        current version (or serves ``entry``) until the block ends.

        Unknown documents raise before the text is compiled; compilation
        goes through the shared LRU, so hot texts are parse-free and a
        malformed query fails with the same error on every surface.
        """
        with self.catalog.snapshot(document, entry) as snapshot:  # raises when unknown
            expr, tags, strings = self._compiled.entry(query_text)
            optimization = self._optimized_for(snapshot, query_text, expr, strings)
            yield snapshot, tags, strings, optimization

    # -- plans -----------------------------------------------------------

    def plan(self, document: str, query_text: str, analyze: bool = False):
        """The structured :class:`repro.api.Plan` of a served query.

        The one plan builder behind ``/explain`` and
        :meth:`repro.api.Database.explain`: the optimized tree with
        per-node ``est_cardinality`` and rule tags (see the contract in
        :mod:`repro.api.plan`) and the backend's :meth:`instance_info`
        provenance.  Under a fleet the plan is still computed here,
        dispatcher-side — workers rewrite against the same per-version
        statistics, so this is exactly the plan the shard evaluates.

        ``analyze=True`` additionally *executes* the plan — on a private
        instance, never mutating served state, without runtime
        short-circuiting — and attaches measured ``actual`` DAG/tree counts
        to every node.  Statistics, plan, measured instance and provenance
        all come from the one snapshot :meth:`_planned` pins.
        """
        from repro.api.plan import Plan
        from repro.engine.evaluator import measure_actuals

        with self._planned(document, query_text) as (snapshot, tags, strings, optimization):
            actuals = None
            if analyze:
                working = _ensure_tag_sets(self._analysis_instance(snapshot, strings), tags)
                actuals = measure_actuals(working, optimization.expr, copy=False)
            plan = Plan.from_compiled(
                query_text, optimization.original, tags, strings,
                optimization=optimization, actuals=actuals,
            )
            plan.instance = self.instance_info(snapshot, strings)
        return plan

    def explain(self, document: str, query_text: str, analyze: bool = False) -> dict:
        """The ``/explain`` payload: :meth:`plan` as JSON."""
        plan = self.plan(document, query_text, analyze)
        payload = {"document": document, "query": query_text, "plan": plan.to_dict()}
        if analyze:
            payload["analyzed"] = True
        return payload

    # -- mutation --------------------------------------------------------

    def mutate(self, document: str, mutations) -> dict:
        """Apply a mutation batch to a served document; returns the outcome.

        Delegates durability and publication to
        :meth:`repro.server.catalog.Catalog.mutate` (journal append →
        incremental maintenance → staged version publish) in this process
        — under a fleet the dispatcher is the single writer and workers
        are readers — then drops the document's resident masters
        (:meth:`evict`) so the next query loads the new version.  In-flight
        queries keep evaluating on their snapshot — their pool keys carry
        the old ``doc_version`` — so readers never block on this writer.
        The patch is validated into a list once, up front: the caller may
        hand in any iterable (a generator is consumed exactly once) and
        the op counts describe what was actually committed.
        """
        started = time.perf_counter()
        try:
            batch = as_mutations(mutations)
            entry = self.catalog.mutate(document, batch)
        except Exception:
            with self._stats_lock:
                self._mutations.failed += 1
            raise
        evicted = self.evict(document)
        ops: dict[str, int] = {}
        for mutation in batch:
            ops[mutation.op] = ops.get(mutation.op, 0) + 1
        with self._stats_lock:
            self._mutations.observe(ops)
        return {
            "document": document,
            "doc_version": entry.doc_version,
            "applied": len(batch),
            "ops": ops,
            "seconds": time.perf_counter() - started,
            "maintenance_seconds": entry.shred_seconds,
            "pool_entries_evicted": evicted,
            "dag_vertices": entry.dag_vertices,
            "skeleton_nodes": entry.skeleton_nodes,
        }


class QueryService(ServingBackend):
    """Concurrent load-once/query-forever serving over a catalog.

    Thread-safe; every public method may be called from any number of
    threads concurrently.
    """

    def __init__(
        self,
        catalog: Catalog,
        pool_capacity: int = 8,
        request_timeout: float = 120.0,
        max_queue: int = 0,
        rate_limit: float = 0.0,
        degraded_shed_rate: float = 1.0,
    ):
        super().__init__(catalog)
        self.request_timeout = request_timeout
        self.pool = InstancePool(capacity=pool_capacity)
        self.admission = AdmissionController(max_queue=max_queue, rate_limit=rate_limit)
        #: Sheds/second above which :meth:`health_dict` reports ``degraded``.
        self.degraded_shed_rate = degraded_shed_rate
        self.stats = ServiceStats()
        self._pending: dict[tuple, _Pending] = {}
        self._pending_lock = threading.Lock()

    # -- the public entry point ------------------------------------------

    def query(
        self,
        document: str,
        query_text: str,
        paths: int = 0,
        limit: int = DEFAULT_LIMIT,
        deadline: Deadline | None = None,
        client: str | None = None,
        trace: str | None = None,
        entry: CatalogEntry | None = None,
    ) -> dict:
        """Answer one query; concurrent callers coalesce into shared batches.

        Raises :class:`repro.errors.CatalogError` for unknown documents and
        the usual XPath errors for malformed queries — both *before* the
        request joins a batch, so bad requests never poison good ones.
        ``deadline`` is the request's end-to-end budget: it is checked at
        admission, again before the request's batch evaluates (an expired
        request never occupies a batch slot), and bounds how long the
        caller blocks on its future.  ``client`` identifies the caller for
        per-client rate limiting; admission sheds with
        :class:`repro.errors.OverloadedError` before any work is done.
        ``trace`` is the request's trace ID (minted at accept by the HTTP
        front-ends); it rides through coalescing and is echoed in the
        response payload.  ``entry`` is the version to answer from (a fleet
        worker serves the one its dispatcher pinned); by default the current.
        """
        self._check_arrival(deadline)
        self.admission.admit(client)
        try:
            return self._admitted_query(
                document, query_text, paths, limit, deadline, trace, entry
            )
        finally:
            self.admission.release()

    def query_now(
        self,
        document: str,
        query_text: str,
        paths: int = 0,
        limit: int = DEFAULT_LIMIT,
        deadline: Deadline | None = None,
        client: str | None = None,
        trace: str | None = None,
    ) -> dict | None:
        """:meth:`query` on the calling thread, or ``None`` if it could wait.

        The asyncio front-end calls this on its lane, the one thread that
        answers warm queries one after another.  Every condition is read
        from live state:

        * the compiled and optimized plans are cached (nothing is parsed,
          compiled or read from disk);
        * the master is resident and its working fork exists (nothing is
          loaded or forked);
        * the key is idle: ``entry.lock`` is free and no batch is pending,
          so a queued request is never overtaken;
        * this request shape's last measured service time on this entry
          is below ``sys.getswitchinterval()`` — the longest a thread
          holding the GIL already keeps every other thread waiting per
          turn, so a request cheaper than that delays the requests queued
          behind it on the lane no more than sharing the GIL would.  A
          cost not yet measured counts as too slow.

        Otherwise ``None``: the caller runs :meth:`query`, which coalesces
        as usual.  A request that *is* answered here keeps every contract
        of :meth:`query` — dead-on-arrival check, admission, the batch
        deadline check, counters, the fault seam — and gets the same
        payload, because both run :meth:`_serve`.  An answer that arrives
        after the deadline is refused, as :meth:`query`'s waiter refuses it.
        """
        plan = self._cached_plan(document, query_text)
        if plan is None:
            return None
        catalog_entry, expr, tags, strings = plan
        key = pool_key(document, strings, catalog_entry)
        entry = self.pool.peek(key)
        if entry is None or not entry.lock.acquire(blocking=False):
            return None
        try:
            cost = entry.costs.get((query_text, paths))
            if not _fork_ready(entry) or cost is None or cost >= sys.getswitchinterval():
                return None
            with self._pending_lock:
                if key in self._pending:
                    return None
            self._check_arrival(deadline)
            self.admission.admit(client)
            try:
                with self._stats_lock:
                    self.stats.requests += 1
                self.pool.hit(entry)
                request = _Request(query_text, expr, tags, paths, limit, deadline, trace)
                (outcome,) = self._serve(key, entry, [request], pool_hit=True)
            finally:
                self.admission.release()
        finally:
            entry.lock.release()
        if deadline is not None and deadline.expired:
            raise self._expired(request)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _check_arrival(self, deadline: Deadline | None) -> None:
        """Shed a request that is dead on arrival, before admission."""
        if deadline is not None and deadline.expired:
            with self._stats_lock:
                self.stats.deadline_expired += 1
            deadline.check("request")

    def _expired(self, request: _Request) -> DeadlineExceededError:
        """Count, and build, the refusal of a result that came too late."""
        self._count_refused([request])
        return DeadlineExceededError(
            f"deadline expired before a result for {request.query_text!r} was ready"
        )

    def _count_refused(self, requests: list[_Request]) -> None:
        """Count each request's deadline refusal once, whoever sees it first."""
        with self._stats_lock:
            for request in requests:
                if not request.refused:
                    request.refused = True
                    self.stats.deadline_expired += 1

    def _admitted_query(
        self,
        document: str,
        query_text: str,
        paths: int,
        limit: int,
        deadline: Deadline | None,
        trace: str | None = None,
        entry: CatalogEntry | None = None,
    ) -> dict:
        with self._planned(document, query_text, entry) as planned:
            snapshot, tags, strings, optimization = planned
            with self._stats_lock:
                self.stats.requests += 1
            request = _Request(
                query_text, optimization.expr, tags, paths, limit, deadline, trace
            )
            key = pool_key(document, strings, snapshot.entry)
            return self._coalesced(key, snapshot, request)

    def _coalesced(self, key: tuple, snapshot: Snapshot, request: _Request) -> dict:
        """Queue ``request`` on ``key``'s pending batch and wait for its answer.

        A leader loads ``key``'s master through its own ``snapshot``: every
        request of a batch shares the key, and so the version.
        """
        future: Future = Future()
        pending = self._pending_for(key)
        with pending.mutex:
            pending.queue.append((request, future))
            lead = not pending.busy
            if lead:
                pending.busy = True
        if lead:
            self._drain(key, pending, snapshot)
        deadline = request.deadline
        timeout = self.request_timeout
        if deadline is not None:
            timeout = min(timeout, max(deadline.remaining(), 0.0))
        try:
            return future.result(timeout=timeout)
        except FuturesTimeoutError:
            # A request still queued is cancelled, so no leader evaluates it
            # for nobody.  One a leader already claimed runs on; if it has
            # just finished, its outcome stands.
            if not future.cancel() and future.done():
                return future.result()
            if deadline is not None and deadline.expired:
                raise self._expired(request) from None
            raise

    # -- the backend hooks -----------------------------------------------

    def evict(self, document: str) -> int:
        """Drop every resident pool instance of ``document``; return count."""
        return self.pool.evict(lambda key: key[0] == document)

    def instance_info(self, snapshot: Snapshot, strings: tuple[str, ...]) -> dict:
        """Where a query over ``strings`` at ``snapshot`` would be answered from.

        The cached-instance provenance attached to structured plans:
        whether the master is currently resident in the pool (a pool hit)
        and how it was loaded.
        """
        key = pool_key(snapshot.entry.name, strings, snapshot.entry)
        return {
            "source": "pool",
            "resident": key in self.pool.keys(),
            "strings": list(strings),
            "kernel": kernel_info(),
            "load": self.pool.load_info(key),
        }

    def _master(self, snapshot: Snapshot, strings: tuple[str, ...]) -> PoolEntry:
        """The pool entry of ``snapshot``'s version over ``strings``, its
        master loaded once, from that version's files."""
        key = pool_key(snapshot.entry.name, strings, snapshot.entry)
        return self.pool.get_or_load(key, lambda: snapshot.load(strings))

    def _statistics(self, snapshot: Snapshot, strings: tuple[str, ...]) -> DocumentStats:
        """A miss of a tag-only query derives from the tags-only master it
        is about to be answered from, so the image is read once, for both.
        A string query, which never uses that master, loads it only for the
        statistics and does not keep it."""
        if strings:
            return snapshot.stats()
        return snapshot.stats(lambda: self._master(snapshot, ()).instance)

    def _analysis_instance(self, snapshot: Snapshot, strings: tuple[str, ...]) -> Instance:
        """A private copy of the pooled master — the same instance
        :meth:`query` would use, so actuals describe real serving state."""
        entry = self._master(snapshot, strings)
        with entry.lock:
            return entry.instance.copy()

    def stats_dict(self) -> dict:
        with self._stats_lock:
            service = self.stats.as_dict()
            service["mutations"] = self._mutations.as_dict()
        return {
            "service": service,
            "pool": self.pool.stats(),
            "admission": self.admission.stats(),
            "quarantined": self.catalog.quarantined(),
            "kernel": kernel_info(),
            "doc_versions": {
                entry.name: entry.doc_version for entry in self.catalog.entries()
            },
        }

    def health_dict(self) -> dict:
        """Health beyond alive/dead: ``ok`` or ``degraded`` plus the reasons.

        The service is *degraded* (still serving, but not at full fidelity
        or capacity) when documents are quarantined after integrity
        failures or the recent shed rate crossed the configured threshold.
        The HTTP front-end maps ``degraded`` to a distinct status code so
        probes can tell "fine" from "limping" without parsing the body.
        """
        reasons: list[str] = []
        quarantined = self.catalog.quarantined()
        if quarantined:
            reasons.append(f"{len(quarantined)} quarantined document(s)")
        shed_rate = self.admission.shed_rate()
        if shed_rate > self.degraded_shed_rate:
            reasons.append(f"shedding {shed_rate:.1f} requests/s")
        return {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "quarantined": quarantined,
            "shed_rate": round(shed_rate, 3),
        }

    def resident_keys(self) -> list[tuple]:
        """The ``(document, strings)`` pairs currently resident in the pool."""
        return [(key[0], key[1]) for key in self.pool.keys()]

    # -- coalescing ------------------------------------------------------

    def _pending_for(self, key: tuple) -> _Pending:
        with self._pending_lock:
            pending = self._pending.get(key)
            if pending is None:
                pending = self._pending[key] = _Pending()
            return pending

    def _drain(self, key: tuple, pending: _Pending, snapshot: Snapshot) -> None:
        """Leader loop: evaluate queued batches until the queue stays empty.

        The leader (the thread whose request found the key idle) repeatedly
        takes up to :data:`MAX_BATCH` queued requests and evaluates them as
        one batch.  Requests arriving *while* a batch executes are picked up
        by the next iteration — natural micro-batching under load, no added
        latency when idle.  When the queue stays empty the key's pending
        entry is removed from the registry, so `_pending` is bounded by the
        number of keys with in-flight requests, not by every
        ``(document, string-schema)`` a client ever mentioned.  (A submitter
        still holding the removed entry simply becomes its own leader; a
        concurrent replacement entry for the same key is harmless — the two
        leaders serialise on the pool entry's lock.)
        """
        while True:
            with self._pending_lock:
                with pending.mutex:
                    batch = pending.queue[:MAX_BATCH]
                    del pending.queue[: len(batch)]
                    if not batch:
                        pending.busy = False
                        if self._pending.get(key) is pending:
                            del self._pending[key]
                        return
            # Claim each request: from here on its waiter cannot cancel it,
            # so only this thread resolves its future.
            batch = [
                (request, future)
                for request, future in batch
                if future.set_running_or_notify_cancel()
            ]
            try:
                self._execute(key, batch, snapshot)
            except BaseException as error:  # noqa: BLE001 - forwarded to waiters
                with self._stats_lock:
                    self.stats.errors += len(batch)
                for _, future in batch:
                    if not future.done():
                        future.set_exception(error)

    # -- evaluation ------------------------------------------------------

    def _prune_expired(
        self, batch: list[tuple[_Request, Future]]
    ) -> list[tuple[_Request, Future]]:
        """Resolve already-expired requests; only live ones get batch slots.

        The deadline contract's cheap half: a request whose budget ran out
        while queued behind an earlier batch is answered with a structured
        ``deadline_exceeded`` immediately, instead of being evaluated for a
        waiter that already gave up.
        """
        live: list[tuple[_Request, Future]] = []
        expired: list[_Request] = []
        for request, future in batch:
            if request.deadline is not None and request.deadline.expired:
                expired.append(request)
                future.set_exception(
                    DeadlineExceededError(
                        f"deadline expired before {request.query_text!r} "
                        f"reached evaluation"
                    )
                )
            else:
                live.append((request, future))
        self._count_refused(expired)
        return live

    def _execute(
        self, key: tuple, batch: list[tuple[_Request, Future]], snapshot: Snapshot
    ) -> None:
        batch = self._prune_expired(batch)
        if not batch:
            return
        entry = self._master(snapshot, key[1])
        pool_hit = entry.hits > 0
        with entry.lock:
            outcomes = self._serve(key, entry, [request for request, _ in batch], pool_hit)
        for (_, future), outcome in zip(batch, outcomes):
            if future.done():
                continue
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    def _serve(
        self, key: tuple, entry: PoolEntry, requests: list[_Request], pool_hit: bool
    ) -> list[dict | Exception]:
        """Evaluate ``requests`` as one batch: the one path to an answer.

        The caller holds ``entry.lock``: :meth:`_execute` on an executor
        thread, or :meth:`query_now` on the lane thread.  Re-forks an
        outgrown or missing working fork, evaluates, and returns one
        finished payload or exception per request.  An evaluation that
        died mid-batch counts every request as an error and is returned as
        every request's outcome; a ``BaseException`` propagates.
        """
        if not _fork_ready(entry):
            if entry.working is not None:
                with self._stats_lock:
                    self.stats.working_reforks += 1
            # The master stays pristine, so a fork is always one copy away.
            entry.working = entry.instance.copy()
        try:
            outcomes = self._evaluate(entry, requests)
        except Exception as error:  # noqa: BLE001 - forwarded to every waiter
            with self._stats_lock:
                self.stats.errors += len(requests)
            return [error] * len(requests)
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.max_batch_size = max(self.stats.max_batch_size, len(requests))
            if len(requests) > 1:
                self.stats.coalesced_requests += len(requests)
            self.stats.errors += sum(
                1 for outcome in outcomes if isinstance(outcome, Exception)
            )
        for request, outcome in zip(requests, outcomes):
            if isinstance(outcome, Exception):
                continue
            outcome.update(
                document=key[0],
                query=request.query_text,
                batched_with=len(requests),
                pool_hit=pool_hit,
            )
            if request.trace is not None:
                outcome["trace"] = request.trace
        return outcomes

    @staticmethod
    def _batch_check(batch: list[_Request]):
        """The cooperative cancellation hook for one batch, or ``None``.

        Installed only when *every* request in the batch carries a
        deadline: the batch is abandoned (between per-query evaluations —
        the engine is never preempted mid-query) once the **latest** of
        those deadlines has passed, i.e. once no waiter could still use a
        result.  Mixed batches keep running for their unbounded waiters;
        the expired ones are answered by their own ``future.result``
        timeout converting to ``deadline_exceeded``.
        """
        deadlines = [request.deadline for request in batch]
        if not deadlines or any(d is None for d in deadlines):
            return None
        horizon = Deadline(max(d.at for d in deadlines))

        def check() -> None:
            horizon.check("batch (every waiter's deadline passed)")

        return check

    def _evaluate(self, entry: PoolEntry, batch: list[_Request]) -> list[dict | Exception]:
        """Evaluate one coalesced batch; per-request outcomes, not all-or-nothing.

        Runs on ``entry.working`` with ``entry.lock`` held.  Decoding
        failures (e.g. a client-supplied path ``limit`` blown by a huge
        selection) are captured *per request*, so one bad request never
        poisons its batch-mates.  The working fork stays with the entry
        after every successful evaluation (truncated back to the schema it
        had before the batch), and is
        **discarded** if evaluation itself died mid-batch — a half-evaluated
        instance still carries populated temp sets that a later evaluator's
        fresh counter would silently reuse.

        Each request's cost — seconds from the fault seam to the end of its
        own decode, so a batch-mate's share counts against it — is recorded
        on the entry for :meth:`query_now`.
        """
        started = time.perf_counter()
        FAULTS.fire("service.evaluate", batch=len(batch))
        working = entry.working
        width = len(working.schema)
        for request in batch:
            _ensure_tag_sets(working, request.tags)
        evaluator = CompressedEvaluator(working, copy=False, short_circuit=True)
        check = self._batch_check(batch)
        vertices_before = working.num_vertices
        try:
            result = evaluator.evaluate_batch(
                [request.expr for request in batch], keep_temps=True, check=check
            )
        except BaseException:
            entry.working = None  # re-fork from the pristine master
            raise
        with self._stats_lock:
            self.stats.split_vertices += working.num_vertices - vertices_before
        outcomes: list[dict | Exception] = []
        for request, query_result in zip(batch, result):
            try:
                payload = decode_result(
                    query_result, paths=request.paths, limit=request.limit
                )
                payload["seconds"] = query_result.seconds
                outcomes.append(payload)
            except Exception as error:  # noqa: BLE001 - forwarded to one waiter
                outcomes.append(error)
            entry.record_cost(
                (request.query_text, request.paths),
                time.perf_counter() - started,
                self.COMPILED_CACHE_LIMIT,
            )
        # Keep the working fork for the next batch, minus every set this
        # batch appended to its schema — the empty sets of tags the document
        # lacks, the temporaries and the result snapshots (all decoded above,
        # so nothing references them anymore): one truncation.
        working.truncate_sets(width)
        return outcomes
