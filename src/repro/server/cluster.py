"""Sharded multi-process serving: a pre-forked worker fleet + dispatcher.

PR 3's single-process server keeps compressed masters resident and
coalesces concurrent requests, but every mask-plane evaluation still
contends on one GIL — aggregate throughput stops scaling past ~1 core.
The fleet shards the work the way path-partitioned stores do: each
**worker process** (:mod:`repro.server.worker`) owns its own
``InstancePool`` and evaluator and answers only the shards routed to
it, so N workers evaluate on N cores with no shared interpreter state.

Design points:

* **Spawn-safe replication via the published image.**  Workers are
  started with the ``spawn`` method and receive only the catalog
  *directory*; they load their resident masters from each document
  version's ``skeleton.rskl`` on disk (or re-scan the kept text for string
  schemas).  Instances are never pickled across the boundary — the
  on-disk catalog is the IPC-free replication channel, so worker startup
  cost is one warm load per resident key, independent of front-end state.

* **Rendezvous (HRW) routing = shard affinity.**  Each request is routed
  by the highest ``blake2b(worker slot | document | string-schema)``
  score over the fleet, so a given ``(document, string-schema)`` master
  is resident in **exactly one** worker: PR 3's micro-batch coalescing
  and working-fork reuse keep working per shard, memory is not
  duplicated N ways, and adding/removing a slot only remaps the keys
  that hashed to it.  A respawned worker keeps its slot id, so affinity
  survives crashes.

* **Crash containment.**  A monitor thread health-checks the fleet;
  when a worker dies (``kill -9`` included) its in-flight requests fail
  with :class:`~repro.errors.WorkerUnavailableError` — mapped to HTTP
  503, never a hang or a wrong answer — and the worker is respawned on
  fresh queues.  Subsequent requests for the shard hit the respawned
  worker, which reloads its masters from disk.

* **Graceful drain.**  :meth:`WorkerFleet.close` sends a shutdown
  sentinel to every worker, lets them finish queued work, joins with a
  deadline, and only then escalates to ``terminate``/``kill``.

:class:`WorkerFleet` is a :class:`~repro.server.service.ServingBackend`
like the in-process :class:`~repro.server.service.QueryService`: plans,
``plan``/``explain`` and ``mutate`` are the inherited single
implementation, and this module adds only what is genuinely fleet —
routing, the wire, slots/breakers/respawn, stats folding and the evict
broadcast — so the HTTP front-end treats ``--workers N`` and
``--workers 0`` identically.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import queue as stdlib_queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro.errors import ClusterError, DeadlineExceededError, IntegrityError
from repro.errors import QuarantinedError, WorkerUnavailableError
from repro.server.catalog import Catalog, Snapshot
from repro.server.resilience import FAULTS, AdmissionController, CircuitBreaker, Deadline
from repro.server.service import DEFAULT_LIMIT, ServingBackend, kernel_info
from repro.server.worker import SHUTDOWN, rebuild_error, worker_main

#: Request kinds counted in dispatched/completed/failed — real work, not
#: the fleet's own control traffic (pings, stats probes).
_WORK_KINDS = frozenset({"query", "evict"})


#: Keys in worker stats payloads that are levels, not counters: a merge
#: keeps the live value instead of summing across incarnations.
_GAUGE_KEYS = frozenset({"capacity", "resident"})


def _fold_stats(carried, live):
    """``live`` + ``carried`` with counter semantics, recursively.

    Numeric leaves add (they are counters: requests, hits, misses...),
    except known gauge keys which keep the live level and
    ``max_batch_size`` which takes the max.  Shapes that do not line up
    fall back to the live value — worker payloads evolve, and a merge
    must never be the thing that breaks /stats.
    """
    if carried is None:
        return live
    if live is None:
        return carried
    if isinstance(carried, dict) and isinstance(live, dict):
        merged = {}
        for key in set(carried) | set(live):
            if key in _GAUGE_KEYS:
                merged[key] = live.get(key, carried.get(key))
            elif key == "max_batch_size":
                merged[key] = max(carried.get(key, 0), live.get(key, 0))
            else:
                merged[key] = _fold_stats(carried.get(key), live.get(key))
        return merged
    if isinstance(carried, list) and isinstance(live, list) and len(carried) == len(live):
        return [_fold_stats(one, other) for one, other in zip(carried, live)]
    if isinstance(carried, (int, float)) and isinstance(live, (int, float)):
        return carried + live
    return live


class _WorkerSlot:
    """One stable shard slot: a worker process and its plumbing.

    The slot *id* is what rendezvous hashing scores, so it survives
    respawns; the process, queues, pump thread, and in-flight map are
    per-incarnation and replaced wholesale on crash (a killed process can
    leave a queue in an unusable state, so queues are never reused).
    """

    __slots__ = (
        "id",
        "lock",
        "process",
        "request_queue",
        "response_queue",
        "inflight",
        "pump",
        "stop_pump",
        "generation",
        "dispatched",
        "completed",
        "failed",
        "last_spawn",
        "strikes",
        "respawn_at",
        "breaker",
        "carried",
        "last_probe",
        "last_probe_generation",
    )

    def __init__(self, slot_id: int, breaker: CircuitBreaker):
        self.id = slot_id
        #: Route-around state: opens after consecutive shard failures.
        self.breaker = breaker
        self.lock = threading.Lock()
        self.process = None
        self.request_queue = None
        self.response_queue = None
        #: request id -> (Future, kind), everything handed to this incarnation.
        self.inflight: dict[int, tuple[Future, str]] = {}
        self.pump: threading.Thread | None = None
        self.stop_pump: threading.Event | None = None
        self.generation = 0
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        #: Crash-loop backoff state: when the incarnation started, how many
        #: consecutive times it died young, and when the next spawn is due.
        self.last_spawn = 0.0
        self.strikes = 0
        self.respawn_at = 0.0
        #: Dead incarnations' folded service/pool counters: a respawn resets
        #: the worker's own numbers to zero, so /stats merges this back in
        #: to keep per-worker counters monotone across crashes.
        self.carried: dict | None = None
        #: The freshest stats probe of the *current* incarnation (folded
        #: into ``carried`` when it dies) and the generation it belongs to.
        self.last_probe: dict | None = None
        self.last_probe_generation = 0


class WorkerFleet(ServingBackend):
    """Dispatcher over N pre-forked workers; the ``--workers N`` service."""

    def __init__(
        self,
        catalog: Catalog,
        workers: int,
        pool_capacity: int = 8,
        request_timeout: float = 120.0,
        worker_threads: int = 4,
        health_interval: float = 0.25,
        drain_timeout: float = 10.0,
        max_queue: int = 0,
        rate_limit: float = 0.0,
        degraded_shed_rate: float = 1.0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 2.0,
        young_death_window: float = 2.0,
        backoff_healthy_window: float = 30.0,
        faults: dict | None = None,
    ):
        count = int(workers)
        if count < 1:
            raise ClusterError(f"worker fleet needs >= 1 worker, got {count}")
        super().__init__(catalog)
        self.request_timeout = request_timeout
        self.health_interval = health_interval
        self.drain_timeout = drain_timeout
        self.workers = count
        #: A worker that dies within this many seconds of spawning earns a
        #: crash-loop strike.
        self.young_death_window = young_death_window
        #: A worker alive this long has proven itself: its strikes reset,
        #: so the *next* crash starts from a clean backoff schedule.
        self.backoff_healthy_window = backoff_healthy_window
        self.admission = AdmissionController(max_queue=max_queue, rate_limit=rate_limit)
        self.degraded_shed_rate = degraded_shed_rate
        self._config = {
            "pool_capacity": pool_capacity,
            "threads": worker_threads,
            # Primitives-only fault spec; each spawned worker arms its own
            # process-local injector from it (the chaos suite's channel for
            # injecting faults *inside* workers).
            "faults": faults,
        }
        self._context = multiprocessing.get_context("spawn")
        self._ids = itertools.count(1)
        self._closing = threading.Event()
        self._respawns = 0
        self._slots = [
            _WorkerSlot(
                slot_id,
                CircuitBreaker(threshold=breaker_threshold, cooldown=breaker_cooldown),
            )
            for slot_id in range(count)
        ]
        try:
            for slot in self._slots:
                self._start_worker(slot)
        except BaseException:
            # A partial fleet must not outlive its failed constructor: the
            # caller gets the exception, never a handle to close() with.
            self._closing.set()
            for slot in self._slots:
                if slot.stop_pump is not None:
                    slot.stop_pump.set()
                # A slot whose Process.start() raised has no process to stop.
                if slot.process is not None and slot.process.pid is not None:
                    slot.process.terminate()
                    slot.process.join(timeout=2.0)
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()

    # -- worker lifecycle ------------------------------------------------

    def _start_worker(self, slot: _WorkerSlot) -> None:
        """(Re)incarnate ``slot``: fresh queues, process, and pump thread."""
        slot.request_queue = self._context.Queue()
        slot.response_queue = self._context.Queue()
        slot.inflight = {}
        slot.stop_pump = threading.Event()
        slot.generation += 1
        slot.process = self._context.Process(
            target=worker_main,
            args=(
                slot.id,
                self.catalog.root,
                slot.request_queue,
                slot.response_queue,
                self._config,
            ),
            name=f"repro-worker-{slot.id}",
            daemon=True,
        )
        slot.process.start()
        slot.last_spawn = time.monotonic()
        slot.pump = threading.Thread(
            target=self._pump_loop,
            args=(slot, slot.response_queue, slot.stop_pump),
            name=f"fleet-pump-{slot.id}",
            daemon=True,
        )
        slot.pump.start()

    def _pump_loop(self, slot: _WorkerSlot, response_queue, stop: threading.Event) -> None:
        """Resolve this incarnation's futures from its response queue."""
        while not stop.is_set():
            try:
                message = response_queue.get(timeout=0.1)
            except stdlib_queue.Empty:
                continue
            except Exception:  # noqa: BLE001 - queue torn down mid-read
                stop.wait(0.05)
                continue
            request_id, status = message[0], message[1]
            with slot.lock:
                entry = slot.inflight.pop(request_id, None)
            if entry is None:  # timed out / failed over already
                continue
            future, kind = entry
            counted = kind in _WORK_KINDS
            if status == "ok":
                if counted:
                    with self._stats_lock:
                        slot.completed += 1
                future.set_result(message[2])
            else:
                if counted:
                    with self._stats_lock:
                        slot.failed += 1
                future.set_exception(rebuild_error(message[2], message[3]))

    def _monitor_loop(self) -> None:
        """Health-check the fleet; fail over and respawn dead workers.

        The loop must survive anything a single pass throws (a respawn's
        ``Process.start()`` can raise under memory/process pressure): a
        dead monitor would silently disable crash detection for the rest
        of the fleet's life, so failures only skip the pass — the slot
        stays dead-but-detected and is retried next tick.
        """
        while not self._closing.wait(self.health_interval):
            for slot in self._slots:
                if self._closing.is_set():
                    return
                try:
                    process = slot.process
                    if process is not None and not process.is_alive():
                        self._handle_crash(slot)
                    elif process is not None:
                        # Sustained-health amnesty: strikes used to persist
                        # until the *next* crash, so a worker that crash-
                        # looped once carried its backoff schedule forever.
                        # A full healthy window wipes the slate.
                        if (
                            slot.strikes
                            and time.monotonic() - slot.last_spawn
                            >= self.backoff_healthy_window
                        ):
                            with slot.lock:
                                if slot.process is process and process.is_alive():
                                    slot.strikes = 0
                    else:
                        # A crash-looping slot waiting out its backoff window.
                        with slot.lock:
                            if (
                                slot.process is None
                                and time.monotonic() >= slot.respawn_at
                                and not self._closing.is_set()
                            ):
                                self._start_worker(slot)
                except Exception:  # noqa: BLE001 - retried on the next tick
                    with slot.lock:
                        if slot.process is not None and not slot.process.is_alive():
                            slot.process = None
                        slot.respawn_at = time.monotonic() + max(
                            0.5, self.health_interval
                        )

    def _handle_crash(self, slot: _WorkerSlot) -> None:
        """Fail over one dead incarnation and respawn it, atomically.

        The whole swap — dooming the in-flight map, stopping the old pump,
        installing fresh queues, starting the new process — happens under
        the slot lock, so a concurrent :meth:`_submit` lands either in the
        old incarnation (and is doomed here) or entirely in the new one;
        a request can never strand half-registered across the swap.
        """
        exitcode = slot.process.exitcode
        with slot.lock:
            slot.stop_pump.set()
            doomed = list(slot.inflight.values())
            slot.inflight = {}
            # Fold the dead incarnation's last-seen service/pool counters
            # into the slot's carry so /stats stays monotone: the respawned
            # worker restarts its own counters from zero, but the shard's
            # reported totals must never go backwards.  (Work done after
            # the last stats probe is lost with the process — the carry is
            # a floor, not an exact ledger.)
            if slot.last_probe is not None and slot.last_probe_generation == slot.generation:
                slot.carried = _fold_stats(slot.carried, slot.last_probe)
            slot.last_probe = None
            # Crash-loop backoff: a worker that died young (within
            # ``young_death_window`` seconds of spawning — e.g. a corrupted
            # catalog killing every startup) earns a strike; after 3 strikes
            # respawns are delayed exponentially up to 5 s so a
            # deterministic startup failure burns backoff waits, not a
            # continuous spawn storm.  The slot keeps retrying forever at
            # the capped interval — an operator sees alive=false + climbing
            # respawns in /stats meanwhile.  Strikes clear on a crash past
            # the young-death window, and (the monitor's amnesty pass) after
            # a sustained ``backoff_healthy_window`` without crashing.
            if time.monotonic() - slot.last_spawn < self.young_death_window:
                slot.strikes += 1
            else:
                slot.strikes = 0
            delay = 0.0 if slot.strikes < 3 else min(5.0, 0.25 * 2 ** (slot.strikes - 3))
            if self._closing.is_set():
                pass
            elif delay == 0.0:
                try:
                    self._start_worker(slot)
                except Exception:  # noqa: BLE001 - spawn failed (EAGAIN/ENOMEM...)
                    # The in-flight futures below must still be failed; leave
                    # the slot dead-but-scheduled and let the monitor retry.
                    slot.process = None
                    slot.respawn_at = time.monotonic() + max(0.5, self.health_interval)
            else:
                slot.process = None  # _submit fails fast while we wait
                slot.respawn_at = time.monotonic() + delay
        slot.breaker.record_failure()  # a crash counts against the shard
        error = WorkerUnavailableError(
            f"worker {slot.id} died (exit code {exitcode}) with the request in "
            f"flight; the shard is respawning — retry"
        )
        with self._stats_lock:
            slot.failed += sum(1 for _, kind in doomed if kind in _WORK_KINDS)
            self._respawns += 1
        for future, _ in doomed:
            if not future.done():
                future.set_exception(error)

    # -- routing ---------------------------------------------------------

    def _ranked_slots(self, document: str, strings: tuple[str, ...]) -> list[_WorkerSlot]:
        """Every slot, best rendezvous score first (the HRW preference list)."""
        if len(self._slots) == 1:
            return list(self._slots)
        key = json.dumps([document, list(strings)]).encode("utf-8")

        def score(slot: _WorkerSlot) -> int:
            digest = hashlib.blake2b(b"%d|" % slot.id + key, digest_size=8).digest()
            return int.from_bytes(digest, "big")

        return sorted(self._slots, key=score, reverse=True)

    def _slot_for(self, document: str, strings: tuple[str, ...]) -> _WorkerSlot:
        """Rendezvous-hash the shard key over the stable slot ids.

        The *primary* slot, ignoring breaker state — used by introspection
        (:meth:`shard_of`, plans) which must not consume half-open probes.
        """
        return self._ranked_slots(document, strings)[0]

    def _route(self, document: str, strings: tuple[str, ...]) -> _WorkerSlot:
        """The slot a query actually goes to: HRW order, breakers respected.

        Walks the preference list and takes the best-scoring slot whose
        circuit breaker admits traffic — so a shard whose worker keeps
        failing is routed around (its keys fail over to their second-choice
        slot, which loads the masters from the shared catalog) while
        the breaker's half-open probes test for recovery.  If *every*
        breaker is open the primary slot is used anyway: under a fleet-wide
        hiccup a forced probe beats certain failure.
        """
        ranked = self._ranked_slots(document, strings)
        for slot in ranked:
            if slot.breaker.allow():
                return slot
        return ranked[0]

    def shard_of(self, document: str, query_text: str) -> int:
        """The slot id a query for ``document`` routes to (introspection)."""
        _, _, strings = self._compiled.entry(query_text)
        return self._slot_for(document, strings).id

    def _submit(self, slot: _WorkerSlot, message_tail: tuple) -> tuple[int, Future]:
        """Register a future and enqueue ``(kind, id, *tail)`` atomically.

        Registration and enqueue happen under the slot lock so a crash
        handler swapping the incarnation can never strand a future in a
        replaced in-flight map with its request in a dead queue.
        """
        request_id = next(self._ids)
        future: Future = Future()
        kind = message_tail[0]
        counted = kind in _WORK_KINDS
        if self._closing.is_set():
            # close() tears queues down; a late /stats or /query handler
            # thread must get a clean ClusterError, not a queue ValueError.
            raise ClusterError("the worker fleet is shutting down")
        with slot.lock:
            if slot.process is None or not slot.process.is_alive():
                # Died since the monitor's last pass: fail fast (503), the
                # monitor respawns the shard within one health interval.
                # Count both sides so failed never exceeds dispatched.
                if counted:
                    with self._stats_lock:
                        slot.dispatched += 1
                        slot.failed += 1
                raise WorkerUnavailableError(
                    f"worker {slot.id} is down; the shard is respawning — retry"
                )
            slot.inflight[request_id] = (future, kind)
            try:
                slot.request_queue.put((kind, request_id, *message_tail[1:]))
            except Exception as error:  # noqa: BLE001 - queue closed/broken
                slot.inflight.pop(request_id, None)
                raise WorkerUnavailableError(
                    f"worker {slot.id}'s queue is unavailable: {error}"
                ) from error
            if counted:
                # Inside the slot lock: a response cannot be pumped for this
                # request yet, so completed can never overtake dispatched.
                with self._stats_lock:
                    slot.dispatched += 1
        return request_id, future

    def _await(self, slot: _WorkerSlot, request_id: int, future: Future, timeout: float):
        """``future.result`` that un-registers the request on timeout.

        Every timed-out wait — query or control probe — must drop its
        in-flight entry, or a wedged-but-alive worker leaks one entry per
        probe and ``queue_depth`` (the metric that diagnoses exactly that
        condition) reads permanently inflated.
        """
        try:
            return future.result(timeout=timeout)
        except FuturesTimeoutError:
            with slot.lock:
                slot.inflight.pop(request_id, None)
            raise

    # -- the QueryService surface ----------------------------------------

    def query(
        self,
        document: str,
        query_text: str,
        paths: int = 0,
        limit: int = DEFAULT_LIMIT,
        deadline: Deadline | None = None,
        client: str | None = None,
        trace: str | None = None,
    ) -> dict:
        """Route one query to its shard's worker and await the answer.

        Unknown documents and malformed queries fail here, in the
        front-end, exactly as they do in process (404/400 before any IPC);
        a worker crash surfaces as :class:`WorkerUnavailableError` (503).
        ``deadline`` crosses the wire as its absolute monotonic timestamp
        (``CLOCK_MONOTONIC`` is machine-wide, so it means the same instant
        in the worker) — time spent queued in the worker's request pipe
        keeps counting against the budget.  Shard failures feed the slot's
        circuit breaker; admission sheds before any routing work.  The
        pinned version's entry crosses the wire and the worker serves
        exactly it; a worker's integrity or quarantine verdict is mirrored
        here, so the next snapshot probes the manifest for a repair.
        """
        if self._closing.is_set():
            raise ClusterError("the worker fleet is shutting down")
        if deadline is not None:
            deadline.check("request")
        self.admission.admit(client)
        try:
            with self.catalog.snapshot(document) as snapshot:  # CatalogError when unknown
                # Full parse+compile (cached), not just the string schema:
                # malformed and uncompilable queries must 400 here, before
                # any IPC, exactly as they do on the --workers 0 path — a bad
                # query never reaches a worker's batch.
                _, _, strings = self._compiled.entry(query_text)
                slot = self._route(document, strings)
                timeout = self.request_timeout
                if deadline is not None:
                    timeout = min(timeout, max(deadline.remaining(), 0.0))
                try:
                    # Inside the breaker-accounting block: an injected dispatch
                    # failure must feed the slot's breaker like a real one.
                    FAULTS.fire("cluster.dispatch", worker=slot.id, document=document)
                    deadline_at = None if deadline is None else deadline.at
                    request_id, future = self._submit(slot, (
                        "query", document, query_text, paths, limit, deadline_at, trace,
                        snapshot.entry.to_wire(),
                    ))
                    payload = self._await(slot, request_id, future, timeout)
                except WorkerUnavailableError:
                    slot.breaker.record_failure()
                    raise
                except (IntegrityError, QuarantinedError):
                    snapshot.condemn()
                    raise
                except FuturesTimeoutError:
                    if deadline is not None and deadline.expired:
                        raise DeadlineExceededError(
                            f"deadline expired before worker {slot.id} answered "
                            f"{query_text!r}"
                        ) from None
                    raise
                slot.breaker.record_success()
                payload["worker"] = slot.id
                return payload
        finally:
            self.admission.release()

    # -- the backend hooks -----------------------------------------------

    def instance_info(self, snapshot: Snapshot, strings: tuple[str, ...]) -> dict:
        """Plan provenance under a fleet: shard affinity plus residency.

        The shard id is exact (rendezvous routing is deterministic);
        residency is probed live from that shard's worker with a short
        deadline and reported as ``"unknown"`` when the worker cannot
        answer in time — explain must never block behind a busy shard.
        """
        document = snapshot.entry.name
        strings = tuple(strings)
        slot = self._slot_for(document, strings)
        info: dict = {
            "source": "worker",
            "workers": self.workers,
            "shard": slot.id,
            "strings": list(strings),
            "resident": "unknown",
            # Workers are forks of this process, so the dispatcher's kernel
            # tier is the fleet's (per-worker detail sits in /stats rows).
            "kernel": kernel_info(),
        }
        try:
            request_id, future = self._submit(slot, ("stats",))
            worker_stats = self._await(slot, request_id, future, 2.0)
        except Exception:  # noqa: BLE001 - residency is best-effort provenance
            return info
        resident = worker_stats.get("resident") or []
        info["resident"] = [document, list(strings)] in resident
        return info

    def _analysis_instance(self, snapshot: Snapshot, strings: tuple[str, ...]):
        """A *private* instance of the snapshot's version, assembled in the
        dispatcher process.

        The shard's pooled master stays untouched — measuring inside a
        worker would mean shipping per-node traces over the wire — and
        the load is discarded after measuring: a diagnostic endpoint pays
        a cold load, serving traffic pays nothing.
        """
        return snapshot.load(strings)[0]

    def evict(self, document: str) -> int:
        """Drop ``document`` residency in every worker; return entries dropped.

        The invalidation half of :meth:`mutate`, and each worker re-reads
        the manifest with it.  Workers that miss the broadcast (busy,
        mid-respawn) still serve the right version: every dispatched query
        carries the entry the dispatcher pinned — the broadcast only frees
        memory early, the pinned entry is the guarantee.

        ``request_timeout`` bounds the whole broadcast (one shared deadline
        across the fleet, same as :meth:`wait_ready`): a wedged worker must
        not stall the caller — an HTTP handler thread — for a fresh full
        timeout per slot.
        """
        submitted = []
        for slot in self._slots:
            try:
                request_id, future = self._submit(slot, ("evict", document))
            except ClusterError:
                continue  # dead worker / shutting down: no residency to drop
            submitted.append((slot, request_id, future))
        evicted = 0
        deadline = time.monotonic() + self.request_timeout
        for slot, request_id, future in submitted:
            try:
                evicted += self._await(
                    slot, request_id, future, max(0.0, deadline - time.monotonic())
                )["evicted"]
            except Exception:  # noqa: BLE001 - crashed mid-evict: nothing resident
                continue
        return evicted

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Ping every worker; True once the whole fleet answers.

        ``timeout`` bounds the whole call (one shared deadline), not each
        worker individually.
        """
        deadline = time.monotonic() + timeout
        try:
            submitted = [
                (slot, *self._submit(slot, ("ping",))) for slot in self._slots
            ]
            for slot, request_id, future in submitted:
                self._await(
                    slot, request_id, future, max(0.0, deadline - time.monotonic())
                )
        except Exception:  # noqa: BLE001 - dead/slow worker: not ready
            return False
        return True

    def stats_dict(self) -> dict:
        """Dispatcher + per-worker counters (the ``/stats`` payload).

        Per-worker service/pool/residency numbers are fetched live with one
        short deadline shared across the whole fleet (the probes were all
        submitted before the first wait, so slow workers overlap); a worker
        that cannot answer in time (busy, just respawned, mid-crash)
        reports its dispatcher-side counters only.
        """
        with self._stats_lock:
            respawns = self._respawns
            mutations = self._mutations.as_dict()
            snapshot = [
                {
                    "worker": slot.id,
                    "alive": bool(slot.process and slot.process.is_alive()),
                    "pid": slot.process.pid if slot.process else None,
                    "generation": slot.generation,
                    "dispatched": slot.dispatched,
                    "completed": slot.completed,
                    "failed": slot.failed,
                    "queue_depth": len(slot.inflight),
                    "strikes": slot.strikes,
                    "breaker": slot.breaker.stats(),
                }
                for slot in self._slots
            ]
            carries = [slot.carried for slot in self._slots]
        probes = []
        for row, slot in zip(snapshot, self._slots):
            if not row["alive"]:
                continue
            try:
                probes.append((row, slot, *self._submit(slot, ("stats",))))
            except ClusterError:
                row["stats"] = "unavailable"
        probe_deadline = time.monotonic() + 2.0
        for row, slot, request_id, future in probes:
            try:
                worker_stats = self._await(
                    slot, request_id, future, max(0.0, probe_deadline - time.monotonic())
                )
            except Exception:  # noqa: BLE001 - stats are best-effort
                row["stats"] = "unavailable"
                continue
            # Remember this incarnation's freshest counters (folded into the
            # slot's carry if it crashes), then report carry + live so
            # per-worker counters are monotone across respawns.
            with slot.lock:
                if slot.generation == row["generation"]:
                    slot.last_probe = {
                        "service": worker_stats.get("service"),
                        "pool": worker_stats.get("pool"),
                    }
                    slot.last_probe_generation = row["generation"]
            carried = carries[slot.id] or {}  # slot ids are 0..N-1 by construction
            row["service"] = _fold_stats(carried.get("service"), worker_stats.get("service"))
            row["pool"] = _fold_stats(carried.get("pool"), worker_stats.get("pool"))
            row["resident"] = worker_stats.get("resident")
            row["quarantined"] = worker_stats.get("quarantined") or []
            row["shards"] = sorted(
                {document for document, _ in worker_stats.get("resident") or []}
            )
        # A shard that could not be probed (dead, mid-respawn, too busy)
        # still reports the counters its dead incarnations accrued — the
        # monotone floor — instead of disappearing from /stats.
        for row, carried in zip(snapshot, carries):
            if carried and "service" not in row:
                row["service"] = carried.get("service")
                row["pool"] = carried.get("pool")
        return {
            "cluster": {
                "workers": self.workers,
                "alive": sum(1 for row in snapshot if row["alive"]),
                "dispatched": sum(row["dispatched"] for row in snapshot),
                "completed": sum(row["completed"] for row in snapshot),
                "failed": sum(row["failed"] for row in snapshot),
                "queue_depth": sum(row["queue_depth"] for row in snapshot),
                "respawns": respawns,
                "breakers_open": sum(
                    1 for row in snapshot if row["breaker"]["state"] == "open"
                ),
            },
            "workers": snapshot,
            "admission": self.admission.stats(),
            "kernel": kernel_info(),
            "mutations": mutations,
            "doc_versions": {
                entry.name: entry.doc_version for entry in self.catalog.entries()
            },
        }

    def health_dict(self) -> dict:
        """Fleet health beyond alive/dead: ``ok`` or ``degraded`` + reasons.

        Degraded when shards are down or routed around (open breakers),
        documents are quarantined, or admission is shedding above the
        configured rate — the fleet still answers what it can, but a probe
        watching ``/healthz`` should know capacity or fidelity is reduced.
        """
        reasons: list[str] = []
        alive = sum(
            1 for slot in self._slots if slot.process and slot.process.is_alive()
        )
        if alive < self.workers:
            reasons.append(f"{self.workers - alive} worker(s) down")
        open_breakers = [
            slot.id for slot in self._slots if slot.breaker.state == CircuitBreaker.OPEN
        ]
        if open_breakers:
            reasons.append(f"circuit breaker open on shard(s) {open_breakers}")
        # Quarantine verdicts live where loads happen: in fleet mode that is
        # each worker's own catalog, so the front-end's view alone would
        # report "ok" while a shard refuses a corrupt document.  Union the
        # workers' quarantine sets (best-effort stats probes — a worker too
        # busy to answer just contributes nothing this round).  The
        # dispatcher's own verdicts (entries of an older on-disk layout,
        # refused on sight) get the probe the workers' stats handler runs:
        # a repair in another process lifts them via a fresh manifest stamp.
        if self.catalog.quarantined():
            self.catalog.refresh()
        quarantine_union = set(self.catalog.quarantined())
        for row in self.stats_dict()["workers"]:
            quarantine_union.update(row.get("quarantined") or [])
        quarantined = sorted(quarantine_union)
        if quarantined:
            reasons.append(f"{len(quarantined)} quarantined document(s)")
        shed_rate = self.admission.shed_rate()
        if shed_rate > self.degraded_shed_rate:
            reasons.append(f"shedding {shed_rate:.1f} requests/s")
        return {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "workers": self.workers,
            "alive": alive,
            "open_breakers": open_breakers,
            "quarantined": quarantined,
            "shed_rate": round(shed_rate, 3),
        }

    # -- shutdown --------------------------------------------------------

    def close(self, timeout: float | None = None) -> None:
        """Graceful drain: sentinel, join with deadline, then escalate.

        ``timeout`` (default ``drain_timeout``) bounds the *whole* drain —
        one shared deadline across the fleet, like :meth:`evict` and
        :meth:`wait_ready` — so a wedged 8-worker fleet shuts down in one
        drain window, not eight.  Every slot's pump, in-flight futures, and
        queues are torn down even when its worker is already dead or
        sitting in crash-loop backoff (``process is None``).
        """
        if self._closing.is_set():
            return
        drain = timeout if timeout is not None else self.drain_timeout
        self._closing.set()
        self._monitor.join(timeout=max(1.0, self.health_interval * 4))
        for slot in self._slots:
            try:
                slot.request_queue.put(SHUTDOWN)
            except Exception:  # noqa: BLE001 - queue already broken: escalate below
                pass
        deadline = time.monotonic() + drain
        for slot in self._slots:
            process = slot.process
            if process is not None:
                process.join(timeout=max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - terminate() sufficed
                    process.kill()
                    process.join(timeout=2.0)
            slot.stop_pump.set()
            with slot.lock:
                doomed = list(slot.inflight.values())
                slot.inflight = {}
            for future, _ in doomed:
                if not future.done():
                    future.set_exception(ClusterError("the worker fleet shut down"))
            for queue in (slot.request_queue, slot.response_queue):
                try:
                    queue.cancel_join_thread()
                    queue.close()
                except Exception:  # noqa: BLE001 - best-effort teardown
                    pass
        for slot in self._slots:
            if slot.pump is not None:
                slot.pump.join(timeout=2.0)
