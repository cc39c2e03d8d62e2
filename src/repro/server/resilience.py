"""The resilience layer: deadlines, admission control, breakers, fault seams.

PRs 3-5 made the serving stack fast; this module makes it fail *usefully*.
Four primitives, shared by the in-process service, the worker fleet, and
the HTTP front-end:

* :class:`Deadline` — an end-to-end time budget carried from the HTTP
  header (``X-Repro-Deadline-Ms``) or CLI flag through coalescing into
  batch evaluation and across the worker wire.  Wherever the budget runs
  out, the caller gets a structured ``deadline_exceeded`` envelope instead
  of a request silently occupying a batch slot nobody is waiting on.
* :class:`AdmissionController` — bounded admission with load-shedding.
  A depth cap on concurrently admitted requests and per-client token
  buckets; both shed with :class:`~repro.errors.OverloadedError` (HTTP 429
  + ``Retry-After``) *at the door*, so the latency of accepted requests
  stays bounded instead of every request queueing into collapse.
* :class:`CircuitBreaker` — per worker shard: N consecutive
  :class:`~repro.errors.WorkerUnavailableError`\\ s open the breaker, the
  dispatcher routes the shard's keys to the next-best slot (the fleet
  degrades instead of 503ing everything), and after a cooldown one
  half-open probe decides whether the shard is back.
* :class:`FaultInjector` — the test seam the chaos suite drives.
  Injection points registered through the serving path (catalog, pool,
  service, worker wire, and the mutation write path's ``catalog.journal``
  seam, which fires at both the WAL append and the publish commit point)
  are no-ops in production (one attribute read) and inject latency /
  errors / corruption callbacks when armed; specs are plain primitives so
  a spawned worker can arm its own injector from the fleet config.

Everything here is thread-safe and stdlib-only.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque

from repro.errors import DeadlineExceededError, OverloadedError


class Deadline:
    """An absolute end-to-end time budget on the monotonic clock.

    Carried by value (the absolute ``at`` timestamp) rather than as a
    remaining duration, so queue wait anywhere along the path — the
    coalescer's pending queue, a worker's request pipe — keeps counting
    against the budget.  ``CLOCK_MONOTONIC`` is machine-wide on every
    platform the fleet spawns on, so ``at`` crosses the worker wire as a
    plain float and means the same instant in the worker process.
    """

    __slots__ = ("at",)

    def __init__(self, at: float):
        self.at = at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(time.monotonic() + seconds)

    @classmethod
    def after_ms(cls, milliseconds: float) -> "Deadline":
        return cls(time.monotonic() + milliseconds / 1000.0)

    @classmethod
    def from_wire(cls, at: float | None) -> "Deadline | None":
        """Rebuild a deadline shipped across the worker wire (None = none)."""
        return None if at is None else cls(at)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.at

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        overrun = time.monotonic() - self.at
        if overrun >= 0:
            raise DeadlineExceededError(
                f"{what} exceeded its deadline by {1000 * overrun:.0f}ms"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "stamp", "_lock")

    def __init__(self, rate: float, burst: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = time.monotonic()
        self._lock = threading.Lock()

    def take(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available; return 0.0, else seconds until refill."""
        with self._lock:
            now = time.monotonic()
            self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
            self.stamp = now
            if self.tokens >= tokens:
                self.tokens -= tokens
                return 0.0
            return (tokens - self.tokens) / self.rate


class AdmissionController:
    """Bounded admission with per-client rate limits and shed accounting.

    ``max_queue`` caps concurrently *admitted* (in-flight) requests — 0
    disables the cap; ``rate_limit`` is per-client requests/second with a
    burst of ``rate_burst`` (default 2x the rate) — 0.0 disables it.  Both
    shed with :class:`OverloadedError`; sheds are timestamped so
    :meth:`shed_rate` can answer "is this service degraded *right now*"
    for the health endpoint.
    """

    #: Per-client buckets kept before the least-recently-limited is dropped.
    MAX_CLIENTS = 4096

    def __init__(
        self,
        max_queue: int = 0,
        rate_limit: float = 0.0,
        rate_burst: float | None = None,
        shed_window: float = 10.0,
    ):
        self.max_queue = max(0, int(max_queue))
        self.rate_limit = max(0.0, float(rate_limit))
        self.rate_burst = (
            float(rate_burst) if rate_burst else max(1.0, 2.0 * self.rate_limit)
        )
        self.shed_window = shed_window
        self._lock = threading.Lock()
        self._inflight = 0
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._sheds: deque[float] = deque(maxlen=10_000)
        self.admitted = 0
        self.shed_queue_full = 0
        self.shed_rate_limited = 0

    # -- the admit/release pair ------------------------------------------

    def admit(self, client: str | None = None) -> None:
        """Admit one request or shed it with :class:`OverloadedError`.

        Callers must pair every successful ``admit`` with exactly one
        :meth:`release` (``try/finally``).  The queue-depth check runs
        first: a full service sheds before spending tokens, so a retrying
        client is not additionally penalised by its rate limit.
        """
        with self._lock:
            if self.max_queue and self._inflight >= self.max_queue:
                self.shed_queue_full += 1
                self._sheds.append(time.monotonic())
                raise OverloadedError(
                    f"admission queue is full ({self._inflight}/{self.max_queue} "
                    f"in flight); retry",
                    retry_after=0.5,
                )
            bucket = None
            if self.rate_limit and client is not None:
                bucket = self._buckets.get(client)
                if bucket is None:
                    while len(self._buckets) >= self.MAX_CLIENTS:
                        self._buckets.popitem(last=False)
                    bucket = TokenBucket(self.rate_limit, self.rate_burst)
                    self._buckets[client] = bucket
                else:
                    self._buckets.move_to_end(client)
            self._inflight += 1
        if bucket is not None:
            wait = bucket.take()
            if wait > 0.0:
                with self._lock:
                    self._inflight -= 1
                    self.shed_rate_limited += 1
                    self._sheds.append(time.monotonic())
                raise OverloadedError(
                    f"client {client!r} is over its rate limit "
                    f"({self.rate_limit:g}/s); retry",
                    retry_after=wait,
                )
        with self._lock:
            self.admitted += 1

    def release(self) -> None:
        with self._lock:
            self._inflight -= 1

    # -- observability ---------------------------------------------------

    def shed_rate(self, window: float | None = None) -> float:
        """Sheds per second over the trailing ``window`` (default configured)."""
        window = window if window is not None else self.shed_window
        cutoff = time.monotonic() - window
        with self._lock:
            recent = sum(1 for stamp in self._sheds if stamp >= cutoff)
        return recent / window if window > 0 else 0.0

    def stats(self) -> dict:
        shed_rate = self.shed_rate()  # outside the lock: it takes it itself
        with self._lock:
            return {
                "max_queue": self.max_queue,
                "rate_limit": self.rate_limit,
                "inflight": self._inflight,
                "admitted": self.admitted,
                "shed_queue_full": self.shed_queue_full,
                "shed_rate_limited": self.shed_rate_limited,
                "shed_rate": round(shed_rate, 3),
                "clients_tracked": len(self._buckets),
            }


class CircuitBreaker:
    """A three-state breaker guarding one worker shard.

    ``closed`` (healthy) -> ``open`` after ``threshold`` *consecutive*
    failures -> ``half-open`` after ``cooldown`` seconds, admitting exactly
    one probe: its success closes the breaker, its failure re-opens it for
    another cooldown.  While open, :meth:`allow` is False and the
    dispatcher routes around the shard.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, threshold: int = 5, cooldown: float = 2.0):
        self.threshold = max(1, int(threshold))
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = 0.0
        self.opens = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        # Caller holds the lock.
        if (
            self._state == self.OPEN
            and time.monotonic() - self._opened_at >= self.cooldown
        ):
            self._state = self.HALF_OPEN

    def allow(self) -> bool:
        """May a request go to this shard right now?

        In half-open state the first caller wins the probe slot (the state
        flips back to open-until-outcome semantics by re-stamping the
        cooldown), so a thundering herd cannot pile onto a maybe-dead
        worker all at once.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN:
                # Hand out one probe; further callers wait a full cooldown
                # unless the probe's success closes the breaker first.
                self._state = self.OPEN
                self._opened_at = time.monotonic()
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state != self.OPEN and self._failures >= self.threshold:
                self._state = self.OPEN
                self._opened_at = time.monotonic()
                self.opens += 1

    def stats(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "opens": self.opens,
            }


class _Fault:
    """One armed fault at one injection point."""

    __slots__ = ("error", "latency", "times", "callback", "hits")

    def __init__(self, error, latency, times, callback):
        self.error = error
        self.latency = latency
        self.times = times
        self.callback = callback
        self.hits = 0


class FaultInjector:
    """Named injection points for the chaos suite (no-ops unless armed).

    The serving path calls :meth:`fire` at its seams — catalog manifest
    and image reads, pool loads, service evaluation, the worker wire.
    Unarmed, a fire is a single attribute read.  Armed, a point can sleep
    (``latency``), raise (``error``), and/or run a ``callback`` (for
    corruption: the callback gets the fire-site context, e.g. the manifest
    path, and damages it for real).  ``times`` bounds how often a fault
    triggers before disarming itself — "fail the next 3 loads" without a
    test having to race the disarm.

    Fault specs also travel as primitives (``error`` as an
    ``ERROR_KINDS`` name via :meth:`arm_from_spec`), so a spawned worker
    process arms its own injector from the fleet's config dict.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._faults: dict[str, _Fault] = {}
        self.enabled = False

    def arm(
        self,
        point: str,
        *,
        error: BaseException | None = None,
        latency: float = 0.0,
        times: int | None = None,
        callback=None,
    ) -> None:
        """Arm ``point``; replaces any fault already armed there."""
        with self._lock:
            self._faults[point] = _Fault(error, latency, times, callback)
            self.enabled = True

    def arm_from_spec(self, spec: dict) -> None:
        """Arm points from a primitives-only dict (the worker-config channel).

        ``{point: {"kind": ..., "message": ..., "latency": ..., "times": ...}}``
        — ``kind`` names an :data:`repro.api.envelope.ERROR_KINDS` family.
        """
        from repro.api.envelope import rebuild_error

        for point, fault in (spec or {}).items():
            error = None
            if fault.get("kind"):
                error = rebuild_error(fault["kind"], fault.get("message", "injected"))
            self.arm(
                point,
                error=error,
                latency=fault.get("latency", 0.0),
                times=fault.get("times"),
            )

    def disarm(self, point: str | None = None) -> None:
        """Disarm one point, or everything (``None`` — the test teardown)."""
        with self._lock:
            if point is None:
                self._faults.clear()
            else:
                self._faults.pop(point, None)
            self.enabled = bool(self._faults)

    def fire(self, point: str, **context) -> None:
        """Trigger ``point`` if armed.  The production path: one attr read."""
        if not self.enabled:
            return
        with self._lock:
            fault = self._faults.get(point)
            if fault is None:
                return
            fault.hits += 1
            if fault.times is not None and fault.hits >= fault.times:
                self._faults.pop(point, None)
                self.enabled = bool(self._faults)
        if fault.latency:
            time.sleep(fault.latency)
        if fault.callback is not None:
            fault.callback(**context)
        if fault.error is not None:
            raise fault.error


#: The process-wide injector every serving seam fires through.  Production
#: never arms it; the chaos suite arms/disarms around each scenario.
FAULTS = FaultInjector()
