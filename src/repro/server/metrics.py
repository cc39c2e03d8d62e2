"""Prometheus-style metrics for the serving tier (stdlib only).

Three layers, smallest first:

* **Instruments** — :class:`Counter`, :class:`Gauge`, :class:`Histogram`
  hold labeled time series behind one short-lived lock per family.  The
  hot path (``inc``/``observe``) is a dict lookup plus an add under that
  lock; no string formatting happens until scrape time.
* **Registry** — :class:`MetricsRegistry` names the families, renders
  the text exposition format (``# HELP``/``# TYPE`` + samples, version
  0.0.4), and accepts *collector* callbacks that contribute families
  computed at scrape time (how ``/stats`` counters become metrics
  without double bookkeeping — the numbers reconcile by construction
  because they are read from the same source).
* **Facade** — :class:`ServerMetrics` owns the instruments the HTTP
  front-ends update per request (request counts and latency histograms
  by route/status, open connections) and the collector that maps
  ``service.stats_dict()`` — admission outcomes, coalescer batch sizes,
  pool hit/miss, worker queue depths, shard residency, breaker and
  deadline events — into ``repro_*`` families.

Naming scheme: every family is prefixed ``repro_``; counters end in
``_total``; histograms follow the Prometheus convention of cumulative
``_bucket{le="..."}`` series plus ``_sum`` and ``_count``; gauges are
bare.  :func:`parse_prometheus_text` is the strict parser used by the
overload benchmark and the tests to prove the exposition is valid and
the numbers reconcile with ``/stats``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

#: Content type of the text exposition format served at ``GET /metrics``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Request latency bucket upper bounds (seconds).  Fixed at import time:
#: scrapes from restarts stay comparable, and the histogram hot path is a
#: ``bisect`` into a tuple.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def format_value(value: float) -> str:
    """A sample value in exposition form (integers without the ``.0``)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_labels(labels: dict[str, str]) -> str:
    """``{k="v",...}`` (or the empty string) with label values escaped."""
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape_label(str(value))}"' for name, value in labels.items())
    return "{" + inner + "}"


class _Family:
    """Shared labeled-series storage: one lock, one dict keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], float] = {}

    def _key(self, labels: dict[str, str]) -> tuple[str, ...]:
        if tuple(labels) != self.labelnames:
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def samples(self) -> list[tuple[str, dict[str, str], float]]:
        """``(sample_name, labels, value)`` rows for the renderer."""
        with self._lock:
            items = sorted(self._series.items())
        return [
            (self.name, dict(zip(self.labelnames, key)), value)
            for key, value in items
        ]


class Counter(_Family):
    """A monotonically increasing labeled counter."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0.0)


class Gauge(_Family):
    """A labeled gauge: set to the current level, or inc/dec around a region."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0.0)


class _HistogramSeries:
    __slots__ = ("counts", "total", "sum")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative) counts
        self.total = 0
        self.sum = 0.0


class Histogram(_Family):
    """A fixed-bucket latency histogram (cumulative ``le`` series at render)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"{name}: bucket bounds must be strictly increasing")
        self.buckets = tuple(float(bound) for bound in buckets)
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets) + 1)
            series.counts[index] += 1
            series.total += 1
            series.sum += value

    def snapshot(self, **labels: str) -> dict:
        """Cumulative bucket counts + sum/count for one label combination."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            counts = list(series.counts) if series else [0] * (len(self.buckets) + 1)
            total = series.total if series else 0
            total_sum = series.sum if series else 0.0
        cumulative, running = [], 0
        for count in counts:
            running += count
            cumulative.append(running)
        return {"le": list(self.buckets), "cumulative": cumulative,
                "sum": total_sum, "count": total}

    def samples(self) -> list[tuple[str, dict[str, str], float]]:
        with self._lock:
            items = sorted(
                (key, list(series.counts), series.total, series.sum)
                for key, series in self._series.items()
            )
        rows: list[tuple[str, dict[str, str], float]] = []
        for key, counts, total, total_sum in items:
            labels = dict(zip(self.labelnames, key))
            running = 0
            for bound, count in zip(self.buckets, counts):
                running += count
                rows.append(
                    (f"{self.name}_bucket", {**labels, "le": format_value(bound)}, running)
                )
            rows.append((f"{self.name}_bucket", {**labels, "le": "+Inf"}, total))
            rows.append((f"{self.name}_sum", labels, total_sum))
            rows.append((f"{self.name}_count", labels, total))
        return rows


class RawFamily:
    """A scrape-time family contributed by a collector (already-final samples).

    ``samples`` rows are ``(sample_name, labels, value)``; histogram
    collectors emit their own ``_bucket``/``_sum``/``_count`` rows.
    """

    def __init__(self, name: str, kind: str, help: str,
                 samples: list[tuple[str, dict[str, str], float]]):
        self.name = name
        self.kind = kind
        self.help = help
        self._samples = samples

    def samples(self) -> list[tuple[str, dict[str, str], float]]:
        return self._samples


class MetricsRegistry:
    """Named instrument families plus scrape-time collectors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list = []

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if type(existing) is not type(family):
                    raise ValueError(f"{family.name}: already registered as {existing.kind}")
                return existing
            self._families[family.name] = family
        return family

    def counter(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter(name, help, labelnames))

    def gauge(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, labelnames, buckets))

    def add_collector(self, collector) -> None:
        """``collector()`` returns an iterable of :class:`RawFamily` at scrape."""
        with self._lock:
            self._collectors.append(collector)

    def render(self) -> str:
        """The full text exposition (``# HELP``/``# TYPE`` + samples)."""
        with self._lock:
            families = list(self._families.values())
            collectors = list(self._collectors)
        for collector in collectors:
            families.extend(collector())
        lines: list[str] = []
        seen: set[str] = set()
        for family in families:
            if family.name in seen:  # collectors must not shadow instruments
                continue
            seen.add(family.name)
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for sample_name, labels, value in family.samples():
                lines.append(f"{sample_name}{format_labels(labels)} {format_value(value)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Strict exposition parser (benchmarks + tests validate scrapes with this).
# ---------------------------------------------------------------------------


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    index = 0
    while index < len(text):
        equals = text.index("=", index)
        name = text[index:equals].strip()
        if not name.replace("_", "a").isalnum():
            raise ValueError(f"bad label name {name!r}")
        if text[equals + 1] != '"':
            raise ValueError(f"label value for {name!r} is not quoted")
        value_chars: list[str] = []
        cursor = equals + 2
        while True:
            char = text[cursor]
            if char == "\\":
                escape = text[cursor + 1]
                value_chars.append({"n": "\n", "\\": "\\", '"': '"'}[escape])
                cursor += 2
            elif char == '"':
                cursor += 1
                break
            else:
                value_chars.append(char)
                cursor += 1
        labels[name] = "".join(value_chars)
        if cursor < len(text):
            if text[cursor] != ",":
                raise ValueError(f"expected ',' between labels at {text[cursor:]!r}")
            cursor += 1
        index = cursor
    return labels


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Parse (strictly) a text exposition into per-family structures.

    Returns ``{family_name: {"type": kind, "help": str, "samples":
    [(sample_name, labels_dict, value), ...]}}``.  Raises ``ValueError``
    on anything malformed: unknown sample prefixes, samples before their
    ``# TYPE``, bad label syntax, non-numeric values — the overload bench
    uses this as the "parses as valid Prometheus text format" gate.
    """
    families: dict[str, dict] = {}

    def owner(sample_name: str) -> str:
        if sample_name in families:
            return sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if base and base in families and families[base]["type"] == "histogram":
                return base
        raise ValueError(f"sample {sample_name!r} has no preceding # TYPE family")

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"type": None, "help": None, "samples": []})
            families[name]["help"] = help_text
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")
            families.setdefault(name, {"type": None, "help": None, "samples": []})
            if families[name]["type"] is not None:
                raise ValueError(f"duplicate # TYPE for {name!r}")
            families[name]["type"] = kind
        elif line.startswith("#"):
            continue  # comment
        else:
            brace = line.find("{")
            if brace >= 0:
                close = line.rindex("}")
                sample_name = line[:brace]
                labels = _parse_labels(line[brace + 1 : close])
                value_text = line[close + 1 :].strip()
            else:
                sample_name, _, value_text = line.partition(" ")
                labels = {}
                value_text = value_text.strip()
            cleaned = sample_name.replace("_", "a").replace(":", "a")
            if not sample_name or not cleaned.isalnum():
                raise ValueError(f"bad sample name in line {raw_line!r}")
            value_text = value_text.split()[0]  # tolerate a trailing timestamp
            if value_text == "+Inf":
                value = math.inf
            elif value_text == "-Inf":
                value = -math.inf
            else:
                value = float(value_text)  # raises ValueError when malformed
            families[owner(sample_name)]["samples"].append((sample_name, labels, value))

    for name, family in families.items():
        if family["type"] is None:
            raise ValueError(f"family {name!r} has samples but no # TYPE line")
        if family["type"] == "histogram":
            check_histogram_invariants(name, family["samples"])
    return families


def histogram_series(
    samples: list[tuple[str, dict[str, str], float]], base: str, **match: str
) -> tuple[list[tuple[float, float]], float, float]:
    """``(sorted (le, cumulative) rows, sum, count)`` for one label subset."""
    buckets: list[tuple[float, float]] = []
    total_sum = total_count = 0.0
    for sample_name, labels, value in samples:
        if any(labels.get(key) != str(expected) for key, expected in match.items()):
            continue
        if sample_name == f"{base}_bucket":
            le = labels["le"]
            bound = math.inf if le == "+Inf" else float(le)
            buckets.append((bound, value))
        elif sample_name == f"{base}_sum":
            total_sum += value
        elif sample_name == f"{base}_count":
            total_count += value
    buckets.sort(key=lambda pair: pair[0])
    return buckets, total_sum, total_count


def check_histogram_invariants(
    name: str, samples: list[tuple[str, dict[str, str], float]]
) -> None:
    """Raise ``ValueError`` unless each label set's buckets are cumulative
    monotone, end in ``+Inf``, and the ``+Inf`` bucket equals ``_count``."""
    by_key: dict[tuple, dict] = {}
    for sample_name, labels, value in samples:
        key_labels = {k: v for k, v in labels.items() if k != "le"}
        key = tuple(sorted(key_labels.items()))
        entry = by_key.setdefault(key, {"buckets": [], "sum": None, "count": None})
        if sample_name == f"{name}_bucket":
            le = labels.get("le")
            if le is None:
                raise ValueError(f"{name}: _bucket sample without le label")
            bound = math.inf if le == "+Inf" else float(le)
            entry["buckets"].append((bound, value))
        elif sample_name == f"{name}_sum":
            entry["sum"] = value
        elif sample_name == f"{name}_count":
            entry["count"] = value
        else:
            raise ValueError(f"{name}: unexpected histogram sample {sample_name!r}")
    for key, entry in by_key.items():
        buckets = sorted(entry["buckets"], key=lambda pair: pair[0])
        if not buckets or buckets[-1][0] != math.inf:
            raise ValueError(f"{name}{dict(key)}: histogram is missing the +Inf bucket")
        previous = 0.0
        for bound, value in buckets:
            if value < previous:
                raise ValueError(
                    f"{name}{dict(key)}: bucket le={bound} count {value} "
                    f"below previous cumulative {previous}"
                )
            previous = value
        if entry["count"] is None or entry["sum"] is None:
            raise ValueError(f"{name}{dict(key)}: histogram is missing _sum or _count")
        if buckets[-1][1] != entry["count"]:
            raise ValueError(
                f"{name}{dict(key)}: +Inf bucket {buckets[-1][1]} != _count {entry['count']}"
            )


def quantile_bounds(
    buckets: list[tuple[float, float]], quantile: float
) -> tuple[float, float]:
    """``(lower, upper)`` bucket edges containing the requested quantile.

    The true quantile of the observed distribution lies inside the bucket
    whose cumulative count first reaches ``ceil(q * count)``; the bench
    uses the bounds to cross-check server-side latency against its own
    client-side measurement.
    """
    if not buckets:
        return (0.0, math.inf)
    total = buckets[-1][1]
    if total <= 0:
        return (0.0, math.inf)
    rank = math.ceil(quantile * total)
    lower = 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            return (lower, bound)
        lower = bound
    return (lower, math.inf)


# ---------------------------------------------------------------------------
# The server facade: direct instruments + the /stats collector.
# ---------------------------------------------------------------------------

#: Bounded route label space — raw paths would make label cardinality
#: unbounded (every document name a new series).
_KNOWN_ROUTES = ("/query", "/explain", "/mutate", "/stats", "/healthz", "/catalog", "/metrics")


def route_label(path: str) -> str:
    base = path.split("?", 1)[0]
    if base in _KNOWN_ROUTES:
        return base
    if base.startswith("/catalog/"):
        return "/catalog/{name}"
    return "other"


def _counter_samples(name, stats, *keys, labels=None):
    value = stats
    for key in keys:
        if not isinstance(value, dict) or key not in value:
            return []
        value = value[key]
    if not isinstance(value, (int, float)):
        return []
    return [(name, labels or {}, float(value))]


class ServerMetrics:
    """Instruments + collectors for one server.

    ``service_provider`` is a zero-arg callable returning the live
    service (QueryService or WorkerFleet) — deferred because the HTTP
    server object is constructed before its service is attached.
    """

    def __init__(self, service_provider, frontend: str = "async"):
        self.registry = MetricsRegistry()
        self._service_provider = service_provider
        self.frontend = frontend
        registry = self.registry
        self.http_requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route, method and status code.",
            ("route", "method", "status"),
        )
        self.http_latency = registry.histogram(
            "repro_http_request_seconds",
            "Wall-clock request latency from parse to response write, by route and status.",
            ("route", "status"),
        )
        self.dispatches = registry.counter(
            "repro_http_dispatch_total",
            "POST /query requests by where they ran: lane (answered without "
            "waiting on the front-end's lane thread) or executor (handed "
            "to its thread pool).",
            ("path",),
        )
        self.connections = registry.gauge(
            "repro_http_connections_open",
            "Open client connections.",
        )
        self.info = registry.gauge(
            "repro_server_info",
            "Constant 1; the labels carry the front-end flavor.",
            ("frontend",),
        )
        self.info.set(1, frontend=frontend)
        registry.add_collector(self._collect_service)

    # -- hot path ---------------------------------------------------------

    def observe_request(self, route: str, method: str, status: int, seconds: float) -> None:
        status_text = str(status)
        self.http_requests.inc(route=route, method=method, status=status_text)
        self.http_latency.observe(seconds, route=route, status=status_text)

    # -- scrape path ------------------------------------------------------

    def render(self) -> str:
        return self.registry.render()

    def _collect_service(self):
        try:
            service = self._service_provider()
            stats = service.stats_dict() if service is not None else None
        except Exception:  # noqa: BLE001 - scrapes must not take the server down
            stats = None
        if not isinstance(stats, dict):
            return []
        families = []
        families.extend(_admission_families(stats.get("admission")))
        if "cluster" in stats:
            families.extend(_cluster_families(stats))
        else:
            families.extend(_inprocess_families(stats))
        return families


def _admission_families(admission) -> list[RawFamily]:
    if not isinstance(admission, dict):
        return []
    shed_queue = float(admission.get("shed_queue_full", 0))
    shed_rate_limited = float(admission.get("shed_rate_limited", 0))
    return [
        RawFamily(
            "repro_admission_admitted_total", "counter",
            "Requests admitted past the admission controller.",
            _counter_samples("repro_admission_admitted_total", admission, "admitted"),
        ),
        RawFamily(
            "repro_admission_shed_total", "counter",
            "Requests shed with 429, by reason.",
            [
                ("repro_admission_shed_total", {"reason": "queue_full"}, shed_queue),
                ("repro_admission_shed_total", {"reason": "rate_limited"}, shed_rate_limited),
            ],
        ),
        RawFamily(
            "repro_admission_inflight", "gauge",
            "Requests currently admitted and executing.",
            _counter_samples("repro_admission_inflight", admission, "inflight"),
        ),
        RawFamily(
            "repro_admission_shed_rate", "gauge",
            "Sliding-window fraction of recent requests shed (0..1).",
            _counter_samples("repro_admission_shed_rate", admission, "shed_rate"),
        ),
    ]


def _service_counter_families(service_stats: dict, pool_stats) -> list[RawFamily]:
    families = [
        RawFamily(
            "repro_requests_total", "counter",
            "Queries accepted by the service (reconciles with /stats requests).",
            _counter_samples("repro_requests_total", service_stats, "requests"),
        ),
        RawFamily(
            "repro_batches_total", "counter",
            "Coalesced batches executed.",
            _counter_samples("repro_batches_total", service_stats, "batches"),
        ),
        RawFamily(
            "repro_split_vertices_total", "counter",
            "Vertices added to working instances by partial decompression.",
            _counter_samples("repro_split_vertices_total", service_stats, "split_vertices"),
        ),
        RawFamily(
            "repro_errors_total", "counter",
            "Queries that raised instead of returning a result.",
            _counter_samples("repro_errors_total", service_stats, "errors"),
        ),
        RawFamily(
            "repro_deadline_expired_total", "counter",
            "Queries that crossed their end-to-end deadline.",
            _counter_samples(
                "repro_deadline_expired_total", service_stats, "deadline_expired"
            ),
        ),
    ]
    if isinstance(pool_stats, dict):
        for key, kind, help_text in (
            ("hits", "counter", "Instance-pool hits."),
            ("misses", "counter", "Instance-pool misses (cold loads)."),
            ("evictions", "counter", "Instance-pool LRU evictions."),
            ("resident", "gauge", "Documents currently resident in the pool."),
            ("capacity", "gauge", "Instance-pool capacity."),
        ):
            name = f"repro_pool_{key}" + ("_total" if kind == "counter" else "")
            families.append(
                RawFamily(name, kind, help_text, _counter_samples(name, pool_stats, key))
            )
    return families


def _mutation_families(mutations, doc_versions) -> list[RawFamily]:
    """Write-path families shared by both front-ends.

    ``mutations`` is the ``{"applied", "failed", "ops"}`` dict either
    service exposes; ``doc_versions`` maps document name to the
    monotone version stamped at its last publish, so dashboards can
    watch the fleet converge after a mutation.
    """
    families: list[RawFamily] = []
    if isinstance(mutations, dict):
        families.append(
            RawFamily(
                "repro_mutations_total", "counter",
                "Mutation batches, by outcome (applied committed and published; "
                "failed rejected or rolled back).",
                [
                    ("repro_mutations_total", {"outcome": "applied"},
                     float(mutations.get("applied", 0))),
                    ("repro_mutations_total", {"outcome": "failed"},
                     float(mutations.get("failed", 0))),
                ],
            )
        )
        ops = mutations.get("ops")
        if isinstance(ops, dict) and ops:
            families.append(
                RawFamily(
                    "repro_mutation_ops_total", "counter",
                    "Individual mutation operations applied, by op.",
                    [
                        ("repro_mutation_ops_total", {"op": str(op)}, float(count))
                        for op, count in sorted(ops.items())
                    ],
                )
            )
    if isinstance(doc_versions, dict) and doc_versions:
        families.append(
            RawFamily(
                "repro_catalog_doc_version", "gauge",
                "Monotone version of each registered document's published state.",
                [
                    ("repro_catalog_doc_version", {"document": str(name)}, float(version))
                    for name, version in sorted(doc_versions.items())
                ],
            )
        )
    return families


def _inprocess_families(stats: dict) -> list[RawFamily]:
    service_stats = stats.get("service", {})
    families = _service_counter_families(service_stats, stats.get("pool"))
    if isinstance(service_stats, dict):
        families.extend(
            _mutation_families(service_stats.get("mutations"), stats.get("doc_versions"))
        )
    quarantined = stats.get("quarantined")
    if isinstance(quarantined, list):
        families.append(
            RawFamily(
                "repro_quarantined_documents", "gauge",
                "Documents quarantined by integrity checks.",
                [("repro_quarantined_documents", {}, float(len(quarantined)))],
            )
        )
    return families


def _cluster_families(stats: dict) -> list[RawFamily]:
    cluster = stats.get("cluster", {})
    families = [
        RawFamily(
            "repro_requests_total", "counter",
            "Queries dispatched by the fleet (reconciles with /stats dispatched).",
            _counter_samples("repro_requests_total", cluster, "dispatched"),
        ),
        RawFamily(
            "repro_cluster_completed_total", "counter",
            "Dispatches that returned a response.",
            _counter_samples("repro_cluster_completed_total", cluster, "completed"),
        ),
        RawFamily(
            "repro_cluster_failed_total", "counter",
            "Dispatches that failed (worker crash or error reply).",
            _counter_samples("repro_cluster_failed_total", cluster, "failed"),
        ),
        RawFamily(
            "repro_cluster_respawns_total", "counter",
            "Worker respawns after crashes.",
            _counter_samples("repro_cluster_respawns_total", cluster, "respawns"),
        ),
        RawFamily(
            "repro_cluster_workers", "gauge",
            "Configured fleet size.",
            _counter_samples("repro_cluster_workers", cluster, "workers"),
        ),
        RawFamily(
            "repro_cluster_alive", "gauge",
            "Workers currently alive.",
            _counter_samples("repro_cluster_alive", cluster, "alive"),
        ),
    ]
    families.extend(
        _mutation_families(stats.get("mutations"), stats.get("doc_versions"))
    )
    worker_rows = stats.get("workers")
    if isinstance(worker_rows, list):
        depth, dispatched, completed, failed, alive, shards, breaker_open = (
            [], [], [], [], [], [], []
        )
        requests = []
        for row in worker_rows:
            worker = {"worker": str(row.get("worker", "?"))}
            depth.append(
                ("repro_worker_queue_depth", worker, float(row.get("queue_depth", 0)))
            )
            dispatched.append(
                ("repro_worker_dispatched_total", worker, float(row.get("dispatched", 0)))
            )
            completed.append(
                ("repro_worker_completed_total", worker, float(row.get("completed", 0)))
            )
            failed.append(("repro_worker_failed_total", worker, float(row.get("failed", 0))))
            alive.append(("repro_worker_alive", worker, 1.0 if row.get("alive") else 0.0))
            if isinstance(row.get("shards"), list):
                shards.append(
                    ("repro_worker_shards_resident", worker, float(len(row["shards"])))
                )
            breaker = row.get("breaker")
            if isinstance(breaker, dict):
                breaker_open.append(
                    ("repro_worker_breaker_open", worker,
                     0.0 if breaker.get("state") == "closed" else 1.0)
                )
            inner = row.get("service")
            if isinstance(inner, dict) and isinstance(inner.get("requests"), (int, float)):
                requests.append(
                    ("repro_worker_requests_total", worker, float(inner["requests"]))
                )
        families.extend([
            RawFamily("repro_worker_queue_depth", "gauge",
                      "Requests enqueued to each worker.", depth),
            RawFamily("repro_worker_dispatched_total", "counter",
                      "Requests dispatched to each worker (monotone across respawns).",
                      dispatched),
            RawFamily("repro_worker_completed_total", "counter",
                      "Requests completed by each worker (monotone across respawns).",
                      completed),
            RawFamily("repro_worker_failed_total", "counter",
                      "Requests failed per worker (monotone across respawns).", failed),
            RawFamily("repro_worker_alive", "gauge", "1 when the worker is alive.", alive),
        ])
        if shards:
            families.append(
                RawFamily("repro_worker_shards_resident", "gauge",
                          "Documents resident in each worker's pool.", shards)
            )
        if breaker_open:
            families.append(
                RawFamily("repro_worker_breaker_open", "gauge",
                          "1 when the worker's circuit breaker is open or half-open.",
                          breaker_open)
            )
        if requests:
            families.append(
                RawFamily("repro_worker_requests_total", "counter",
                          "Queries served per worker (carried across respawns).", requests)
            )
    return families
