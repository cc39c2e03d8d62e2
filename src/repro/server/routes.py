"""The transport-agnostic route core of the HTTP front-end.

:mod:`repro.server.asyncio_http` parses bytes off its sockets, builds a
:class:`Request`, and calls :meth:`Router.dispatch` on an executor
thread (after :meth:`Router.dispatch_now` on its lane thread, for a
``POST /query``); everything after that — routing, validation,
deadline/admission bookkeeping, the error-kind → status mapping, the
uniform envelope — lives here, so the transport only moves bytes and
both of its paths answer with the same bodies.

Tracing: every request carries a trace ID — taken from the client's
``X-Repro-Trace`` header when present, minted at accept otherwise —
which is echoed on every response as the ``X-Repro-Trace`` header,
stamped into ``/query`` result payloads, carried through the coalescer
and over the worker wire, and written to the access log.
"""

from __future__ import annotations

import json
import math
import os
import time
import urllib.parse
# Distinct from builtins.TimeoutError before 3.11, an alias after.
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro.api.envelope import error_envelope
from repro.errors import (
    CatalogError,
    DeadlineExceededError,
    IntegrityError,
    MutationError,
    OverloadedError,
    QuarantinedError,
    ReproError,
    WorkerUnavailableError,
    XPathCompileError,
    XPathSyntaxError,
)
from repro.server.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.server.metrics import route_label
from repro.server.resilience import Deadline

#: Registration and mutation payloads above this size are rejected (bytes).
MAX_BODY = 256 * 1024 * 1024
#: Every other request: a query text is bounded by the parser's term limit
#: long before this, so nothing legitimate comes close.
MAX_QUERY_BODY = 1024 * 1024


def body_limit(method: str, path: str) -> int:
    """The largest body (bytes) a front-end may buffer for ``method path``.

    Only the two routes that carry a document — ``POST /catalog/<name>``
    and ``POST /mutate`` — get :data:`MAX_BODY`.
    """
    if method == "POST" and (path == "/mutate" or path.startswith("/catalog/")):
        return MAX_BODY
    return MAX_QUERY_BODY


#: The front-end refuses any ``Transfer-Encoding`` (501, then close): bodies
#: are framed by ``Content-Length`` only, and a chunked body left unread
#: would be parsed as the next request.
TRANSFER_ENCODING_REFUSAL = "Transfer-Encoding is not supported; send Content-Length"


def content_length(value: str | None) -> int:
    """The body length a ``Content-Length`` header announces (0 when absent).

    RFC 9110 allows only ``1*DIGIT`` between optional blanks: ``int()``
    would also take ``+27``, ``2_7`` and ``-1``, and a front-end that
    believed any of them would read the wrong number of bytes off the
    stream.  Raises ``ValueError`` with the refusal message.
    """
    if value is None:
        return 0
    digits = value.strip(" \t")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("Content-Length must be a non-negative decimal integer")
    return int(digits)


def new_trace() -> str:
    """A fresh 64-bit trace ID (hex), minted at accept time."""
    return os.urandom(8).hex()


class Headers(dict):
    """Case-insensitive header access over lower-cased keys (the parser
    stores names lower-cased)."""

    def get(self, name, default=None):  # noqa: A003 - dict signature
        return super().get(name.lower(), default)


class Request:
    """One parsed HTTP request, independent of the transport that read it."""

    __slots__ = ("method", "path", "headers", "body", "client", "received_at", "trace")

    def __init__(
        self,
        method: str,
        path: str,
        headers=None,
        body: bytes | None = None,
        client: str = "",
        received_at: float | None = None,
        trace: str | None = None,
    ):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.client = client
        #: Monotonic accept timestamp — deadline budgets start here, so
        #: time spent queued behind the executor bridge counts against
        #: the request's budget exactly like coalescing wait does.
        self.received_at = time.monotonic() if received_at is None else received_at
        self.trace = trace or self.header("X-Repro-Trace") or new_trace()

    def header(self, name: str, default=None):
        if self.headers is None:
            return default
        return self.headers.get(name, default)


class Response:
    """Status + JSON payload (or raw body) + extra headers."""

    __slots__ = ("status", "body", "headers", "content_type")

    def __init__(
        self,
        status: int,
        payload: dict | None = None,
        headers: dict | None = None,
        body: bytes | None = None,
        content_type: str = "application/json",
    ):
        self.status = status
        self.body = json.dumps(payload).encode("utf-8") if body is None else body
        self.headers = dict(headers or {})
        self.content_type = content_type


class Router:
    """Every route of the serving surface, returning :class:`Response` objects.

    ``service_provider`` is a zero-arg callable returning the live
    service: the HTTP server objects are constructed before their
    service is attached (socket binds fail fast), so the router must
    re-read it per request rather than capture it at construction.
    """

    def __init__(self, service_provider, default_deadline_ms: float = 0.0, metrics=None):
        self._service_provider = service_provider
        self.default_deadline_ms = default_deadline_ms
        self.metrics = metrics

    @property
    def service(self):
        return self._service_provider()

    # -- entry points -----------------------------------------------------

    def dispatch(self, request: Request) -> Response:
        """Route one request; never raises — the client always gets JSON."""
        started = time.perf_counter()
        try:
            response = self._route(request)
        except Exception as error:  # noqa: BLE001 - last-ditch: no tracebacks on the wire
            response = self._plain_error(500, f"{type(error).__name__}: {error}", "internal")
        return self._finish(request, response, started)

    def answers_now(self, request: Request) -> bool:
        """Whether :meth:`dispatch_now` may answer ``request`` at all.

        Only a ``POST /query`` to a service with a ``query_now`` (the
        in-process one; the worker fleet has none).  Reads no body.
        """
        return (
            request.method == "POST"
            and request.path == "/query"
            and self.service.query_now is not None
        )

    def dispatch_now(self, request: Request) -> Response | None:
        """Answer a request :meth:`answers_now` accepts, or return ``None``.

        The asyncio front-end calls this on its lane thread before it
        hands a request to an executor thread.  The body is validated
        exactly as :meth:`dispatch` validates it, then the service's
        ``query_now`` answers only what it can answer without waiting (see
        :meth:`repro.server.service.QueryService.query_now`).  ``None``
        means "run :meth:`dispatch` on the executor", which re-reads the
        request from scratch.
        """
        started = time.perf_counter()
        try:
            response = self._post_query(request, self.service.query_now)
        except Exception as error:  # noqa: BLE001 - last-ditch: no tracebacks on the wire
            response = self._plain_error(500, f"{type(error).__name__}: {error}", "internal")
        if response is None:
            return None
        return self._finish(request, response, started)

    def reject(self, request: Request, status: int, message: str, kind: str) -> Response:
        """A transport-level refusal (oversized body, malformed framing)
        rendered as the same envelope + trace header + metrics as any
        routed response."""
        started = time.perf_counter()
        return self._finish(request, self._plain_error(status, message, kind), started)

    def _finish(self, request: Request, response: Response, started: float) -> Response:
        response.headers.setdefault("X-Repro-Trace", request.trace)
        if self.metrics is not None:
            self.metrics.observe_request(
                route_label(request.path), request.method, response.status,
                time.perf_counter() - started,
            )
        return response

    # -- envelope helpers -------------------------------------------------

    def _plain_error(self, status: int, message: str, kind: str = "bad-request") -> Response:
        """A request-shape failure as the uniform error envelope."""
        return Response(status, error_envelope(kind=kind, message=message))

    def _fail(
        self,
        status: int,
        error: BaseException,
        message: str | None = None,
        headers: dict | None = None,
    ) -> Response:
        """An exception as the uniform envelope (kind derived from its family)."""
        return Response(status, error_envelope(error, message=message), headers=headers)

    def _serve_errors(self, error: BaseException) -> Response:
        """Map one service-layer exception to its status + envelope.

        Shared by ``/query`` and ``/explain`` so the two routes can never
        disagree on how an error family is presented.
        """
        if isinstance(error, OverloadedError):
            # An honest shed: 429 with a machine-readable Retry-After (the
            # header wants integer seconds; the exact float rides in the
            # envelope's detail).
            retry_after = max(0.0, getattr(error, "retry_after", 1.0))
            return self._fail(
                429, error, headers={"Retry-After": str(max(1, int(retry_after + 0.999)))}
            )
        if isinstance(error, DeadlineExceededError):
            return self._fail(504, error)
        if isinstance(error, (QuarantinedError, IntegrityError)):
            # Before their CatalogError parent: a quarantined or torn
            # document is the server's problem (503 until verified or
            # repaired), not a client addressing mistake (404).
            return self._fail(503, error)
        if isinstance(error, MutationError):
            # The mutation request — not the catalog — is at fault (unknown
            # op, unreachable path, malformed fragment); nothing was changed.
            return self._fail(400, error)
        if isinstance(error, CatalogError):
            return self._fail(404, error)
        if isinstance(error, (XPathSyntaxError, XPathCompileError)):
            return self._fail(400, error, message=f"invalid query: {error}")
        if isinstance(error, FuturesTimeoutError):
            return self._fail(
                504,
                error,
                message=f"request timed out after {self.service.request_timeout}s",
            )
        if isinstance(error, WorkerUnavailableError):
            # The shard's worker died with this request in flight; the fleet
            # respawns it, so the failure is transient — tell the client to
            # retry, never hang or serve a wrong answer.
            return self._fail(503, error)
        if isinstance(error, ReproError):
            return self._fail(500, error)
        # e.g. FileNotFoundError when a concurrent DELETE removed the
        # kept text mid-load: still a JSON envelope, never a dropped
        # connection with a server-side traceback.
        return self._plain_error(500, f"{type(error).__name__}: {error}", kind="internal")

    def _read_json(self, request: Request) -> tuple[dict | None, Response | None]:
        body = request.body
        if not body:
            return None, self._plain_error(400, "missing request body")
        limit = body_limit(request.method, request.path)
        if len(body) > limit:
            return None, self._plain_error(
                413, f"request body over {limit} bytes", kind="payload-too-large"
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return None, self._plain_error(400, f"malformed JSON body: {error}")
        if not isinstance(payload, dict):
            return None, self._plain_error(400, "request body must be a JSON object")
        return payload, None

    # -- routes -----------------------------------------------------------

    def _route(self, request: Request) -> Response:
        if request.method == "GET":
            return self._get(request)
        if request.method == "POST":
            return self._post(request)
        if request.method == "DELETE":
            return self._delete(request)
        return self._plain_error(
            501, f"unsupported method {request.method}", kind="bad-request"
        )

    def _get(self, request: Request) -> Response:
        service = self.service
        path = request.path
        if path == "/healthz":
            payload = service.health_dict()
            payload["documents"] = len(service.catalog)
            workers = getattr(service, "workers", 0)
            if workers:
                payload["workers"] = workers
            # "degraded" is still a 2xx (the server answers what it can) but
            # a *distinct* one, so probes tell fine from limping without
            # parsing the body.
            return Response(200 if payload["status"] == "ok" else 203, payload)
        if path == "/stats":
            return Response(200, service.stats_dict())
        if path == "/metrics":
            if self.metrics is None:
                return self._plain_error(
                    404, "metrics are not enabled on this server", kind="not-found"
                )
            return Response(
                200,
                body=self.metrics.render().encode("utf-8"),
                content_type=METRICS_CONTENT_TYPE,
            )
        if path == "/catalog":
            from dataclasses import asdict

            return Response(
                200, {"documents": [asdict(entry) for entry in service.catalog.entries()]}
            )
        if path.split("?", 1)[0] == "/explain":
            query_string = path.partition("?")[2]
            params = urllib.parse.parse_qs(query_string)
            return self._explain(
                document=(params.get("document") or [None])[0],
                query_text=(params.get("query") or [None])[0],
                analyze=(params.get("analyze") or ["false"])[0].lower()
                in ("1", "true", "yes"),
            )
        return self._plain_error(404, f"no such endpoint: GET {path}", kind="not-found")

    def _post(self, request: Request) -> Response:
        path = request.path
        if path == "/query":
            return self._post_query(request, self.service.query)
        if path == "/explain":
            payload, failure = self._read_json(request)
            if failure is not None:
                return failure
            return self._explain(
                document=payload.get("document"),
                query_text=payload.get("query"),
                analyze=bool(payload.get("analyze", False)),
            )
        if path == "/mutate":
            return self._post_mutate(request)
        if path.startswith("/catalog/"):
            return self._post_catalog(request, path[len("/catalog/"):])
        return self._plain_error(404, f"no such endpoint: POST {path}", kind="not-found")

    def _delete(self, request: Request) -> Response:
        path = request.path
        if not path.startswith("/catalog/"):
            return self._plain_error(
                404, f"no such endpoint: DELETE {path}", kind="not-found"
            )
        name = path[len("/catalog/"):]
        service = self.service
        try:
            # Remove from the catalog FIRST: under --workers N the evict
            # broadcast makes every worker re-read the manifest, and only a
            # post-removal manifest makes them drop their cached entry —
            # evicting first would refresh against a manifest that still
            # lists the document, leaving workers serving the stale entry
            # if the name is re-registered.
            service.catalog.remove(name)
            evicted = service.evict(name)
        except CatalogError as error:
            return self._fail(404, error)
        return Response(200, {"removed": name, "pool_entries_evicted": evicted})

    # -- handlers ---------------------------------------------------------

    def _post_query(self, request: Request, answer) -> Response | None:
        """Validate a ``/query`` body, then answer it through ``answer``.

        ``answer`` is the service's ``query`` or ``query_now``; only the
        latter may return ``None``, which is passed on.
        """
        payload, failure = self._read_json(request)
        if failure is not None:
            return failure
        document = payload.get("document")
        query_text = payload.get("query")
        if not isinstance(document, str) or not isinstance(query_text, str):
            return self._plain_error(400, "body needs string fields 'document' and 'query'")
        paths = payload.get("paths", 0)
        limit = payload.get("limit", None)
        # type() not isinstance(): bool is an int subclass, and {"paths": true}
        # must not be served as paths=1.
        if type(paths) is not int or paths < 0:
            return self._plain_error(400, "'paths' must be a non-negative integer")
        kwargs = {"paths": paths}
        if limit is not None:
            if type(limit) is not int or limit < 1:
                return self._plain_error(400, "'limit' must be a positive integer")
            kwargs["limit"] = limit
        # End-to-end deadline: body field, else header, else the server's
        # configured default (0 = unbounded).  The budget starts at accept
        # (``request.received_at``) — parse time, executor-bridge queueing,
        # coalescing wait, pool loads, worker queues all count against it.
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            header = request.header("X-Repro-Deadline-Ms")
            if header is not None:
                try:
                    deadline_ms = float(header)
                except ValueError:
                    return self._plain_error(400, "X-Repro-Deadline-Ms must be a number")
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        # type() not isinstance(): true is not 1 ms; and NaN / Infinity, which
        # json.loads and float() both accept, would never expire.
        if (
            type(deadline_ms) not in (int, float)
            or not math.isfinite(deadline_ms)
            or deadline_ms < 0
        ):
            return self._plain_error(400, "'deadline_ms' must be a positive finite number")
        if deadline_ms:
            kwargs["deadline"] = Deadline(request.received_at + deadline_ms / 1000.0)
        # Rate-limit identity: an explicit client header, else the peer.
        kwargs["client"] = request.header("X-Repro-Client") or request.client
        kwargs["trace"] = request.trace
        try:
            response = answer(document, query_text, **kwargs)
        except Exception as error:  # noqa: BLE001 - the client must get JSON
            return self._serve_errors(error)
        return None if response is None else Response(200, response)

    def _explain(
        self, document: str | None, query_text: str | None, analyze: bool = False
    ) -> Response:
        """Answer ``/explain``: the structured Plan of one query as JSON.

        With a ``document`` the service attaches instance provenance (pool
        residency in process, shard affinity + residency under a fleet)
        and, when the service optimizes, the optimizer annotations of the
        explain contract (:mod:`repro.api.plan`); without one the plan of
        the bare query text is returned.  ``analyze`` (GET query param or
        JSON body boolean) executes the plan and adds per-node ``actual``
        cardinalities — it needs a document (a fleet measures on a private
        dispatcher-side load so shard masters stay untouched).
        """
        if not isinstance(query_text, str) or not query_text:
            return self._plain_error(400, "explain needs a string field 'query'")
        if document is not None and not isinstance(document, str):
            return self._plain_error(400, "'document' must be a string when given")
        try:
            if document is None:
                from repro.api.plan import Plan

                response = {
                    "document": None,
                    "query": query_text,
                    "plan": Plan.from_query(query_text).to_dict(),
                }
            else:
                response = self.service.explain(document, query_text, analyze=analyze)
        except Exception as error:  # noqa: BLE001 - the client must get JSON
            return self._serve_errors(error)
        return Response(200, response)

    def _post_mutate(self, request: Request) -> Response:
        """``POST /mutate``: apply a mutation batch to a served document.

        Body: ``{"document": name, "mutations": [{"op", "path", "xml"?}, ...]}``
        (see :mod:`repro.mutation.ops` for the op vocabulary and path
        addressing).  The whole batch applies atomically — on any error
        nothing is published and the client gets 400 (bad mutation) or 404
        (unknown document); on success the response carries the new
        ``doc_version`` and maintenance timings.
        """
        payload, failure = self._read_json(request)
        if failure is not None:
            return failure
        document = payload.get("document")
        mutations = payload.get("mutations")
        if not isinstance(document, str):
            return self._plain_error(400, "body needs a string field 'document'")
        if not isinstance(mutations, list):
            return self._plain_error(400, "body needs a list field 'mutations'")
        try:
            response = self.service.mutate(document, mutations)
        except Exception as error:  # noqa: BLE001 - the client must get JSON
            return self._serve_errors(error)
        return Response(200, response)

    def _post_catalog(self, request: Request, name: str) -> Response:
        payload, failure = self._read_json(request)
        if failure is not None:
            return failure
        xml = payload.get("xml")
        if not isinstance(xml, str):
            return self._plain_error(400, "body needs a string field 'xml'")
        attributes = payload.get("attributes", "ignore")
        try:
            entry = self.service.catalog.add(name, xml, attributes=attributes)
        except ReproError as error:
            return self._fail(400, error)
        from dataclasses import asdict

        return Response(201, asdict(entry))
