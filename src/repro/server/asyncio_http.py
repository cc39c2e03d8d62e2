"""The HTTP front-end of ``repro serve``: one asyncio event loop.

One event loop owns accept, HTTP/1.1 parsing, deadline/trace stamping,
and response writes; evaluation never runs on the loop.  Each parsed
request takes one of two paths:

* **The lane** — one dedicated thread (:class:`_Lane`) answers a
  ``POST /query`` through :meth:`repro.server.routes.Router.dispatch_now`
  when the in-process service can do so without waiting: plans cached,
  master resident with its working fork, key idle, and that request's
  last measured service time below ``sys.getswitchinterval()`` (see
  :meth:`repro.server.service.QueryService.query_now`).  The hand-off is
  a ``SimpleQueue`` put one way and one ``call_soon_threadsafe`` back,
  with no coalescing batch in between, and the lane is the only thread
  that serves warm queries, so they never contend with each other for
  the GIL (DESIGN.md section 12).  The route core, admission, deadlines,
  counters and payloads are the executor path's own.
* **On an executor thread** — everything else (every other route, cold
  or slow or contended queries, the worker fleet, and whatever the lane
  declined) is bridged to a bounded ``ThreadPoolExecutor`` via
  ``run_in_executor``, where :meth:`~repro.server.routes.Router.dispatch`
  runs the route core (admission, coalescing, or the worker-fleet queues
  happen inside).  The loop keeps accepting and shedding (429s are
  cheap) while slow queries occupy executor threads, instead of burning
  one OS thread per idle keep-alive connection.

``repro_http_dispatch_total{path="lane"|"executor"}`` counts the split.
The one residual risk: a query measured cheap whose next run is slow (an
injected fault, say) holds the lane — not the loop — for that one run;
its new cost then sends it to the executor.

Flow control and shutdown:

* **Bounded write buffering** — each connection's transport gets a
  64 KiB high-water mark and every response write awaits
  ``writer.drain()``, so a slow reader suspends only its own connection
  coroutine instead of buffering results without bound.
* **Graceful drain** — ``shutdown()`` stops the listener, cancels idle
  keep-alive connections immediately, lets in-flight requests finish
  their response write within ``drain_timeout`` seconds, then cancels
  stragglers.  The object surface (``serve_forever`` / ``shutdown`` /
  ``server_close`` / ``server_address`` / ``url`` / ``service``) is
  ``socketserver``'s, so tests, benches and
  :func:`repro.server.http.serve` drive it like a stdlib server.
"""

from __future__ import annotations

import asyncio
import os
import queue
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus

from repro.server.metrics import ServerMetrics
from repro.server.routes import (
    TRANSFER_ENCODING_REFUSAL,
    Headers,
    Request,
    Router,
    body_limit,
    content_length,
)

#: Per-connection transport write high-water mark (bytes): a slow reader
#: suspends its own coroutine at ``drain()`` once this much is queued.
WRITE_HIGH_WATER = 64 * 1024

#: Longest accepted request line + single header line (bytes).
MAX_LINE = 16 * 1024

#: Cap on header lines per request (parser sanity, not a protocol limit).
MAX_HEADERS = 100


class _BadRequest(Exception):
    """A framing-level refusal: (status, message, kind, close?)."""

    def __init__(self, status: int, message: str, kind: str, close: bool = True):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.close = close


class _Lane:
    """One thread answering requests in arrival order with ``answer(request)``.

    Why a thread of its own and not the event loop: answering on the loop
    saves one more hand-off, but then every request of the server runs on
    one thread that never sleeps, so the kernel never moves it and the
    server's speed is the speed of whichever core it started on.  The lane
    sleeps whenever its queue is empty and the loop keeps the HTTP work,
    so the server's CPU time lands on more than one core, as the
    executor's does (DESIGN.md section 12 has the measurements).  Lives
    exactly as long as :meth:`AsyncReproHTTPServer.serve_forever`.
    """

    def __init__(self, answer):
        self._answer = answer
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._run, name="repro-lane", daemon=True).start()

    def submit(self, loop: asyncio.AbstractEventLoop, request) -> asyncio.Future:
        """Queue ``request``; the future resolves on ``loop`` with the answer."""
        future = loop.create_future()
        self._queue.put((loop, future, request))
        return future

    def close(self) -> None:
        """Stop the thread once the requests already queued are answered."""
        self._queue.put(None)

    def _run(self) -> None:
        while (item := self._queue.get()) is not None:
            loop, future, request = item
            try:
                outcome = (self._answer(request), None)
            except BaseException as error:  # noqa: BLE001 - re-raised in the awaiting coroutine
                outcome = (None, error)
            try:
                loop.call_soon_threadsafe(_settle, future, *outcome)
            except RuntimeError:
                pass  # the loop closed while this request was in the lane


def _settle(future: asyncio.Future, result, error: BaseException | None) -> None:
    if future.done():
        return  # the awaiting connection was cancelled
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(result)


class AsyncReproHTTPServer:
    """The event-loop HTTP server, with ``socketserver``'s lifecycle surface.

    The listening socket binds in the constructor (fail-fast on a used
    port, and ``server_address`` reports the ephemeral port immediately);
    the event loop itself runs inside :meth:`serve_forever` on whatever
    thread calls it, exactly like ``ThreadingHTTPServer``.
    """

    def __init__(
        self,
        address: tuple[str, int],
        service,
        quiet: bool = True,
        default_deadline_ms: float = 0.0,
        drain_timeout: float = 5.0,
    ):
        self.service = service
        self.quiet = quiet
        self.default_deadline_ms = default_deadline_ms
        self.drain_timeout = drain_timeout
        self._socket = socket.create_server(address, backlog=128, reuse_port=False)
        self.server_address = self._socket.getsockname()[:2]
        # Executor sizing: the bridge must hold more threads than the
        # admission queue admits so shed decisions (cheap) never wait
        # behind admitted work; 32 covers the default queue depths.
        self._executor = ThreadPoolExecutor(
            max_workers=max(32, 4 * (os.cpu_count() or 1)),
            thread_name_prefix="repro-http",
        )
        self.metrics = ServerMetrics(lambda: self.service)
        self.router = Router(
            lambda: self.service,
            default_deadline_ms=default_deadline_ms,
            metrics=self.metrics,
        )
        self._lane: _Lane | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        #: connection task -> {"busy": bool}; drain cancels idle ones first.
        self._connections: dict[asyncio.Task, dict] = {}
        self._draining = False
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._closed = False

    @property
    def url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}"

    # -- lifecycle --------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the event loop on the calling thread until :meth:`shutdown`."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._lane = _Lane(self.router.dispatch_now)
        try:
            # The reader limit bounds line buffering (readuntil); bodies
            # stream through readexactly and are capped by body_limit instead.
            self._server = loop.run_until_complete(
                asyncio.start_server(self._on_client, sock=self._socket, limit=4 * MAX_LINE)
            )
            self._started.set()
            loop.run_forever()
        finally:
            try:
                loop.run_until_complete(self._drain())
            finally:
                try:
                    loop.run_until_complete(loop.shutdown_asyncgens())
                finally:
                    asyncio.set_event_loop(None)
                    loop.close()
                    self._lane.close()
                    self._loop = None
                    self._stopped.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` from any thread; returns once drained."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:  # loop already closed
            return
        self._stopped.wait(timeout=self.drain_timeout + 10.0)

    def server_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=False)
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - already closed by the loop
            pass

    # -- the connection coroutine ----------------------------------------

    async def _drain(self) -> None:
        """Close the listener, finish in-flight requests, cancel the rest."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:  # noqa: BLE001 - drain must complete
                pass
        for task, state in list(self._connections.items()):
            if not state["busy"]:
                task.cancel()
        deadline = time.monotonic() + self.drain_timeout
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)

    async def _on_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        task = asyncio.current_task()
        state = {"busy": False}
        self._connections[task] = state
        self.metrics.connections.inc()
        transport = writer.transport
        transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        try:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - already-dead socket
            pass
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else ""
        try:
            await self._connection_loop(reader, writer, state, client)
        except (asyncio.CancelledError, ConnectionError):
            pass
        except Exception as error:  # noqa: BLE001 - one connection must not kill the loop
            self._log(f"connection error from {client}: {type(error).__name__}: {error}")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):  # noqa: BLE001
                pass  # peer already gone, or _drain cancelled the wait
            finally:
                # Last: _drain waits for this map to empty before closing
                # the loop, so the task stays in it until its final await.
                self._connections.pop(task, None)
                self.metrics.connections.dec()

    async def _connection_loop(self, reader, writer, state, client: str) -> None:
        loop = asyncio.get_running_loop()
        while not self._draining:
            try:
                request, keep_alive = await self._read_request(reader, client)
            except _BadRequest as refusal:
                # Build a minimal Request so the refusal still gets a trace
                # ID, the envelope, and a metrics sample.
                request = Request("BAD", "other", headers=Headers(), client=client)
                response = self.router.reject(
                    request, refusal.status, str(refusal), refusal.kind
                )
                await self._write_response(writer, response, keep_alive=False)
                self._access_log(request, response)
                return
            except asyncio.IncompleteReadError:
                return  # peer hung up mid-request
            if request is None:
                return  # clean EOF between requests
            state["busy"] = True
            try:
                response = None
                if self.router.answers_now(request):
                    response = await self._lane.submit(loop, request)
                if request.method == "POST" and request.path == "/query":
                    self.metrics.dispatches.inc(
                        path="executor" if response is None else "lane"
                    )
                if response is None:
                    response = await loop.run_in_executor(
                        self._executor, self.router.dispatch, request
                    )
            finally:
                state["busy"] = False
            keep_alive = keep_alive and not self._draining
            await self._write_response(writer, response, keep_alive=keep_alive)
            self._access_log(request, response)
            if not keep_alive:
                return

    async def _read_request(self, reader, client: str):
        """Parse one request; returns ``(Request | None, keep_alive)``."""
        try:
            request_line = await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError:
            raise _BadRequest(400, "request line too long", "bad-request") from None
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None, False  # clean EOF
            raise
        received_at = time.monotonic()
        if len(request_line) > MAX_LINE:
            raise _BadRequest(400, "request line too long", "bad-request")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(400, f"malformed request line: {parts[:3]!r}", "bad-request")
        method, path, version = parts
        headers = Headers()
        for _ in range(MAX_HEADERS):
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.LimitOverrunError:  # past the stream's own buffer limit
                raise _BadRequest(400, "header line too long", "bad-request") from None
            if len(line) > MAX_LINE:
                raise _BadRequest(400, "header line too long", "bad-request")
            stripped = line.strip()
            if not stripped:
                break
            name, separator, value = stripped.decode("latin-1").partition(":")
            if not separator:
                raise _BadRequest(400, f"malformed header line: {stripped!r}", "bad-request")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(400, "too many header lines", "bad-request")
        connection = (headers.get("connection") or "").lower()
        keep_alive = version == "HTTP/1.1" and connection != "close"
        if headers.get("transfer-encoding") is not None:
            raise _BadRequest(501, TRANSFER_ENCODING_REFUSAL, "bad-request")
        try:
            length = content_length(headers.get("content-length"))
        except ValueError as error:
            raise _BadRequest(400, str(error), "bad-request") from None
        limit = body_limit(method, path)
        if length > limit:
            # Refuse before reading: the body is unread, so the connection
            # cannot be re-synced — _BadRequest closes it.
            raise _BadRequest(
                413, f"request body over {limit} bytes", "payload-too-large"
            )
        body = await reader.readexactly(length) if length > 0 else b""
        request = Request(
            method, path, headers=headers, body=body, client=client,
            received_at=received_at,
        )
        return request, keep_alive

    async def _write_response(self, writer, response, keep_alive: bool) -> None:
        try:
            phrase = HTTPStatus(response.status).phrase
        except ValueError:  # pragma: no cover - only standard statuses are used
            phrase = ""
        head_lines = [
            f"HTTP/1.1 {response.status} {phrase}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
        ]
        head_lines.extend(f"{name}: {value}" for name, value in response.headers.items())
        if not keep_alive:
            head_lines.append("Connection: close")
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + response.body)
        # Bounded buffering: suspend this connection (only) until the
        # transport's write buffer falls below the high-water mark.
        await writer.drain()

    # -- logging ----------------------------------------------------------

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"repro serve[async]: {message}", file=sys.stderr)

    def _access_log(self, request, response) -> None:
        if not self.quiet:
            self._log(
                f'{request.client} "{request.method} {request.path}" '
                f"{response.status} trace={request.trace}"
            )
