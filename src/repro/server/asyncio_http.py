"""The HTTP front-end of ``repro serve``: one asyncio event loop.

One event loop owns accept, HTTP/1.1 parsing, deadline/trace stamping,
and response writes; evaluation never runs on the loop.  Each client
connection is one :class:`_Connection`, an ``asyncio.Protocol``:
``data_received`` appends to a ``bytearray`` and the request head and
body are parsed out of it synchronously, so a request costs the loop no
coroutine, no ``readuntil`` await and no ``Future``.  Each parsed
request takes one of two paths:

* **The lane** — one dedicated thread (:class:`_Lane`) answers a
  ``POST /query`` through :meth:`repro.server.routes.Router.dispatch_now`
  when the in-process service can do so without waiting: plans cached,
  master resident with its working fork, key idle, and that request's
  last measured service time below ``sys.getswitchinterval()`` (see
  :meth:`repro.server.service.QueryService.query_now`).  The hand-off is
  a ``SimpleQueue`` put one way and one
  ``loop.call_soon_threadsafe(connection.answered, response, error)``
  back, with no coalescing batch in between, and the lane is the only
  thread that serves warm queries, so they never contend with each other
  for the GIL (DESIGN.md section 12).  The route core, admission,
  deadlines, counters and payloads are the executor path's own.
* **On an executor thread** — everything else (every other route, cold
  or slow or contended queries, the worker fleet, and whatever the lane
  declined) goes to a bounded ``ThreadPoolExecutor`` through
  ``run_in_executor(...).add_done_callback``, where
  :meth:`~repro.server.routes.Router.dispatch` runs the route core
  (admission, coalescing, or the worker-fleet queues happen inside).
  The loop keeps accepting and shedding (429s are cheap) while slow
  queries occupy executor threads, instead of burning one OS thread per
  idle keep-alive connection.

``repro_http_dispatch_total{path="lane"|"executor"}`` counts the split.
The one residual risk: a query measured cheap whose next run is slow (an
injected fault, say) holds the lane — not the loop — for that one run;
its new cost then sends it to the executor.

Framing: a head line may be 16 KiB and a head 100 lines; the route's
body cap (:func:`repro.server.routes.body_limit`) is checked before any
body byte is buffered, and a head that passes it with ``Expect:
100-continue`` and its body not yet received gets ``100 Continue``.
``Content-Length`` is digits only, and two of them must agree;
whitespace before a header's colon is refused, and so is any
``Transfer-Encoding`` (501).  Every refusal is the route core's envelope
followed by a close.  A response — status line, headers, body — is one
``transport.write``.

Flow control and shutdown:

* **Bounded write buffering** — each transport has a 64 KiB write
  high-water mark.  Past it, ``pause_writing`` stops the connection
  from parsing its next request until ``resume_writing``, and once such
  a stalled connection holds 64 KiB of unparsed input it stops reading
  too, so a client that never reads fills its own socket buffers, not
  the server's memory.
* **Half-close** — ``eof_received`` returns ``True``, so a client that
  shuts down its sending side still gets the answers to the requests it
  sent; the server closes once nothing complete is left to answer.
* **Graceful drain** — ``shutdown()`` stops the listener, aborts idle
  keep-alive connections immediately, lets in-flight requests finish
  their response write within ``drain_timeout`` seconds, then aborts
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

#: Per-connection transport write high-water mark (bytes): past it the
#: connection parses no further request until the client reads.
WRITE_HIGH_WATER = 64 * 1024

#: Unparsed input (bytes) a connection holds while it is answering or
#: paused before it stops reading from its socket.
READ_HIGH_WATER = 64 * 1024

#: Longest accepted request line + single header line (bytes).
MAX_LINE = 16 * 1024

#: Cap on header lines per request (parser sanity, not a protocol limit).
MAX_HEADERS = 100

#: The status line of every standard status, built once.
STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n" for status in HTTPStatus
}

#: The interim answer to ``Expect: 100-continue``.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _BadRequest(Exception):
    """A framing-level refusal: (status, message, kind); always closes."""

    def __init__(self, status: int, message: str, kind: str = "bad-request"):
        super().__init__(message)
        self.status = status
        self.kind = kind


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

    def __init__(self, loop: asyncio.AbstractEventLoop, answer):
        self._loop = loop
        self._answer = answer
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._run, name="repro-lane", daemon=True).start()

    def submit(self, request, connection: "_Connection") -> None:
        """Queue ``request``; ``connection.answered`` gets the answer on the loop."""
        self._queue.put((request, connection))

    def close(self) -> None:
        """Stop the thread once the requests already queued are answered."""
        self._queue.put(None)

    def _run(self) -> None:
        while (item := self._queue.get()) is not None:
            request, connection = item
            try:
                outcome = (self._answer(request), None)
            except BaseException as error:  # noqa: BLE001 - reported on the loop
                outcome = (None, error)
            try:
                self._loop.call_soon_threadsafe(connection.answered, *outcome)
            except RuntimeError:
                pass  # the loop closed while this request was in the lane


class _Connection(asyncio.Protocol):
    """One client connection: parse from a buffer, answer, write once.

    At most one request per connection is being answered (``busy``);
    pipelined requests wait, unparsed, in the buffer until its response
    is written.  The parse state of the request being read survives
    between ``data_received`` calls, so every byte is scanned once
    however the client splits its segments.
    """

    def __init__(self, server: "AsyncReproHTTPServer"):
        self._server = server
        self._transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        self.client = ""
        #: A parsed request is with the lane or the executor.
        self.busy = False
        self._answering: tuple[Request, bool] | None = None
        self._writing_paused = False
        self._reading_paused = False
        self._eof = False
        self._reset()

    def _reset(self) -> None:
        """Forget the request just parsed; the next starts at the buffer's head."""
        self._scan = 0  # where the next head line starts
        self._request_line: list[str] | None = None
        self._headers = Headers()
        self._header_lines = 0
        self._received_at = 0.0
        self._body_at = -1  # where the body starts, once the head is complete
        self._length = 0
        self._keep_alive = False

    # -- asyncio.Protocol ---------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        peer = transport.get_extra_info("peername")
        self.client = peer[0] if isinstance(peer, tuple) else ""
        self._server._connections.add(self)
        self._server.metrics.connections.inc()

    def connection_lost(self, exc) -> None:
        self._buffer.clear()
        self._server._connections.discard(self)
        self._server.metrics.connections.dec()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if self.busy or self._writing_paused:
            if len(self._buffer) > READ_HIGH_WATER and not self._reading_paused:
                self._reading_paused = True
                self._transport.pause_reading()
            return
        self._process()

    def eof_received(self) -> bool:
        self._eof = True
        if not self.busy:
            self._process()
        return True  # keep writing: an in-flight request still gets its answer

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        if not self.busy:
            self._process()

    def abort(self) -> None:
        self._transport.abort()

    # -- parsing ------------------------------------------------------------

    def _process(self) -> None:
        """Dispatch the next buffered request if it is complete."""
        if self.busy or self._writing_paused or self._transport.is_closing():
            return
        try:
            parsed = self._parse()
        except _BadRequest as refusal:
            self._refuse(refusal)
            return
        if parsed is not None:
            self._dispatch(*parsed)
        elif self._eof:
            self._transport.close()  # clean EOF, or the peer hung up mid-request
        elif self._reading_paused:
            self._reading_paused = False
            self._transport.resume_reading()

    def _parse(self) -> tuple[Request, bool] | None:
        """The next complete request and its keep-alive flag, or ``None``."""
        buffer = self._buffer
        while self._body_at < 0:
            end = buffer.find(b"\n", self._scan)
            if end < 0:
                if len(buffer) - self._scan > MAX_LINE:
                    raise self._line_too_long()
                return None
            line = buffer[self._scan:end + 1]
            self._scan = end + 1
            if len(line) > MAX_LINE:
                raise self._line_too_long()
            if self._request_line is None:
                self._start(line)
            else:
                self._header(line)
        end = self._body_at + self._length
        if len(buffer) < end:
            return None
        with memoryview(buffer) as view:
            body = bytes(view[self._body_at:end])  # one copy, even of 256 MiB
        del buffer[:end]
        method, path, _ = self._request_line
        request = Request(
            method, path, headers=self._headers, body=body, client=self.client,
            received_at=self._received_at,
        )
        keep_alive = self._keep_alive
        self._reset()
        return request, keep_alive

    def _line_too_long(self) -> _BadRequest:
        kind = "request" if self._request_line is None else "header"
        return _BadRequest(400, f"{kind} line too long")

    def _start(self, line: bytearray) -> None:
        self._received_at = time.monotonic()
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(400, f"malformed request line: {parts[:3]!r}")
        self._request_line = parts

    def _header(self, line: bytearray) -> None:
        stripped = line.strip()
        if not stripped:
            self._body_at = self._scan
            self._frame()
            return
        name, separator, value = stripped.decode("latin-1").partition(":")
        if not separator:
            raise _BadRequest(400, f"malformed header line: {bytes(stripped)!r}")
        if name != name.rstrip():
            # RFC 9112 section 5.1: no whitespace between name and colon.
            raise _BadRequest(400, f"whitespace before the colon: {bytes(stripped)!r}")
        name, value = name.lower(), value.strip()
        headers = self._headers
        if name == "content-length" and headers.get(name, value) != value:
            # RFC 9112 section 6.3: differing lengths leave the framing unknown.
            raise _BadRequest(400, "conflicting Content-Length headers")
        headers[name] = value
        self._header_lines += 1
        if self._header_lines >= MAX_HEADERS:
            raise _BadRequest(400, "too many header lines")

    def _frame(self) -> None:
        """Check a complete head's framing; answer ``Expect: 100-continue``."""
        method, path, version = self._request_line
        headers = self._headers
        connection = (headers.get("connection") or "").lower()
        self._keep_alive = version == "HTTP/1.1" and connection != "close"
        if headers.get("transfer-encoding") is not None:
            raise _BadRequest(501, TRANSFER_ENCODING_REFUSAL)
        try:
            length = content_length(headers.get("content-length"))
        except ValueError as error:
            raise _BadRequest(400, str(error)) from None
        limit = body_limit(method, path)
        if length > limit:
            # Refused without waiting for the body; it stays unread, so the
            # connection cannot be re-synced and closes.
            raise _BadRequest(413, f"request body over {limit} bytes", "payload-too-large")
        self._length = length
        if (
            len(self._buffer) - self._body_at < length
            and version == "HTTP/1.1"
            and (headers.get("expect") or "").lower() == "100-continue"
        ):
            self._transport.write(CONTINUE)

    # -- answering ----------------------------------------------------------

    def _dispatch(self, request: Request, keep_alive: bool) -> None:
        self.busy = True
        self._answering = (request, keep_alive)
        server = self._server
        if server.router.answers_now(request):
            server._lane.submit(request, self)
        else:
            self._execute()

    def answered(self, response, error: BaseException | None) -> None:
        """The lane's outcome, on the loop; ``(None, None)`` means "declined"."""
        if response is None and error is None:
            self._execute()
            return
        if error is None:
            self._server.metrics.dispatches.inc(path="lane")
        self._respond(response, error)

    def _execute(self) -> None:
        server = self._server
        request = self._answering[0]
        if request.method == "POST" and request.path == "/query":
            server.metrics.dispatches.inc(path="executor")
        future = server._loop.run_in_executor(
            server._executor, server.router.dispatch, request
        )
        future.add_done_callback(self._executed)

    def _executed(self, future: asyncio.Future) -> None:
        if future.cancelled():
            self._respond(None, asyncio.CancelledError())
        elif (error := future.exception()) is not None:
            self._respond(None, error)
        else:
            self._respond(future.result(), None)

    def _respond(self, response, error: BaseException | None) -> None:
        self.busy = False
        if self._transport.is_closing():
            return  # the peer went away, or drain aborted the connection
        server = self._server
        request, keep_alive = self._answering
        self._answering = None
        keep_alive = keep_alive and not server._draining
        if error is None:
            try:
                self._write(response, keep_alive)
            except Exception as failure:  # noqa: BLE001 - one connection must not hang
                error = failure
        if error is not None:
            server._log(
                f"connection error from {self.client}: {type(error).__name__}: {error}"
            )
            self.abort()
            return
        server._access_log(request, response)
        if keep_alive:
            self._process()
        else:
            self._transport.close()

    def _refuse(self, refusal: _BadRequest) -> None:
        # A minimal Request, so the refusal still gets a trace ID, the
        # envelope and a metrics sample.
        request = Request("BAD", "other", headers=Headers(), client=self.client)
        response = self._server.router.reject(
            request, refusal.status, str(refusal), refusal.kind
        )
        self._buffer.clear()
        self._write(response, keep_alive=False)
        self._server._access_log(request, response)
        self._transport.close()

    def _write(self, response, keep_alive: bool) -> None:
        status = response.status
        head = [
            STATUS_LINES.get(status) or f"HTTP/1.1 {status} \r\n",
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.body)}\r\n",
        ]
        head.extend(f"{name}: {value}\r\n" for name, value in response.headers.items())
        head.append("\r\n" if keep_alive else "Connection: close\r\n\r\n")
        self._transport.write("".join(head).encode("latin-1") + response.body)


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
        #: Open connections; drain aborts the idle ones first.
        self._connections: set[_Connection] = set()
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
        self._lane = _Lane(loop, self.router.dispatch_now)
        try:
            self._server = loop.run_until_complete(
                loop.create_server(lambda: _Connection(self), sock=self._socket)
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

    async def _drain(self) -> None:
        """Close the listener, finish in-flight requests, abort the rest."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            if not connection.busy:
                connection.abort()
        deadline = time.monotonic() + self.drain_timeout
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for connection in list(self._connections):
            connection.abort()
        await asyncio.sleep(0)  # aborted transports report connection_lost
        if self._server is not None:
            try:
                await self._server.wait_closed()
            except Exception:  # noqa: BLE001 - drain must complete
                pass

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
