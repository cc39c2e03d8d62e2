"""The load generator: the real server as a subprocess, keep-alive clients, /proc.

Server and generator are separate processes so neither steals the other's
GIL.  The client is a minimal HTTP/1.1 keep-alive client over a raw socket
(``TCP_NODELAY``, pre-encoded request bytes): ``http.client`` costs about as
much CPU per request as the server spends on a small query, and the
generator must never be the bottleneck it is measuring.

:class:`SpeedClock` is the benchmark's one clock.  The sandbox this was built
on alternates, in phases of ten seconds to minutes, between two speeds about
25% apart (a fixed unit of pure-Python work takes 1.0x or 1.25x the *CPU*
time, on both cores alike), which no window length or robust statistic inside
a run can average away.  So a background thread times that fixed unit every
10 ms, and every duration the benchmark reports is converted to *reference
seconds*: divided by how much slower than the reference the machine was
running in the second the duration was observed.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from multiprocessing import resource_tracker

_TICKS = os.sysconf("SC_CLK_TCK")


# -- the clock ------------------------------------------------------------------


_UNIT_PAYLOAD = {"document": "dblp", "query": "//article[author]", "paths": 25,
                 "rows": [{"n": n, "text": str(n) * 3} for n in range(40)]}


def _unit_of_work() -> None:
    """Request-shaped work: bytecode arithmetic, dict/str/sort, a JSON round trip.

    The two speed phases of the sandbox do not slow all code alike (tight
    bytecode loops lose about twice what array kernels lose), so the unit
    mixes the kinds of work a request is made of; over 10 s windows it tracks
    the served stack's CPU per request with a slope of 0.9-1.0.
    """
    total = 0
    for value in range(1000):
        total += value * value % 7
    table = {}
    for value in range(300):
        table[str(value)] = value
    [key for key in sorted(table, key=len) if key.endswith("7")]
    json.loads(json.dumps(_UNIT_PAYLOAD))


class SpeedTable:
    """Per-second speed index: 1.0 = the reference machine, 1.25 = 25% slower."""

    def __init__(self, samples: list[tuple[float, float]]):
        if not samples:
            raise RuntimeError("the speed clock took no sample")
        buckets: dict[int, list[float]] = {}
        for moment, cpu_s in samples:
            buckets.setdefault(int(moment), []).append(cpu_s)
        self._index = {
            second: sum(values) / len(values) / SpeedClock.REFERENCE_UNIT_S
            for second, values in buckets.items()
        }
        self._overall = sum(self._index.values()) / len(self._index)

    def index_at(self, moment: float) -> float:
        return self._index.get(int(moment), self._overall)

    def reference_seconds(self, start: float, end: float) -> float:
        """``end - start`` as the reference machine would have spent it."""
        total = 0.0
        moment = start
        while moment < end:
            step = min(end, int(moment) + 1.0) - moment
            total += step / self.index_at(moment)
            moment += step
        return total

    def index_over(self, start: float, end: float) -> float:
        return (end - start) / self.reference_seconds(start, end)


class SpeedClock(threading.Thread):
    """Times a fixed unit of work every 10 ms for as long as the benchmark runs.

    The unit is timed with the thread's own CPU clock, so waiting for the
    GIL or for a core does not count: the sample says how fast the machine
    executes, not how busy it is.  2% of one core.
    """

    #: CPU seconds the unit takes on the reference machine (the 2.1 GHz Xeon
    #: vCPU of the sandbox, CPython 3.11, in its undisturbed phase).
    REFERENCE_UNIT_S = 200e-6

    def __init__(self) -> None:
        super().__init__(name="speed-clock", daemon=True)
        self._halt = threading.Event()
        self._samples: list[tuple[float, float]] = []

    def run(self) -> None:
        while not self._halt.wait(0.01):
            started = time.thread_time()
            _unit_of_work()
            self._samples.append((time.perf_counter(), time.thread_time() - started))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def table(self) -> SpeedTable:
        """The speed index of every second sampled so far."""
        return SpeedTable(list(self._samples))


# -- the server under test ----------------------------------------------------


class ServerProcess:
    """``python -m repro.cli serve -C <catalog> --port 0`` in its own session.

    The session doubles as the process group: the fleet's worker processes
    (and multiprocessing's resource tracker) are found for CPU/RSS
    accounting, and killed on the failure path, through the group id.
    """

    def __init__(self, catalog_dir: str, src_dir: str, workers: int, log_path: str):
        self.log_path = log_path
        # A fixed hash seed: string hashing otherwise differs from one server
        # process to the next, and with it set iteration order and timing.
        # One malloc arena: glibc otherwise gives each server thread its own,
        # and which thread serves which request decided 15% of the peak RSS
        # (heavy_eval: 60-70 MB over ten runs, 54.2-54.3 MB with one arena).
        env = dict(
            os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED="0", MALLOC_ARENA_MAX="1"
        )
        self._log = open(log_path, "wb")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "-C", catalog_dir,
                 "--port", "0", "--workers", str(workers)],
                stdout=self._log, stderr=subprocess.STDOUT, env=env, start_new_session=True,
            )
        except BaseException:
            self._log.close()
            raise
        self.pgid = self.process.pid
        self.address: tuple[str, int] | None = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the announced port answers ``GET /healthz`` with 200."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}: {self.log()}")
            if self.address is None:
                self.address = _announced_address(self.log())
            if self.address is not None:
                try:
                    with Connection(self.address, timeout=1.0) as connection:
                        if connection.request(encode_request("GET", "/healthz"))[0] == 200:
                            return
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server not ready within {timeout}s: {self.log()}")

    def log(self) -> str:
        with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()

    def group(self) -> dict[int, list[str]]:
        """``pid -> /proc/<pid>/stat fields`` of the server's live process group."""
        found = {}
        for name in os.listdir("/proc"):
            if name.isdigit():
                fields = _stat_fields(int(name))
                if fields is not None and int(fields[2]) == self.pgid:
                    found[int(name)] = fields
        return found

    def cpu_seconds(self) -> float:
        """utime + stime summed over the process group."""
        return sum(
            int(fields[11]) + int(fields[12]) for fields in self.group().values()
        ) / _TICKS

    def rss_peak_mb(self) -> float:
        """``VmHWM`` summed over the process group."""
        kilobytes = 0
        for pid in self.group():
            try:
                with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            kilobytes += int(line.split()[1])
                            break
            except OSError:
                pass
        return kilobytes / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever is left of the group.

        SIGTERM is sent up to three times: the server turns it into a
        ``KeyboardInterrupt``, and one that lands inside an event-loop
        callback is logged by asyncio and lost instead of stopping the loop.
        """
        try:
            for _ in range(3):
                if self.process.poll() is None:
                    self.process.send_signal(signal.SIGTERM)
                    try:
                        self.process.wait(timeout=3)
                    except subprocess.TimeoutExpired:
                        pass
            # The front-end is gone (or deaf); nothing of its group may stay.
            if self.group():
                try:
                    os.killpg(self.pgid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.process.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while self.group() and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            self._log.close()


def _announced_address(log: str) -> tuple[str, int] | None:
    marker = "repro serve: http://"
    start = log.find(marker)
    if start < 0:
        return None
    host, _, port = log[start + len(marker):].split()[0].rpartition(":")
    return host, int(port)


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name (index 0 = state)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii", errors="replace") as handle:
            return handle.read().rpartition(")")[2].split()
    except OSError:
        return None


def descendants(root: int) -> list[int]:
    """Every process below ``root`` in the parent tree, zombies included."""
    parents = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                parents[int(name)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        below = [pid for pid, ppid in parents.items() if ppid == parent]
        found += below
        frontier += below
    return found


def reap_children(grace_s: float = 5.0) -> None:
    """Return only once no process started from this one is left.

    The servers are stopped where they were started; this is for what the
    in-process ``WorkerFleet`` of the traced pass leaves behind.  Its workers
    are joined by ``fleet.close()``, but multiprocessing's resource tracker
    only ends when the last write end of its pipe closes, which is normally
    this process exiting: it would outlive the benchmark by a moment.  So the
    tracker is told to stop (and waited for) once it is the only child left,
    and whatever else is still there after ``grace_s`` is killed.
    """
    me = os.getpid()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    deadline = time.monotonic() + grace_s
    while True:
        for pid in descendants(me):
            try:
                os.waitpid(pid, os.WNOHANG)  # reap what has already ended
            except ChildProcessError:
                pass  # a grandchild, or waited for elsewhere
        left = descendants(me)
        if not left:
            return
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + grace_s
        elif left == [getattr(tracker, "_pid", None)] and hasattr(tracker, "_stop"):
            tracker._stop()  # closes the pipe, then waitpid()s the tracker
        time.sleep(0.01)


# -- the client -----------------------------------------------------------------


def encode_request(method: str, path: str, body: dict | None = None,
                   trace: str | None = None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = [f"{method} {path} HTTP/1.1", "Host: e2e", f"Content-Length: {len(payload)}"]
    if body is not None:
        head.append("Content-Type: application/json")
    if trace is not None:
        head.append(f"X-Repro-Trace: {trace}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


class Connection:
    """One keep-alive connection; :meth:`request` returns ``(status, body)``."""

    def __init__(self, address: tuple[str, int], timeout: float = 120.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.sock.close()

    def request(self, raw: bytes) -> tuple[int, bytes]:
        self.sock.sendall(raw)
        buffer = self._buffer
        while (end := buffer.find(b"\r\n\r\n")) < 0:
            buffer += self._recv()
        head = buffer[:end].lower()
        start = head.index(b"content-length:") + 15
        stop = head.find(b"\r\n", start)
        length = int(head[start:stop if stop >= 0 else len(head)])
        total = end + 4 + length
        while len(buffer) < total:
            buffer += self._recv()
        self._buffer = buffer[total:]
        return int(head[9:12]), buffer[end + 4:total]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        return chunk


class Samples:
    """What one client saw: parallel lists, one row per completed request."""

    def __init__(self) -> None:
        self.started: list[float] = []
        self.latency: list[float] = []
        self.size: list[int] = []
        self.ok: list[bool] = []
        #: Which distinct request (or mutation) each row was.
        self.index: list[int] = []
        #: Open loop only: how long after its due time each request left.
        self.late: list[float] = []
        #: Transport errors (the request never produced a response).
        self.errors = 0
        self.first_failure: str | None = None

    def add(self, started: float, latency: float, size: int, ok: bool, index: int) -> None:
        self.started.append(started)
        self.latency.append(latency)
        self.size.append(size)
        self.ok.append(ok)
        self.index.append(index)

    def since(self, start: float) -> list[tuple[float, float, int, bool, int]]:
        """``(started, latency, size, ok, index)`` of the requests started at or after ``start``."""
        return [
            row
            for row in zip(self.started, self.latency, self.size, self.ok, self.index)
            if row[0] >= start
        ]

    def fail(self, reason: str) -> None:
        if self.first_failure is None:
            self.first_failure = reason


def closed_loop(address, encoded: list[bytes], stream: list[int], check, stop_at: float,
                samples: Samples, max_requests: int | None = None) -> None:
    """One closed-loop client: the next request leaves when the reply arrived.

    ``check(index, status, body) -> str | None`` names what is wrong with an
    answer (``None`` = correct).  Runs until ``stop_at`` (``perf_counter``
    time) or ``max_requests``, whichever comes first.
    """
    clock = time.perf_counter
    position = 0
    try:
        with Connection(address) as connection:
            while clock() < stop_at and (max_requests is None or position < max_requests):
                index = stream[position % len(stream)]
                position += 1
                started = clock()
                status, body = connection.request(encoded[index])
                latency = clock() - started
                problem = check(index, status, body)
                samples.add(started, latency, len(body), problem is None, index)
                if problem is not None:
                    samples.fail(problem)
    except (OSError, ValueError) as error:
        samples.errors += 1
        samples.fail(f"transport: {type(error).__name__}: {error}")


def open_loop(address, requests: list[bytes], check, rate: float, start_at: float,
              stop_at: float, samples: Samples) -> None:
    """One open-loop sender: request ``k`` is due at ``start_at + k / rate``.

    Latency is taken from the instant a request was *due*, so a stall is
    charged to every request it delays; ``samples.late`` holds how late each
    request actually left.  ``requests`` are sent in order, cyclically, and
    the loop only ever stops after a whole cycle.
    """
    clock = time.perf_counter
    sent = 0
    try:
        with Connection(address) as connection:
            while True:
                due = start_at + sent / rate
                if due >= stop_at and sent % len(requests) == 0:
                    return
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                left = clock()
                index = sent % len(requests)
                status, body = connection.request(requests[index])
                problem = check(index, status, body)
                samples.add(due, clock() - due, len(body), problem is None, index)
                samples.late.append(left - due)
                if problem is not None:
                    samples.fail(problem)
                sent += 1
    except (OSError, ValueError) as error:
        samples.errors += 1
        samples.fail(f"transport: {type(error).__name__}: {error}")


def run_threads(targets: list) -> None:
    """Run ``(function, args)`` pairs as threads and wait for all of them."""
    threads = [threading.Thread(target=function, args=args) for function, args in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
