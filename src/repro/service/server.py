"""The sweep-serving daemon: a stdlib-only asyncio HTTP/1.1 server.

``repro serve`` binds this server in front of a
:class:`~repro.service.jobs.JobManager`.  No web framework — requests
are parsed with ``asyncio`` stream primitives and answered with JSON,
which keeps the daemon importable anywhere the toolkit is (the whole
point of a stdlib-only reproduction).

Endpoints (JSON, except the Prometheus text of ``/metrics``; the wire
formats live in :mod:`repro.service.protocol`):

========  =====================  =======================================
method    path                   meaning
========  =====================  =======================================
GET       ``/healthz``           liveness: version, uptime, worker
                                 count, draining/degraded and why
GET       ``/metrics``           the metrics registry in Prometheus text
                                 exposition format 0.0.4 (any query
                                 string or ``Accept`` header is ignored)
POST      ``/sweeps``            submit a sweep; 202 + job record
GET       ``/sweeps``            list job records, oldest first
GET       ``/sweeps/<id>``       job record + journal-streamed per-cell
                                 progress
GET       ``/sweeps/<id>/result``  the finished job's sweep report;
                                 409 while queued/running
GET       ``/sweeps/<id>/trace``   merged Chrome trace of the job's
                                 spans (404 until the job has run)
DELETE    ``/sweeps/<id>``       cancel (immediate while queued,
                                 cooperative while running)
========  =====================  =======================================

Error contract: 400 malformed/invalid payloads
(:class:`~repro.service.protocol.WireError`), 404 unknown job or
route, 405 wrong method, 409 result requested before the job finished,
500 only for daemon bugs.  Every error body is
``{"error": "<message>"}``.  ``repro_request_seconds`` labels each
request with its route (``healthz``, ``metrics``, ``sweeps``); every
other path shares ``route="unmatched"``, so probes of unknown paths
cannot grow the exposition.

Connections are handled one request each (``Connection: close``) — a
submit-poll-fetch client opens a handful of sockets per sweep, and the
simplicity keeps the parser honest.  The event loop never blocks on
sweep work: jobs grind in the manager's worker threads while the loop
answers status polls.

:class:`ServiceThread` runs the daemon inside a host process (the e2e
test suite and notebook users); ``repro serve`` runs it in the
foreground.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import repro
from repro import obs
from repro.service.jobs import (
    JobManager,
    QueueFullError,
    ServiceDrainingError,
    UnknownJobError,
)
from repro.service.protocol import (
    JOB_FAILED,
    TERMINAL_STATES,
    SweepRequest,
    WireError,
    report_to_wire,
)

#: Default TCP port of ``repro serve`` (0 = ephemeral, tests).
DEFAULT_PORT = 8737

#: Largest accepted request head/body, in bytes.  A submit payload is
#: a few hundred bytes; anything near this limit is not a client.
MAX_HEAD_BYTES = 64 * 1024
MAX_BODY_BYTES = 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


#: Content type of the ``/metrics`` exposition text.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The routes ``repro_request_seconds`` labels by name.
ROUTES = frozenset({"healthz", "metrics", "sweeps"})

#: What a handler may return as its payload: a JSON object, or the
#: exposition text.
Payload = Union[Dict[str, Any], str]


@dataclass
class ServiceConfig:
    """Daemon configuration.

    Attributes:
        host: Bind address (loopback by default; this daemon has no
            auth story and must not face the open internet as-is).
        port: TCP port; 0 binds an ephemeral port (tests).
        cache_dir: Shared artifact-cache directory; also hosts the
            per-job journals and the durable job store.
        job_workers: Concurrent jobs (see :class:`JobManager`).
        cache_max_bytes: LRU size cap of the shared cache.
        max_pending: Bound on queued jobs; submits beyond it get
            HTTP 429 + ``Retry-After``.  None = unbounded.
        drain_timeout_s: On SIGTERM/SIGINT, how long in-flight jobs
            get to finish before the daemon exits anyway (their store
            records survive for the next daemon to resume).
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    cache_dir: str = ".sweep-service"
    job_workers: int = 2
    cache_max_bytes: Optional[int] = None
    max_pending: Optional[int] = None
    drain_timeout_s: float = 30.0


class SweepService:
    """The daemon: routing plus a :class:`JobManager`."""

    def __init__(self, config: ServiceConfig,
                 manager: Optional[JobManager] = None):
        self.config = config
        self.manager = manager or JobManager(
            config.cache_dir,
            job_workers=config.job_workers,
            cache_max_bytes=config.cache_max_bytes,
            max_pending=config.max_pending,
        )
        self.started_at = time.time()
        # Uptime and request latencies use the monotonic clock: a
        # wall-clock step (NTP, DST of the host) must not produce a
        # negative uptime on a long-lived daemon.
        self.started_mono = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (resolves an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (``repro serve`` foreground mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting connections (worker threads stop via
        ``manager.shutdown`` — the caller owns that, since queued jobs
        may be worth draining first)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def base_url(self) -> str:
        """The root URL clients should talk to."""
        return f"http://{self.config.host}:{self.port}"

    # -- HTTP plumbing ---------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        extra_headers: Dict[str, str] = {}
        try:
            status, payload, extra_headers = await self._respond(reader)
        except Exception as exc:  # daemon bug: surface, don't hang up
            status, payload = 500, {"error":
                                    f"{type(exc).__name__}: {exc}"}
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = PROM_CONTENT_TYPE
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        header_lines = "".join(
            f"{key}: {value}\r\n"
            for key, value in extra_headers.items()
        )
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{header_lines}"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # client hung up mid-reply; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> Tuple[int, Payload, Dict[str, str]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return 400, {"error": "malformed HTTP request head"}, {}
        if len(head) > MAX_HEAD_BYTES:
            return 400, {"error": "request head too large"}, {}
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return (400,
                    {"error": f"malformed request line: {lines[0]!r}"},
                    {})
        method, target, _version = parts
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            return 400, {"error": "bad Content-Length"}, {}
        if length < 0 or length > MAX_BODY_BYTES:
            return 400, {"error": "request body too large"}, {}
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return 400, {"error": "request body truncated"}, {}
        path = target.partition("?")[0]
        t0 = time.monotonic()
        extra: Dict[str, str] = {}
        try:
            status, payload = self._route(method.upper(), path, body)
        except WireError as exc:
            status, payload = 400, {"error": str(exc)}
        except UnknownJobError as exc:
            status, payload = 404, {"error":
                                    f"unknown job {exc.args[0]!r}"}
        except FileNotFoundError as exc:
            status, payload = 404, {"error": str(exc)}
        except ServiceDrainingError as exc:
            # Shedding load, not failing: the Retry-After header is
            # the machine-readable half of the contract.
            status, payload = 503, {"error": str(exc),
                                    "retry_after_s": exc.retry_after_s}
            extra["Retry-After"] = str(max(1, round(exc.retry_after_s)))
        except QueueFullError as exc:
            status, payload = 429, {"error": str(exc),
                                    "retry_after_s": exc.retry_after_s}
            extra["Retry-After"] = str(max(1, round(exc.retry_after_s)))
        seconds = time.monotonic() - t0
        route = next((p for p in path.split("/") if p), "")
        self.manager.registry.observe(
            "repro_request_seconds", seconds,
            route=route if route in ROUTES else "unmatched")
        return status, payload, extra

    # -- routing ---------------------------------------------------------
    def _route(self, method: str, path: str,
               body: bytes) -> Tuple[int, Payload]:
        parts = [p for p in path.split("/") if p]
        if parts == ["healthz"]:
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            return 200, self._healthz()
        if parts == ["metrics"]:
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}
            return 200, self._prom_text()
        if not parts or parts[0] != "sweeps" or len(parts) > 3:
            return 404, {"error": f"no such route: {path}"}
        if len(parts) == 1:
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return 200, {"jobs": [r.to_wire()
                                      for r in self.manager.records()]}
            return 405, {"error": "sweeps accepts POST and GET"}
        job_id = parts[1]
        if len(parts) == 3:
            if parts[2] == "result":
                if method != "GET":
                    return 405, {"error": "result is GET-only"}
                return self._result(job_id)
            if parts[2] == "trace":
                if method != "GET":
                    return 405, {"error": "trace is GET-only"}
                return 200, self.manager.trace(job_id)
            return 404, {"error": f"no such route: {path}"}
        if method == "GET":
            return self._status(job_id)
        if method == "DELETE":
            return 200, self.manager.cancel(job_id).to_wire()
        return 405, {"error": "job accepts GET and DELETE"}

    # -- handlers --------------------------------------------------------
    def _submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"request body is not JSON: {exc}") from exc
        record = self.manager.submit(SweepRequest.from_wire(data))
        return 202, record.to_wire()

    def _status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self.manager.record(job_id)
        payload = record.to_wire()
        payload["progress"] = self.manager.progress(job_id)
        return 200, payload

    def _result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self.manager.record(job_id)
        if record.state not in TERMINAL_STATES:
            return 409, {
                "error": f"job {job_id} is {record.state}; the result "
                         "exists only once the job is done",
                "state": record.state,
            }
        if record.state == JOB_FAILED:
            return 500, {"error": record.error
                         or "job failed before producing a report",
                         "state": record.state}
        report = self.manager.report(job_id)
        if report is None:  # cancelled while still queued
            return 409, {"error": f"job {job_id} was cancelled before "
                                  "it ran; no result exists",
                         "state": record.state}
        payload = report_to_wire(report)
        payload["id"] = job_id
        payload["state"] = record.state
        return 200, payload

    def _healthz(self) -> Dict[str, Any]:
        manager = self.manager
        status = ("draining" if manager.draining
                  else "degraded" if manager.degraded
                  else "ok")
        return {
            "status": status,
            "version": repro.__version__,
            "uptime_s": time.monotonic() - self.started_mono,
            "job_workers": manager.job_workers,
            "draining": manager.draining,
            "degraded": manager.degraded,
            "degraded_reason": manager.degraded_reason,
        }

    def _prom_text(self) -> str:
        """The manager's registry, gauges freshly sampled, rendered in
        Prometheus text exposition format."""
        registry = self.manager.prom_registry()
        registry.set("repro_uptime_seconds",
                     time.monotonic() - self.started_mono)
        return obs.render_registry(registry)


class ServiceThread:
    """Run a :class:`SweepService` on a background thread.

    The e2e harness (and anything embedding the daemon in a live
    process) uses this: ``start()`` returns once the socket is bound
    and the real port is known; ``stop()`` tears the loop, socket and
    worker threads down.  Usable as a context manager.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.service = SweepService(config or ServiceConfig(port=0))
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        return self.service.base_url

    def start(self) -> "ServiceThread":
        """Bind and serve; blocks until the port is live."""
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="sweep-service")
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("sweep service failed to start in 30 s")
        if self._startup_error is not None:
            raise RuntimeError(
                "sweep service failed to start"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.service.aclose())
            self._loop.close()

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Drain the embedded daemon: stop admitting (503s), wait for
        in-flight jobs, keep serving status/result polls.  Returns
        True when everything finished in time (see
        :meth:`JobManager.drain`)."""
        if timeout_s is None:
            timeout_s = self.service.config.drain_timeout_s
        return self.service.manager.drain(timeout_s)

    def stop(self) -> None:
        """Stop serving and join the loop and worker threads."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.service.manager.shutdown()

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def run_daemon(config: ServiceConfig) -> None:
    """Foreground entry point of ``repro serve``.

    Returns after a graceful shutdown: SIGTERM or SIGINT (Ctrl-C)
    puts the daemon in *drain* mode — new submissions get 503 +
    ``Retry-After``, status/result polls keep answering, in-flight
    jobs get up to ``config.drain_timeout_s`` to finish — then the
    socket closes and the worker threads stop.  Jobs that did not
    finish keep their durable store records, so the next daemon on
    this cache dir adopts and resumes them; a second signal mid-drain
    skips straight to exit.
    """
    service = SweepService(config)
    manager = service.manager

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def _on_signal(signame: str) -> None:
            if manager.draining:
                # Second signal: the operator means now.
                stop.set()
                return
            manager.begin_drain()
            print(f"{signame}: draining (new submits get 503; "
                  f"waiting up to {config.drain_timeout_s:g}s for "
                  "in-flight jobs)")
            loop.create_task(_drain_then_stop())

        async def _drain_then_stop() -> None:
            drained = await loop.run_in_executor(
                None, manager.drain, config.drain_timeout_s)
            if not drained:
                print("drain timeout: leaving unfinished jobs to the "
                      "job store (the next daemon resumes them)")
            stop.set()

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, _on_signal, signal.Signals(sig).name)
            except (NotImplementedError, RuntimeError):
                # Platforms without loop signal handlers fall back to
                # the KeyboardInterrupt path below.
                pass

        await service.start()
        print(f"repro sweep service listening on {service.base_url}")
        print(f"  cache: {config.cache_dir}"
              + (f" (cap {config.cache_max_bytes} bytes, LRU)"
                 if config.cache_max_bytes else " (unbounded)"))
        print(f"  job workers: {config.job_workers}"
              + (f", max pending: {config.max_pending}"
                 if config.max_pending is not None else ""))
        serve = asyncio.ensure_future(service.serve_forever())
        await stop.wait()
        serve.cancel()
        try:
            await serve
        except asyncio.CancelledError:
            pass
        await service.aclose()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        # No loop signal handlers on this platform: drain inline.
        manager.drain(config.drain_timeout_s)
    finally:
        manager.shutdown()
        print("sweep service stopped; job store checkpointed at "
              f"{manager.store_dir}")
