"""HTTP client for the sweep service.

:class:`ServiceClient` is the only piece of code (besides the daemon)
that touches sockets — the CLI subcommands and the e2e tests all route
through it.  One ``http.client.HTTPConnection`` per request, matching
the server's ``Connection: close`` discipline; no sessions, no
keep-alive, no dependencies.

The headline API is :meth:`ServiceClient.sweep`: it mirrors the
contract of :func:`repro.api.sweep` — submit, wait, fetch, raise
:class:`~repro.core.executor.SweepExecutionError` if any cell stayed
failed, return the circuit's :class:`~repro.core.experiment.ExperimentResult`
— which is what makes the daemon and the in-process API verifiably
interchangeable (the service test suite asserts their canonical result
bytes are equal).

The transport retries transient failures with the engine's own
deterministic backoff (:class:`~repro.core.resilience.RetryPolicy`):
connection refused/reset (a daemon mid-restart), plus HTTP 429 and
503 — the load-shedding answers — honoring the server's
``Retry-After`` hint.  A 400/404/409/500 never retries: those mean
the *request* (or the job) is wrong, and repeating it cannot help.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import urlsplit

from repro.core.executor import SweepExecutionError
from repro.core.experiment import ExperimentResult
from repro.core.resilience import RetryPolicy, SweepReport
from repro.service.protocol import (
    JOB_CANCELLED,
    JOB_FAILED,
    TERMINAL_STATES,
    JobRecord,
    SweepRequest,
    report_from_wire,
)

#: HTTP statuses worth an automatic retry: the daemon (or a proxy in
#: front of it) is shedding load or briefly gone, not rejecting the
#: request itself.
RETRYABLE_STATUSES = frozenset({429, 502, 503, 504})


#: A decoded response body: a JSON object, or the text of a
#: ``text/*`` response (the ``/metrics`` exposition).
Payload = Union[Dict[str, Any], str]


class ServiceError(RuntimeError):
    """The daemon answered with an error (HTTP status >= 400).

    Attributes:
        status: The HTTP status code (0 when the connection itself
            failed before a status arrived).
        payload: The decoded JSON error body (``{"error": ...}``; a
            text body arrives as ``{"error": <text>}``).
        retry_after_s: The server's ``Retry-After`` hint in seconds,
            when the response carried one (429/503), else None.
    """

    def __init__(self, status: int, payload: Payload,
                 context: str,
                 retry_after_s: Optional[float] = None):
        if isinstance(payload, str):
            payload = {"error": payload}
        self.status = status
        self.payload = payload
        self.retry_after_s = retry_after_s
        detail = payload.get("error", payload)
        if status == 0:
            message = f"{context}: {detail}"
        else:
            message = f"{context}: HTTP {status}: {detail}"
        super().__init__(message)


def _connection_error(method: str, url: str,
                      exc: BaseException) -> ServiceError:
    """Wrap a raw socket/OS error into a readable :class:`ServiceError`.

    The raw ``ConnectionRefusedError`` a CLI user hits when the daemon
    is down says ``[Errno 111] Connection refused`` and nothing else;
    this names the exception type, the URL that was attempted, and the
    likely fix, with the original exception chained as the cause.
    """
    detail = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, ConnectionRefusedError):
        detail += " — is the daemon running? (start one: repro serve)"
    elif isinstance(exc, (socket.timeout, TimeoutError)):
        detail += " — the daemon did not answer in time"
    error = ServiceError(0, {"error": detail}, f"{method} {url}")
    error.__cause__ = exc
    return error


class ServiceClient:
    """Talk to a running sweep daemon.

    Args:
        base_url: Root URL, e.g. ``http://127.0.0.1:8737``.
        timeout_s: Per-request socket timeout.
        retries: Transport retries per request (connection failures
            and retryable statuses).  0 disables retrying.
        backoff_base_s: First-retry backoff; doubles per further
            retry, deterministically (no jitter — same schedule every
            run, like the sweep engine's own policy).
        backoff_max_s: Backoff ceiling; also caps how long a server
            ``Retry-After`` hint is honored, so a busy daemon cannot
            park a client for minutes.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0,
                 retries: int = 3, backoff_base_s: float = 0.2,
                 backoff_max_s: float = 5.0):
        parts = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"base_url must look like http://host:port, got "
                f"{base_url!r}"
            )
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout_s = timeout_s
        self.retry_policy = RetryPolicy(
            max_retries=max(0, retries),
            backoff_base_s=backoff_base_s,
            backoff_max_s=backoff_max_s,
        )

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- raw transport ---------------------------------------------------
    def _retry_delay(self, attempt: int,
                     retry_after_s: Optional[float]) -> float:
        """Backoff before retry ``attempt``: the policy's
        deterministic schedule, raised to the server's ``Retry-After``
        hint when one arrived (but never beyond the backoff
        ceiling)."""
        delay = self.retry_policy.delay_s(attempt)
        if retry_after_s is not None:
            delay = max(delay, min(retry_after_s,
                                   self.retry_policy.backoff_max_s))
        return delay

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 ) -> Tuple[int, Payload]:
        """One logical request, with transparent transport retries.

        Retrying a submit is safe by construction: if the first
        attempt was actually accepted and only the response was lost,
        the retry coalesces onto the in-flight twin via its
        ``spec_key`` and shares the same computation.
        """
        attempt = 0
        while True:
            retry_after: Optional[float] = None
            try:
                status, payload, retry_after = self._request_once(
                    method, path, body)
            except ServiceError as exc:
                if (exc.status != 0
                        or attempt >= self.retry_policy.max_retries):
                    raise
            else:
                if (status not in RETRYABLE_STATUSES
                        or attempt >= self.retry_policy.max_retries):
                    if status in RETRYABLE_STATUSES:
                        # Out of retries: surface the hint to callers.
                        raise ServiceError(status, payload,
                                           f"{method} {path}",
                                           retry_after_s=retry_after)
                    return status, payload
            attempt += 1
            time.sleep(self._retry_delay(attempt, retry_after))

    def _request_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None,
                      ) -> Tuple[int, Payload, Optional[float]]:
        """One HTTP exchange: ``(status, payload, Retry-After hint)``.

        A ``text/*`` body comes back as text; any other body must be
        JSON.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            payload = (json.dumps(body).encode("utf-8")
                       if body is not None else None)
            headers = {"Content-Type": "application/json",
                       "Connection": "close"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            retry_after: Optional[float] = None
            raw_hint = response.getheader("Retry-After")
            if raw_hint is not None:
                try:
                    retry_after = float(raw_hint)
                except ValueError:
                    pass
            try:
                text = raw.decode("utf-8")
                content_type = response.getheader("Content-Type", "")
                decoded = (text if content_type.startswith("text/")
                           else json.loads(text) if text else {})
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServiceError(
                    response.status,
                    {"error": f"non-JSON response body: {exc}"},
                    f"{method} {path}",
                )
            return response.status, decoded, retry_after
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise _connection_error(method, f"{self.base_url}{path}",
                                    exc)
        finally:
            conn.close()

    def _expect(self, method: str, path: str,
                ok: Tuple[int, ...] = (200,),
                body: Optional[Dict[str, Any]] = None,
                ) -> Payload:
        status, payload = self._request(method, path, body)
        if status not in ok:
            raise ServiceError(status, payload, f"{method} {path}")
        return payload

    # -- endpoints -------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """Daemon liveness payload (version, uptime, workers)."""
        return self._expect("GET", "/healthz")

    def metrics_prom(self) -> str:
        """The metrics registry as Prometheus exposition text."""
        return self._expect("GET", "/metrics")

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The Chrome trace the job wrote at its end: the job's own
        spans, plus every cell's flow trace when it ran traced.

        Raises:
            ServiceError: 404 until the job has run (a queued job has
                not written its trace file yet).
        """
        return self._expect("GET", f"/sweeps/{job_id}/trace")

    def submit(self, request: SweepRequest) -> JobRecord:
        """Submit a sweep; returns the queued job's record."""
        payload = self._expect("POST", "/sweeps", ok=(202,),
                               body=request.to_wire())
        return JobRecord.from_wire(payload)

    def jobs(self) -> List[JobRecord]:
        """All jobs the daemon knows, oldest first."""
        payload = self._expect("GET", "/sweeps")
        return [JobRecord.from_wire(r) for r in payload.get("jobs", ())]

    def status(self, job_id: str) -> Dict[str, Any]:
        """Job record plus journal-streamed per-cell progress."""
        return self._expect("GET", f"/sweeps/{job_id}")

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job (immediate while queued, cooperative while
        running)."""
        payload = self._expect("DELETE", f"/sweeps/{job_id}")
        return JobRecord.from_wire(payload)

    def result(self, job_id: str) -> SweepReport:
        """Fetch a finished job's sweep report.

        Raises:
            ServiceError: 409 while the job is still queued/running
                (or was cancelled before producing anything), 500 when
                the job failed at the engine level.
        """
        payload = self._expect("GET", f"/sweeps/{job_id}/result")
        payload.pop("id", None)
        payload.pop("state", None)
        return report_from_wire(payload)

    def wait(self, job_id: str, timeout_s: float = 600.0,
             poll_s: float = 0.2) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state.

        Returns the final status payload (record + progress).

        Raises:
            TimeoutError: Still running after ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            payload = self.status(job_id)
            if payload.get("state") in TERMINAL_STATES:
                return payload
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload.get('state')!r} "
                    f"after {timeout_s:g} s"
                )
            time.sleep(poll_s)

    # -- api.sweep parity ------------------------------------------------
    def sweep(self, circuit: str, *, scale: float = 0.05,
              tp_percents: Optional[Tuple[float, ...]] = None,
              options: Optional[Dict[str, Any]] = None,
              jobs: int = 1, retries: int = 2,
              task_timeout_s: Optional[float] = None,
              name: Optional[str] = None,
              trace: bool = False,
              timeout_s: float = 600.0,
              poll_s: float = 0.2) -> ExperimentResult:
        """Run a sweep on the daemon with ``api.sweep`` semantics.

        Submits, waits, fetches, and applies the same failure
        contract: any cell that stayed failed raises
        :class:`SweepExecutionError`; otherwise the circuit's
        :class:`ExperimentResult` comes back, table builders intact.
        """
        record = self.submit(SweepRequest(
            circuit=circuit, scale=scale, tp_percents=tp_percents,
            options=dict(options or {}), jobs=jobs, retries=retries,
            task_timeout_s=task_timeout_s, name=name, trace=trace,
        ))
        final = self.wait(record.id, timeout_s=timeout_s, poll_s=poll_s)
        state = final.get("state")
        if state == JOB_FAILED:
            raise ServiceError(500, {"error": final.get("error")},
                               f"job {record.id}")
        if state == JOB_CANCELLED:
            raise ServiceError(409, {"error": "job was cancelled"},
                               f"job {record.id}")
        report = self.result(record.id)
        if report.failures:
            raise SweepExecutionError([
                (f.name, f.tp_percent,
                 f.exception or RuntimeError(f.error_message))
                for f in report.failures
            ])
        key = name if name is not None else circuit
        return report.results[key]
