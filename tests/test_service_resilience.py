"""Load shedding, graceful drain, deadlines, degraded mode, client
retries, and the daemon-kill soak.

These are the operational halves of the durable-service contract:

* **Drain** — a daemon told to shut down finishes what it started:
  new submits get 503 + ``Retry-After``, status polls keep answering,
  in-flight jobs complete, and the durable store holds their final
  transitions.
* **Admission** — a bounded queue rejects early with 429 +
  ``Retry-After`` instead of accepting work it cannot finish.
* **Deadlines** — a request-level ``deadline_s`` cancels jobs nobody
  is waiting for, queued or mid-run.
* **Degraded mode** — a cache write failure flips the daemon to a
  read-only cache; jobs keep succeeding, ``/healthz`` says degraded.
* **Client resilience** — the HTTP client retries connection refusal
  and 429/503 with deterministic backoff, honoring ``Retry-After``,
  and wraps raw socket errors into readable, actionable messages.
* **The soak** — ``kill -9`` a real ``repro serve`` process mid-job,
  restart it on the same cache dir, and require the recovered job's
  result to be byte-identical to an in-process ``api.sweep``.
"""

from __future__ import annotations

import http.server
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.service import (
    JobStore,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    SweepRequest,
)
from repro.service.protocol import canonical_result_bytes
from tests.conftest import prom_value

#: Cheap ATPG knobs, matching tests/test_service.py.
ATPG = {"seed": 7, "backtrack_limit": 24, "max_deterministic": 60,
        "abort_recovery_blocks": 4, "second_chance_factor": 1}
SCALE = 0.012
OPTIONS = {"atpg": ATPG}


def submit(client, tp_percents, **overrides):
    return client.submit(SweepRequest(
        circuit="s38417", scale=SCALE, tp_percents=tp_percents,
        options=OPTIONS, **overrides))


def wait_state(client, job_id, state, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        payload = client.status(job_id)
        if payload["state"] == state:
            return payload
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} never reached {state!r}")


# ----------------------------------------------------------------------
# Graceful drain (what SIGTERM triggers in run_daemon)
# ----------------------------------------------------------------------
def test_drain_finishes_inflight_and_sheds_submits(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0,
                               retries=0)
        inflight = submit(client, (0.1, 1.1))
        wait_state(client, inflight.id, "running")

        # First half of the SIGTERM handler: stop admitting.
        thread.service.manager.begin_drain()

        health = client.healthz()
        assert health["status"] == "draining"
        assert health["draining"] is True

        # New submissions are shed with the machine-readable retry
        # contract; nothing of the rejected job is recorded.
        with pytest.raises(ServiceError) as err:
            submit(client, (2.1,))
        assert err.value.status == 503
        assert err.value.retry_after_s is not None
        assert err.value.retry_after_s >= 1
        assert err.value.payload["retry_after_s"] >= 1.0

        # Status polls keep answering while the daemon drains.
        assert client.status(inflight.id)["state"] in ("running",
                                                       "done")

        # Second half of the handler: wait out the in-flight job.
        assert thread.drain(timeout_s=240.0) is True
        assert client.status(inflight.id)["state"] == "done"
        assert client.result(inflight.id) is not None
        assert prom_value(client.metrics_prom(), "repro_jobs_total",
                          event="rejected") >= 1

    # Zero lost jobs: the store's final word on every admitted job is
    # terminal, and the rejected submit never entered it.
    replay = JobStore.replay(Path(tmp_path) / "jobs")
    assert [r.id for r in replay.records] == [inflight.id]
    assert replay.records[0].state == "done"
    assert inflight.id in replay.reports


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_bounded_queue_rejects_with_429_and_retry_after(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1, max_pending=1)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0,
                               retries=0)
        blocker = submit(client, (0.2, 1.2))
        wait_state(client, blocker.id, "running")  # queue now empty
        queued = submit(client, (2.2,))            # fills the bound

        with pytest.raises(ServiceError) as err:
            submit(client, (3.2,))
        assert err.value.status == 429
        assert err.value.retry_after_s is not None
        assert err.value.retry_after_s >= 1
        assert "full" in str(err.value)

        # The 429 on the second queued job is max_pending=1 at work.
        assert prom_value(client.metrics_prom(), "repro_jobs_total",
                          event="rejected") >= 1

        client.cancel(queued.id)
        client.wait(blocker.id, timeout_s=240)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_deadline_expired_while_queued_cancels_without_running(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0)
        blocker = submit(client, (0.3, 1.3))
        wait_state(client, blocker.id, "running")
        doomed = submit(client, (2.3,), deadline_s=0.05)

        final = client.wait(doomed.id, timeout_s=240)
        assert final["state"] == "cancelled"
        assert "expired before the job started" in final["error"]
        # It never ran: no journal events, no result.
        assert final["progress"]["total"] == 0
        metrics = client.metrics_prom()
        assert prom_value(metrics, "repro_jobs_total",
                          event="expired") >= 1
        # Expiry is a cancellation, queued or mid-run alike.
        assert prom_value(metrics, "repro_jobs_total",
                          event="cancelled") >= 1
        client.wait(blocker.id, timeout_s=240)


def test_deadline_expiring_mid_run_cancels_cooperatively(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0)
        record = submit(client, (0.4, 1.4, 2.4, 3.4), deadline_s=0.2)
        final = client.wait(record.id, timeout_s=240)
        assert final["state"] == "cancelled"
        assert "expired mid-run" in final["error"]
        progress = final["progress"]
        assert progress["done"] < progress["total"]


# ----------------------------------------------------------------------
# Degraded mode: cache write failures flip to read-only, never fail jobs
# ----------------------------------------------------------------------
def test_cache_write_failure_degrades_but_jobs_succeed(tmp_path):
    from repro.chaos import FaultPlan, FaultSpec

    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0)
        plan = FaultPlan(faults=(FaultSpec(kind="cache_write_error"),))
        record = submit(client, (0.5,), chaos=plan)
        final = client.wait(record.id, timeout_s=240)
        assert final["state"] == "done"          # degraded, not broken

        report = client.result(record.id)
        assert report.cache_write_failures >= 1

        health = client.healthz()
        assert health["status"] == "degraded"
        assert health["degraded"] is True
        assert record.id in health["degraded_reason"]

        prom = client.metrics_prom()
        assert "repro_degraded 1" in prom
        # The counter counts failed writes, not degraded-mode entries.
        assert (f"repro_cache_write_failures_total "
                f"{report.cache_write_failures}") in prom
        # ... once: the event counter does not count it a second time.
        assert 'event="write_failed"' not in prom

        # The daemon keeps serving jobs on its read-only cache.
        after = submit(client, (1.5,))
        assert client.wait(after.id, timeout_s=240)["state"] == "done"


# ----------------------------------------------------------------------
# Client resilience
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_connection_refused_is_wrapped_readably():
    client = ServiceClient(f"http://127.0.0.1:{_free_port()}",
                           timeout_s=2.0, retries=0)
    with pytest.raises(ServiceError) as err:
        client.healthz()
    assert err.value.status == 0
    message = str(err.value)
    assert "ConnectionRefusedError" in message
    assert "/healthz" in message
    assert "is the daemon running" in message
    assert isinstance(err.value.__cause__, ConnectionRefusedError)


class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Answers 429 (with Retry-After) until ``fail_first`` requests
    have been shed, then 200."""

    calls = 0
    fail_first = 2

    def do_GET(self):
        cls = type(self)
        cls.calls += 1
        if cls.calls <= cls.fail_first:
            body = json.dumps({"error": "busy"}).encode()
            self.send_response(429)
            self.send_header("Retry-After", "0")
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        body = json.dumps({"status": "ok"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture
def flaky_server():
    _FlakyHandler.calls = 0
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                             _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join(timeout=5)


def test_client_retries_429_until_success(flaky_server):
    client = ServiceClient(flaky_server, timeout_s=5.0, retries=3,
                           backoff_base_s=0.01)
    assert client.healthz()["status"] == "ok"
    assert _FlakyHandler.calls == 3  # two sheds + the success


def test_client_surfaces_429_after_retries_run_out(flaky_server):
    _FlakyHandler.fail_first = 10 ** 6
    try:
        client = ServiceClient(flaky_server, timeout_s=5.0, retries=2,
                               backoff_base_s=0.01)
        with pytest.raises(ServiceError) as err:
            client.healthz()
        assert err.value.status == 429
        assert err.value.retry_after_s == 0.0   # the server's hint
        assert _FlakyHandler.calls == 3         # initial + 2 retries
    finally:
        _FlakyHandler.fail_first = 2


def test_client_retry_schedule_is_deterministic():
    client = ServiceClient("http://127.0.0.1:1", retries=3,
                           backoff_base_s=0.2, backoff_max_s=5.0)
    delays = [client._retry_delay(n, None) for n in (1, 2, 3)]
    assert delays == [0.2, 0.4, 0.8]
    # Retry-After raises the floor but never beats the ceiling.
    assert client._retry_delay(1, 2.0) == 2.0
    assert client._retry_delay(1, 60.0) == 5.0
    assert client._retry_delay(3, 0.1) == 0.8


# ----------------------------------------------------------------------
# The daemon-kill soak: kill -9 mid-job, restart, byte-identity
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent
SOAK_LEVELS = (0.6, 1.6)


def _spawn_daemon(cache_dir: Path) -> "tuple[subprocess.Popen, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(cache_dir), "--job-workers", "1",
         "--drain-timeout", "60"],
        cwd=str(REPO_ROOT), env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 60.0
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            return proc, match.group(1)
    proc.kill()
    raise RuntimeError("daemon never announced its port:\n"
                       + "".join(lines))


def _drain_pipe(proc):
    """Keep the daemon's stdout pipe from filling (and collect it)."""
    chunks = []

    def reader():
        for line in proc.stdout:
            chunks.append(line)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    return chunks, thread


@pytest.mark.slow
def test_daemon_kill9_restart_soak(tmp_path):
    cache_dir = tmp_path / "soak-cache"

    # Boot #1: submit, wait until mid-job, kill -9.
    proc, url = _spawn_daemon(cache_dir)
    out1, _ = _drain_pipe(proc)
    try:
        client = ServiceClient(url, timeout_s=10.0)
        record = submit(client, SOAK_LEVELS, jobs=1)
        deadline = time.monotonic() + 240.0
        while time.monotonic() < deadline:
            payload = client.status(record.id)
            if payload["state"] == "running":
                break
            time.sleep(0.05)
        else:
            raise TimeoutError("job never started before the kill")
    finally:
        proc.kill()                      # SIGKILL: no cleanup at all
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL

    # Boot #2 on the same cache dir: the job must come back and
    # finish; 'interrupted' is non-terminal so wait() rides through.
    proc2, url2 = _spawn_daemon(cache_dir)
    out2, out2_thread = _drain_pipe(proc2)
    try:
        client2 = ServiceClient(url2, timeout_s=10.0)
        assert record.id in [r.id for r in client2.jobs()]
        metrics = client2.metrics_prom()
        assert (prom_value(metrics, "repro_jobs_total", event="interrupted")
                + prom_value(metrics, "repro_jobs_total",
                             event="recovered")) >= 1

        final = client2.wait(record.id, timeout_s=240)
        assert final["state"] == "done"
        report = client2.result(record.id)
        served = report.results["s38417"]

        local = api.sweep("s38417", scale=SCALE,
                          tp_percents=SOAK_LEVELS, **OPTIONS)
        assert (canonical_result_bytes(served)
                == canonical_result_bytes(local))

        # Graceful exit this time: SIGTERM drains and checkpoints.
        proc2.send_signal(signal.SIGTERM)
        proc2.wait(timeout=120)
    finally:
        if proc2.poll() is None:
            proc2.kill()
            proc2.wait(timeout=30)
        out2_thread.join(timeout=10)
    assert proc2.returncode == 0
    assert any("job store checkpointed" in line for line in out2)

    # The durable store's last word on the job is done-with-report.
    replay = JobStore.replay(cache_dir / "jobs")
    states = {r.id: r.state for r in replay.records}
    assert states[record.id] == "done"
    assert record.id in replay.reports
