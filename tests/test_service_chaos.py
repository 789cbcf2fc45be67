"""Chaos soak: the sweep daemon under scripted faults.

The daemon boots for real (ephemeral port) and jobs carry
:class:`repro.chaos.FaultPlan` scripts — worker kills, hangs, torn
cache writes — on their requests (``SweepRequest.chaos``, the one way
a plan reaches a daemon job), exactly as a soak rig would run it.
The properties under test:

* the queue always drains (every job reaches a terminal state, no
  wedged workers);
* permanently failed cells surface as structured failures in the
  job's report and in ``/metrics`` — never as a dead daemon;
* jobs sharing the daemon with a chaos victim are unaffected;
* a torn cache write is quarantined and recomputed on resubmission;
* kill/hang plans that would take the daemon itself down (``jobs=1``
  runs the cell inline in the worker thread) are rejected at submit.

Scale and ATPG knobs are the reduced chaos-suite ones — full flow
semantics, seconds not minutes.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    SweepRequest,
)
from tests.conftest import prom_value

#: Cheap-but-real ATPG settings, matching tests/test_chaos.py.
ATPG = {"seed": 7, "backtrack_limit": 24, "max_deterministic": 60,
        "abort_recovery_blocks": 4, "second_chance_factor": 1}
SCALE = 0.008
OPTIONS = {"atpg": ATPG}


@pytest.fixture()
def daemon(tmp_path):
    with ServiceThread(ServiceConfig(port=0,
                                     cache_dir=str(tmp_path / "svc"),
                                     job_workers=2)) as thread:
        yield thread


@pytest.fixture()
def client(daemon):
    return ServiceClient(daemon.base_url, timeout_s=10.0)


def request(tp_percents, chaos=None, jobs=2, retries=0, **kwargs):
    return SweepRequest(circuit="s38417", scale=SCALE,
                        tp_percents=tp_percents, options=OPTIONS,
                        jobs=jobs, retries=retries, chaos=chaos,
                        **kwargs)


def kill_plan(tp_percent, times=-1):
    return FaultPlan(faults=(
        FaultSpec(kind="kill", circuit="s38417", tp_percent=tp_percent,
                  stage="tpi_scan", times=times),
    ))


# ----------------------------------------------------------------------
# Kill faults: structured holes, healthy neighbours, drained queue
# ----------------------------------------------------------------------
def test_persistent_kill_degrades_job_but_not_daemon(client):
    """A permanently crashing cell becomes a report hole; the healthy
    job sharing the daemon, and the daemon itself, sail through."""
    victim = client.submit(request((0.0, 1.0, 2.0),
                                   chaos=kill_plan(1.0)))
    healthy = client.submit(request((0.5, 1.5), chaos=None))

    final_victim = client.wait(victim.id, timeout_s=300)
    final_healthy = client.wait(healthy.id, timeout_s=300)

    # The chaos job finished (terminal, not wedged) and carries its
    # failure as data: a structured hole, not a dead daemon.
    assert final_victim["state"] == "done"
    report = client.result(victim.id)
    (failure,) = report.failures
    assert failure.error_type == "WorkerCrashError"
    assert (failure.name, failure.tp_percent) == ("s38417", 1.0)
    assert report.worker_crashes >= 1
    assert len(report.results["s38417"].runs) == 2  # bystander cells

    # The innocent neighbour is untouched.
    assert final_healthy["state"] == "done"
    assert not client.result(healthy.id).failures

    # The queue drained and the daemon still answers.
    metrics = client.metrics_prom()
    assert prom_value(metrics, "repro_job_queue_depth") == 0
    assert prom_value(metrics, "repro_running_jobs") == 0
    assert prom_value(metrics, "repro_cells_total", outcome="failed") >= 1
    assert prom_value(metrics, "repro_worker_crashes_total") >= 1
    assert client.healthz()["status"] == "ok"


def test_transient_kill_recovers_via_retry(client):
    record = client.submit(request((0.0, 1.0),
                                   chaos=kill_plan(1.0, times=1),
                                   retries=1))
    final = client.wait(record.id, timeout_s=300)
    assert final["state"] == "done"
    report = client.result(record.id)
    assert not report.failures
    assert report.worker_crashes >= 1
    assert len(report.results["s38417"].runs) == 2
    assert prom_value(client.metrics_prom(),
                      "repro_task_retries_total") >= 1


# ----------------------------------------------------------------------
# Hang fault: the watchdog rescues the worker
# ----------------------------------------------------------------------
def test_hung_worker_is_timed_out_and_retried(client):
    plan = FaultPlan(faults=(
        FaultSpec(kind="hang", circuit="s38417", tp_percent=1.0,
                  stage="tpi_scan", times=1, seconds=60.0),
    ))
    record = client.submit(request((0.0, 1.0), chaos=plan, retries=1,
                                   task_timeout_s=2.0))
    final = client.wait(record.id, timeout_s=300)
    assert final["state"] == "done"
    report = client.result(record.id)
    assert not report.failures
    assert report.timeouts >= 1
    assert prom_value(client.metrics_prom(),
                      "repro_task_timeouts_total") >= 1


# ----------------------------------------------------------------------
# Torn cache writes: quarantine + recompute on resubmission
# ----------------------------------------------------------------------
def test_corrupt_cache_entry_recomputed_on_resubmission(client):
    plan = FaultPlan(faults=(
        FaultSpec(kind="corrupt_cache", circuit="s38417",
                  tp_percent=1.0),
    ))
    first = client.submit(request((0.0, 1.0), chaos=plan, jobs=1))
    assert client.wait(first.id, timeout_s=300)["state"] == "done"
    assert not client.result(first.id).failures  # corruption is
    # post-write: the first run itself is healthy.

    # Same sweep, no chaos: the torn entry must be quarantined and
    # recomputed, the clean one served from the shared cache.
    second = client.submit(request((0.0, 1.0), chaos=None, jobs=1))
    assert client.wait(second.id, timeout_s=300)["state"] == "done"
    report = client.result(second.id)
    assert not report.failures
    runs = report.results["s38417"].runs
    assert runs[0.0].from_cache
    assert not runs[1.0].from_cache
    assert prom_value(client.metrics_prom(), "repro_cache_events_total",
                      event="hit") >= 1


# ----------------------------------------------------------------------
# Daemon-safety guard for inline kill/hang plans
# ----------------------------------------------------------------------
def test_inline_kill_plan_is_rejected_at_submit(client):
    with pytest.raises(ServiceError) as err:
        client.submit(request((0.0,), chaos=kill_plan(0.0), jobs=1))
    assert err.value.status == 400
    assert "jobs > 1" in str(err.value)

