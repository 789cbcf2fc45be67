"""Locking regression tests for the JobManager's shared state.

The concurrency lint pack (CONC001) drove ``draining`` / ``degraded``
/ ``degraded_reason`` behind locked properties and pushed every
``_get`` lookup under ``self._lock``; these tests pin the observable
behaviour of those paths so a future refactor that loses the locking
also loses a test, not just a lint finding.
"""

from __future__ import annotations

import threading

import pytest

from repro.service.jobs import JobManager, UnknownJobError
from tests.conftest import prom_value, scrape


@pytest.fixture
def manager(tmp_path):
    mgr = JobManager(cache_dir=str(tmp_path), job_workers=1)
    try:
        yield mgr
    finally:
        mgr.shutdown()


def test_degraded_property_round_trip(manager):
    assert manager.degraded is False
    assert manager.degraded_reason is None
    manager._enter_degraded_mode("disk full while caching")
    assert manager.degraded is True
    assert manager.degraded_reason == "disk full while caching"
    # One-way and first-reason-wins: a second failure must not
    # clobber the original diagnosis.
    manager._enter_degraded_mode("later unrelated failure")
    assert manager.degraded_reason == "disk full while caching"


def test_draining_property_round_trip(manager):
    assert manager.draining is False
    manager.begin_drain()
    assert manager.draining is True
    manager.begin_drain()  # idempotent
    assert manager.draining is True


def test_metrics_snapshot_carries_flags(manager):
    before = scrape(manager)
    for name, value in (("repro_job_queue_depth", 0),
                        ("repro_running_jobs", 0),
                        ("repro_job_workers", 1),
                        ("repro_worker_utilization", 0),
                        ("repro_cache_hit_rate", 0),
                        ("repro_draining", 0),
                        ("repro_degraded", 0)):
        assert prom_value(before, name) == value, name
    assert manager.degraded_reason is None
    manager._enter_degraded_mode("torn cache entry")
    manager.begin_drain()
    after = scrape(manager)
    assert prom_value(after, "repro_draining") == 1
    assert prom_value(after, "repro_degraded") == 1
    assert manager.degraded_reason == "torn cache entry"


def test_unknown_job_raises_through_locked_lookups(manager):
    for call in (manager.record, manager.progress, manager.report,
                 manager.trace, manager.cancel):
        with pytest.raises(UnknownJobError):
            call("j-no-such-job")


def test_concurrent_readers_survive_flag_flips(manager):
    """Hammer the locked read paths while flags flip underneath.

    Nothing here asserts interleavings — the point is that the reads
    and writes share one lock, so no read observes a torn pair (for
    example ``degraded=True`` with ``degraded_reason=None``) and
    nothing deadlocks.
    """
    stop = threading.Event()
    failures = []

    def reader():
        while not stop.is_set():
            try:
                if prom_value(scrape(manager), "repro_degraded") == 1:
                    # The gauge is sampled under the lock that sets the
                    # flag and its reason together.
                    if manager.degraded_reason is None:
                        failures.append("degraded without a reason")
                manager.records()
                manager.retry_after_hint()
                manager.draining
                manager.degraded_reason
            except Exception as exc:  # pragma: no cover - the assert
                failures.append(repr(exc))
                return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for n in range(50):
            if n == 20:
                manager._enter_degraded_mode("mid-hammer failure")
            if n == 35:
                manager.begin_drain()
            manager.prom_registry()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
    assert not failures, failures
    assert all(not t.is_alive() for t in threads)
    assert manager.degraded and manager.draining


def test_prom_registry_reflects_flag_flips(manager):
    manager._enter_degraded_mode("boom")
    manager.begin_drain()
    text = scrape(manager)
    assert "repro_degraded 1" in text
    assert "repro_draining 1" in text
