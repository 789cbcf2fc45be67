"""Sweep-serving daemon: an async job queue over HTTP with a shared
artifact cache.

``repro serve`` turns the fault-tolerant sweep engine into a small
multi-tenant service: tenants POST sweep specs, poll journal-backed
progress, and fetch results that are byte-identical to what
:func:`repro.api.sweep` computes in-process.  Identical concurrent
submissions coalesce onto one computation through the shared
content-addressed :class:`~repro.core.executor.ResultCache`, which
runs size-capped with LRU eviction so the daemon can live forever.

Layering (each module only looks down):

* :mod:`repro.service.protocol` — versioned JSON wire codecs, the
  canonical-result digest, journal-to-progress folding.
* :mod:`repro.service.store` — the durable job store: a fsync'd
  append-only JSONL journal of job-state transitions that lets a
  restarted daemon re-adopt finished jobs and resume interrupted ones.
* :mod:`repro.service.jobs` — the queue: worker threads, coalescing,
  cooperative cancellation, admission control, graceful drain,
  crash recovery, metrics counters.
* :mod:`repro.service.server` — stdlib asyncio HTTP daemon and the
  in-process :class:`~repro.service.server.ServiceThread` harness.
* :mod:`repro.service.client` — the HTTP client the CLI and tests
  use; its ``result`` returns the same
  :class:`~repro.core.resilience.SweepReport` that
  ``api.sweep_report`` returns in process.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (
    JobManager,
    QueueFullError,
    ServiceDrainingError,
    UnknownJobError,
)
from repro.service.protocol import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_INTERRUPTED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_STATES,
    PROTOCOL_VERSION,
    TERMINAL_STATES,
    JobRecord,
    SweepRequest,
    WireError,
    canonical_result_bytes,
    report_from_wire,
    report_to_wire,
)
from repro.service.server import (
    DEFAULT_PORT,
    ServiceConfig,
    ServiceThread,
    SweepService,
    run_daemon,
)
from repro.service.store import JobStore, StoreReplay

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JOB_INTERRUPTED",
    "JOB_STATES",
    "TERMINAL_STATES",
    "SweepRequest",
    "JobRecord",
    "WireError",
    "JobStore",
    "StoreReplay",
    "JobManager",
    "UnknownJobError",
    "QueueFullError",
    "ServiceDrainingError",
    "ServiceConfig",
    "SweepService",
    "ServiceThread",
    "run_daemon",
    "ServiceClient",
    "ServiceError",
    "canonical_result_bytes",
    "report_to_wire",
    "report_from_wire",
]
