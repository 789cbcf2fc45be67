"""Job queue and execution engine of the sweep service.

The daemon's HTTP layer is a thin skin over this module: a
:class:`JobManager` owns a FIFO queue of submitted
:class:`~repro.service.protocol.SweepRequest` jobs and a small pool of
worker *threads*.  Each worker runs one job at a time through the
existing fault-tolerant sweep engine
(:func:`repro.core.executor.run_sweeps_report`) — retries, watchdog,
crash isolation, chaos checkpoints and journalling all apply
unchanged, because the service adds queueing *around* the engine, not
a second engine.

Why threads, not asyncio tasks: a sweep is CPU-bound blocking work
that itself fans out over a ``ProcessPoolExecutor``; the asyncio loop
must stay free to answer health checks while sweeps grind.  Worker
threads spend their lives blocked in the engine, so the GIL is not
the bottleneck — the process pool under each job is.

**Shared artifact cache.**  Every job writes into one
content-addressed :class:`~repro.core.executor.ResultCache`, so
concurrent tenants deduplicate identical (circuit, tp%, config)
cells: the first job to compute a cell pays for it, later jobs hit.
Two protections make the sharing safe:

* *Coalescing* — two in-flight jobs with the same
  :meth:`~repro.service.protocol.SweepRequest.spec_key` are
  serialised (the second waits for the first, then runs against the
  warm cache), so identical concurrent submissions cost one
  computation plus N-1 cache reads instead of N computations.
* *Eviction* — the cache runs size-capped
  (``ServiceConfig.cache_max_bytes``) with LRU eviction, so a
  long-lived daemon cannot fill the disk.

Each job keeps its **own journal** (``ExecutorConfig.journal``), so
per-cell progress streams per tenant even though artifacts are
shared.  Cancellation is cooperative via
``ExecutorConfig.cancel_check``: a cancelled job stops scheduling
cells; completed cells stay cached for the next tenant.

**Durability.**  Every job-state transition is journalled to the
:class:`~repro.service.store.JobStore` under ``<cache_dir>/jobs/``
before it is visible, so the manager itself is a crash domain: a
restarted manager replays the store, re-adopts terminal jobs (reports
included, so ``/result`` survives a restart), marks jobs the crash
caught queued/running as ``interrupted`` and re-queues them.  The
re-run appends to the job's own journal, and the shared cache serves
every cell that finished before the crash, so the resumed result is
byte-identical to an uninterrupted run.

**Load shedding.**  ``max_pending`` bounds the queue
(:class:`QueueFullError` → HTTP 429), ``begin_drain`` refuses new
work while in-flight jobs finish (:class:`ServiceDrainingError` →
HTTP 503), and per-request ``deadline_s`` cancels jobs their tenant
has stopped waiting for.  A failing disk (cache write errors) flips
the manager into a read-only-cache *degraded* mode instead of
failing jobs.

**Telemetry.**  The manager owns the daemon's one metrics registry
and counts job lifecycle events into ``repro_jobs_total``; it hands
the registry to every job's executor on ``ExecutorConfig.registry``,
so the cell, stage, retry and cache counters land in the same
registry.  :meth:`JobManager.prom_registry` samples the scrape-time
gauges (queue depth, utilization, cache hit rate, degraded/draining)
under the manager's lock, and ``GET /metrics`` renders that registry
as Prometheus text — the daemon's only metrics view.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import obs
from repro.core.executor import ExecutorConfig, run_sweeps_report
from repro.core.resilience import SweepReport
from repro.jsonl import read_jsonl
from repro.service.protocol import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_INTERRUPTED,
    JOB_QUEUED,
    JOB_RUNNING,
    TERMINAL_STATES,
    JobRecord,
    SweepRequest,
    WireError,
    progress_from_journal,
    report_from_wire,
    report_to_wire,
)
from repro.service.store import JobStore

class UnknownJobError(KeyError):
    """No job with the requested id exists on this daemon."""


class ServiceDrainingError(RuntimeError):
    """The daemon is shutting down and no longer admits jobs.

    The server maps this to HTTP 503 with a ``Retry-After`` header —
    in a replicated deployment the client's retry lands on a healthy
    peer (or on this daemon's successor after restart).
    """

    def __init__(self, retry_after_s: float):
        self.retry_after_s = retry_after_s
        super().__init__(
            "daemon is draining for shutdown; retry in "
            f"~{retry_after_s:.0f}s"
        )


class QueueFullError(RuntimeError):
    """The bounded pending queue is full (admission control).

    The server maps this to HTTP 429 with a ``Retry-After`` header
    derived from recent job durations — better an honest early
    rejection than an unbounded queue whose tail latency nobody can
    meet.
    """

    def __init__(self, pending: int, max_pending: int,
                 retry_after_s: float):
        self.pending = pending
        self.max_pending = max_pending
        self.retry_after_s = retry_after_s
        super().__init__(
            f"pending queue is full ({pending}/{max_pending}); "
            f"retry in ~{retry_after_s:.0f}s"
        )


class _Job:
    """Mutable server-side job state (JobRecord is its snapshot).

    Wall-clock stamps (``*_at``) are for display and the wire;
    elapsed-time math (queue wait, run duration) always uses the
    ``*_mono`` twins — ``time.monotonic()`` cannot jump when NTP
    steps the wall clock under a long-lived daemon.  The job also
    owns a span tracer from birth, so its trace's timebase starts at
    submission and queue wait is a real span, not a negative offset.
    """

    def __init__(self, job_id: str, request: SweepRequest,
                 journal: Path, coalesced_with: Optional[str]):
        self.id = job_id
        self.request = request
        self.spec = request.spec_key()
        self.journal = journal
        self.state = JOB_QUEUED
        self.submitted_at = time.time()
        self.submitted_mono = time.monotonic()
        self.started_at: Optional[float] = None
        self.started_mono: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.finished_mono: Optional[float] = None
        self.error: Optional[str] = None
        self.coalesced_with = coalesced_with
        self.report: Optional[SweepReport] = None
        self.cancel_event = threading.Event()
        self.tracer = obs.Tracer(label=f"job {job_id}")
        self.trace_path: Optional[Path] = None
        #: Set when the job's ``deadline_s`` expired (distinguishes a
        #: deadline cancellation from a tenant's explicit one).
        self.deadline_expired = False

    def deadline_exceeded(self) -> bool:
        """True when the request's ``deadline_s`` has passed.

        Measured on the wall clock from the original submission stamp,
        so a deadline keeps meaning "since the tenant submitted" even
        across a daemon restart.
        """
        deadline = self.request.deadline_s
        return (deadline is not None
                and time.time() - self.submitted_at > deadline)

    def record(self) -> JobRecord:
        return JobRecord(
            id=self.id,
            state=self.state,
            request=self.request,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            error=self.error,
            coalesced_with=self.coalesced_with,
        )


class JobManager:
    """Asynchronous job queue over the fault-tolerant sweep engine.

    Args:
        cache_dir: Shared artifact cache directory (created on
            demand).  Journals live under ``<cache_dir>/journals/``.
        job_workers: Concurrent jobs (worker threads).  Within each
            job the request's own ``jobs`` knob governs its process
            pool.
        cache_max_bytes: LRU size cap of the shared cache (None =
            unbounded).
        build_experiment: Injection point mapping a request to an
            :class:`~repro.core.experiment.ExperimentConfig`; defaults
            to the exact resolution :func:`repro.api.sweep` uses, which
            is what makes daemon results byte-identical to in-process
            ones.
        max_pending: Admission-control bound on the number of jobs
            waiting to start; a submit beyond it raises
            :class:`QueueFullError` (HTTP 429).  None (default) keeps
            the queue unbounded.
    """

    def __init__(self, cache_dir, job_workers: int = 2,
                 cache_max_bytes: Optional[int] = None,
                 build_experiment=None,
                 max_pending: Optional[int] = None):
        self.cache_dir = Path(cache_dir)
        self.journal_dir = self.cache_dir / "journals"
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.trace_dir = self.cache_dir / "traces"
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.store_dir = self.cache_dir / "jobs"
        self.job_workers = max(1, job_workers)
        self.max_pending = max_pending
        self.registry = obs.MetricsRegistry()
        self._describe_metrics()
        self.cache_max_bytes = cache_max_bytes
        self._build_experiment = (build_experiment
                                  or _default_build_experiment)
        self._lock = threading.Lock()
        self._jobs: Dict[str, _Job] = {}  # lint: shared-under=_lock
        self._order: List[str] = []  # lint: shared-under=_lock
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue()
        self._spec_locks: Dict[str, List[Any]] = {}  # lint: shared-under=_lock
        self._running: Dict[str, _Job] = {}  # lint: shared-under=_lock
        #: Jobs a worker has dequeued but not yet finished — wider
        #: than ``_running`` (covers the spec-lock wait), so drain
        #: cannot falsely report idle mid-handoff.
        self._inflight = 0  # lint: shared-under=_lock
        self._draining = False  # lint: shared-under=_lock
        self._degraded = False  # lint: shared-under=_lock
        self._degraded_reason: Optional[str] = None  # lint: shared-under=_lock
        #: Recent job run durations, for the ``Retry-After`` hint.
        self._durations: "deque[float]" = deque(maxlen=16)  # lint: shared-under=_lock
        #: Torn-line high-water mark per job journal, so the torn
        #: counter advances by deltas across repeated status polls.
        self._journal_torn: Dict[str, int] = {}  # lint: shared-under=_lock
        # Re-adopt whatever a previous daemon left in the durable job
        # store *before* opening it for append and starting workers:
        # terminal jobs come back report-and-all, interrupted ones are
        # queued for resumption, and only then does the queue go live.
        resumable = self._recover()
        self.store = JobStore(self.store_dir)
        for job in resumable:
            self.store.record_transition(job.record())
            self._queue.put(job)
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"sweep-worker-{i}")
            for i in range(self.job_workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- crash recovery --------------------------------------------------
    def _recover(self) -> List[_Job]:
        """Replay the durable job store into live job objects.

        Terminal jobs are restored as-is (their wire reports decode
        back into servable :class:`SweepReport` objects); jobs a crash
        caught queued or running become ``interrupted`` and are
        returned for re-queueing — the shared cache serves every cell
        that already finished, and the re-run appends to the job's
        journal behind the interrupted run's events.
        """
        replay = JobStore.replay(self.store_dir)
        resumable: List[_Job] = []
        # _recover runs from __init__ before the worker threads start,
        # but the lock keeps the guarded-state contract uniform.
        with self._lock:
            for record in replay.records:
                job = _Job(record.id, record.request,
                           self.journal_dir / f"{record.id}.jsonl",
                           coalesced_with=record.coalesced_with)
                job.submitted_at = record.submitted_at
                job.started_at = record.started_at
                job.finished_at = record.finished_at
                job.error = record.error
                if record.state in TERMINAL_STATES:
                    job.state = record.state
                    report_wire = replay.reports.get(record.id)
                    if report_wire is not None:
                        try:
                            job.report = report_from_wire(report_wire)
                        except WireError:
                            # A torn report line: the job stays done,
                            # the payload is gone.  /result says so.
                            pass
                else:
                    job.state = JOB_INTERRUPTED
                    resumable.append(job)
                self._jobs[job.id] = job
                self._order.append(job.id)
        if replay.records or replay.torn_lines:
            self.registry.inc("repro_store_torn_lines_total",
                              replay.torn_lines)
            self.registry.inc("repro_jobs_total",
                              len(replay.records) - len(resumable),
                              event="recovered")
            self.registry.inc("repro_jobs_total", len(resumable),
                              event="interrupted")
        return resumable

    def _describe_metrics(self) -> None:
        """Declare the daemon's metric vocabulary up front, so the
        first ``/metrics`` scrape after boot already
        carries HELP/TYPE lines and kind conflicts fail at startup."""
        d = self.registry.describe
        d("repro_jobs_total", "counter",
          "Job lifecycle transitions by event (submitted/coalesced/"
          "completed/failed/cancelled/expired/rejected/recovered/"
          "interrupted).")
        d("repro_job_seconds", "histogram",
          "Wall seconds a job spent executing (monotonic clock).")
        d("repro_job_queue_wait_seconds", "histogram",
          "Wall seconds a job waited between submit and start.")
        d("repro_stage_seconds", "histogram",
          "Per-flow-stage wall seconds, labelled by stage and circuit.")
        d("repro_cell_seconds", "histogram",
          "End-to-end wall seconds per sweep cell.")
        d("repro_cells_total", "counter",
          "Sweep cells finished, by circuit and outcome "
          "(ok/failed/cached; failed includes cells an abort kept "
          "from running).")
        d("repro_task_retries_total", "counter",
          "Cell attempts that failed and were retried.")
        d("repro_task_timeouts_total", "counter",
          "Cells killed by the watchdog timeout.")
        d("repro_worker_crashes_total", "counter",
          "Process-pool worker crashes observed by the scheduler.")
        d("repro_cache_events_total", "counter",
          "Artifact cache events (hit/miss/corrupt/evict).")
        d("repro_job_queue_depth", "gauge",
          "Jobs waiting in the daemon queue (sampled at scrape).")
        d("repro_running_jobs", "gauge",
          "Jobs currently executing (sampled at scrape).")
        d("repro_job_workers", "gauge",
          "Configured concurrent job worker threads.")
        d("repro_worker_utilization", "gauge",
          "running_jobs / job_workers (sampled at scrape).")
        d("repro_cache_hit_rate", "gauge",
          "cache_hits / (hits + misses) over the daemon lifetime.")
        d("repro_uptime_seconds", "gauge",
          "Daemon uptime on the monotonic clock.")
        d("repro_request_seconds", "histogram",
          "HTTP request handling latency by route.")
        d("repro_journal_torn_lines_total", "counter",
          "Torn sweep-journal lines skipped by the progress reader "
          "(crash damage or corruption).")
        d("repro_store_torn_lines_total", "counter",
          "Torn job-store lines skipped during restart replay.")
        d("repro_cache_write_failures_total", "counter",
          "Artifact-cache writes that failed with an OS error.")
        d("repro_degraded", "gauge",
          "1 when the daemon runs with a read-only cache after a "
          "cache write failure, else 0.")
        d("repro_draining", "gauge",
          "1 while the daemon refuses new submissions pending "
          "shutdown, else 0.")

    # -- submission ------------------------------------------------------
    def _validate(self, request: SweepRequest) -> None:
        from repro.api import CIRCUITS, _unknown_circuit_error

        if request.circuit not in CIRCUITS:
            raise WireError(str(_unknown_circuit_error(request.circuit)))
        plan = request.chaos
        if plan is not None and request.jobs <= 1 and any(
                spec.kind in ("kill", "hang") for spec in plan.faults):
            raise WireError(
                "kill/hang chaos faults need jobs > 1: with jobs=1 the "
                "cell runs inline in the daemon's worker thread, so a "
                "kill would take the daemon down and a hang has no "
                "watchdog to rescue it"
            )

    def retry_after_hint(self) -> float:
        """Seconds a rejected client should wait before retrying.

        One recently observed job duration of headroom: with an empty
        history a conservative 5 s.  Clamped to [1 s, 120 s] so the
        hint is always sane to sleep on.
        """
        with self._lock:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> float:  # lint: holds=_lock
        durations = list(self._durations)
        estimate = (sum(durations) / len(durations) if durations
                    else 5.0)
        return min(120.0, max(1.0, estimate))

    def submit(self, request: SweepRequest) -> JobRecord:
        """Accept a sweep job; returns its queued record.

        Raises:
            WireError: The request is invalid (unknown circuit,
                unsafe chaos plan) — the server answers HTTP 400.
            ServiceDrainingError: The daemon is shutting down —
                HTTP 503 + ``Retry-After``.
            QueueFullError: ``max_pending`` jobs are already waiting —
                HTTP 429 + ``Retry-After``.
        """
        self._validate(request)
        job_id = f"j{uuid.uuid4().hex[:12]}"
        journal = self.journal_dir / f"{job_id}.jsonl"
        with self._lock:
            if self._draining:
                self.registry.inc("repro_jobs_total", 1,
                                  event="rejected")
                raise ServiceDrainingError(self._retry_after_locked())
            pending = self._queue.qsize()
            if self.max_pending is not None \
                    and pending >= self.max_pending:
                self.registry.inc("repro_jobs_total", 1,
                                  event="rejected")
                raise QueueFullError(pending, self.max_pending,
                                     self._retry_after_locked())
            spec = request.spec_key()
            twin = next(
                (j for jid in self._order
                 for j in [self._jobs[jid]]
                 if j.spec == spec and j.state not in TERMINAL_STATES),
                None,
            )
            job = _Job(job_id, request, journal,
                       coalesced_with=twin.id if twin else None)
            self._jobs[job_id] = job
            self._order.append(job_id)
            self.store.record_transition(job.record())
        self.registry.inc("repro_jobs_total", 1, event="submitted")
        if job.coalesced_with:
            self.registry.inc("repro_jobs_total", 1, event="coalesced")
        self._queue.put(job)
        return job.record()

    # -- lookup ----------------------------------------------------------
    def _get(self, job_id: str) -> _Job:  # lint: holds=_lock
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def record(self, job_id: str) -> JobRecord:
        """Current lifecycle snapshot of one job."""
        with self._lock:
            return self._get(job_id).record()

    def records(self) -> List[JobRecord]:
        """All jobs, oldest first."""
        with self._lock:
            return [self._jobs[jid].record() for jid in self._order]

    def progress(self, job_id: str) -> Dict[str, Any]:
        """Per-cell progress of one job, streamed from its journal.

        Safe against torn/partial journal frames by construction (the
        journal reader skips and counts bad lines): a cell whose
        completion frame has not landed reads as still in progress,
        and the torn count is surfaced in the payload and the
        ``repro_journal_torn_lines_total`` counter rather than hidden.
        """
        with self._lock:
            job = self._get(job_id)
        events, torn = read_jsonl(job.journal)
        if torn:
            with self._lock:
                delta = torn - self._journal_torn.get(job_id, 0)
                if delta > 0:
                    self._journal_torn[job_id] = torn
                else:
                    delta = 0
            if delta > 0:
                self.registry.inc("repro_journal_torn_lines_total",
                                  delta)
        return progress_from_journal(events, torn_lines=torn)

    def report(self, job_id: str) -> Optional[SweepReport]:
        """The finished job's sweep report, or None while running."""
        with self._lock:
            return self._get(job_id).report

    # -- cancellation ----------------------------------------------------
    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: immediate while queued, cooperative while
        running (no new cells start; in-flight cells finish into the
        shared cache), a no-op once terminal."""
        with self._lock:
            job = self._get(job_id)
            if job.state in (JOB_QUEUED, JOB_INTERRUPTED):
                job.cancel_event.set()
                job.state = JOB_CANCELLED
                job.finished_at = time.time()
                job.finished_mono = time.monotonic()
                self.registry.inc("repro_jobs_total", 1,
                                  event="cancelled")
                self.store.record_transition(job.record())
            elif job.state == JOB_RUNNING:
                job.cancel_event.set()
            return job.record()
        # The worker notices the event via ExecutorConfig.cancel_check
        # and finalises the running job as cancelled itself.

    # -- execution -------------------------------------------------------
    def _acquire_spec(self, spec: str) -> List[Any]:
        with self._lock:
            entry = self._spec_locks.get(spec)
            if entry is None:
                entry = self._spec_locks[spec] = [threading.Lock(), 0]
            entry[1] += 1
        entry[0].acquire()
        return entry

    def _release_spec(self, spec: str, entry: List[Any]) -> None:
        entry[0].release()
        with self._lock:
            entry[1] -= 1
            if entry[1] <= 0:
                self._spec_locks.pop(spec, None)

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                self._inflight += 1
            try:
                if job.cancel_event.is_set():
                    # Cancelled while queued; already finalised.
                    continue
                # Coalescing: identical specs run one at a time, so
                # the second tenant's job finds every cell warm in
                # the cache.
                entry = self._acquire_spec(job.spec)
                try:
                    self._run_job(job)
                finally:
                    self._release_spec(job.spec, entry)
            finally:
                with self._lock:
                    self._inflight -= 1

    def _cancel_check(self, job: _Job):
        """Cooperative stop condition for the executor: a tenant's
        explicit cancel *or* the job's deadline expiring mid-run."""
        def check() -> bool:
            if job.cancel_event.is_set():
                return True
            if job.deadline_exceeded():
                job.deadline_expired = True
                job.cancel_event.set()
                return True
            return False
        return check

    def _executor_config(self, job: _Job) -> ExecutorConfig:
        request = job.request
        return ExecutorConfig(
            jobs=request.jobs,
            cache_dir=str(self.cache_dir),
            cache_max_bytes=self.cache_max_bytes,
            retries=request.retries,
            task_timeout_s=request.task_timeout_s,
            chaos=request.chaos,
            journal=str(job.journal),
            cancel_check=self._cancel_check(job),
            trace=request.trace,
            cache_read_only=self.degraded,
            registry=self.registry,
        )

    def _run_job(self, job: _Job) -> None:
        with self._lock:
            if job.cancel_event.is_set():
                if job.state != JOB_CANCELLED:
                    job.state = JOB_CANCELLED
                    job.finished_at = time.time()
                    job.finished_mono = time.monotonic()
                    self.registry.inc("repro_jobs_total", 1,
                                      event="cancelled")
                    self.store.record_transition(job.record())
                return
            if job.deadline_exceeded():
                # The tenant's deadline passed while the job queued:
                # starting it now would burn CPU nobody is waiting on.
                job.deadline_expired = True
                job.cancel_event.set()
                job.state = JOB_CANCELLED
                job.error = (
                    f"deadline_s={job.request.deadline_s:g} expired "
                    "before the job started")
                job.finished_at = time.time()
                job.finished_mono = time.monotonic()
                # Counted like a mid-run expiry: expired *and* cancelled.
                for event in ("expired", "cancelled"):
                    self.registry.inc("repro_jobs_total", 1, event=event)
                self.store.record_transition(job.record())
                return
            job.state = JOB_RUNNING
            job.started_at = time.time()
            job.started_mono = time.monotonic()
            self._running[job.id] = job
            self.store.record_transition(job.record())
        queue_wait = job.started_mono - job.submitted_mono
        self.registry.observe("repro_job_queue_wait_seconds", queue_wait)
        run_from = job.tracer.now()
        job.tracer.record_span("queue_wait", 0.0, run_from)
        try:
            experiment = self._build_experiment(job.request)
            report = run_sweeps_report([experiment],
                                       self._executor_config(job))
        except Exception as exc:  # engine crash, not a cell hole
            with self._lock:
                self._running.pop(job.id, None)
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = JOB_FAILED
                job.finished_at = time.time()
                job.finished_mono = time.monotonic()
                self.store.record_transition(job.record())
            self.registry.inc("repro_jobs_total", 1, event="failed")
            self._finish_trace(job, None, run_from)
            return
        with self._lock:
            self._running.pop(job.id, None)
            job.report = report
            job.finished_at = time.time()
            job.finished_mono = time.monotonic()
            if report.cancelled or job.cancel_event.is_set():
                job.state = JOB_CANCELLED
                if job.deadline_expired:
                    job.error = (
                        f"deadline_s={job.request.deadline_s:g} "
                        "expired mid-run; the job was cancelled")
                    self.registry.inc("repro_jobs_total", 1,
                                      event="expired")
            else:
                job.state = JOB_DONE
            self._durations.append(
                job.finished_mono - job.started_mono)
            self.store.record_transition(
                job.record(),
                report=(report_to_wire(report)
                        if job.state == JOB_DONE else None))
        if report.cache_write_failures:
            # The executor already counted each failed write; the
            # job only flips the daemon into degraded mode.
            self._enter_degraded_mode(
                f"cache write failed during job {job.id} "
                f"({report.cache_write_failures} failure(s))")
        self.registry.inc(
            "repro_jobs_total", 1,
            event=("cancelled" if job.state == JOB_CANCELLED
                   else "completed"))
        self.registry.observe("repro_job_seconds",
                              job.finished_mono - job.started_mono)
        self._finish_trace(job, report, run_from)

    def _enter_degraded_mode(self, reason: str) -> None:
        """Flip the manager into read-only-cache degraded mode.

        The disk failed a write, so every subsequent job runs with
        ``cache_read_only=True``: existing artifacts keep serving,
        nothing new is trusted to the disk, and nothing fails — the
        contract is "slower, not broken", surfaced via ``/healthz``
        and the ``repro_degraded`` gauge so an operator actually sees
        it.  One-way by design: only a restart (with a fixed disk)
        clears it.
        """
        with self._lock:
            if self._degraded:
                return
            self._degraded = True
            self._degraded_reason = reason
        self.registry.set("repro_degraded", 1)

    @property
    def degraded(self) -> bool:
        """True once a cache write failure flipped the daemon into
        read-only-cache mode (see :meth:`_enter_degraded_mode`)."""
        with self._lock:
            return self._degraded

    @property
    def degraded_reason(self) -> Optional[str]:
        """Why the daemon degraded, or None while healthy."""
        with self._lock:
            return self._degraded_reason

    # -- drain -----------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` was called."""
        with self._lock:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new jobs (idempotent).

        Submissions from here on raise :class:`ServiceDrainingError`
        (HTTP 503 + ``Retry-After``); queued and running jobs are
        unaffected — :meth:`drain` waits for them.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        self.registry.set("repro_draining", 1)

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Wait for in-flight and queued jobs to finish.

        Returns True when the queue emptied and every running job
        reached a terminal state within ``timeout_s``; False when the
        timeout expired first (the jobs keep their durable store
        records either way, so a restart re-adopts whatever did not
        finish).
        """
        self.begin_drain()
        deadline = time.monotonic() + max(0.0, timeout_s)
        while True:
            with self._lock:
                idle = self._inflight == 0
            if idle and self._queue.qsize() == 0:
                return True
            if time.monotonic() >= deadline:
                with self._lock:
                    return (self._inflight == 0
                            and self._queue.qsize() == 0)
            time.sleep(0.05)

    def _finish_trace(self, job: _Job, report: Optional[SweepReport],
                      run_from: float) -> None:
        """Close the job's span tree and write its Chrome trace.

        The trace always holds the job-level spans (queue_wait +
        run); with ``request.trace`` set it also carries every cell's
        worker-side flow trace, stitched across processes by
        :func:`repro.obs.write_chrome_trace` once, at job end, into
        ``<cache_dir>/traces/<job_id>.trace.json``.  Best-effort: a
        full disk must not fail the job itself.
        """
        job.tracer.record_span("run", run_from, job.tracer.now())
        traces = [job.tracer.trace()]
        if report is not None:
            for result in report.results.values():
                traces.extend(summary.trace
                              for summary in result.runs.values())
        path = self.trace_dir / f"{job.id}.trace.json"
        try:
            obs.write_chrome_trace(path, traces)
        except OSError:
            return
        job.trace_path = path

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The Chrome trace object the job wrote at its end.

        Raises KeyError (via :class:`UnknownJobError`) for unknown
        jobs and FileNotFoundError while the job has not yet written
        its trace file — the server maps both to 404.
        """
        with self._lock:
            job = self._get(job_id)
            trace_path = job.trace_path
            state = job.state
        if trace_path is None:
            raise FileNotFoundError(
                f"job {job_id} has no trace yet (state {state})")
        with open(trace_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # -- observability ---------------------------------------------------
    def prom_registry(self) -> obs.MetricsRegistry:
        """The live registry with scrape-time gauges refreshed.

        Counters and histograms accumulate as jobs run; the queue,
        utilization, cache-hit-rate and mode gauges are snapshots, so
        they are (re)sampled here — at scrape time, from the manager's
        own state under its lock — exactly like a Prometheus collector
        would.
        """
        cache = self.registry.get("repro_cache_events_total")
        events = {dict(key).get("event"): inst.value
                  for key, inst in cache.series.items()}
        hits, misses = events.get("hit", 0.0), events.get("miss", 0.0)
        with self._lock:
            running = len(self._running)
            gauges = {
                "repro_job_queue_depth": self._queue.qsize(),
                "repro_running_jobs": running,
                "repro_job_workers": self.job_workers,
                "repro_worker_utilization": running / self.job_workers,
                "repro_cache_hit_rate": (hits / (hits + misses)
                                         if hits + misses else 0.0),
                "repro_degraded": 1 if self._degraded else 0,
                "repro_draining": 1 if self._draining else 0,
            }
            for name, value in gauges.items():
                self.registry.set(name, value)
        return self.registry

    # -- shutdown --------------------------------------------------------
    def shutdown(self, timeout_s: float = 5.0) -> None:
        """Stop the worker threads (idempotent).

        Queued jobs stay queued after this — but their durable store
        records survive, so the next daemon on this cache dir adopts
        and resumes them.  The daemon calls this only on its way down
        (after :meth:`drain` when shutting down gracefully).
        """
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self.store.close()


def _default_build_experiment(request: SweepRequest):
    """Resolve a request exactly as :func:`repro.api.sweep` would.

    Deliberately routes through the api module's own resolution helper
    so registry defaults, option coercion and did-you-mean rejection
    are *the same code path* — the foundation of the "daemon results
    are byte-identical to ``api.sweep``" guarantee.
    """
    from repro.api import _build_experiment

    return _build_experiment(
        request.circuit,
        None,
        None,
        request.scale,
        request.tp_percents,
        request.name,
        dict(request.options),
    )
