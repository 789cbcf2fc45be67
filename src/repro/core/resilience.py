"""Fault-tolerance primitives for the sweep engine.

The paper's experiment is a 3-circuit x 6-TP-percentage sweep through a
long multi-stage layout flow; a production campaign cannot afford to
lose a whole Table 1/2/3 run because one (circuit, tp%) cell crashed,
hung, or hit a torn cache entry.  This module holds the pieces the
executor composes into a survivable sweep:

* **Retry classification** — :func:`is_retryable` splits exceptions
  into *retryable* (worker crashes, broken pools, transient I/O,
  timeouts) and *fatal* (config/validation errors, plain bugs).  Only
  retryable failures consume retry budget; fatal ones surface
  immediately, because re-running a deterministic bug just burns CPU.
* **Deterministic backoff** — :class:`RetryPolicy` computes the same
  exponential delay sequence on every run; no randomised jitter, so a
  scripted chaos test replays byte-identically.
* **Structured failure records** — a failed cell becomes a
  :class:`TaskFailure` (circuit, tp%, attempts, exception chain), not
  a lost sweep: the :class:`SweepReport` carries the successful
  :class:`~repro.core.executor.FlowSummary` cells *and* the failures,
  so tables render with explicit holes instead of aborting.
* **Crash-safe journal** — :class:`SweepJournal` appends one JSON line
  per task event (fsync'd), so a killed process leaves a readable
  record; a re-run on the same cache directory serves the finished
  cells from the cache and appends its own record behind it.

Everything here is stdlib-only and picklable where it crosses a
process or cache boundary.
"""

from __future__ import annotations

import pickle
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.jsonl import JsonlLog, read_jsonl


# ----------------------------------------------------------------------
# Exception taxonomy
# ----------------------------------------------------------------------
class TaskTimeoutError(RuntimeError):
    """A sweep task exceeded the watchdog's per-task timeout.

    Raised *about* a task by the parent (the hung worker cannot raise
    anything — it is killed), and classified retryable: a hang is
    usually load- or scheduler-induced, and a fresh attempt on a fresh
    pool frequently succeeds.
    """

    retryable = True


class WorkerCrashError(RuntimeError):
    """A worker process died (killed, OOM, hard crash) mid-task.

    Synthesised by the executor when a solo-run task breaks the pool,
    which identifies it as the crash culprit beyond doubt.
    """

    retryable = True


#: Exception types that are worth a retry: infrastructure failures
#: (dead workers, torn pipes, transient filesystem trouble), never
#: logic errors.
RETRYABLE_TYPES: Tuple[type, ...] = (
    BrokenProcessPool,
    TaskTimeoutError,
    WorkerCrashError,
    ConnectionError,
    EOFError,
    OSError,  # includes IOError; transient cache/journal I/O
    TimeoutError,
    pickle.UnpicklingError,
)

#: Exception types that are definitely deterministic caller/config
#: errors; retrying cannot help.  Checked *before* RETRYABLE_TYPES so a
#: subclass relationship can never promote a config error to retryable.
FATAL_TYPES: Tuple[type, ...] = (
    AssertionError,
    AttributeError,
    KeyError,
    TypeError,
    ValueError,
)


def is_retryable(exc: BaseException) -> bool:
    """Classify an exception: True when a retry might succeed.

    An explicit boolean ``retryable`` attribute on the exception (or
    its class) always wins — chaos-injected faults and the timeout /
    crash markers use it.  Otherwise fatal types (config, validation,
    plain bugs) lose to the blessed retryable set, and anything
    unrecognised is fatal: retrying an unknown failure hides bugs.
    """
    marked = getattr(exc, "retryable", None)
    if isinstance(marked, bool):
        return marked
    if isinstance(exc, FATAL_TYPES):
        return False
    return isinstance(exc, RETRYABLE_TYPES)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff without jitter.

    Attributes:
        max_retries: Retries *after* the first attempt (0 disables
            retrying; a task runs at most ``max_retries + 1`` times).
        backoff_base_s: Delay before the first retry.
        backoff_factor: Multiplier applied per further retry.
        backoff_max_s: Delay ceiling.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0

    def delay_s(self, attempt: int) -> float:
        """Backoff before ``attempt`` (1-based retry number)."""
        if attempt <= 0:
            return 0.0
        delay = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        return min(delay, self.backoff_max_s)


# ----------------------------------------------------------------------
# Structured failure records
# ----------------------------------------------------------------------
def exception_chain(exc: BaseException) -> Tuple[str, ...]:
    """``"Type: message"`` lines for ``exc`` and its cause/context chain.

    Bounded (no cycles, max depth 8) and string-only, so the chain is
    picklable and JSON-friendly for the journal.
    """
    lines: List[str] = []
    seen: Set[int] = set()
    node: Optional[BaseException] = exc
    while node is not None and id(node) not in seen and len(lines) < 8:
        seen.add(id(node))
        lines.append(f"{type(node).__name__}: {node}")
        node = node.__cause__ or node.__context__
    return tuple(lines)


@dataclass(frozen=True)
class TaskFailure:
    """One sweep cell that stayed failed after every retry.

    Attributes:
        name: Circuit (experiment) name of the cell.
        tp_percent: TP level of the cell.
        attempts: Times the task actually ran (0 when the sweep was
            aborted before the cell started, e.g. under fail-fast).
        error_type: Class name of the final exception.
        error_message: ``str()`` of the final exception.
        chain: ``"Type: message"`` lines down the cause/context chain.
        cache_key: Content-hash key of the cell (resume handle).
        retryable: Whether the final exception classified retryable
            (True means the retry budget ran out, not that the error
            was hopeless).
        exception: The final exception object, for programmatic use in
            the same process.  Excluded from equality and repr; the
            journal and any serialised form carry the string fields.
    """

    name: str
    tp_percent: float
    attempts: int
    error_type: str
    error_message: str
    chain: Tuple[str, ...] = ()
    cache_key: str = ""
    retryable: bool = False
    exception: Optional[BaseException] = field(
        default=None, compare=False, repr=False
    )

    @property
    def label(self) -> str:
        """Display label, e.g. ``s38417@2%``."""
        return f"{self.name}@{self.tp_percent:g}%"

    @classmethod
    def from_exception(cls, name: str, tp_percent: float, attempts: int,
                       exc: BaseException,
                       cache_key: str = "") -> "TaskFailure":
        """Build a failure record from the final exception."""
        return cls(
            name=name,
            tp_percent=tp_percent,
            attempts=attempts,
            error_type=type(exc).__name__,
            error_message=str(exc),
            chain=exception_chain(exc),
            cache_key=cache_key,
            retryable=is_retryable(exc),
            exception=exc,
        )


@dataclass
class SweepReport:
    """Outcome of a fault-tolerant sweep: results plus explicit holes.

    Attributes:
        results: Per-circuit results; a circuit's ``runs`` holds only
            the cells that succeeded, so Table 1/2/3 builders render
            rows for exactly those (the holes are visible, the sweep
            is not lost).
        failures: One :class:`TaskFailure` per permanently failed
            cell, sorted by (name, tp_percent).
        retries: Total retry attempts the sweep scheduled.
        timeouts: Tasks the watchdog timed out (attempt-level count).
        worker_crashes: Pool breakages attributed to dying workers.
        journal_path: The sweep journal written (None when journalling
            was off).
        cache_hits: Cells served from the result cache without
            recomputation (0 when caching was off).
        cache_misses: Cache lookups that fell through to a flow run.
        cache_evictions: Entries the size-capped cache evicted while
            this sweep wrote results.
        cancelled: True when the sweep's ``cancel_check`` fired and
            unstarted cells were abandoned (they appear in
            ``failures`` as ``SweepCancelled``).
        cache_write_failures: Cache ``put`` calls that failed with an
            OS error (disk full, permission loss).  The results
            themselves survive — a failed artifact write degrades the
            *cache*, never the sweep — but a non-zero count tells a
            long-lived service to stop trusting its disk (see the
            daemon's read-only degraded mode).
        started_at / finished_at: Wall-clock stamps (``time.time()``)
            of the sweep's boundaries, for humans and cross-machine
            correlation.  0.0 on reports from older pickles.
        started_mono / finished_mono: The same boundaries on the
            monotonic clock (``time.monotonic()``), so
            :attr:`duration_s` and trace alignment are immune to NTP
            steps.  Timestamps never enter cache keys — a cached cell
            is identified purely by its content hash.
    """

    results: Dict[str, Any] = field(default_factory=dict)
    failures: Tuple[TaskFailure, ...] = ()
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    journal_path: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cancelled: bool = False
    cache_write_failures: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    started_mono: float = 0.0
    finished_mono: float = 0.0

    @property
    def duration_s(self) -> float:
        """Sweep wall time from the monotonic stamps (never negative)."""
        return max(0.0, self.finished_mono - self.started_mono)

    @property
    def ok(self) -> bool:
        """True when every cell succeeded."""
        return not self.failures

    def successful_cells(self) -> int:
        """Count of (circuit, tp%) cells that produced a summary."""
        return sum(len(r.runs) for r in self.results.values())

    def failed_cells(self) -> Tuple[Tuple[str, float], ...]:
        """The (name, tp_percent) coordinates of every hole."""
        return tuple((f.name, f.tp_percent) for f in self.failures)


# ----------------------------------------------------------------------
# Crash-safe sweep journal
# ----------------------------------------------------------------------
class SweepJournal(JsonlLog):
    """Append-only JSONL record of a sweep's task lifecycle.

    One JSON object per line, written through
    :class:`~repro.jsonl.JsonlLog` (fsync'd per event, torn tail
    isolated on reopen), so a killed process leaves at worst one torn
    trailing line (which :func:`read_journal` skips).  Every run
    against one journal appends one ``sweep_start`` … ``sweep_end``
    block; a reader that wants one run starts at its ``sweep_start``.
    Events carry the cell's content-hash ``key`` — the same key the
    result cache uses — so the blocks of a killed sweep and its re-run
    line up cell by cell.

    Event vocabulary (the ``event`` field):

    ``sweep_start``
        Task plan: cells with their keys, plus executor knobs.
    ``task_start`` / ``task_done`` / ``task_failed``
        One attempt's lifecycle; ``task_failed`` carries the exception
        chain and whether a retry was scheduled.
    ``task_exhausted``
        The cell is permanently failed (budget spent or fatal error).
    ``task_cached``
        A cell served from the result cache: finished before a crash,
        by an earlier run (warm cache), or by another tenant of a
        shared service cache.
    ``task_aborted``
        The cell never ran: the sweep aborted (fail-fast) or was
        cancelled before scheduling it.
    ``sweep_end``
        Final tally.
    """

    def record(self, event: str, **data: Any) -> None:
        """Append one event line; durable before return.

        Every event carries both clocks: ``ts`` (wall, for humans and
        cross-machine correlation) and ``ts_mono`` (monotonic, so
        readers computing latencies or ordering merged worker traces
        are immune to NTP steps).
        """
        self.append({"event": event, "ts": time.time(),
                     "ts_mono": time.monotonic(), **data})


def read_journal(path) -> List[Dict[str, Any]]:
    """A journal file's events; torn lines (crash damage) are skipped.

    A missing file reads as an empty list.  Callers that need the torn
    count use :func:`repro.jsonl.read_jsonl` directly.
    """
    return read_jsonl(path)[0]


def format_exception_for_journal(exc: BaseException) -> Dict[str, Any]:
    """JSON-ready digest of an exception for a journal event."""
    return {
        "error_type": type(exc).__name__,
        "error_message": str(exc),
        "chain": list(exception_chain(exc)),
        "retryable": is_retryable(exc),
        "traceback": "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip(),
    }
