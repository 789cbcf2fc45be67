"""Structured JSONL event log with correlated context binding.

Third telemetry pillar: where the tracer records *durations* and the
metrics registry records *distributions*, this module records *what
happened* — discrete, leveled events (``task_retry``, ``stage_done``,
``request_handled``) as one JSON object per line, each stamped with a
wall clock (for humans), a monotonic clock (for ordering and latency
math immune to NTP steps) and a per-process sequence number (for
deterministic test assertions when events land in the same clock
tick).

Correlation keys (``run_id``, ``job_id``, ``cell``) are attached with
:func:`bind` — a re-entrant context manager that layers fields onto
every event emitted inside its scope, so flow stages deep in
``run_flow`` carry the sweep's ``run_id`` without threading it
through every signature::

    with obs.bind(run_id=run_id, cell="s38417@2%"):
        obs.emit("task_start", "info", attempt=1)

Design constraints match the tracer and registry:

* **Free when off.**  The process-wide default is
  :data:`NULL_EVENT_LOG`; :func:`emit` on the null log is a single
  no-op method call — no dict built, no clock read, no allocation.
  :func:`bind` on the null log is a shared no-op context manager.
* **Crash-safe enough.**  Sinks flush per event but do **not**
  fsync — this is telemetry, not the sweep journal
  (:class:`~repro.core.resilience.SweepJournal` keeps the
  durability contract for resume).
* **Deterministic.**  Keys are emitted sorted, ``seq`` increases by
  one per event, and a single lock orders concurrent emitters, so a
  captured log is directly assertable.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.jsonl import read_jsonl

LEVELS = ("debug", "info", "warn", "error")
_LEVEL_RANK = {name: i for i, name in enumerate(LEVELS)}


class _NullBindScope:
    """Shared no-op context manager returned by the null log's bind."""

    __slots__ = ()

    def __enter__(self) -> "_NullBindScope":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_BIND = _NullBindScope()


class _BindScope:
    """Layers ``fields`` onto the log's context for the ``with`` body."""

    __slots__ = ("_log", "_fields", "_saved")

    def __init__(self, log: "EventLog", fields: Dict[str, Any]):
        self._log = log
        self._fields = fields
        self._saved: Optional[Dict[str, Any]] = None

    def __enter__(self) -> "_BindScope":
        self._saved = self._log._context
        merged = dict(self._saved)
        merged.update(self._fields)
        self._log._context = merged
        return self

    def __exit__(self, *exc) -> None:
        self._log._context = self._saved


class EventLog:
    """Leveled JSONL event sink with bound-context correlation.

    Args:
        path: File to append JSONL events to (opened lazily, line
            buffered).  ``"stderr"`` writes to the process stderr.
        stream: An explicit text stream (takes precedence over
            ``path``); used by tests and the daemon's request log.
        level: Minimum level recorded (``debug`` < ``info`` < ``warn``
            < ``error``).  Events below it are dropped at emit time.
        memory: Keep every recorded event in :attr:`events` — handy
            for in-process assertions without a temp file.
    """

    enabled = True

    def __init__(self, path: Optional[str] = None,
                 stream: Optional[io.TextIOBase] = None,
                 level: str = "info", memory: bool = False):
        if level not in _LEVEL_RANK:
            raise ValueError(f"unknown level {level!r}; use one of {LEVELS}")
        self.path = path
        self.level = level
        self._min_rank = _LEVEL_RANK[level]
        self._stream = stream
        self._owns_stream = False
        self._memory = memory
        self.events: List[Dict[str, Any]] = []
        self._seq = 0
        self._lock = threading.Lock()
        # Context is swapped wholesale by _BindScope (copy-on-bind), so
        # emit never mutates it — and it lives in a threading.local so
        # the daemon's concurrent job workers cannot see (or restore)
        # each other's job_id bindings.
        self._local = threading.local()
        self._context: Dict[str, Any] = {}

    @property
    def _context(self) -> Dict[str, Any]:
        return getattr(self._local, "context", {})

    @_context.setter
    def _context(self, value: Dict[str, Any]) -> None:
        self._local.context = value

    # -- binding ---------------------------------------------------------
    def bind(self, **fields: Any) -> _BindScope:
        """Attach ``fields`` to every event emitted in the ``with`` body."""
        return _BindScope(self, fields)

    # -- emission --------------------------------------------------------
    def _ensure_stream(self) -> io.TextIOBase:
        if self._stream is None:
            if self.path == "stderr":
                self._stream = sys.stderr
            elif self.path:
                self._stream = open(self.path, "a", encoding="utf-8")
                self._owns_stream = True
        return self._stream

    def emit(self, event: str, level: str = "info", **fields: Any) -> None:
        """Record one event (dropped silently when below the log level)."""
        rank = _LEVEL_RANK.get(level)
        if rank is None:
            raise ValueError(f"unknown level {level!r}; use one of {LEVELS}")
        if rank < self._min_rank:
            return
        with self._lock:
            self._seq += 1
            record: Dict[str, Any] = {
                "seq": self._seq,
                "ts": time.time(),
                "ts_mono": time.monotonic(),
                "level": level,
                "event": event,
            }
            record.update(self._context)
            record.update(fields)
            if self._memory:
                self.events.append(record)
            stream = self._ensure_stream()
            if stream is not None:
                stream.write(
                    json.dumps(record, sort_keys=True, default=str) + "\n")
                stream.flush()

    def close(self) -> None:
        """Close a file sink this log opened (no-op otherwise)."""
        with self._lock:
            if self._owns_stream and self._stream is not None:
                self._stream.close()
                self._stream = None
                self._owns_stream = False


class NullEventLog:
    """Inactive event log: emit and bind are cheap no-ops."""

    enabled = False
    events: List[Dict[str, Any]] = []

    def bind(self, **fields: Any) -> _NullBindScope:
        return _NULL_BIND

    def emit(self, event: str, level: str = "info", **fields: Any) -> None:
        pass

    def close(self) -> None:
        pass


NULL_EVENT_LOG = NullEventLog()

#: The process-wide active event log; NULL_EVENT_LOG unless installed.
_current = NULL_EVENT_LOG


def get_event_log():
    """The active event log (shared :data:`NULL_EVENT_LOG` when off)."""
    return _current


def events_active() -> bool:
    """True when a real event log is installed."""
    return _current.enabled


def install_event_log(log):
    """Install ``log`` process-wide; returns the previous one."""
    global _current
    previous = _current
    _current = log
    return previous


def install_events_from_env(environ=None):
    """Install an :class:`EventLog` if ``REPRO_EVENTS`` is set.

    ``REPRO_EVENTS=stderr`` logs to stderr; any other value is an
    append-mode file path.  ``REPRO_EVENTS_LEVEL`` (default ``info``)
    sets the threshold.  Returns the installed log or ``None`` — the
    CLI calls this once at startup so any ``repro ...`` invocation can
    be traced from the environment without new flags.
    """
    import os
    env = os.environ if environ is None else environ
    target = env.get("REPRO_EVENTS")
    if not target:
        return None
    log = EventLog(path=target, level=env.get("REPRO_EVENTS_LEVEL", "info"))
    install_event_log(log)
    return log


def bind(**fields: Any):
    """Bind correlation fields on the active log (no-op scope when off)."""
    return _current.bind(**fields)


def emit(event: str, level: str = "info", **fields: Any) -> None:
    """Emit an event on the active log (single no-op call when off)."""
    _current.emit(event, level, **fields)


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL event file, skipping torn/partial lines."""
    return read_jsonl(path)[0]
