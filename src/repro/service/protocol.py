"""Wire protocol of the sweep service: versioned JSON codecs.

Everything that crosses the daemon's HTTP boundary is encoded here and
nowhere else — the server, the client and the CLI all speak through
these functions, so the two sides cannot drift apart.  Three groups:

* **Requests** — :class:`SweepRequest` is the submit payload: a
  registered circuit name plus the same knobs :func:`repro.api.sweep`
  takes.  Its :meth:`~SweepRequest.spec_key` is a content hash of the
  canonical encoding; the job manager uses it to coalesce identical
  submissions onto one computation (tenants sharing the artifact
  cache).
* **Results** — :func:`summary_to_wire` / :func:`report_to_wire` (and
  their ``from_wire`` inverses) carry
  :class:`~repro.core.executor.FlowSummary` cells and whole
  :class:`~repro.core.resilience.SweepReport` objects as plain JSON.
  Traces never cross the wire (a span tree is a debugging artifact,
  not a result); everything else round-trips losslessly.
* **Canonical digests** — :func:`canonical_result_bytes` reduces a
  sweep result to its *deterministic* content (Table 1/2/3 quantities;
  no timings, PIDs or cache provenance) as sorted-key JSON bytes.  Two
  results are interchangeable iff their canonical bytes are equal —
  the contract the service's "byte-identical to ``api.sweep``" test
  enforces.  It deliberately reads results through the duck-typed
  accessor surface (``test_metrics()`` / ``area_metrics()`` / ``sta``)
  so a full in-process :class:`~repro.core.flow.FlowResult` and a
  wire-reconstructed :class:`FlowSummary` digest identically.

Progress reporting decodes the PR-4 sweep journal:
:func:`progress_from_journal` folds journal events into per-cell
states.  The journal reader tolerates torn trailing frames (a crashed
or mid-write journal), so a truncated frame surfaces as a cell still
in progress — never as a decode crash.

Decoding is strict: unknown keys and malformed payloads raise
:class:`WireError`, which the server maps to HTTP 400.  ``version``
mismatches raise too — fail loudly, not with silently misread fields.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.chaos import FaultPlan
from repro.core.executor import (
    FlowSummary,
    PathSummary,
    StaSummary,
    summarize,
)
from repro.core.experiment import ExperimentResult
from repro.core.metrics import TestDataMetrics
from repro.core.resilience import SweepReport, TaskFailure

#: Bump on any incompatible change to the wire encodings below.
PROTOCOL_VERSION = 1

#: Job lifecycle states, in the order a healthy job visits them.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
#: A daemon death caught this job queued or running; the restarted
#: daemon re-queues it (the shared cache serves its finished cells),
#: so ``interrupted`` is *not* terminal — it is "queued, with history".
JOB_INTERRUPTED = "interrupted"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED,
              JOB_CANCELLED, JOB_INTERRUPTED)
#: States a job never leaves.
TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})

#: Per-cell progress states derived from journal events.
CELL_STATES = ("pending", "running", "done", "failed", "aborted")


class WireError(ValueError):
    """A payload failed to decode; the server answers HTTP 400."""


def _pct_key(pct: Any) -> str:
    """JSON object key for a TP level.  ``repr(float)`` round-trips
    every float exactly (``%g`` would truncate to 6 significant
    digits), and normalising through ``float()`` first makes an int
    level (``2``) and its float twin (``2.0``) key identically."""
    return repr(float(pct))


def _is_number(value: Any) -> bool:
    """True for a JSON number (``true``/``false`` are not numbers)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WireError(message)


def _reject_unknown(data: Mapping[str, Any], known: Sequence[str],
                    what: str) -> None:
    unknown = sorted(set(data) - set(known))
    _require(not unknown,
             f"unknown {what} key(s): {', '.join(unknown)}; "
             f"expected a subset of {', '.join(sorted(known))}")


def _check_version(data: Mapping[str, Any], what: str) -> None:
    version = data.get("version", PROTOCOL_VERSION)
    _require(version == PROTOCOL_VERSION,
             f"{what} speaks protocol version {version!r}; this build "
             f"speaks {PROTOCOL_VERSION}")


# ----------------------------------------------------------------------
# Submit requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRequest:
    """One tenant's sweep submission.

    Mirrors the :func:`repro.api.sweep` keyword surface, restricted to
    what can travel as JSON: the circuit is a *registered* benchmark
    name (arbitrary circuit factories cannot cross an HTTP boundary),
    and ``options`` holds plain-data :class:`~repro.core.flow.FlowConfig`
    overrides exactly as ``FlowConfig.replace`` accepts them.

    Attributes:
        circuit: Registered benchmark name (see ``repro.api.CIRCUITS``).
        scale: Circuit size fraction.
        tp_percents: TP levels to sweep; None means the paper's ladder.
        options: FlowConfig overrides (nested dicts allowed).  This is
            also how engine-shaped knobs travel — e.g.
            ``{"placer": "sa"}`` selects the simulated-annealing
            placement engine — and since ``options`` is part of
            :meth:`spec_key`, submissions differing only in engine
            never coalesce and never share cache entries.
        jobs: Worker processes *within* this job's sweep.
        retries: Retry budget per cell.
        task_timeout_s: Watchdog per-cell timeout (needs ``jobs > 1``).
        name: Experiment label (defaults to the circuit name).
        chaos: Scripted fault plan (soak testing only; needs
            ``jobs > 1`` for ``kill``/``hang`` faults — an inline kill
            would take the daemon down with it).
        trace: Record per-cell span trees during the sweep; they land
            in the daemon's trace store and come back merged via
            ``GET /sweeps/<id>/trace``.  Observability only — never
            part of the cache key or the canonical result, so it is
            deliberately *excluded* from :meth:`spec_key` (a traced
            and an untraced submission of the same sweep coalesce).
        deadline_s: Give up if the job has not *finished* this many
            seconds after submission: an overdue job is cancelled
            (while queued, or cooperatively mid-run), because a tenant
            that set a deadline has stopped waiting.  QoS only — like
            ``trace`` it is excluded from :meth:`spec_key`, so a
            deadlined and an undeadlined submission of the same sweep
            still coalesce and share cache entries.
    """

    circuit: str
    scale: float = 0.05
    tp_percents: Optional[Tuple[float, ...]] = None
    options: Dict[str, Any] = field(default_factory=dict)
    jobs: int = 1
    retries: int = 2
    task_timeout_s: Optional[float] = None
    name: Optional[str] = None
    chaos: Optional[FaultPlan] = None
    trace: bool = False
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.tp_percents is not None and not isinstance(
                self.tp_percents, tuple):
            object.__setattr__(self, "tp_percents",
                               tuple(self.tp_percents))

    _FIELDS = ("circuit", "scale", "tp_percents", "options", "jobs",
               "retries", "task_timeout_s", "name", "chaos", "trace",
               "deadline_s")

    def to_wire(self) -> Dict[str, Any]:
        """JSON-ready form; inverse of :meth:`from_wire`."""
        return {
            "version": PROTOCOL_VERSION,
            "circuit": self.circuit,
            "scale": self.scale,
            "tp_percents": (list(self.tp_percents)
                            if self.tp_percents is not None else None),
            "options": dict(self.options),
            "jobs": self.jobs,
            "retries": self.retries,
            "task_timeout_s": self.task_timeout_s,
            "name": self.name,
            "chaos": self.chaos.to_dict() if self.chaos else None,
            "trace": self.trace,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "SweepRequest":
        """Decode and validate a submit payload."""
        _require(isinstance(data, Mapping), "request body must be a "
                 "JSON object")
        _check_version(data, "request")
        payload = {k: v for k, v in data.items() if k != "version"}
        _reject_unknown(payload, cls._FIELDS, "request")
        _require(isinstance(payload.get("circuit"), str)
                 and payload["circuit"] != "",
                 "request needs a non-empty 'circuit' name")
        scale = payload.get("scale", 0.05)
        _require(_is_number(scale) and scale > 0,
                 "'scale' must be a positive number")
        tp = payload.get("tp_percents")
        if tp is not None:
            _require(isinstance(tp, (list, tuple))
                     and all(_is_number(p) for p in tp),
                     "'tp_percents' must be a list of numbers")
            _require(all(p >= 0 for p in tp),
                     "'tp_percents' must be non-negative")
            _require(len(set(tp)) == len(tp),
                     "'tp_percents' must not repeat a level")
            payload["tp_percents"] = tuple(float(p) for p in tp)
        options = payload.get("options") or {}
        _require(isinstance(options, Mapping),
                 "'options' must be a JSON object of FlowConfig "
                 "overrides")
        payload["options"] = dict(options)
        jobs = payload.get("jobs", 1)
        _require(isinstance(jobs, int) and not isinstance(jobs, bool)
                 and jobs >= 1, "'jobs' must be a positive integer")
        retries = payload.get("retries", 2)
        _require(isinstance(retries, int)
                 and not isinstance(retries, bool) and retries >= 0,
                 "'retries' must be a non-negative integer")
        timeout = payload.get("task_timeout_s")
        _require(timeout is None or _is_number(timeout) and timeout > 0,
                 "'task_timeout_s' must be a positive number of "
                 "seconds (or null)")
        name = payload.get("name")
        _require(name is None or isinstance(name, str),
                 "'name' must be a string (or null)")
        trace = payload.get("trace", False)
        _require(isinstance(trace, bool), "'trace' must be a boolean")
        deadline = payload.get("deadline_s")
        if deadline is not None:
            _require(_is_number(deadline) and deadline > 0,
                     "'deadline_s' must be a positive number of "
                     "seconds (or null)")
            payload["deadline_s"] = float(deadline)
        chaos = payload.get("chaos")
        if chaos is not None:
            try:
                payload["chaos"] = FaultPlan.from_dict(chaos)
            except (TypeError, ValueError) as exc:
                raise WireError(f"bad 'chaos' plan: {exc}") from exc
        try:
            return cls(**payload)
        except TypeError as exc:
            raise WireError(f"bad request: {exc}") from exc

    def spec_key(self) -> str:
        """Content hash of the canonical request: equal requests (any
        field order) hash equally, so the job manager can coalesce
        identical submissions from different tenants.  Observability
        and QoS knobs (``trace``, ``deadline_s``) are dropped first —
        they do not change what is computed, so they must not defeat
        coalescing."""
        wire = self.to_wire()
        wire.pop("trace", None)
        wire.pop("deadline_s", None)
        canon = json.dumps(wire, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# FlowSummary and SweepReport codecs
# ----------------------------------------------------------------------
def _sta_to_wire(sta: Optional[StaSummary]) -> Optional[Dict[str, Any]]:
    if sta is None:
        return None
    return {
        "paths": {
            domain: [dataclasses.asdict(p) for p in paths]
            for domain, paths in sta.paths.items()
        },
        "slow_nodes": list(sta.slow_nodes),
        "hold_violations": sta.hold_violations,
    }


def _sta_from_wire(data: Optional[Mapping[str, Any]]
                   ) -> Optional[StaSummary]:
    if data is None:
        return None
    try:
        return StaSummary(
            paths={
                domain: tuple(PathSummary(**p) for p in paths)
                for domain, paths in data["paths"].items()
            },
            slow_nodes=tuple(data.get("slow_nodes", ())),
            hold_violations=int(data.get("hold_violations", 0)),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise WireError(f"bad STA digest: {exc}") from exc


def summary_to_wire(summary: FlowSummary) -> Dict[str, Any]:
    """Encode one sweep cell.  The trace (if any) is dropped: span
    trees are observability artifacts, not results, and they do not
    survive JSON."""
    return {
        "tp_percent": summary.tp_percent,
        "n_test_points": summary.n_test_points,
        "test": (dataclasses.asdict(summary.test)
                 if summary.test is not None else None),
        "area": (dict(summary.area)
                 if summary.area is not None else None),
        "sta": _sta_to_wire(summary.sta),
        "stage_seconds": dict(summary.stage_seconds),
        "cached_stage_seconds": dict(summary.cached_stage_seconds),
        "log": list(summary.log),
        "cache_key": summary.cache_key,
        "from_cache": summary.from_cache,
        "worker_pid": summary.worker_pid,
    }


def summary_from_wire(data: Mapping[str, Any]) -> FlowSummary:
    """Decode one sweep cell back into a :class:`FlowSummary`."""
    _require(isinstance(data, Mapping), "cell must be a JSON object")
    _reject_unknown(data, ("tp_percent", "n_test_points", "test",
                           "area", "sta", "stage_seconds",
                           "cached_stage_seconds", "log", "cache_key",
                           "from_cache", "worker_pid"), "cell")
    try:
        test = data.get("test")
        return FlowSummary(
            tp_percent=float(data["tp_percent"]),
            n_test_points=int(data["n_test_points"]),
            test=TestDataMetrics(**test) if test is not None else None,
            area=(dict(data["area"])
                  if data.get("area") is not None else None),
            sta=_sta_from_wire(data.get("sta")),
            stage_seconds=dict(data.get("stage_seconds", {})),
            cached_stage_seconds=dict(
                data.get("cached_stage_seconds", {})),
            log=tuple(data.get("log", ())),
            cache_key=str(data.get("cache_key", "")),
            from_cache=bool(data.get("from_cache", False)),
            worker_pid=int(data.get("worker_pid", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, WireError):
            raise
        raise WireError(f"bad cell: {exc}") from exc


def failure_to_wire(failure: TaskFailure) -> Dict[str, Any]:
    """Encode one permanently failed cell (exception object dropped)."""
    return {
        "name": failure.name,
        "tp_percent": failure.tp_percent,
        "attempts": failure.attempts,
        "error_type": failure.error_type,
        "error_message": failure.error_message,
        "chain": list(failure.chain),
        "cache_key": failure.cache_key,
        "retryable": failure.retryable,
    }


def failure_from_wire(data: Mapping[str, Any]) -> TaskFailure:
    """Decode a failure record."""
    _require(isinstance(data, Mapping), "failure must be a JSON object")
    _reject_unknown(data, ("name", "tp_percent", "attempts",
                           "error_type", "error_message", "chain",
                           "cache_key", "retryable"), "failure")
    try:
        return TaskFailure(
            name=str(data["name"]),
            tp_percent=float(data["tp_percent"]),
            attempts=int(data["attempts"]),
            error_type=str(data["error_type"]),
            error_message=str(data["error_message"]),
            chain=tuple(data.get("chain", ())),
            cache_key=str(data.get("cache_key", "")),
            retryable=bool(data.get("retryable", False)),
        )
    except KeyError as exc:
        raise WireError(f"failure record missing {exc}") from exc


def report_to_wire(report: SweepReport) -> Dict[str, Any]:
    """Encode a whole sweep outcome (the ``/result`` payload)."""
    return {
        "version": PROTOCOL_VERSION,
        "results": {
            name: {
                "name": result.name,
                "runs": {
                    _pct_key(pct): summary_to_wire(summary)
                    for pct, summary in result.runs.items()
                },
            }
            for name, result in report.results.items()
        },
        "failures": [failure_to_wire(f) for f in report.failures],
        "retries": report.retries,
        "timeouts": report.timeouts,
        "worker_crashes": report.worker_crashes,
        "journal_path": report.journal_path,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "cache_evictions": report.cache_evictions,
        "cancelled": report.cancelled,
        "cache_write_failures": report.cache_write_failures,
        "started_at": report.started_at,
        "finished_at": report.finished_at,
        "started_mono": report.started_mono,
        "finished_mono": report.finished_mono,
    }


def report_from_wire(data: Mapping[str, Any]) -> SweepReport:
    """Decode a ``/result`` payload back into a :class:`SweepReport`
    whose per-circuit results quack exactly like ``api.sweep``'s
    (``table1_rows()`` etc. work unchanged)."""
    _require(isinstance(data, Mapping), "report must be a JSON object")
    _check_version(data, "report")
    try:
        results = {
            name: ExperimentResult(
                name=entry["name"],
                runs={
                    float(pct): summary_from_wire(cell)
                    for pct, cell in entry["runs"].items()
                },
            )
            for name, entry in data.get("results", {}).items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, WireError):
            raise
        raise WireError(f"bad report: {exc}") from exc
    return SweepReport(
        results=results,
        failures=tuple(failure_from_wire(f)
                       for f in data.get("failures", ())),
        retries=int(data.get("retries", 0)),
        timeouts=int(data.get("timeouts", 0)),
        worker_crashes=int(data.get("worker_crashes", 0)),
        journal_path=data.get("journal_path"),
        cache_hits=int(data.get("cache_hits", 0)),
        cache_misses=int(data.get("cache_misses", 0)),
        cache_evictions=int(data.get("cache_evictions", 0)),
        cancelled=bool(data.get("cancelled", False)),
        cache_write_failures=int(data.get("cache_write_failures", 0)),
        started_at=float(data.get("started_at", 0.0)),
        finished_at=float(data.get("finished_at", 0.0)),
        started_mono=float(data.get("started_mono", 0.0)),
        finished_mono=float(data.get("finished_mono", 0.0)),
    )


# ----------------------------------------------------------------------
# Canonical digests ("byte-identical" contract)
# ----------------------------------------------------------------------
def canonical_summary(run: Any) -> Dict[str, Any]:
    """The deterministic content of one sweep cell.

    ``run`` is a :class:`~repro.core.flow.FlowResult` or a
    :class:`FlowSummary`; the canonical form is the input-determined
    part of the cell's wire encoding (``n_test_points``, ``test``,
    ``area``, ``sta``) — no wall-clock timings, PIDs, logs, traces or
    cache provenance.  Equal canonical forms mean the runs are
    interchangeable as results.
    """
    cell = run if isinstance(run, FlowSummary) else summarize(run)
    wire = summary_to_wire(cell)
    return {key: wire[key] for key in ("n_test_points", "test", "area",
                                       "sta")}


def canonical_result_bytes(result: Any) -> bytes:
    """Sorted-key JSON bytes of one circuit's deterministic sweep
    content.  ``result`` is anything with ``name`` and a ``runs``
    mapping of TP level to cell — an
    :class:`~repro.core.experiment.ExperimentResult` from the serial
    path, the executor, or a wire-decoded report alike."""
    payload = {
        "name": result.name,
        "runs": {
            _pct_key(pct): canonical_summary(run)
            for pct, run in result.runs.items()
        },
    }
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# Job records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobRecord:
    """Lifecycle snapshot of one submitted sweep job.

    Attributes:
        id: Daemon-assigned job identifier.
        state: One of :data:`JOB_STATES`.
        request: The submission this job executes.
        submitted_at: Unix time of acceptance.
        started_at: Unix time execution began (None while queued).
        finished_at: Unix time the job reached a terminal state.
        error: Message for :data:`JOB_FAILED` jobs (an engine-level
            crash; *cell*-level failures live in the report instead).
        coalesced_with: Id of the identical in-flight job this one was
            queued behind (shared-cache deduplication), or None.
    """

    id: str
    state: str
    request: SweepRequest
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    coalesced_with: Optional[str] = None

    def __post_init__(self):
        if self.state not in JOB_STATES:
            raise WireError(
                f"unknown job state {self.state!r}; expected one of "
                + ", ".join(JOB_STATES)
            )

    def to_wire(self) -> Dict[str, Any]:
        """JSON-ready form; inverse of :meth:`from_wire`."""
        return {
            "version": PROTOCOL_VERSION,
            "id": self.id,
            "state": self.state,
            "request": self.request.to_wire(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "coalesced_with": self.coalesced_with,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "JobRecord":
        """Decode a job record."""
        _require(isinstance(data, Mapping),
                 "job record must be a JSON object")
        _check_version(data, "job record")
        known = ("id", "state", "request", "submitted_at",
                 "started_at", "finished_at", "error",
                 "coalesced_with")
        payload = {k: v for k, v in data.items() if k != "version"}
        _reject_unknown(payload, known, "job record")
        try:
            return cls(
                id=str(payload["id"]),
                state=str(payload["state"]),
                request=SweepRequest.from_wire(payload["request"]),
                submitted_at=float(payload["submitted_at"]),
                started_at=payload.get("started_at"),
                finished_at=payload.get("finished_at"),
                error=payload.get("error"),
                coalesced_with=payload.get("coalesced_with"),
            )
        except KeyError as exc:
            raise WireError(f"job record missing {exc}") from exc


# ----------------------------------------------------------------------
# Journal-backed progress
# ----------------------------------------------------------------------
def progress_from_journal(events: Sequence[Mapping[str, Any]],
                          torn_lines: int = 0) -> Dict[str, Any]:
    """Fold a sweep journal into per-cell progress.

    The plan comes from the ``sweep_start`` event; each cell then
    walks pending → running → done/failed/aborted as its lifecycle
    events appear.  The journal reader skips torn frames, so after a
    crash (or mid-write read) a cell whose ``task_done`` did not land
    completely simply *stays* running/pending — progress can
    under-report, never crash or over-report.  Pass the reader's torn
    count (:func:`repro.jsonl.read_jsonl`) as ``torn_lines`` to
    surface crash damage instead of hiding it.

    Returns a dict with ``total``/``done``/``failed``/``running``/
    ``pending`` counts, the per-cell list, ``finished`` (True once a
    ``sweep_end`` event landed), and ``torn_lines`` (journal lines the
    reader had to skip — non-zero after a crash).
    """
    cells: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    finished = False
    for event in events:
        kind = event.get("event")
        if kind == "sweep_start":
            for planned in event.get("cells", ()):
                if not isinstance(planned, Mapping):
                    continue
                key = str(planned.get("key", ""))
                if not key or key in cells:
                    continue
                cells[key] = {
                    "name": planned.get("name"),
                    "tp_percent": planned.get("tp_percent"),
                    "state": "pending",
                    "attempts": 0,
                }
                order.append(key)
            continue
        if kind == "sweep_end":
            finished = True
            continue
        key = event.get("key")
        if not key:
            continue
        cell = cells.get(key)
        if cell is None:
            # Tolerant of journals whose sweep_start frame tore: the
            # cell materialises from its first lifecycle event.
            cell = cells[key] = {
                "name": event.get("name"),
                "tp_percent": event.get("tp_percent"),
                "state": "pending",
                "attempts": 0,
            }
            order.append(key)
        if kind == "task_start":
            cell["state"] = "running"
            cell["attempts"] = max(cell["attempts"],
                                   int(event.get("attempt", 0)) + 1)
        elif kind in ("task_done", "task_resumed", "task_cached"):
            # Older journals still log some cache-served cells as
            # task_resumed.
            cell["state"] = "done"
        elif kind == "task_exhausted":
            cell["state"] = "failed"
        elif kind == "task_aborted":
            cell["state"] = "aborted"
        # task_failed with a retry pending keeps the cell "running".
    counts = {state: 0 for state in CELL_STATES}
    for key in order:
        counts[cells[key]["state"]] += 1
    return {
        "total": len(order),
        "done": counts["done"],
        "failed": counts["failed"] + counts["aborted"],
        "running": counts["running"],
        "pending": counts["pending"],
        "finished": finished,
        "torn_lines": int(torn_lines),
        "cells": [dict(cells[key], key=key) for key in order],
    }
