"""Sweep executor with content-addressed result caching.

The paper's experiment (Section 4.1) generates six independent layouts
per circuit — one per test-point level.  Levels never share state: each
layout starts from a freshly built netlist, so the sweep is
embarrassingly parallel.  Every sweep runs through this module
(:func:`repro.api.sweep`, ``repro sweep`` and the sweep daemon alike):
one scheduling loop fans sweep levels (and whole circuits) out over a
:class:`concurrent.futures.ProcessPoolExecutor`, or runs them inline in
this process at ``jobs=1``, and memoises finished levels in an on-disk
cache, so a re-run on the same cache directory (after a kill, a crash
or failed cells) computes only the levels that are missing.

Three ideas, in order of appearance:

* **Picklable summaries** — a worker cannot return a
  :class:`~repro.core.flow.FlowResult` (it drags the whole mutated
  netlist, placement and routing across the process boundary), so it
  returns a :class:`FlowSummary`: exactly the Table 1/2/3 quantities,
  per-stage timings and log records, nothing else.  ``FlowSummary``
  quacks like ``FlowResult`` for every accessor the table builders in
  :class:`~repro.core.experiment.ExperimentResult` use, so sweep
  results assemble through the identical code path as serial runs.

* **Content-addressed caching** — each level's cache key is the SHA-256
  of ``(circuit structural hash, FlowConfig fingerprint, library
  version, schema version)``.  Identical inputs always map to the same
  key; any change to the netlist, a config knob or the library version
  changes the key.  Entries are one pickle file per key under
  ``cache_dir``; writes are atomic (temp file + ``os.replace``) so a
  killed sweep never leaves a corrupt entry behind, and unreadable
  entries are treated as misses and quarantined.

* **Determinism** — the flow's only RNG consumer is seeded from
  ``FlowConfig.atpg.seed``, and every stochastic tie-break in the code
  base derives from stable (process-independent) hashes, so a sweep is
  bit-identical at every job count.  Serial
  :func:`~repro.core.experiment.run_experiment` is kept as the
  reference the golden and bit-identity tests compare against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro import chaos, obs
from repro.chaos import FaultPlan
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.core.flow import FlowConfig, FlowResult, run_flow
from repro.core.metrics import TestDataMetrics
from repro.core.resilience import (
    RetryPolicy,
    SweepJournal,
    SweepReport,
    TaskFailure,
    TaskTimeoutError,
    WorkerCrashError,
    format_exception_for_journal,
    is_retryable,
)
from repro.library.cell import Library
from repro.library.cmos130 import cmos130
from repro.netlist.circuit import Circuit
from repro.obs.tracer import Trace

#: Bump when the FlowSummary layout or key derivation changes; old
#: cache entries then miss instead of unpickling into the wrong shape.
CACHE_SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# Picklable result summaries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathSummary:
    """Picklable digest of one :class:`~repro.sta.analysis.TimingPath`.

    Carries every field the Table 3 assembly reads, plus slack.
    """

    domain: str
    endpoint: str
    startpoint: str
    t_wires_ps: float
    t_intrinsic_ps: float
    t_load_dep_ps: float
    t_setup_ps: float
    t_skew_ps: float
    total_ps: float
    slack_ps: float
    n_test_points: int

    @property
    def fmax_mhz(self) -> float:
        """Highest frequency this path permits."""
        return 1e6 / self.total_ps if self.total_ps > 0 else float("inf")


@dataclass(frozen=True)
class StaSummary:
    """Picklable digest of an :class:`~repro.sta.analysis.StaResult`."""

    paths: Dict[str, Tuple[PathSummary, ...]]
    slow_nodes: Tuple[str, ...] = ()
    hold_violations: int = 0

    def critical(self, domain: str) -> Optional[PathSummary]:
        """Worst path of one domain."""
        paths = self.paths.get(domain)
        return paths[0] if paths else None


@dataclass
class FlowSummary:
    """Everything a sweep needs from one flow run, and nothing more.

    Unlike :class:`~repro.core.flow.FlowResult` this object holds no
    netlist, placement or routing, so it pickles in microseconds and
    crosses process boundaries (and the result cache) cheaply.  It
    offers the same accessor surface the Table 1/2/3 builders use:
    :meth:`test_metrics`, :meth:`area_metrics`, :attr:`n_test_points`
    and :attr:`sta`.

    Attributes:
        tp_percent: The sweep level this run executed.
        n_test_points: TSFFs actually inserted.
        test: Table 1 metrics (None when the ATPG phase was skipped).
        area: Table 2 metrics (None when the layout phase was skipped).
        sta: Table 3 digest (None when the layout phase was skipped).
        stage_seconds: Per-stage wall-clock seconds.  On a cache hit
            the executor zeroes this dict (no stage re-ran) and keeps
            the original timings in :attr:`cached_stage_seconds`.
        cached_stage_seconds: Stage timings of the run that populated
            the cache entry (empty for fresh runs).
        log: Per-stage log records emitted by the worker.
        cache_key: Content hash this summary is stored under.
        from_cache: True when served from the cache, not computed.
        worker_pid: PID of the process that ran the flow.
        trace: The run's span tree when the worker traced its flow
            (see :mod:`repro.obs`); None otherwise, and always None on
            cache hits (no stage re-ran).  The plain-class default
            keeps summaries pickled before this field existed loading
            cleanly — they read back as untraced.
    """

    tp_percent: float
    n_test_points: int
    test: Optional[TestDataMetrics] = None
    area: Optional[Dict[str, float]] = None
    sta: Optional[StaSummary] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    cached_stage_seconds: Dict[str, float] = field(default_factory=dict)
    log: Tuple[str, ...] = ()
    cache_key: str = ""
    from_cache: bool = False
    worker_pid: int = 0
    trace: Optional[Trace] = None

    def effective_stage_seconds(self) -> Dict[str, float]:
        """Stage timings that actually describe this run's work.

        Live timings when the flow ran in this sweep; the original
        run's timings when the summary was served from the cache (a
        hit zeroes :attr:`stage_seconds` because no stage re-ran).
        Reporting should use this so cached sweeps still render
        sensible stage tables.
        """
        if self.from_cache and self.cached_stage_seconds:
            return dict(self.cached_stage_seconds)
        return dict(self.stage_seconds)

    def test_metrics(self) -> TestDataMetrics:
        """The paper's Table 1 row for this run."""
        if self.test is None:
            raise ValueError("flow ran without the ATPG phase")
        return self.test

    def area_metrics(self) -> Dict[str, float]:
        """The paper's Table 2 row for this run."""
        if self.area is None:
            raise ValueError("flow ran without the layout phase")
        return dict(self.area)


def summarize(result: FlowResult, cache_key: str = "") -> FlowSummary:
    """Condense a :class:`FlowResult` into a picklable summary."""
    test = None
    if result.atpg is not None and result.chains is not None:
        test = result.test_metrics()
    area = None
    if result.plan is not None and result.congestion is not None:
        area = result.area_metrics()
    sta = None
    if result.sta is not None:
        sta = StaSummary(
            paths={
                domain: tuple(
                    PathSummary(
                        domain=p.domain,
                        endpoint=p.endpoint,
                        startpoint=p.startpoint,
                        t_wires_ps=p.t_wires_ps,
                        t_intrinsic_ps=p.t_intrinsic_ps,
                        t_load_dep_ps=p.t_load_dep_ps,
                        t_setup_ps=p.t_setup_ps,
                        t_skew_ps=p.t_skew_ps,
                        total_ps=p.total_ps,
                        slack_ps=p.slack_ps,
                        n_test_points=p.n_test_points,
                    )
                    for p in paths
                )
                for domain, paths in result.sta.paths.items()
            },
            slow_nodes=tuple(sorted(result.sta.slow_nodes)),
            hold_violations=result.sta.hold_violations,
        )
    pid = os.getpid()
    log = tuple(
        f"pid {pid}: {stage}: {seconds * 1000.0:.1f} ms"
        for stage, seconds in result.stage_seconds.items()
    )
    return FlowSummary(
        tp_percent=result.config.tp_percent,
        n_test_points=result.n_test_points,
        test=test,
        area=area,
        sta=sta,
        stage_seconds=dict(result.stage_seconds),
        log=log,
        cache_key=cache_key,
        worker_pid=pid,
        trace=result.trace,
    )


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------
def _canonical(obj):
    """Recursively reduce ``obj`` to an order-independent structure.

    Dataclass fields and dict items are sorted by name, sets by their
    canonical representation — so two logically equal configs always
    canonicalise identically, no matter the construction order of their
    dicts and sets.  The type name is included so distinct config
    classes with equal fields never collide.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = tuple(
            (f.name, _canonical(getattr(obj, f.name)))
            for f in sorted(dataclasses.fields(obj), key=lambda f: f.name)
        )
        return ("dc", type(obj).__name__, items)
    if isinstance(obj, dict):
        items = tuple(sorted(
            ((_canonical(k), _canonical(v)) for k, v in obj.items()),
            key=repr,
        ))
        return ("dict", items)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(x) for x in obj), key=repr)))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_canonical(x) for x in obj))
    if isinstance(obj, float):
        return ("f", repr(obj))
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__!r}: add it to "
        "repro.core.executor._canonical"
    )


def config_fingerprint(config) -> str:
    """Stable SHA-256 fingerprint of a (nested) config dataclass.

    Equal configs fingerprint equally regardless of field, dict or set
    construction order; any changed knob changes the fingerprint.
    """
    canon = repr(_canonical(config)).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


def circuit_structural_hash(circuit: Circuit) -> str:
    """SHA-256 over the netlist structure (names, cells, connectivity).

    Two circuits hash equally iff they have the same instances (name,
    cell, pin connections), nets (driver, sinks), ports and clock
    domains.  Placement and other derived state never enter the hash —
    the flow recomputes those from the netlist.
    """
    h = hashlib.sha256()

    def feed(tag: str, payload) -> None:
        h.update(tag.encode("utf-8"))
        h.update(repr(payload).encode("utf-8"))
        h.update(b"\x00")

    feed("name", circuit.name)
    feed("inputs", tuple(circuit.inputs))
    feed("outputs", tuple(
        (port, circuit.output_net(port)) for port in circuit.outputs
    ))
    feed("clocks", tuple(
        (dom.net, dom.period_ps) for dom in circuit.clocks
    ))
    for name in sorted(circuit.instances):
        inst = circuit.instances[name]
        feed("inst", (name, inst.cell.name, tuple(sorted(inst.conns.items()))))
    for name in sorted(circuit.nets):
        net = circuit.nets[name]
        feed("net", (name, net.driver, tuple(sorted(net.sinks))))
    return h.hexdigest()


def flow_cache_key(circuit: Circuit, config: FlowConfig,
                   library: Library) -> str:
    """Cache key of one flow run: circuit x config x library version.

    Args:
        circuit: The pre-DFT netlist the flow would start from.
        config: Full flow configuration (the level's ``tp_percent``
            already applied).
        library: Cell library; its name and the package version stand
            in for the library contents, which are code-defined.
    """
    return _level_cache_key(circuit_structural_hash(circuit), config,
                            library)


def _level_cache_key(structural_hash: str, config: FlowConfig,
                     library: Library) -> str:
    """:func:`flow_cache_key` from the circuit's structural hash, so a
    sweep hashes its circuit once for all of its levels."""
    parts = "\n".join([
        f"schema={CACHE_SCHEMA_VERSION}",
        structural_hash,
        config_fingerprint(config),
        f"library={library.name}:{repro.__version__}",
    ])
    return hashlib.sha256(parts.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed pickle store: one :class:`FlowSummary` per key.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` (two-level fan-out keeps
    directories small on big sweeps).  Writes go through a temp file
    and ``os.replace`` so concurrent writers and crashes can never
    leave a torn entry.  Unreadable/truncated entries read as misses
    and are **quarantined** (renamed to ``<entry>.pkl.corrupt``) rather
    than deleted — the bytes stay available for post-mortems while the
    live path frees up for the recompute.

    With ``max_bytes`` set the store is a size-capped LRU: every
    ``put`` that pushes the total entry size over the cap evicts
    least-recently-used entries (oldest mtime first; a hit refreshes
    the entry's mtime) until the total fits again.  The entry just
    written is never evicted, so a single oversized result degrades to
    "cache of one" rather than thrashing.  A long-running daemon can
    therefore treat one cache directory as a shared artifact store
    without ever filling the disk.
    """

    #: Suffix appended to quarantined (unreadable) entries.
    QUARANTINE_SUFFIX = ".corrupt"

    def __init__(self, root, max_bytes: Optional[int] = None,
                 read_only: bool = False):
        self.root = Path(root)
        self.max_bytes = max_bytes
        #: Read-only mode: ``put`` is a silent no-op.  A degraded
        #: daemon (failing disk) keeps *serving* existing artifacts
        #: while no longer trusting the disk with new ones.
        self.read_only = read_only
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0
        #: ``put`` calls that failed with an OSError (disk full,
        #: permission loss).  The caller absorbed the failure — the
        #: result survived uncached — but the count is the degraded-
        #: mode signal.
        self.write_failures = 0

    def path(self, key: str) -> Path:
        """Entry path for ``key``."""
        return self.root / key[:2] / f"{key}.pkl"

    def quarantine_path(self, key: str) -> Path:
        """Where an unreadable entry for ``key`` is parked."""
        path = self.path(key)
        return path.with_name(path.name + self.QUARANTINE_SUFFIX)

    def _quarantine(self, key: str) -> None:
        """Move a torn/foreign entry aside (atomic, last-one-wins)."""
        try:
            os.replace(self.path(key), self.quarantine_path(key))
        except OSError:
            pass
        self.misses += 1
        self.corrupt += 1

    def get(self, key: str) -> Optional[FlowSummary]:
        """Load the summary stored under ``key``, or None."""
        path = self.path(key)
        try:
            with open(path, "rb") as handle:
                summary = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Torn/stale entry: park it for inspection, recompute.
            self._quarantine(key)
            return None
        if not isinstance(summary, FlowSummary):
            self._quarantine(key)
            return None
        self.hits += 1
        try:
            # LRU touch: a hit makes the entry recently-used, so the
            # size-cap evictor (oldest mtime first) spares it.
            os.utime(path)
        except OSError:
            pass
        return summary

    def put(self, key: str, summary: FlowSummary) -> None:
        """Atomically store ``summary`` under ``key``; then enforce
        the ``max_bytes`` budget (evicting LRU entries, never this
        one).  A no-op in ``read_only`` mode."""
        if self.read_only:
            return
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(summary, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._enforce_budget(keep=path)

    def total_bytes(self) -> int:
        """Current size of all live entries (quarantine excluded)."""
        total = 0
        for entry in self.root.glob("*/*.pkl"):
            try:
                total += entry.stat().st_size
            except OSError:
                continue
        return total

    def _enforce_budget(self, keep: Path) -> None:
        """Evict least-recently-used entries until under ``max_bytes``.

        ``keep`` (the entry just written) is exempt.  Races are benign:
        an entry another process already removed is simply skipped, and
        concurrent writers each converge the directory toward the cap.
        """
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for entry in self.root.glob("*/*.pkl"):
            try:
                stat = entry.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, str(entry), entry, stat.st_size))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        for _mtime, _name, entry, size in sorted(entries):
            if total <= self.max_bytes:
                break
            if entry == keep:
                continue
            try:
                entry.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
@dataclass
class ExecutorConfig:
    """How a sweep is executed.

    Attributes:
        jobs: Worker processes.  1 runs every level inline in this
            process through the same scheduling loop (no pool, no
            pickling of task specs) — handy for debugging and for
            lambdas as circuit factories.
        cache_dir: Result-cache directory; None disables caching.
            A re-run on the same directory serves every finished cell
            from it, so a killed sweep continues where it stopped.
        trace: Have every worker record a span tree for its flow run
            (returned on ``FlowSummary.trace``), and the parent record
            per-level queue-wait/worker-run spans plus cache counters
            on the active tracer.  Observability only: it never enters
            the cache key, so traced and untraced sweeps share cache
            entries and results stay bit-identical either way.
        retries: Retries per task after its first attempt.  Only
            *retryable* failures (worker crashes, broken pools,
            timeouts, transient I/O — see
            :func:`repro.core.resilience.is_retryable`) consume the
            budget; config/validation errors fail immediately.
        task_timeout_s: Watchdog per-task timeout.  A task running
            longer is presumed hung: the worker pool is replaced (the
            hung worker killed), the task's attempt is charged, and
            innocent in-flight tasks are requeued without penalty.
            None disables the watchdog; it is only enforceable with
            ``jobs > 1`` (an inline run cannot preempt itself).
        backoff_base_s: First-retry backoff; doubles per further retry
            (deterministic, no jitter), capped at ``backoff_max_s``.
        backoff_max_s: Backoff ceiling.
        fail_fast: Stop scheduling new tasks after the first permanent
            cell failure; unstarted cells are reported as aborted.
            Off (the default), the sweep degrades gracefully and
            returns every cell it could compute.
        chaos: Deterministic fault-injection plan (tests/CI only),
            the one way a plan reaches a sweep (``api.sweep*(chaos=)``,
            ``--chaos PLAN.json`` and ``SweepRequest.chaos`` all set
            it).  Never part of the cache key.
        cache_max_bytes: Size cap of the result cache; over it, the
            least-recently-used entries are evicted on write (see
            :class:`ResultCache`).  None means unbounded (the classic
            one-shot-sweep behaviour).
        journal: Explicit journal file path.  Unset, the journal rides
            the cache directory (``<cache_dir>/journal.jsonl``); the
            sweep service sets it so concurrent jobs sharing one cache
            each keep their own task-lifecycle journal.
        cancel_check: Polled between task submissions; returning True
            cancels the sweep cooperatively — no new cells start,
            queued/waiting cells are recorded as ``SweepCancelled``
            failures, and in-flight cells run to completion (their
            results still land in the cache).  None (default) means
            the sweep is uncancellable, as before.
        cache_read_only: Serve cache hits but never write new entries
            (``put`` becomes a no-op).  The sweep service sets this
            once a cache write has failed — a daemon on a full disk
            keeps computing and serving, it just stops trusting the
            disk with new artifacts.
        registry: Metrics registry the sweep counts its cells,
            stage and cell latencies, retries, timeouts, crashes and
            cache events into.  The sweep daemon passes its own;
            None gives the sweep a private registry nobody reads.
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    trace: bool = False
    retries: int = 2
    task_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.1
    backoff_max_s: float = 30.0
    fail_fast: bool = False
    chaos: Optional[FaultPlan] = None
    cache_max_bytes: Optional[int] = None
    journal: Optional[str] = None
    cancel_check: Optional[Callable[[], bool]] = None
    cache_read_only: bool = False
    registry: Optional[obs.MetricsRegistry] = None

    @property
    def cache(self) -> Optional[ResultCache]:
        """The configured cache, or None when caching is off."""
        if self.cache_dir:
            return ResultCache(self.cache_dir,
                               max_bytes=self.cache_max_bytes,
                               read_only=self.cache_read_only)
        return None

    @property
    def retry_policy(self) -> RetryPolicy:
        """The deterministic backoff schedule these knobs define."""
        return RetryPolicy(
            max_retries=max(0, self.retries),
            backoff_base_s=self.backoff_base_s,
            backoff_max_s=self.backoff_max_s,
        )

    def journal_path(self) -> Optional[Path]:
        """Where this sweep journals: the explicit ``journal`` path
        when set, else alongside the cache (no cache, no journal).
        Runs append to it, one ``sweep_start`` … ``sweep_end`` block
        each."""
        if self.journal:
            return Path(self.journal)
        if self.cache_dir:
            return Path(self.cache_dir) / "journal.jsonl"
        return None


@dataclass
class _LevelTask:
    """One (circuit, level) unit of work.  Must stay picklable."""

    name: str
    tp_percent: float
    circuit_factory: Callable[[], Circuit]
    flow: FlowConfig
    library: Optional[Library]
    cache_key: str
    #: Record a span tree in the worker (never part of the cache key).
    trace: bool = False
    #: Retry attempt this submission represents (0 = first try).
    attempt: int = 0
    #: Scripted faults to inject in the worker (tests/CI only).
    chaos: Optional[FaultPlan] = None

    @property
    def label(self) -> str:
        """Display label of this level (trace and error contexts)."""
        return f"{self.name}@{self.tp_percent:g}%"


class SweepExecutionError(RuntimeError):
    """One or more sweep levels failed.

    Completed levels were already cached (when a cache is configured),
    so re-running the sweep resumes from the failures only.

    Attributes:
        failures: ``(circuit name, tp_percent, exception)`` per failed
            level.
    """

    def __init__(self, failures: List[Tuple[str, float, BaseException]]):
        self.failures = failures
        lines = ", ".join(
            f"{name} @ {pct:g}%: {exc!r}" for name, pct, exc in failures
        )
        super().__init__(
            f"{len(failures)} sweep level(s) failed ({lines}); "
            "completed levels are cached and will be reused on re-run"
        )


def _run_level(task: _LevelTask) -> FlowSummary:
    """Worker entry point: build a fresh netlist, run the flow.

    With ``task.trace`` set, the flow runs under a fresh tracer whose
    root spans are exactly the run's stage spans; the resulting
    :class:`~repro.obs.tracer.Trace` rides back on the summary.
    Tracing is scoped, so an inline (``jobs=1``) run leaves the
    parent's tracer untouched.  The task's chaos plan, if any, is
    activated around the flow so scripted stage faults fire for
    exactly this cell and attempt.
    """
    with chaos.active(task.chaos, task.name, task.tp_percent,
                      task.attempt):
        circuit = task.circuit_factory()
        library = task.library if task.library is not None else cmos130()
        if task.trace:
            with obs.tracing(label=task.label):
                result = run_flow(circuit, library, task.flow)
        else:
            result = run_flow(circuit, library, task.flow)
    return summarize(result, cache_key=task.cache_key)


def _check_picklable(task: _LevelTask) -> None:
    """Fail early, with a pointed message, on unpicklable task specs."""
    try:
        pickle.dumps(task)
    except Exception as exc:
        raise TypeError(
            f"sweep level {task.name} @ {task.tp_percent:g}% is not "
            "picklable and cannot be sent to a worker process; use a "
            "module-level circuit factory (functools.partial(factory, "
            "scale=...) instead of a lambda), or run with jobs=1"
        ) from exc


def _plan_levels(config: ExperimentConfig,
                 executor: ExecutorConfig) -> List[_LevelTask]:
    """Expand one experiment into per-level tasks with cache keys.

    The circuit is built and hashed once *in the parent*, for all of
    its levels (every level starts from the same factory, and factories
    are deterministic, so each worker's fresh build hashes
    identically); the built netlist is never pickled.  The chaos plan
    (if any) rides on the task spec but never enters the cache key: a
    chaos run and a clean run of the same configs share keys, which is
    what lets a re-run with the plan disabled complete a chaos-holed
    sweep.
    """
    library = config.library or cmos130()
    structural_hash = circuit_structural_hash(config.circuit_factory())
    tasks = []
    for pct in config.tp_percents:
        flow = replace(config.flow, tp_percent=pct)
        tasks.append(_LevelTask(
            name=config.name,
            tp_percent=pct,
            circuit_factory=config.circuit_factory,
            flow=flow,
            library=config.library,
            cache_key=_level_cache_key(structural_hash, flow, library),
            trace=executor.trace,
            chaos=executor.chaos,
        ))
    return tasks


def _cache_hit(summary: FlowSummary) -> FlowSummary:
    """Rebadge a stored summary as a hit: no stage re-ran, so the
    live ``stage_seconds`` are all zero, the original timings move to
    ``cached_stage_seconds`` (see ``effective_stage_seconds``), and
    any stored trace is dropped — a trace describes work this sweep
    did not perform, and its stale wall epoch would skew a merged
    timeline."""
    return replace(
        summary,
        from_cache=True,
        cached_stage_seconds=dict(summary.stage_seconds),
        stage_seconds={k: 0.0 for k in summary.stage_seconds},
        trace=None,
    )


def _record_level(tracer, task: _LevelTask, summary: FlowSummary,
                  t_submit: float, t_done: float) -> None:
    """Record the parent-side span of one completed level.

    The ``level:`` span covers submit-to-result; when the worker
    shipped its own trace back, its wall epoch splits the interval
    into ``queue_wait`` (submit until the worker started the flow) and
    ``worker_run`` (the flow itself) child spans.
    """
    if not tracer.enabled:
        return
    start = tracer.rel_wall(t_submit)
    end = max(start, tracer.rel_wall(t_done))
    parent = tracer.record_span(
        f"level:{task.label}", start, end,
        gauges={"worker_pid": summary.worker_pid},
    )
    trace = summary.trace
    if trace is not None:
        run_start = min(max(start, tracer.rel_wall(trace.wall_epoch)), end)
        run_end = min(run_start + trace.duration_s, end)
        tracer.record_span("queue_wait", start, run_start, parent=parent)
        tracer.record_span("worker_run", run_start, run_end, parent=parent)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly hung or broken) pool down without blocking.

    ``shutdown(wait=False, cancel_futures=True)`` alone leaves a hung
    worker running forever, so the worker processes are terminated
    explicitly and briefly joined to reap them.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in processes:
        try:
            proc.join(timeout=1.0)
        except Exception:
            pass


class _InlineExecutor(Executor):
    """The ``jobs=1`` "pool": runs each task in this process at submit.

    ``submit`` returns an already-completed future, so the scheduling
    loop's retry, backoff, cancel, fail-fast and journal paths are the
    ones a process pool takes.  Task specs are never pickled (lambda
    factories work), and nothing can preempt an inline run, so the
    watchdog never fires here.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _tear_cache_entry(cache: ResultCache, key: str) -> None:
    """Chaos helper: truncate a cache entry mid-bytes (a torn write)."""
    path = cache.path(key)
    try:
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
    except OSError:
        pass


class _Scheduler:
    """Fault-tolerant execution of a sweep's level tasks.

    Owns the cache lookups, the retry budget, the backoff clock, the
    watchdog, the pool lifecycle and the journal trail, in one
    scheduling loop for every job count.  Tasks fan out over a
    :class:`ProcessPoolExecutor`, or an :class:`_InlineExecutor` at
    ``jobs=1``.  A watchdog times out hung tasks by replacing the
    whole pool (a hung worker cannot be cancelled), charging only the
    overdue task's budget.  When a worker dies outright the pool
    breaks for every in-flight future without naming a culprit, so
    the implicated tasks are re-run **solo**: a task that breaks the
    pool while running alone is the crasher beyond doubt and is the
    only one charged; innocents pass through isolation unbilled.
    """

    def __init__(self, executor: ExecutorConfig,
                 cache: Optional[ResultCache], tracer,
                 journal: Optional[SweepJournal],
                 registry: obs.MetricsRegistry):
        self.executor = executor
        self.cache = cache
        self.tracer = tracer
        self.journal = journal
        self.registry = registry
        self.plan = executor.chaos
        self.policy = executor.retry_policy
        self.summaries: Dict[Tuple[str, float], FlowSummary] = {}
        self.failures: List[TaskFailure] = []
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.aborted = False
        self.cancelled = False

    def _check_cancel(self) -> None:
        """Fold an external cancellation request into the abort path."""
        check = self.executor.cancel_check
        if check is None or self.cancelled:
            return
        if check():
            self.cancelled = True
            self.aborted = True

    # -- bookkeeping ----------------------------------------------------
    def _journal_event(self, event: str, task: _LevelTask,
                       **data) -> None:
        """Record one task lifecycle event in the sweep journal, its
        only record: a sweep without a journal keeps none."""
        if self.journal is not None:
            self.journal.record(event, key=task.cache_key, name=task.name,
                                tp_percent=task.tp_percent, **data)

    def serve_cached(self, task: _LevelTask) -> bool:
        """Serve ``task`` from the cache; False when it must run."""
        stored = self.cache.get(task.cache_key) if self.cache else None
        if stored is None:
            return False
        self.summaries[(task.name, task.tp_percent)] = _cache_hit(stored)
        now = self.tracer.now()
        self.tracer.record_span(f"cache_hit:{task.label}", now, now)
        self.registry.inc("repro_cells_total", 1, circuit=task.name,
                          outcome="cached")
        self._journal_event("task_cached", task)
        return True

    def _success(self, task: _LevelTask, attempt: int,
                 summary: FlowSummary, t_submit: float,
                 t_done: float, mono_elapsed: float = 0.0) -> None:
        _record_level(self.tracer, task, summary, t_submit, t_done)
        self.summaries[(task.name, task.tp_percent)] = summary
        # Per-stage and per-cell latency histograms: the one place
        # worker timings cross back into the parent, so serial and
        # parallel sweeps aggregate identically (and cache hits never
        # pass through here, so they cannot pollute the distribution).
        for stage, seconds in summary.stage_seconds.items():
            self.registry.observe("repro_stage_seconds", seconds,
                                  stage=stage, circuit=task.name)
        self.registry.observe("repro_cell_seconds",
                              max(0.0, mono_elapsed), circuit=task.name)
        self.registry.inc("repro_cells_total", 1, circuit=task.name,
                          outcome="ok")
        if self.cache:
            self._cache_result(task, summary)
        self._journal_event("task_done", task, attempt=attempt)

    def _cache_result(self, task: _LevelTask,
                      summary: FlowSummary) -> None:
        """Write a finished cell into the cache, absorbing disk
        failures: a result that cannot be cached is still a result.
        The first failed write flips the cache read-only for the rest
        of the sweep — a full disk will not get 17 more chances to
        slow every cell down — and the failure count rides the report
        so the service can enter degraded mode."""
        try:
            if self.plan is not None and self.plan.fails_cache_write(
                    task.name, task.tp_percent):
                raise OSError(
                    f"chaos: injected cache write failure for "
                    f"{task.label}")
            self.cache.put(task.cache_key, summary)
        except OSError as exc:
            self.cache.write_failures += 1
            self.cache.read_only = True
            self.registry.inc("repro_cache_write_failures_total")
            self._journal_event("cache_write_failed", task,
                                error=f"{type(exc).__name__}: {exc}")
            return
        if self.plan is not None and self.plan.corrupts_cache(
                task.name, task.tp_percent):
            _tear_cache_entry(self.cache, task.cache_key)

    def _on_task_error(self, task: _LevelTask, attempt: int,
                       exc: BaseException) -> Optional[float]:
        """Charge one attempt; backoff delay when a retry is due,
        None when the cell is now permanently failed."""
        info = format_exception_for_journal(exc)
        will_retry = (is_retryable(exc)
                      and attempt < self.policy.max_retries
                      and not self.aborted)
        self._journal_event("task_failed", task, attempt=attempt,
                            will_retry=will_retry, **info)
        if will_retry:
            self.retries += 1
            self.registry.inc("repro_task_retries_total", 1,
                              circuit=task.name)
            return self.policy.delay_s(attempt + 1)
        self.failures.append(TaskFailure.from_exception(
            task.name, task.tp_percent, attempt + 1, exc,
            cache_key=task.cache_key,
        ))
        self.registry.inc("repro_cells_total", 1, circuit=task.name,
                          outcome="failed")
        self._journal_event("task_exhausted", task, attempts=attempt + 1,
                            error_type=info["error_type"])
        if self.executor.fail_fast:
            self.aborted = True
        return None

    def _abort_cell(self, task: _LevelTask) -> None:
        """Record a cell an abort (fail-fast or cancel) kept from
        running.  Cancelled cells are distinguishable in the report and
        the journal so a service can tell "tenant hung up" from "sweep
        degraded"."""
        if self.cancelled:
            error_type = "SweepCancelled"
            message = "sweep cancelled before this cell ran"
        else:
            error_type = "SweepAborted"
            message = "sweep aborted (fail-fast) before this cell ran"
        self.failures.append(TaskFailure(
            name=task.name,
            tp_percent=task.tp_percent,
            attempts=0,
            error_type=error_type,
            error_message=message,
            cache_key=task.cache_key,
        ))
        self.registry.inc("repro_cells_total", 1, circuit=task.name,
                          outcome="failed")
        self._journal_event("task_aborted", task,
                            cancelled=self.cancelled)

    # -- the scheduling loop --------------------------------------------
    def _new_pool(self) -> Executor:
        if self.executor.jobs <= 1:
            return _InlineExecutor()
        return ProcessPoolExecutor(max_workers=self.workers)

    def _submit(self, pool: Executor, in_flight: Dict,
                task: _LevelTask, attempt: int, solo: bool) -> None:
        self._journal_event("task_start", task, attempt=attempt,
                            solo=solo)
        t_wall, t_mono = time.time(), time.monotonic()
        # Faults and journals key on the attempt number.
        future = pool.submit(_run_level, replace(task, attempt=attempt))
        in_flight[future] = (task, attempt, t_wall, t_mono, solo)

    def run(self, pending: List[_LevelTask]) -> None:
        """Run ``pending`` with retries, watchdog and crash isolation."""
        if not pending:
            return
        if self.executor.jobs > 1:
            for task in pending:
                _check_picklable(task)
        self.workers = min(max(1, self.executor.jobs), len(pending))
        timeout = self.executor.task_timeout_s
        queue: deque = deque((task, 0) for task in pending)
        isolate: deque = deque()  # suspects to re-run solo
        waiting: List[Tuple[float, _LevelTask, int, bool]] = []
        in_flight: Dict = {}
        pool = self._new_pool()
        try:
            while queue or isolate or waiting or in_flight:
                self._check_cancel()
                now = time.monotonic()
                # Promote retries whose backoff has elapsed.
                still: List[Tuple[float, _LevelTask, int, bool]] = []
                for ready, task, attempt, solo in waiting:
                    if ready <= now:
                        (isolate if solo else queue).append((task, attempt))
                    else:
                        still.append((ready, task, attempt, solo))
                waiting = still

                if self.aborted:
                    for task, _attempt in list(queue) + list(isolate):
                        self._abort_cell(task)
                    queue.clear()
                    isolate.clear()
                    for _ready, task, _attempt, _solo in waiting:
                        self._abort_cell(task)
                    waiting = []
                    if not in_flight:
                        break

                # Submissions.  Isolation runs strictly solo: wait for
                # the pool to go quiet, then one suspect at a time.
                solo_active = any(rec[4] for rec in in_flight.values())
                pool_broken = False
                broken_tasks: List[Tuple[_LevelTask, int, bool]] = []
                try:
                    if isolate and not in_flight:
                        task, attempt = isolate.popleft()
                        self._submit(pool, in_flight, task, attempt,
                                     solo=True)
                    elif (not isolate and not solo_active
                          and not self.aborted):
                        while queue and len(in_flight) < self.workers:
                            task, attempt = queue.popleft()
                            self._submit(pool, in_flight, task, attempt,
                                         solo=False)
                except BrokenProcessPool:
                    # Pool died under a submit; the popped task is in
                    # in_flight only if submit succeeded, so requeue it
                    # and recycle via the breakage path below.
                    queue.appendleft((task, attempt))
                    pool_broken = True

                if not in_flight and not pool_broken:
                    if waiting:
                        next_ready = min(w[0] for w in waiting)
                        time.sleep(max(0.0, min(
                            next_ready - time.monotonic(), 0.5)))
                    continue

                if in_flight and not pool_broken:
                    wait_timeout = None
                    candidates = []
                    if timeout is not None:
                        candidates.extend(
                            rec[3] + timeout - now
                            for rec in in_flight.values()
                        )
                    if waiting:
                        candidates.extend(w[0] - now for w in waiting)
                    if candidates:
                        wait_timeout = max(0.01, min(candidates) + 0.01)
                    done, _ = futures_wait(set(in_flight),
                                           timeout=wait_timeout,
                                           return_when=FIRST_COMPLETED)
                    for future in done:
                        task, attempt, t_wall, t_mono, solo = \
                            in_flight.pop(future)
                        try:
                            summary = future.result()
                        except BrokenProcessPool:
                            pool_broken = True
                            broken_tasks.append((task, attempt, solo))
                        except Exception as exc:
                            delay = self._on_task_error(task, attempt, exc)
                            if delay is not None:
                                waiting.append((time.monotonic() + delay,
                                                task, attempt + 1, solo))
                        else:
                            self._success(task, attempt, summary,
                                          t_wall, time.time(),
                                          time.monotonic() - t_mono)

                if pool_broken:
                    # A dead worker poisons every in-flight future.
                    self.crashes += 1
                    self.registry.inc("repro_worker_crashes_total")
                    for future, (task, attempt, _tw, _tm, solo) in \
                            list(in_flight.items()):
                        broken_tasks.append((task, attempt, solo))
                    in_flight.clear()
                    _terminate_pool(pool)
                    pool = self._new_pool()
                    for task, attempt, solo in broken_tasks:
                        if solo:
                            # Ran alone when the pool broke: guilty.
                            exc = WorkerCrashError(
                                f"worker process died while running "
                                f"{task.label} (attempt {attempt})"
                            )
                            delay = self._on_task_error(task, attempt, exc)
                            if delay is not None:
                                waiting.append((time.monotonic() + delay,
                                                task, attempt + 1, True))
                        else:
                            # Culprit unknown: re-run each implicated
                            # task solo; innocents pay no retry budget.
                            self._journal_event("task_isolated", task,
                                                attempt=attempt)
                            isolate.append((task, attempt))
                    continue

                # Watchdog: a task past its deadline is presumed hung.
                # Pools cannot cancel a running future, so the pool is
                # replaced; only the overdue task is charged.
                if timeout is not None and in_flight:
                    now = time.monotonic()
                    overdue = {
                        future
                        for future, rec in in_flight.items()
                        if now - rec[3] > timeout
                    }
                    if overdue:
                        victims = list(in_flight.items())
                        in_flight.clear()
                        _terminate_pool(pool)
                        pool = self._new_pool()
                        for future, (task, attempt, _tw, _tm, solo) in \
                                victims:
                            if future in overdue:
                                self.timeouts += 1
                                self.registry.inc(
                                    "repro_task_timeouts_total", 1,
                                    circuit=task.name)
                                exc = TaskTimeoutError(
                                    f"{task.label} exceeded the "
                                    f"{timeout:g}s task timeout "
                                    f"(attempt {attempt})"
                                )
                                delay = self._on_task_error(
                                    task, attempt, exc)
                                if delay is not None:
                                    waiting.append(
                                        (time.monotonic() + delay,
                                         task, attempt + 1, solo))
                            else:
                                # Innocent bystander of the pool swap.
                                self._journal_event("task_requeued", task,
                                                    attempt=attempt)
                                (isolate if solo else queue).append(
                                    (task, attempt))
        finally:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass


def run_sweeps_report(
    configs: Sequence[ExperimentConfig],
    executor: Optional[ExecutorConfig] = None,
) -> SweepReport:
    """Run several circuits' sweeps fault-tolerantly; never lose cells.

    Every (circuit, level) pair is an independent task, so up to
    ``jobs`` of all the circuits' levels run at once.  Each task is
    retried per the executor's policy, watched by the per-task
    timeout, and journalled; cells that stay failed become structured
    :class:`~repro.core.resilience.TaskFailure` records on the
    returned :class:`~repro.core.resilience.SweepReport` while every
    successful cell's :class:`FlowSummary` lands in
    ``report.results`` — Tables 1/2/3 render with explicit holes
    instead of the sweep aborting.  :func:`repro.api.sweep` turns a
    report with failures into :class:`SweepExecutionError`.

    With a cache directory configured, a ``journal.jsonl`` is appended
    next to the cache entries.  Every cell whose content-hash key is
    cached is served from the cache, so a killed sweep re-run on the
    same directory continues where it stopped.

    With ``executor.trace`` set, every worker's flow trace rides back
    on its summary.  The sweep's own scheduling spans (``level:``,
    split into ``queue_wait`` and ``worker_run`` when the worker's
    trace came back, and ``cache_hit:``) go to the tracer active in
    *this* process: activate one with :func:`repro.obs.tracing` to
    collect them.
    """
    executor = executor or ExecutorConfig()
    cache = executor.cache
    tracer = obs.get_tracer()
    registry = (executor.registry if executor.registry is not None
                else obs.MetricsRegistry())
    tasks: List[_LevelTask] = []
    for config in configs:
        tasks.extend(_plan_levels(config, executor))

    started_at = time.time()
    started_mono = time.monotonic()
    jpath = executor.journal_path()
    journal = SweepJournal(jpath) if jpath is not None else None
    # The journal handle must not outlive the sweep even when a
    # scheduler or cache failure unwinds: an open handle leaks the
    # fd and (on a crashed daemon worker) can hold a torn tail
    # without its closing record.
    try:
        if journal is not None:
            journal.record(
                "sweep_start",
                jobs=executor.jobs,
                retries=executor.retries,
                task_timeout_s=executor.task_timeout_s,
                chaos=executor.chaos is not None,
                cells=[
                    {"name": t.name, "tp_percent": t.tp_percent,
                     "key": t.cache_key}
                    for t in tasks
                ],
            )

        scheduler = _Scheduler(executor, cache, tracer, journal, registry)
        pending = [task for task in tasks
                   if not scheduler.serve_cached(task)]
        scheduler.run(pending)
        summaries = scheduler.summaries
        failures = sorted(scheduler.failures,
                          key=lambda f: (f.name, f.tp_percent))

        if journal is not None:
            journal.record(
                "sweep_end",
                ok=not failures,
                failed=[f.label for f in failures],
                retries=scheduler.retries,
                timeouts=scheduler.timeouts,
                worker_crashes=scheduler.crashes,
                cancelled=scheduler.cancelled,
            )
    finally:
        if journal is not None:
            journal.close()

    if cache is not None:
        for event, count in (("hit", cache.hits), ("miss", cache.misses),
                             ("corrupt", cache.corrupt),
                             ("evict", cache.evictions)):
            registry.inc("repro_cache_events_total", count, event=event)

    results: Dict[str, ExperimentResult] = {}
    for config in configs:
        runs = {
            pct: summaries[(config.name, pct)]
            for pct in config.tp_percents
            if (config.name, pct) in summaries
        }
        results[config.name] = ExperimentResult(name=config.name, runs=runs)
    return SweepReport(
        results=results,
        failures=tuple(failures),
        retries=scheduler.retries,
        timeouts=scheduler.timeouts,
        worker_crashes=scheduler.crashes,
        journal_path=str(jpath) if jpath is not None else None,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        cache_evictions=cache.evictions if cache is not None else 0,
        cancelled=scheduler.cancelled,
        cache_write_failures=(cache.write_failures
                              if cache is not None else 0),
        started_at=started_at,
        finished_at=time.time(),
        started_mono=started_mono,
        finished_mono=time.monotonic(),
    )

