"""The benchmark's four workloads; one runs per fresh interpreter.

``run.py`` spawns this script once per workload with
``PYTHONHASHSEED=0`` and ``PYTHONPATH=src``::

    python benchmarks/perf/workloads.py --workload t1_podem --seed 0 \\
        --seconds 20 --trace 0

It prints one JSON record: metrics, work counts, output digests and
any problem found.

Inputs come only from ``--seed``.  The circuits are the registered
generators at their default seeds, so seed 0 reproduces
``repro sweep --circuit X`` at the workload's scale and options.  A
seed N sets the ATPG seed to its default plus N and, for N != 0,
draws a TPI exclusion set (FlowConfig.exclude_nets, the paper's
Section 5 mechanism) of a fifth of each circuit's nets.  The generator
seed stays fixed: measured PODEM cost across generator seeds spans
2.6x at scale 0.005, far wider than any regression bound.

A compute workload repeats identical passes until ``--seconds`` have
passed; a pass is every circuit's six-level sweep plus its Tables 1-3
rows.  Every pass must reproduce the first pass's output digests.

Times are reported at a reference host speed (see :class:`HostSpeed`);
the record keeps the raw wall-clock values beside them.  Set-up, cells,
table assembly and service slices are timed with no calibration inside
them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy

from repro import api, obs
from repro.atpg.compaction import pack_block
from repro.atpg.engine import AtpgConfig
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import FaultStatus
from repro.atpg.simulator import BitSimulator
from repro.core.experiment import PAPER_TP_PERCENTS, ExperimentResult
from repro.core.flow import FlowConfig, FlowResult
from repro.library.cmos130 import cmos130
from repro.netlist.levelize import extract_comb_view
from repro.service import ServiceClient, SweepRequest
from repro.service.protocol import JOB_DONE, canonical_result_bytes

import layers

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Set-up repetitions per run; set-up time is their median.
SETUP_REPS = 3

#: The --smoke size: one circuit, two TP levels, 20 service jobs.
SMOKE_CIRCUITS = ("s38417",)
SMOKE_SCALE = 0.005
SMOKE_LEVELS = (0.0, 2.0)
SMOKE_JOBS = 20

#: A compute run stops adding passes after this many seconds even
#: when ``--trace 1`` still lacks a traced pass.
HARD_LIMIT_S = 120.0

#: Closed-loop client threads of the service workload (the host has
#: two cores).
SERVE_CLIENTS = 2

#: Closed-loop service measurement is cut into this many slices, with
#: a host-speed sample taken between slices while the daemon is idle.
SERVE_SLICES = 10

#: Calibration loops timed before and after a set-up or a service
#: slice (a cell, being short and many, gets one on each side).
EDGE_SAMPLES = 5

#: Calibration loop length, and its duration at the reference speed
#: (the fast state of the 2-vCPU host the baseline was measured on).
CALIBRATION_LOOPS = 125_000
REFERENCE_CALIBRATION_S = 0.009

#: The conftest bench scales (0.08 / 0.06 / 0.05) divided by four.
QUARTER_BENCH = {"s38417": 0.02, "control_core": 0.015, "p26909": 0.0125}

#: Cheap ATPG for the service cache fill (the admission bench's knobs).
FAST_ATPG = {"seed": 7, "backtrack_limit": 24, "max_deterministic": 60,
             "abort_recovery_blocks": 4, "second_chance_factor": 1}


@dataclass(frozen=True)
class Compute:
    """An in-process workload: serial, cache-cold ``api.run`` calls."""

    scales: Dict[str, float]
    options: Dict[str, Any] = field(default_factory=dict)
    #: Re-simulate every DETECTED verdict after the first pass.
    census: bool = False


@dataclass(frozen=True)
class Serve:
    """The daemon workload: cache-hit jobs from two closed-loop clients."""

    scale: float
    atpg: Dict[str, Any]


WORKLOADS = {
    # Table 1 where PODEM does most of the work.
    "t1_podem": Compute(
        scales={name: 0.005 for name in api.CIRCUITS}, census=True),
    # Tables 2-3: layout only, PODEM bypassed.
    "t23_layout": Compute(
        scales=QUARTER_BENCH, options={"run_atpg_phase": False}),
    # Random-pattern ATPG: fault simulation instead of search.
    "atpg_random": Compute(
        scales=QUARTER_BENCH,
        options={"run_layout_phase": False,
                 "atpg": {"random_blocks": 64, "max_deterministic": 0}},
        census=True),
    # Service, store and cache reads; every compute layer idle.
    "serve_cached": Serve(scale=0.005, atpg=FAST_ATPG),
}


class HostSpeed:
    """The host's speed around each timed operation.

    A fixed pure-Python loop is timed before and after every operation
    (a flow cell, a set-up, a slice of service load), never while the
    program under test runs.  Shared hosts drift: on the 2-vCPU machine
    the baseline was measured on, the loop and the flow cells switched
    between a fast state and one about 45% slower, for seconds to
    minutes at a time, while a cell's time over its neighbouring loop
    times stayed within a few percent.  :meth:`scale` reports an
    operation's time at the reference speed.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self, repeats: int = 1) -> float:
        """Time the loop ``repeats`` times; returns the mean."""
        for _ in range(repeats):
            t0 = time.perf_counter()
            total = 0
            for i in range(CALIBRATION_LOOPS):
                total += i * i % 7
            self.samples.append(time.perf_counter() - t0)
        return statistics.fmean(self.samples[-repeats:])

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between calibrations ``before`` and
        ``after``, at the reference speed."""
        return seconds * 2.0 * REFERENCE_CALIBRATION_S / (before + after)

    @property
    def factor(self) -> float:
        """The run's mean speed relative to the reference."""
        return REFERENCE_CALIBRATION_S / statistics.fmean(self.samples)


@dataclass
class SweepInput:
    """One circuit's six-level sweep, fully determined by the seed."""

    name: str
    scale: float
    levels: Tuple[float, ...]
    config: FlowConfig

    def circuit(self):
        return api.load_circuit(self.name, scale=self.scale)


def digest(result: ExperimentResult) -> str:
    """SHA-256 of a circuit sweep's canonical (timing-free) content."""
    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()


def sweep_inputs(spec: Compute, seed: int, smoke: bool) -> List[SweepInput]:
    """The circuits, levels and configs a compute workload runs."""
    names = SMOKE_CIRCUITS if smoke else tuple(spec.scales)
    levels = SMOKE_LEVELS if smoke else PAPER_TP_PERCENTS
    inputs = []
    for name in names:
        scale = SMOKE_SCALE if smoke else spec.scales[name]
        atpg = dict(spec.options.get("atpg", {}),
                    seed=AtpgConfig().seed + seed)
        exclude = ()
        if seed:
            nets = sorted(api.load_circuit(name, scale=scale).nets)
            exclude = random.Random(f"{name}:{seed}").sample(
                nets, len(nets) // 5)
        config = (FlowConfig()
                  .replace(**api.CIRCUITS[name].flow_defaults)
                  .replace(**dict(spec.options, atpg=atpg),
                           exclude_nets=exclude))
        inputs.append(SweepInput(name, scale, levels, config))
    return inputs


def census_misses(result: FlowResult) -> int:
    """Fault classes marked DETECTED that the final patterns miss.

    An independent recheck of the ATPG verdicts: a fresh combinational
    view, good-machine simulator and fault simulator replay the
    compacted pattern set against every DETECTED class.
    """
    atpg = result.atpg
    fsim = FaultSimulator(BitSimulator(extract_comb_view(result.circuit)))
    flist = atpg.fault_list
    claimed = [rep for rep in flist.classes()
               if flist.status[rep] is FaultStatus.DETECTED]
    remaining = {rep for rep in claimed if fsim.in_view(rep)}
    misses = len(claimed) - len(remaining)
    width = fsim.sim.width
    for start in range(0, len(atpg.patterns), width):
        if not remaining:
            break
        words = pack_block(atpg.input_nets, atpg.patterns[start:start + width])
        remaining -= set(fsim.run_block(words, remaining))
    return misses + len(remaining)


def _tables(experiment: ExperimentResult, config: FlowConfig) -> None:
    if config.run_atpg_phase:
        experiment.table1_rows()
    if config.run_layout_phase:
        experiment.table2_rows()
        experiment.table3_rows()


@dataclass
class PassResult:
    """One pass; every time is kept raw and at the reference speed."""

    sweeps: List[float] = field(default_factory=list)
    sweeps_scaled: List[float] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    work: Dict[str, float] = field(default_factory=dict)
    trace: Optional[obs.Trace] = None


def run_pass(inputs: List[SweepInput], library, census: bool,
             speed: HostSpeed, problems: List[str]) -> PassResult:
    """One pass: every circuit's sweep, timed cell by cell.

    Only the ``api.run`` calls and the table assembly are timed (and
    traced, as ``bench.cell`` and ``bench.tables`` root spans); circuit
    generation, calibration, digests and the census recheck are not.
    A sweep's time is the sum of its cells and its table assembly.
    """
    out = PassResult()
    work = {"cells": 0, "test_points": 0, "patterns": 0, "aborted": 0,
            "redundant": 0, "hold_fix_rounds": 0, "hold_buffers": 0}

    def timed(span: str, call):
        t0 = time.perf_counter()
        with obs.span(span):
            value = call()
        elapsed = time.perf_counter() - t0
        return value, elapsed

    for sweep in inputs:
        out.attempted += len(sweep.levels)
        circuits = [sweep.circuit() for _ in sweep.levels]
        runs: Dict[float, FlowResult] = {}
        raw = scaled = 0.0
        before = speed.sample()
        try:
            for pct, circuit in zip(sweep.levels, circuits):
                config = sweep.config.replace(tp_percent=pct)
                runs[pct], elapsed = timed("bench.cell", lambda: api.run(
                    circuit, library, config))
                after = speed.sample()
                raw += elapsed
                scaled += speed.scale(elapsed, before, after)
                before = after
            experiment = ExperimentResult(name=sweep.name, runs=runs)
            _, elapsed = timed("bench.tables",
                               lambda: _tables(experiment, sweep.config))
            out.sweeps.append(raw + elapsed)
            out.sweeps_scaled.append(
                scaled + speed.scale(elapsed, before, before))
        except Exception as exc:  # one failed sweep must not end the run
            problems.append(f"{sweep.name}: {type(exc).__name__}: {exc}")
            out.failed += len(sweep.levels)
            continue
        out.digests[sweep.name] = digest(experiment)
        for pct, result in runs.items():
            work["cells"] += 1
            work["test_points"] += result.n_test_points
            work["hold_fix_rounds"] += len(result.hold_fix_rounds)
            work["hold_buffers"] += sum(
                r.buffers_inserted for r in result.hold_fix_rounds)
            if result.atpg is not None:
                work["patterns"] += result.atpg.n_patterns
                work["aborted"] += result.atpg.aborted
                work["redundant"] += result.atpg.redundant
            if census and result.atpg is not None:
                missed = census_misses(result)
                if missed:
                    problems.append(
                        f"{sweep.name}@{pct:g}%: {missed} DETECTED "
                        "classes not detected by the final patterns")
                    out.failed += 1
    out.work = work
    return out


def _timings(latencies: List[float], n_circuits: int, window: float
             ) -> Dict[str, float]:
    """The end-to-end times from the latencies of circuit sweeps that
    took ``window`` seconds of measurement in total."""
    return {"sweep_s": window * n_circuits / len(latencies),
            "latency_ms_p50": 1e3 * statistics.median(latencies),
            "latency_ms_p90": 1e3 * _percentile(latencies, 0.9)}


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: always a measured value."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(spans: List[obs.Span], work: Dict[str, float],
                   repeats: int, factor: float) -> Dict[str, float]:
    """Per-layer shares, work counts, ratios and rates (per second at
    the reference speed) of traced sections whose root spans are
    ``spans``: ``repeats`` identical repetitions of ``work``."""
    seconds = layers.self_seconds(spans)
    total_s = sum(span.duration_s for span in spans)
    metrics = {f"{layer}.pct": 100.0 * s / total_s
               for layer, s in seconds.items()}

    def rate(count: str, layer: str) -> float:
        busy = seconds[layer] * factor
        return repeats * work[count] / busy if busy > 0 else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics.update({k: float(v) for k, v in work.items()})
    metrics.update({
        "podem.merge_hit_ratio": ratio(work["podem.merge_hits"],
                                       work["podem.merge_calls"]),
        "fsim.useful_ratio": ratio(work["fsim.detections"],
                                   work["fsim.fault_evals"]),
        "tpi.test_points_per_s": rate("tpi.test_points", "tpi"),
        "route.nets_per_s": rate("route.nets", "route"),
        "sta.calls_per_s": rate("sta.calls", "sta"),
        "podem.calls_per_s": rate("podem.calls", "podem"),
        "podem.backtracks_per_s": rate("podem.backtracks", "podem"),
        "fsim.fault_evals_per_s": rate("fsim.fault_evals", "fsim"),
        "svc.polls_per_job": ratio(work["svc.polls"], work["svc.jobs"]),
    })
    return metrics


#: Service-side per-layer metrics, zero on the compute workloads.
SERVICE_LAYER_METRICS = ("svc.queue_wait_pct", "svc.job_run_pct",
                         "svc.requests_per_s", "svc.daemon_rss_mb",
                         "cache.hit_ratio")


# ----------------------------------------------------------------------
# Compute workloads
# ----------------------------------------------------------------------
def run_compute(name: str, spec: Compute, args, speed: HostSpeed,
                problems: List[str]) -> Dict[str, Any]:
    inputs = sweep_inputs(spec, args.seed, args.smoke)
    library = cmos130()
    originals = layers.snapshot()
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    start = time.perf_counter()
    while True:
        is_traced = bool(args.trace) and len(plain) > len(traced)
        if is_traced:
            with layers.instrumented(), obs.tracing(
                    label=f"{name} seed {args.seed}") as tracer:
                result = run_pass(inputs, library, False, speed, problems)
            result.trace = tracer.trace()
            if any(a is not b for a, b in zip(layers.snapshot(), originals)):
                problems.append("layer wrappers were not restored")
            traced.append(result)
        else:
            census = spec.census and not plain
            plain.append(run_pass(inputs, library, census, speed,
                                  problems))
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S:
            break
        if elapsed >= args.seconds and (not args.trace or traced):
            break

    first = plain[0]
    for result in plain[1:] + traced:
        if result.digests != first.digests:
            problems.append("a pass's output digests differ from the "
                            "first pass's")
            result.failed = result.attempted
    rss = _peak_rss_mb()
    scaled = [s for r in plain for s in r.sweeps_scaled]
    raw = [s for r in plain for s in r.sweeps]
    record: Dict[str, Any] = {
        "metrics": dict(_timings(scaled, len(inputs), sum(scaled)),
                        peak_rss_mb=rss),
        "raw_metrics": dict(_timings(raw, len(inputs), sum(raw)),
                            peak_rss_mb=rss),
        "samples": {"passes": len(plain), "sweeps": len(raw),
                    "traced_passes": len(traced)},
        "pass_seconds": [sum(r.sweeps) for r in plain],
        "attempted": sum(r.attempted for r in plain + traced),
        "failed": sum(r.failed for r in plain + traced),
        "work": first.work,
        "digests": first.digests,
    }
    if traced:
        counts = [layers.work_counts(r.trace.spans) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("work counts differ between identical passes")
        spans = [s for r in traced for s in r.trace.spans]
        traced_s = statistics.fmean(sum(r.sweeps_scaled) for r in traced)
        metrics = _layer_metrics(spans, counts[0], len(traced),
                                 speed.factor)
        metrics.update({key: 0.0 for key in SERVICE_LAYER_METRICS})
        metrics["trace.sweep_s"] = traced_s
        metrics["trace.overhead_pct"] = 100.0 * (
            traced_s / record["metrics"]["sweep_s"] - 1.0)
        record["layers"] = metrics
        record["trace_file"] = _write_trace(
            name, args, [r.trace for r in traced])
    return record


def _write_trace(name: str, args, traces: List[obs.Trace]) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{args.seed}.trace.json"
    obs.write_chrome_trace(path, traces)
    return str(path)


def setup_compute(spec: Compute, args) -> None:
    """What a compute run needs before its first cell."""
    cmos130()
    for sweep in sweep_inputs(spec, args.seed, args.smoke):
        for _ in sweep.levels:
            sweep.circuit()


def time_setups(args, speed: HostSpeed) -> Tuple[List[float], List[float]]:
    """Set-up times (raw, and at the reference speed) of fresh
    interpreters: start-up, imports, library, circuit generation."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-only", "--workload", args.workload,
               "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    raw, scaled = [], []
    for _ in range(1 if args.smoke else SETUP_REPS):
        before = speed.sample(EDGE_SAMPLES)
        t0 = time.perf_counter()
        subprocess.run(command, check=True, timeout=60)
        raw.append(time.perf_counter() - t0)
        scaled.append(speed.scale(raw[-1], before,
                                  speed.sample(EDGE_SAMPLES)))
    return raw, scaled


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
class Daemon:
    """``python -m repro serve`` in a subprocess on a private cache."""

    def __init__(self, workdir: Path):
        workdir.mkdir(parents=True)
        self.log = open(workdir / "daemon.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(workdir / "cache"), "--job-workers", "2",
             "--drain-timeout", "5"],
            stdout=self.log, stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONUNBUFFERED="1"))
        try:
            self.url = self._wait_listening(workdir / "daemon.log")
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, log_path: Path) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = re.search(r"listening on (http://\S+)",
                              log_path.read_text(encoding="utf-8"))
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("daemon did not start; see " + str(log_path))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status")
        match = re.search(r"VmHWM:\s+(\d+) kB", status.read_text())
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _prom_totals(text: str) -> Dict[str, float]:
    """Sum a Prometheus exposition's samples by name (and, for cache
    events, by event label)."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        match = re.match(r"([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$", line)
        if not match:
            continue
        name, labels, value = match.groups()
        if name == "repro_cache_events_total":
            event = re.search(r'event="([^"]*)"', labels or "")
            name += ":" + (event.group(1) if event else "")
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


@dataclass
class JobLog:
    """Latencies and outcomes of the jobs one phase ran (thread-safe)."""

    phase: str
    latencies: List[float] = field(default_factory=list)
    latencies_scaled: List[float] = field(default_factory=list)
    window_s: float = 0.0
    window_scaled: float = 0.0
    failed: int = 0
    cache_hits: int = 0
    traces: List[obs.Trace] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def spans(self) -> List[obs.Span]:
        return [span for trace in self.traces for span in trace.spans]


def _client_loop(index: int, url: str, requests: List[SweepRequest],
                 fill: Dict[str, str], stop_at: float, limit: Optional[int],
                 traced: bool, log: JobLog, problems: List[str]) -> None:
    client = ServiceClient(url, timeout_s=60.0, retries=0)
    scope = (layers.thread_tracer(f"{log.phase} client {index}")
             if traced else nullcontext())
    with scope as tracer:
        i = 0
        while (time.perf_counter() < stop_at if limit is None
               else i < limit):
            base = requests[(index + i) % len(requests)]
            request = SweepRequest(
                circuit=base.circuit, scale=base.scale,
                tp_percents=base.tp_percents, options=base.options,
                name=f"{log.phase}-client{index}-job{len(log.latencies)}-{i}")
            i += 1
            ok = False
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.job") if tracer else nullcontext():
                    record = client.submit(request)
                    state = client.wait(record.id, timeout_s=60.0,
                                        poll_s=0.01)["state"]
                    report = client.result(record.id)
                latency = time.perf_counter() - t0
                runs = report.results[request.name].runs
                got = digest(ExperimentResult(name=base.circuit, runs=runs))
                ok = (state == JOB_DONE and not report.failures
                      and report.cache_misses == 0
                      and got == fill[base.circuit])
                if not ok:
                    problems.append(f"job {request.name}: state={state} "
                                    f"misses={report.cache_misses} "
                                    f"digest ok={got == fill[base.circuit]}")
            except Exception as exc:  # count the job, keep the load on
                latency = time.perf_counter() - t0
                problems.append(f"job {request.name}: "
                                f"{type(exc).__name__}: {exc}")
            with log.lock:
                log.latencies.append(latency)
                if ok:
                    log.cache_hits += report.cache_hits
                else:
                    log.failed += 1
    if tracer is not None:
        with log.lock:
            log.traces.append(tracer.trace())


def _run_jobs(daemon: Daemon, requests, fill, seconds: float,
              limit: Optional[int], log: JobLog, speed: HostSpeed,
              problems: List[str]) -> None:
    """Closed-loop load for ``seconds`` (or ``limit`` jobs) in slices,
    sampling the host speed between slices while the daemon is idle."""
    slices = 1 if limit is not None else SERVE_SLICES
    per_client = None if limit is None else limit // SERVE_CLIENTS
    before = speed.sample(EDGE_SAMPLES)
    for _ in range(slices):
        done = len(log.latencies)
        stop_at = time.perf_counter() + seconds / slices
        threads = [threading.Thread(
            target=_client_loop,
            args=(i, daemon.url, requests, fill, stop_at, per_client,
                  log.phase == "traced", log, problems))
            for i in range(SERVE_CLIENTS)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
            if thread.is_alive():
                raise RuntimeError("a service client did not finish")
        window = time.perf_counter() - t0
        after = speed.sample(EDGE_SAMPLES)
        log.window_s += window
        log.window_scaled += speed.scale(window, before, after)
        log.latencies_scaled.extend(speed.scale(x, before, after)
                                    for x in log.latencies[done:])
        before = after


def _fill(daemon: Daemon, requests: List[SweepRequest]) -> Dict[str, str]:
    """Compute every request once (cache misses) and digest the results."""
    client = ServiceClient(daemon.url, timeout_s=60.0, retries=0)
    ids = [client.submit(request).id for request in requests]
    digests = {}
    for request, job_id in zip(requests, ids):
        state = client.wait(job_id, timeout_s=120.0, poll_s=0.01)["state"]
        report = client.result(job_id)
        if state != JOB_DONE or report.failures:
            raise RuntimeError(f"cache fill of {request.circuit} failed")
        digests[request.circuit] = digest(report.results[request.circuit])
    return digests


def run_serve(name: str, spec: Serve, args, speed: HostSpeed,
              problems: List[str]) -> Dict[str, Any]:
    circuits = SMOKE_CIRCUITS if args.smoke else tuple(api.CIRCUITS)
    levels = SMOKE_LEVELS if args.smoke else PAPER_TP_PERCENTS
    scale = SMOKE_SCALE if args.smoke else spec.scale
    atpg = dict(spec.atpg, seed=spec.atpg["seed"] + args.seed)
    requests = [SweepRequest(circuit=c, scale=scale, tp_percents=levels,
                             options={"atpg": atpg}) for c in circuits]
    limit = SMOKE_JOBS if args.smoke else None
    workroot = OUT / f"serve-{os.getpid()}"
    setups: List[float] = []
    setups_scaled: List[float] = []
    daemon = None
    try:
        for rep in range(1 if args.smoke else SETUP_REPS):
            if daemon is not None:
                daemon.stop()
            before = speed.sample(EDGE_SAMPLES)
            t0 = time.perf_counter()
            daemon = Daemon(workroot / f"rep{rep}")
            fill = _fill(daemon, requests)
            setups.append(time.perf_counter() - t0)
            setups_scaled.append(speed.scale(setups[-1], before,
                                             speed.sample(EDGE_SAMPLES)))
        plain_s = args.seconds / 2 if args.trace else args.seconds
        plain = JobLog("plain")
        _run_jobs(daemon, requests, fill, plain_s, limit, plain, speed,
                  problems)
        rss = _peak_rss_mb()
        record: Dict[str, Any] = {
            "metrics": dict(_timings(plain.latencies_scaled, len(circuits),
                                     plain.window_scaled),
                            setup_s=statistics.median(setups_scaled),
                            peak_rss_mb=rss),
            "raw_metrics": dict(_timings(plain.latencies, len(circuits),
                                         plain.window_s),
                                setup_s=statistics.median(setups),
                                peak_rss_mb=rss),
            "samples": {"jobs": len(plain.latencies),
                        "window_s": plain.window_s},
            "attempted": len(plain.latencies),
            "failed": plain.failed,
            "work": {"jobs": len(plain.latencies),
                     "cache_hits": plain.cache_hits},
            "digests": fill,
            "setup_times": setups,
        }
        if args.trace:
            client = ServiceClient(daemon.url, timeout_s=60.0, retries=0)
            before = _prom_totals(client.metrics_prom())
            originals = layers.snapshot()
            traced = JobLog("traced")
            with layers.instrumented():
                _run_jobs(daemon, requests, fill, args.seconds - plain_s,
                          limit, traced, speed, problems)
            if any(a is not b for a, b in zip(layers.snapshot(), originals)):
                problems.append("layer wrappers were not restored")
            after = _prom_totals(client.metrics_prom())
            record["attempted"] += len(traced.latencies)
            record["failed"] += traced.failed
            record["layers"] = _serve_layers(
                traced, len(circuits), record["metrics"]["sweep_s"],
                {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after},
                daemon.peak_rss_mb(), speed.factor)
            record["trace_file"] = _write_trace(name, args, traced.traces)
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workroot, ignore_errors=True)
    return record


def _serve_layers(log: JobLog, n_circuits: int, plain_sweep_s: float,
                  prom: Dict[str, float], daemon_rss_mb: float,
                  factor: float) -> Dict[str, float]:
    metrics = _layer_metrics(log.spans, layers.work_counts(log.spans), 1,
                             factor)
    mean_latency = statistics.fmean(s.duration_s for s in log.spans)

    def mean(name: str) -> float:
        count = prom.get(f"{name}_count", 0.0)
        return prom.get(f"{name}_sum", 0.0) / count if count else 0.0

    hits = prom.get("repro_cache_events_total:hit", 0.0)
    misses = prom.get("repro_cache_events_total:miss", 0.0)
    handled_s = prom.get("repro_request_seconds_sum", 0.0) * factor
    traced_s = log.window_scaled * n_circuits / len(log.latencies)
    metrics.update({
        "svc.queue_wait_pct": 100.0 * mean("repro_job_queue_wait_seconds")
        / mean_latency,
        "svc.job_run_pct": 100.0 * mean("repro_job_seconds") / mean_latency,
        "svc.requests_per_s": (prom.get("repro_request_seconds_count", 0.0)
                               / handled_s if handled_s else 0.0),
        "svc.daemon_rss_mb": daemon_rss_mb,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.sweep_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s / plain_sweep_s - 1.0),
    })
    return metrics


# ----------------------------------------------------------------------
def load_expected(path: Path, size: str, workload: str,
                  seed: int) -> Optional[Dict[str, str]]:
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return data.get(size, {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--expected", type=Path,
                        default=HERE / "expected.json")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.setup_only:
        setup_compute(spec, args)
        return 0

    problems: List[str] = []
    speed = HostSpeed()
    if isinstance(spec, Compute):
        setups, setups_scaled = time_setups(args, speed)
        record = run_compute(args.workload, spec, args, speed, problems)
        record["metrics"]["setup_s"] = statistics.median(setups_scaled)
        record["raw_metrics"]["setup_s"] = statistics.median(setups)
        record["setup_times"] = setups
    else:
        record = run_serve(args.workload, spec, args, speed, problems)
    record["speed_factor"] = speed.factor
    record["calibration_s"] = speed.samples

    size = "smoke" if args.smoke else "full"
    expected = load_expected(args.expected, size, args.workload, args.seed)
    if expected is not None and expected != record["digests"]:
        problems.append(f"output digests differ from {args.expected.name}")
        record["failed"] = record["attempted"]
    record.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": size,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__,
                "hashseed": os.environ.get("PYTHONHASHSEED"),
                "cpus": os.cpu_count(), "machine": platform.machine()},
        "expected_checked": expected is not None,
        "problems": problems[:20],
    })
    record["correct"] = not problems and record["failed"] == 0
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
