"""Fault-injection suite: the sweep engine under scripted failures.

Every test drives the real executor against a deterministic
:class:`repro.chaos.FaultPlan` — injected exceptions, hung stages,
worker kills (``os._exit`` inside the pool) and torn cache writes —
and asserts the sweep degrades exactly as designed: retries recover
transient faults, the watchdog times out hangs, crash culprits are
identified by solo isolation, failed cells become structured
:class:`TaskFailure` holes, and a re-run on the same cache directory
completes the sweep with output byte-identical to a clean serial run.

CI runs this file as the dedicated ``chaos`` job.
"""

from __future__ import annotations

import functools
import glob

import pytest

from repro import api
from repro.api import CIRCUITS
from repro.atpg.engine import AtpgConfig
from repro.chaos import FaultPlan, FaultSpec
from repro.core import (
    ExecutorConfig,
    ExperimentConfig,
    SweepExecutionError,
    format_table1,
    format_table2,
    format_table3,
    read_journal,
    run_experiment,
)
from repro.core import executor as executor_mod
from repro.core.executor import run_sweeps_report
from repro.core.flow import FlowConfig

#: Cheap-but-real ATPG settings: full flow semantics, bounded search.
FAST_ATPG = AtpgConfig(seed=7, backtrack_limit=24, max_deterministic=60,
                       abort_recovery_blocks=4, second_chance_factor=1)
SCALE = 0.008


def _experiment(name: str, tp_percents=(0.0, 1.0)) -> ExperimentConfig:
    """A registry circuit's sweep at test scale."""
    spec = CIRCUITS[name]
    flow = FlowConfig(atpg=FAST_ATPG).replace(**spec.flow_defaults)
    return ExperimentConfig(
        name=name,
        circuit_factory=functools.partial(spec.factory, scale=SCALE),
        flow=flow,
        tp_percents=tuple(tp_percents),
    )


def _executor(tmp_path, **kwargs) -> ExecutorConfig:
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("backoff_base_s", 0.01)
    return ExecutorConfig(**kwargs)


# ----------------------------------------------------------------------
# Serial-path fault handling
# ----------------------------------------------------------------------
def test_serial_retry_recovers_transient_fault(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="raise", circuit="s38417", tp_percent=1.0,
                  stage="sta", times=1),
    ))
    report = run_sweeps_report(
        [_experiment("s38417")],
        _executor(tmp_path, jobs=1, retries=1, chaos=plan),
    )
    assert report.ok
    assert report.retries == 1
    assert report.successful_cells() == 2
    events = read_journal(report.journal_path)
    failed = [e for e in events if e["event"] == "task_failed"]
    assert len(failed) == 1
    assert failed[0]["error_type"] == "InjectedFault"
    assert failed[0]["will_retry"] is True


def test_fatal_error_is_not_retried(tmp_path, monkeypatch):
    def bad_flow(*args, **kwargs):
        raise ValueError("config rejected")

    monkeypatch.setattr(executor_mod, "run_flow", bad_flow)
    report = run_sweeps_report(
        [_experiment("s38417", tp_percents=(0.0,))],
        _executor(tmp_path, jobs=1, retries=3),
    )
    assert not report.ok
    assert report.retries == 0  # fatal: no budget burned
    (failure,) = report.failures
    assert failure.attempts == 1
    assert failure.error_type == "ValueError"
    assert not failure.retryable


def test_exhausted_retries_leave_structured_hole(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="raise", circuit="s38417", tp_percent=1.0,
                  stage="tpi_scan", times=-1),
    ))
    report = run_sweeps_report(
        [_experiment("s38417")],
        _executor(tmp_path, jobs=1, retries=1, chaos=plan),
    )
    assert not report.ok
    (failure,) = report.failures
    assert (failure.name, failure.tp_percent) == ("s38417", 1.0)
    assert failure.attempts == 2  # first try + one retry
    assert failure.error_type == "InjectedFault"
    assert failure.retryable  # budget spent, not hopeless
    assert failure.chain and failure.cache_key
    # The surviving cell still renders: graceful degradation.
    result = report.results["s38417"]
    assert sorted(result.runs) == [0.0]
    assert report.failed_cells() == (("s38417", 1.0),)


def test_fail_fast_aborts_remaining_cells(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="raise", circuit="s38417", tp_percent=0.0,
                  stage="tpi_scan", times=-1),
    ))
    report = run_sweeps_report(
        [_experiment("s38417", tp_percents=(0.0, 1.0, 2.0))],
        _executor(tmp_path, jobs=1, retries=0, fail_fast=True, chaos=plan),
    )
    assert len(report.failures) == 3
    by_pct = {f.tp_percent: f for f in report.failures}
    assert by_pct[0.0].error_type == "InjectedFault"
    assert by_pct[1.0].error_type == "SweepAborted"
    assert by_pct[1.0].attempts == 0
    assert by_pct[2.0].error_type == "SweepAborted"
    assert report.successful_cells() == 0


def test_api_sweep_raises_with_failure_triples(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="raise", circuit="s38417", tp_percent=1.0,
                  stage="tpi_scan", times=-1),
    ))
    with pytest.raises(SweepExecutionError) as err:
        api.sweep("s38417", scale=SCALE, tp_percents=(0.0, 1.0),
                  cache_dir=str(tmp_path / "cache"), retries=0,
                  chaos=plan, atpg=FAST_ATPG)
    # The contract: (name, tp_percent, exception) triples.
    assert [(n, p, type(e).__name__) for n, p, e in err.value.failures] \
        == [("s38417", 1.0, "InjectedFault")]
    assert str(err.value) == (
        "1 sweep level(s) failed (s38417 @ 1%: InjectedFault('chaos: "
        "injected failure in tpi_scan for s38417@1% (attempt 0)')); "
        "completed levels are cached and will be reused on re-run")


# ----------------------------------------------------------------------
# Parallel-path fault handling: watchdog and crash isolation
# ----------------------------------------------------------------------
def test_watchdog_times_out_hung_worker(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="hang", circuit="s38417", tp_percent=1.0,
                  stage="tpi_scan", times=-1, seconds=60.0),
    ))
    report = run_sweeps_report(
        [_experiment("s38417")],
        _executor(tmp_path, jobs=2, retries=0, task_timeout_s=3.0,
                  chaos=plan),
    )
    assert report.timeouts == 1
    (failure,) = report.failures
    assert failure.error_type == "TaskTimeoutError"
    assert (failure.name, failure.tp_percent) == ("s38417", 1.0)
    # The innocent cell sharing the pool still completed.
    assert report.successful_cells() == 1


def test_worker_kill_identified_by_solo_isolation(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="kill", circuit="s38417", tp_percent=1.0,
                  stage="tpi_scan", times=-1),
    ))
    report = run_sweeps_report(
        [_experiment("s38417", tp_percents=(0.0, 1.0, 2.0))],
        _executor(tmp_path, jobs=3, retries=0, chaos=plan),
    )
    assert report.worker_crashes >= 1
    (failure,) = report.failures
    assert failure.error_type == "WorkerCrashError"
    assert (failure.name, failure.tp_percent) == ("s38417", 1.0)
    # Pool breakage must not bill the innocent bystander cells.
    assert report.successful_cells() == 2


def test_kill_recovers_when_fault_is_transient(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="kill", circuit="s38417", tp_percent=1.0,
                  stage="tpi_scan", times=1),
    ))
    report = run_sweeps_report(
        [_experiment("s38417")],
        _executor(tmp_path, jobs=2, retries=1, chaos=plan),
    )
    assert report.ok
    assert report.worker_crashes >= 1
    assert report.successful_cells() == 2


# ----------------------------------------------------------------------
# Cache corruption and re-runs
# ----------------------------------------------------------------------
def test_torn_cache_write_quarantined_on_next_sweep(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="corrupt_cache", circuit="s38417", tp_percent=1.0),
    ))
    first = run_sweeps_report(
        [_experiment("s38417")],
        _executor(tmp_path, jobs=1, chaos=plan),
    )
    assert first.ok  # corruption is post-write; the run itself is fine
    second = run_sweeps_report(
        [_experiment("s38417")],
        _executor(tmp_path, jobs=1),
    )
    assert second.ok
    quarantined = glob.glob(str(tmp_path / "cache" / "**" / "*.corrupt"),
                            recursive=True)
    assert len(quarantined) == 1
    runs = second.results["s38417"].runs
    assert runs[0.0].from_cache          # clean entry served
    assert not runs[1.0].from_cache      # torn entry recomputed


def test_rerun_completes_a_killed_sweep(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="kill", circuit="s38417", tp_percent=1.0,
                  stage="tpi_scan", times=-1),
    ))
    first = run_sweeps_report(
        [_experiment("s38417")],
        _executor(tmp_path, jobs=2, retries=0, chaos=plan),
    )
    assert not first.ok
    rerun = run_sweeps_report(
        [_experiment("s38417")],
        _executor(tmp_path, jobs=2),
    )
    assert rerun.ok
    assert rerun.successful_cells() == 2
    assert rerun.results["s38417"].runs[0.0].from_cache
    assert not rerun.results["s38417"].runs[1.0].from_cache
    # Both sweeps share one append-only journal, one block per run.
    events = read_journal(rerun.journal_path)
    starts = [i for i, e in enumerate(events)
              if e["event"] == "sweep_start"]
    assert len(starts) == 2
    served = [(e["event"], e["tp_percent"]) for e in events[starts[1]:]
              if e["event"] in ("task_cached", "task_done")]
    assert served == [("task_cached", 0.0), ("task_done", 1.0)]


# ----------------------------------------------------------------------
# Acceptance: the 18-cell chaos sweep
# ----------------------------------------------------------------------
def _census(report) -> str:
    """The census assertions' message: the two counts, every failed
    cell, and the journal's failure, requeue and isolation events."""
    lines = [f"timeouts={report.timeouts} "
             f"worker_crashes={report.worker_crashes}"]
    lines += [f"failure {f.name}@{f.tp_percent:g}%: {f.error_type}, "
              f"{f.attempts} attempt(s)" for f in report.failures]
    for e in read_journal(report.journal_path):
        if e["event"] in ("task_failed", "task_requeued", "task_isolated"):
            lines.append(f"{e['event']} {e['name']}@{e['tp_percent']:g}% "
                         f"attempt {e['attempt']} {e.get('error_type', '')}")
    return "\n".join(lines)


def test_acceptance_18_cell_chaos_sweep_degrades_then_resumes(tmp_path):
    """Kill + hang + torn cache across 18 cells: >= 15 survive with
    accurate failure records, and a chaos-free re-run completes the
    sweep byte-identically to a clean serial run."""
    circuits = ("s38417", "control_core", "p26909")
    levels = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    experiments = [_experiment(name, levels) for name in circuits]
    plan = FaultPlan(faults=(
        FaultSpec(kind="kill", circuit="s38417", tp_percent=2.0,
                  stage="scan_reorder", times=-1),
        FaultSpec(kind="hang", circuit="control_core", tp_percent=3.0,
                  stage="extraction", times=-1, seconds=60.0),
        FaultSpec(kind="corrupt_cache", circuit="p26909",
                  tp_percent=1.0),
    ))

    report = run_sweeps_report(
        experiments,
        _executor(tmp_path, jobs=3, retries=1, task_timeout_s=5.0,
                  chaos=plan),
    )
    census = _census(report)
    assert report.successful_cells() >= 15, census
    failed = dict(report.failed_cells())
    by_cell = {(f.name, f.tp_percent): f for f in report.failures}
    kill = by_cell.get(("s38417", 2.0))
    assert kill is not None, census
    assert kill.error_type == "WorkerCrashError" and kill.attempts == 2, \
        census
    hang = by_cell.get(("control_core", 3.0))
    assert hang is not None, census
    assert hang.error_type == "TaskTimeoutError" and hang.attempts == 2, \
        census
    # The torn-cache cell and every innocent bystander still succeeded.
    assert ("p26909", 1.0) not in failed
    assert report.timeouts == 2, census
    assert report.worker_crashes >= 2, census

    # Re-run with the fault plan disabled: the sweep completes...
    resumed = run_sweeps_report(
        experiments,
        _executor(tmp_path, jobs=3, retries=1),
    )
    assert resumed.ok
    assert resumed.successful_cells() == 18
    # ...recomputing exactly the holes (plus the quarantined cell).
    quarantined = glob.glob(str(tmp_path / "cache" / "**" / "*.corrupt"),
                            recursive=True)
    assert len(quarantined) == 1
    events = read_journal(resumed.journal_path)
    done = {e["key"] for e in events if e["event"] == "task_done"}
    assert len(done) == 18

    # ...and its Tables 1/2/3 are byte-identical to a clean serial run.
    for experiment in experiments:
        clean = run_experiment(experiment)
        recovered = resumed.results[experiment.name]
        assert format_table1(recovered.table1_rows()) \
            == format_table1(clean.table1_rows())
        assert format_table2(recovered.table2_rows()) \
            == format_table2(clean.table2_rows())
        assert format_table3(recovered.table3_rows()) \
            == format_table3(clean.table3_rows())


# ----------------------------------------------------------------------
# Facade-level knobs
# ----------------------------------------------------------------------
def test_api_sweep_report_exposes_resilience_knobs(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="raise", circuit="s38417", tp_percent=1.0,
                  stage="sta", times=1),
    ))
    report = api.sweep_report(
        "s38417", scale=SCALE, tp_percents=(0.0, 1.0), jobs=1,
        cache_dir=str(tmp_path / "cache"), retries=1, chaos=plan,
        atpg=FAST_ATPG,
    )
    assert report.ok and report.retries == 1
    assert report.journal_path is not None


def test_api_unknown_circuit_suggests_closest():
    with pytest.raises(KeyError, match="did you mean 's38417'"):
        api.sweep_report("s38416", scale=SCALE)
