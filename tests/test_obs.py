"""Tests for the observability layer: tracer semantics, exporters, and
the instrumented flow/executor.

The contract under test, in order of importance:

* tracing off (the default) is a no-op and changes nothing — results
  and cache keys are identical with and without it;
* a traced ``run_flow`` reports exactly the stages the flow recorded
  in ``stage_seconds``, with matching durations;
* worker traces ride back through the executor and merge (with the
  parent's scheduling spans) into a valid Chrome trace-event file.
"""

from __future__ import annotations

import functools
import json
import pickle

import pytest

from repro import obs
from repro.atpg import AtpgConfig
from repro.circuits import s38417_like
from repro.core import (
    ExecutorConfig,
    ExperimentConfig,
    FlowConfig,
    FlowSummary,
    STAGE_KEYS,
    SweepReport,
    format_stage_seconds,
    run_flow,
    run_sweeps_report,
)
from repro.library import cmos130
from repro.obs.tracer import Span, Trace

#: Cheap ATPG knobs (same spirit as test_executor's FAST_ATPG).
FAST_ATPG = AtpgConfig(seed=7, backtrack_limit=24, max_deterministic=60,
                       abort_recovery_blocks=4, second_chance_factor=1)


def small_experiment() -> ExperimentConfig:
    return ExperimentConfig(
        name="s38417",
        circuit_factory=functools.partial(s38417_like, scale=0.012),
        tp_percents=(0.0, 2.0),
        flow=FlowConfig(atpg=FAST_ATPG, run_layout_phase=False),
    )


def small_sweep(**executor) -> SweepReport:
    """The small sweep, inline; every cell must finish."""
    report = run_sweeps_report([small_experiment()],
                               ExecutorConfig(jobs=1, **executor))
    assert report.ok, report.failures
    return report


# ----------------------------------------------------------------------
# Tracer semantics
# ----------------------------------------------------------------------
def test_null_tracer_is_the_default():
    tracer = obs.get_tracer()
    assert not tracer.enabled
    assert not obs.tracing_active()
    with obs.span("anything") as sp:  # all no-ops, nothing recorded
        sp.counter("x")
        sp.gauge("y", 1.0)
    obs.counter("loose")
    obs.gauge("loose_gauge", 2)
    assert tracer.trace() is None
    assert tracer.capture(tracer.mark()) is None


def test_span_tree_nesting_counters_and_gauges():
    with obs.tracing(label="unit") as tracer:
        assert obs.tracing_active()
        with obs.span("outer"):
            obs.counter("ticks")  # routes to the innermost open span
            with obs.span("inner") as inner:
                inner.counter("ticks", 2)
                inner.gauge("level", 3)
                inner.gauge("level", 4)  # gauges: last write wins
        obs.counter("loose")  # no open span -> trace-level counter
    assert not obs.tracing_active()
    trace = tracer.trace()
    assert [s.name for s in trace.spans] == ["outer"]
    outer = trace.spans[0]
    assert outer.counters == {"ticks": 1.0}
    assert [c.name for c in outer.children] == ["inner"]
    inner = outer.children[0]
    assert inner.counters == {"ticks": 2.0}
    assert inner.gauges == {"level": 4.0}
    assert trace.counters == {"loose": 1.0}
    assert outer.t_start <= inner.t_start <= inner.t_end <= outer.t_end
    assert trace.find("inner") is inner
    assert trace.duration_s == outer.t_end


def test_tracing_scopes_nest_and_restore():
    with obs.tracing(label="outer") as outer:
        with obs.tracing(label="nested") as nested:
            assert obs.get_tracer() is nested
            with obs.span("work"):
                pass
        assert obs.get_tracer() is outer
    assert not obs.get_tracer().enabled
    assert nested.trace().find("work") is not None
    assert outer.trace().find("work") is None


def test_mark_capture_extracts_a_section():
    with obs.tracing() as tracer:
        with obs.span("before"):
            pass
        mark = tracer.mark()
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        captured = tracer.capture(mark)
    assert [s.name for s in captured.spans] == ["a", "b"]
    assert captured.pid == tracer.pid
    assert captured.wall_epoch == tracer.wall_epoch


def test_record_span_with_parent_and_clamping():
    with obs.tracing() as tracer:
        parent = tracer.record_span("level", 1.0, 3.0, gauges={"pid": 42})
        tracer.record_span("queue_wait", 1.0, 1.5, parent=parent)
        tracer.record_span("backwards", 2.0, 1.0, parent=parent)
    trace = tracer.trace()
    level = trace.find("level")
    assert level.gauges == {"pid": 42.0}
    assert [c.name for c in level.children] == ["queue_wait", "backwards"]
    assert level.children[1].duration_s == 0.0  # end clamped to start


def test_trace_pickles_roundtrip():
    with obs.tracing(label="p") as tracer:
        with obs.span("s") as sp:
            sp.counter("n", 5)
    trace = tracer.trace()
    clone = pickle.loads(pickle.dumps(trace))
    assert clone.label == "p"
    assert clone.find("s").counters == {"n": 5.0}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _toy_trace(label="t", pid=1, epoch=100.0) -> Trace:
    span = Span(name="work", t_start=0.5, t_end=1.5)
    span.counter("items", 3)
    span.children.append(Span(name="part", t_start=0.6, t_end=0.9))
    return Trace(spans=[span], label=label, pid=pid, wall_epoch=epoch,
                 counters={"total": 1.0})


def test_validate_chrome_trace_flags_problems():
    assert obs.validate_chrome_trace([]) != []
    assert obs.validate_chrome_trace({}) != []
    bad_ts = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1,
                               "tid": 1, "ts": -5, "dur": 1}]}
    assert any("ts" in p for p in obs.validate_chrome_trace(bad_ts))
    unknown = {"traceEvents": [{"name": "x", "ph": "Q",
                                "pid": 1, "tid": 1}]}
    assert any("phase" in p for p in obs.validate_chrome_trace(unknown))
    missing = {"traceEvents": [{"ph": "M", "pid": 1, "tid": 1}]}
    assert any("name" in p for p in obs.validate_chrome_trace(missing))


def test_write_chrome_trace_emits_loadable_json(tmp_path):
    path = tmp_path / "trace.json"
    written = obs.write_chrome_trace(path, [_toy_trace()])
    obj = json.loads(path.read_text())
    assert obj == written
    assert obs.validate_chrome_trace(obj) == []


def test_trace_summary_aggregates_sibling_spans():
    trace = Trace(label="sum", pid=3)
    for n in range(3):
        sp = Span(name="round", t_start=float(n), t_end=n + 0.5)
        sp.counter("buffers", 2)
        sp.gauge("left", 10 - n)
        trace.spans.append(sp)
    text = obs.format_trace_summary(trace)
    assert "trace sum (pid 3)" in text
    row = next(line for line in text.splitlines()
               if line.lstrip().startswith("round"))
    assert "buffers=6" in row  # counters sum over the group
    assert "left=8" in row  # gauges keep the last value
    assert obs.format_trace_summary(None) == "(no trace recorded)"


# ----------------------------------------------------------------------
# Instrumented flow
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_flow():
    circuit = s38417_like(scale=0.02)
    config = FlowConfig(tp_percent=2.0, atpg=FAST_ATPG)
    with obs.tracing(label="test-flow"):
        return run_flow(circuit, cmos130(), config)


def test_traced_flow_top_spans_match_stage_keys(traced_flow):
    trace = traced_flow.trace
    assert trace is not None
    names = tuple(span.name for span in trace.spans)
    assert names == tuple(traced_flow.stage_seconds)
    assert names == STAGE_KEYS


def test_traced_flow_span_durations_match_stage_seconds(traced_flow):
    for span in traced_flow.trace.spans:
        recorded = traced_flow.stage_seconds[span.name]
        # The span wraps the same code block the stage timer covers.
        assert span.duration_s <= recorded + 0.05
        assert span.duration_s == pytest.approx(recorded, rel=0.35,
                                                abs=0.05)


def test_traced_flow_records_stage_detail(traced_flow):
    trace = traced_flow.trace
    atpg = trace.find("atpg")
    assert atpg is not None and atpg.counters["patterns"] > 0
    assert trace.find("podem") is not None
    route = trace.find("global_route")
    assert route is not None and route.counters["nets_routed"] > 0
    cts = [s for s in trace.walk() if s.name.startswith("clock_tree:")]
    assert cts and all(s.counters.get("buffers", 0) >= 1 for s in cts)
    sta = trace.find("sta")
    assert sta is not None and "hold_violations_left" in sta.gauges
    tpi = trace.find("tpi_scan")
    assert tpi is not None and tpi.gauges["test_points"] >= 1


def test_untraced_flow_has_no_trace():
    circuit = s38417_like(scale=0.012)
    config = FlowConfig(atpg=FAST_ATPG, run_layout_phase=False)
    result = run_flow(circuit, cmos130(), config)
    assert result.trace is None


def test_tracing_does_not_change_results():
    def run():
        circuit = s38417_like(scale=0.012)
        config = FlowConfig(atpg=FAST_ATPG, run_layout_phase=False)
        return run_flow(circuit, cmos130(), config)

    plain = run()
    with obs.tracing():
        traced = run()
    assert plain.test_metrics() == traced.test_metrics()


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
def test_traced_sweep_ships_worker_traces_and_parent_spans():
    with obs.tracing(label="sweep") as tracer:
        result = small_sweep(trace=True).results["s38417"]
    sched = tracer.trace()
    for run in result.runs.values():
        assert run.trace is not None
        assert run.trace.find("tpi_scan") is not None
    levels = [s for s in sched.spans if s.name.startswith("level:")]
    assert len(levels) == 2
    for level in levels:
        assert [c.name for c in level.children] == ["queue_wait",
                                                    "worker_run"]
    merged = obs.chrome_trace(
        [run.trace for run in result.runs.values()] + [sched])
    assert obs.validate_chrome_trace(merged) == []


def test_untraced_sweep_ships_no_traces():
    result = small_sweep().results["s38417"]
    assert all(run.trace is None for run in result.runs.values())


def test_traced_sweep_hits_untraced_cache(tmp_path):
    """The trace flag never enters the cache key.

    Entries written by an untraced sweep must be served verbatim to a
    traced one; cache-served summaries carry no trace (their wall
    epoch would be stale) but keep their recorded stage timings.
    """
    cache_dir = str(tmp_path / "cache")
    small_sweep(cache_dir=cache_dir)
    with obs.tracing(label="warm") as tracer:
        report = small_sweep(cache_dir=cache_dir, trace=True)
    warm = report.results["s38417"]
    assert all(run.from_cache for run in warm.runs.values())
    assert all(run.trace is None for run in warm.runs.values())
    for run in warm.runs.values():
        assert sum(run.stage_seconds.values()) == 0.0
        eff = run.effective_stage_seconds()
        assert eff == run.cached_stage_seconds
        assert sum(eff.values()) > 0.0
    assert report.cache_hits == len(warm.runs)
    assert report.cache_misses == 0
    sched = tracer.trace()
    assert any(s.name.startswith("cache_hit:") for s in sched.spans)
    table = format_stage_seconds(warm)
    assert "cached" in table and "yes" in table and "atpg" in table


def test_effective_stage_seconds_on_fresh_run():
    summary = FlowSummary(tp_percent=0.0, n_test_points=0,
                          stage_seconds={"atpg": 1.25})
    assert summary.effective_stage_seconds() == {"atpg": 1.25}


def test_flow_summary_trace_attribute_backcompat():
    """Entries pickled before the trace field existed still load."""
    old = FlowSummary(tp_percent=0.0, n_test_points=0)
    old.__dict__.pop("trace")  # simulate a pre-trace pickle
    restored = pickle.loads(pickle.dumps(old))
    assert restored.trace is None
    assert restored.effective_stage_seconds() == {}


# ----------------------------------------------------------------------
# Validator rejection paths and the zero-overhead null tracer
# ----------------------------------------------------------------------
def test_validate_chrome_trace_more_rejections():
    neg_dur = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1,
                                "tid": 1, "ts": 0, "dur": -1}]}
    assert any("dur" in p for p in obs.validate_chrome_trace(neg_dur))
    non_numeric = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1,
                                    "tid": 1, "ts": "soon", "dur": 0}]}
    assert any("ts" in p for p in obs.validate_chrome_trace(non_numeric))
    missing_ids = {"traceEvents": [{"name": "x", "ph": "M"}]}
    problems = obs.validate_chrome_trace(missing_ids)
    assert any("pid" in p for p in problems)
    assert any("tid" in p for p in problems)
    not_an_event = {"traceEvents": [42]}
    assert any("not an object" in p
               for p in obs.validate_chrome_trace(not_an_event))
    # one problem per event, and positions are reported
    several = {"traceEvents": [{"name": "ok", "ph": "M", "pid": 1,
                                "tid": 1}, 42]}
    problems = obs.validate_chrome_trace(several)
    assert len(problems) == 1 and "traceEvents[1]" in problems[0]


def test_null_tracer_zero_overhead_invariant():
    """The disabled path allocates nothing: every call on the null
    tracer hands back the same shared singletons."""
    from repro.obs.tracer import _NULL_SPAN

    tracer = obs.NULL_TRACER
    assert obs.get_tracer() is tracer  # process-wide shared instance
    assert tracer.span("a") is tracer.span("b") is _NULL_SPAN
    assert tracer.record_span("x", 0.0, 1.0) is _NULL_SPAN
    assert tracer.now() == 0.0 and tracer.rel_wall(1234.5) == 0.0
    assert tracer.mono_epoch == 0.0 and tracer.wall_epoch == 0.0
    assert tracer.mark() == 0
    assert tracer.capture(0) is None and tracer.trace() is None
    # the null span swallows everything without storing it
    with tracer.span("s") as sp:
        sp.counter("n", 5)
        sp.gauge("g", 1.0)
    assert sp.counters == {} and sp.gauges == {}
    assert sp.duration_s == 0.0 and sp.children == []
