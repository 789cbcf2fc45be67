"""Property tests for the sweep-service wire protocol.

Two families:

* **Round-trips** — for randomly generated requests, cells, failures,
  reports and job records, ``decode(json(encode(x))) == x``.  Every
  payload really crosses ``json.dumps``/``json.loads``, so the
  properties cover JSON's own quirks (float round-trips, key
  stringification) and not just the codec functions.
* **Torn journals** — a sweep journal truncated at *any* byte
  boundary (a crashed writer, or a reader racing a write) must decode
  into progress that never crashes and never over-reports: every
  count is bounded by the full journal's, and cells only ever look
  *less* finished, not more.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import KINDS, FaultPlan, FaultSpec
from repro.core.executor import FlowSummary, PathSummary, StaSummary
from repro.core.metrics import TestDataMetrics
from repro.core.resilience import SweepReport, TaskFailure
from repro.jsonl import parse_jsonl
from repro.service.protocol import (
    JOB_STATES,
    PROTOCOL_VERSION,
    JobRecord,
    SweepRequest,
    WireError,
    canonical_result_bytes,
    failure_from_wire,
    failure_to_wire,
    progress_from_journal,
    report_from_wire,
    report_to_wire,
    summary_from_wire,
    summary_to_wire,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
# JSON-exact floats: what comes back from json.loads must equal what
# went in, so NaN/inf are out (json rejects them with allow_nan=False).
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
nonneg = st.floats(min_value=0, max_value=100, allow_nan=False)
names = st.text(
    alphabet=st.characters(codec="ascii", categories=("L", "N")),
    min_size=1, max_size=12,
)

fault_specs = st.builds(
    FaultSpec,
    kind=st.sampled_from(KINDS),
    circuit=st.one_of(st.just("*"), names),
    tp_percent=st.one_of(st.none(), nonneg),
    stage=st.sampled_from(("tpi_scan", "sta", "atpg")),
    times=st.integers(min_value=-1, max_value=3),
    seconds=st.floats(min_value=0.01, max_value=10, allow_nan=False),
)
fault_plans = st.builds(
    FaultPlan, faults=st.lists(fault_specs, max_size=3).map(tuple)
)

requests = st.builds(
    SweepRequest,
    circuit=names,
    # Integers too: decoding must keep an int as sent, or the
    # spec key (and with it coalescing) would change across the wire.
    scale=st.one_of(st.integers(1, 4),
                    st.floats(min_value=0.001, max_value=1.0,
                              allow_nan=False)),
    tp_percents=st.one_of(
        st.none(),
        st.lists(nonneg, min_size=1, max_size=6, unique=True).map(tuple),
    ),
    options=st.dictionaries(
        names,
        st.one_of(st.booleans(), st.integers(-100, 100), finite, names),
        max_size=4,
    ),
    jobs=st.integers(min_value=1, max_value=8),
    retries=st.integers(min_value=0, max_value=5),
    task_timeout_s=st.one_of(
        st.none(), st.integers(1, 600),
        st.floats(min_value=0.1, max_value=600, allow_nan=False)),
    name=st.one_of(st.none(), names),
    chaos=st.one_of(st.none(), fault_plans),
)

test_metrics = st.builds(
    TestDataMetrics,
    n_test_points=st.integers(0, 500),
    n_flip_flops=st.integers(0, 2000),
    n_chains=st.integers(0, 32),
    l_max=st.integers(0, 200),
    n_faults=st.integers(0, 10000),
    fault_coverage=st.floats(0, 1, allow_nan=False),
    fault_efficiency=st.floats(0, 1, allow_nan=False),
    n_patterns=st.integers(0, 5000),
)

path_summaries = st.builds(
    PathSummary,
    domain=names,
    endpoint=names,
    startpoint=names,
    t_wires_ps=finite,
    t_intrinsic_ps=finite,
    t_load_dep_ps=finite,
    t_setup_ps=finite,
    t_skew_ps=finite,
    total_ps=finite,
    slack_ps=finite,
    n_test_points=st.integers(0, 100),
)

sta_summaries = st.builds(
    StaSummary,
    paths=st.dictionaries(
        names, st.lists(path_summaries, max_size=2).map(tuple),
        max_size=2),
    slow_nodes=st.lists(names, max_size=3).map(tuple),
    hold_violations=st.integers(0, 50),
)

summaries = st.builds(
    FlowSummary,
    tp_percent=nonneg,
    n_test_points=st.integers(0, 500),
    test=st.one_of(st.none(), test_metrics),
    area=st.one_of(
        st.none(), st.dictionaries(names, finite, min_size=1,
                                   max_size=4)),
    sta=st.one_of(st.none(), sta_summaries),
    stage_seconds=st.dictionaries(names, nonneg, max_size=3),
    cached_stage_seconds=st.dictionaries(names, nonneg, max_size=3),
    log=st.lists(names, max_size=3).map(tuple),
    cache_key=st.text(alphabet="0123456789abcdef", min_size=8,
                      max_size=8),
    from_cache=st.booleans(),
    worker_pid=st.integers(0, 1 << 22),
)

failures = st.builds(
    TaskFailure,
    name=names,
    tp_percent=nonneg,
    attempts=st.integers(1, 5),
    error_type=names,
    error_message=st.text(max_size=40),
    chain=st.lists(names, max_size=3).map(tuple),
    cache_key=st.text(alphabet="0123456789abcdef", min_size=8,
                      max_size=8),
    retryable=st.booleans(),
)


@st.composite
def reports(draw):
    """A SweepReport whose results cover 1-2 circuits, 1-3 cells."""
    from repro.core.experiment import ExperimentResult

    circuits = draw(st.lists(names, min_size=1, max_size=2,
                             unique=True))
    results = {}
    for circuit in circuits:
        pcts = draw(st.lists(nonneg, min_size=1, max_size=3,
                             unique=True))
        results[circuit] = ExperimentResult(
            name=circuit,
            runs={pct: draw(summaries) for pct in pcts},
        )
    return SweepReport(
        results=results,
        failures=tuple(draw(st.lists(failures, max_size=2))),
        retries=draw(st.integers(0, 5)),
        timeouts=draw(st.integers(0, 5)),
        worker_crashes=draw(st.integers(0, 5)),
        journal_path=draw(st.one_of(st.none(), names)),
        cache_hits=draw(st.integers(0, 10)),
        cache_misses=draw(st.integers(0, 10)),
        cache_evictions=draw(st.integers(0, 10)),
        cancelled=draw(st.booleans()),
    )


job_records = st.builds(
    JobRecord,
    id=names,
    state=st.sampled_from(JOB_STATES),
    request=requests,
    submitted_at=st.floats(min_value=0, max_value=2e9,
                           allow_nan=False),
    started_at=st.one_of(st.none(),
                         st.floats(min_value=0, max_value=2e9,
                                   allow_nan=False)),
    finished_at=st.one_of(st.none(),
                          st.floats(min_value=0, max_value=2e9,
                                    allow_nan=False)),
    error=st.one_of(st.none(), st.text(max_size=30)),
    coalesced_with=st.one_of(st.none(), names),
)


def through_json(payload):
    """Force the payload through real JSON, like the HTTP layer does."""
    return json.loads(json.dumps(payload, allow_nan=False))


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
class TestRoundTrips:
    @given(request=requests)
    def test_request(self, request):
        assert SweepRequest.from_wire(
            through_json(request.to_wire())) == request

    @given(request=requests)
    def test_spec_key_is_stable_across_the_wire(self, request):
        decoded = SweepRequest.from_wire(through_json(request.to_wire()))
        assert decoded.spec_key() == request.spec_key()

    @given(summary=summaries)
    def test_summary(self, summary):
        assert summary_from_wire(
            through_json(summary_to_wire(summary))) == summary

    @given(failure=failures)
    def test_failure(self, failure):
        assert failure_from_wire(
            through_json(failure_to_wire(failure))) == failure

    @settings(max_examples=25, deadline=None)
    @given(report=reports())
    def test_report(self, report):
        decoded = report_from_wire(through_json(report_to_wire(report)))
        assert decoded == report

    @settings(max_examples=25, deadline=None)
    @given(report=reports())
    def test_report_keeps_canonical_bytes(self, report):
        """The byte-identity contract survives the wire: a decoded
        report's deterministic content digests identically."""
        decoded = report_from_wire(through_json(report_to_wire(report)))
        for name, result in report.results.items():
            assert (canonical_result_bytes(decoded.results[name])
                    == canonical_result_bytes(result))

    @given(record=job_records)
    def test_job_record(self, record):
        assert JobRecord.from_wire(
            through_json(record.to_wire())) == record


# ----------------------------------------------------------------------
# Strictness
# ----------------------------------------------------------------------
class TestStrictDecoding:
    def test_unknown_request_key_rejected(self):
        wire = SweepRequest(circuit="s38417").to_wire()
        wire["tp_percent"] = 2.0  # typo'd singular
        with pytest.raises(WireError, match="tp_percent"):
            SweepRequest.from_wire(wire)

    def test_version_mismatch_rejected(self):
        wire = SweepRequest(circuit="s38417").to_wire()
        wire["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(WireError, match="version"):
            SweepRequest.from_wire(wire)

    @pytest.mark.parametrize("mutate", [
        lambda w: w.update(circuit=""),
        lambda w: w.update(circuit=None),
        lambda w: w.update(tp_percents=[1.0, 1.0]),
        lambda w: w.update(tp_percents=[-2.0]),
        lambda w: w.update(tp_percents="0,2,5"),
        lambda w: w.update(jobs=0),
        lambda w: w.update(jobs="four"),
        lambda w: w.update(retries=-1),
        lambda w: w.update(options=[1, 2]),
        lambda w: w.update(chaos={"faults": [{"kind": "meteor"}]}),
        lambda w: w.update(scale="big"),
        lambda w: w.update(scale=0),
        lambda w: w.update(scale=True),
        lambda w: w.update(scale=None),
        lambda w: w.update(task_timeout_s="5"),
        lambda w: w.update(task_timeout_s=-1.0),
        lambda w: w.update(task_timeout_s=True),
        lambda w: w.update(name=7),
        lambda w: w.update(jobs=True),
        lambda w: w.update(retries=False),
    ], ids=["empty-circuit", "null-circuit", "dup-tp", "negative-tp",
            "string-tp", "zero-jobs", "string-jobs", "negative-retries",
            "list-options", "bad-chaos", "string-scale", "zero-scale",
            "bool-scale", "null-scale", "string-timeout",
            "negative-timeout", "bool-timeout", "int-name", "bool-jobs",
            "bool-retries"])
    def test_invalid_requests_rejected(self, mutate):
        wire = SweepRequest(circuit="s38417").to_wire()
        mutate(wire)
        with pytest.raises(WireError):
            SweepRequest.from_wire(wire)

    def test_non_object_body_rejected(self):
        with pytest.raises(WireError):
            SweepRequest.from_wire(["not", "an", "object"])


# ----------------------------------------------------------------------
# Torn journals
# ----------------------------------------------------------------------
def _journal_lines(n_cells, done):
    """A plausible sweep journal: plan, then lifecycle, then end."""
    cells = [{"name": "c", "tp_percent": float(i), "key": f"k{i}"}
             for i in range(n_cells)]
    lines = [json.dumps({"event": "sweep_start", "cells": cells})]
    for i in range(done):
        lines.append(json.dumps({"event": "task_start", "key": f"k{i}",
                                 "name": "c", "tp_percent": float(i),
                                 "attempt": 0}))
        lines.append(json.dumps({"event": "task_done", "key": f"k{i}",
                                 "name": "c", "tp_percent": float(i),
                                 "attempt": 0}))
    lines.append(json.dumps({"event": "sweep_end", "ok": True}))
    return lines


@settings(max_examples=200, deadline=None)
@given(
    n_cells=st.integers(1, 5),
    done=st.integers(0, 5),
    cut=st.integers(min_value=0, max_value=10_000),
)
def test_truncated_journal_never_crashes_or_overreports(n_cells, done,
                                                        cut):
    done = min(done, n_cells)
    full_text = "\n".join(_journal_lines(n_cells, done)) + "\n"
    torn_text = full_text[:min(cut, len(full_text))]

    full = progress_from_journal(
        parse_jsonl(full_text.splitlines())[0])
    torn = progress_from_journal(
        parse_jsonl(torn_text.splitlines())[0])

    assert full["total"] == n_cells and full["done"] == done
    assert full["finished"]
    # Torn view: bounded by the truth, and in-progress rather than
    # broken — a cell whose completion frame tore stays running.
    assert torn["total"] <= full["total"]
    assert torn["done"] <= full["done"]
    assert torn["failed"] == 0
    # "finished" is only reachable when every frame survived (a cut at
    # the trailing newline still leaves all frames intact).
    assert (not torn["finished"]
            or torn_text.splitlines() == full_text.splitlines())


@settings(max_examples=100, deadline=None)
@given(garbage=st.binary(max_size=200))
def test_garbage_journal_decodes_to_empty_progress(garbage):
    text = garbage.decode("utf-8", errors="replace")
    progress = progress_from_journal(
        parse_jsonl(text.splitlines())[0])
    assert progress["done"] == 0 and progress["failed"] == 0
    assert not progress["finished"]


def test_mid_sweep_journal_reads_as_in_progress():
    lines = _journal_lines(3, 3)
    # Drop the sweep_end and the last task_done: cell 2 is running.
    torn = progress_from_journal(parse_jsonl(lines[:-2])[0])
    assert torn["total"] == 3
    assert torn["done"] == 2
    assert torn["running"] == 1
    assert not torn["finished"]


def test_journal_with_torn_start_materialises_cells_from_events():
    lines = _journal_lines(2, 2)[1:]  # sweep_start frame lost
    progress = progress_from_journal(parse_jsonl(lines)[0])
    assert progress["total"] == 2
    assert progress["done"] == 2


# ----------------------------------------------------------------------
# Telemetry fields on the wire
# ----------------------------------------------------------------------
class TestTelemetryFields:
    def test_trace_flag_round_trips(self):
        request = SweepRequest(circuit="s38417", trace=True)
        decoded = SweepRequest.from_wire(through_json(request.to_wire()))
        assert decoded.trace is True and decoded == request

    def test_trace_flag_does_not_change_spec_key(self):
        """An observability knob must not defeat job coalescing: a
        traced and an untraced submission of the same sweep are the
        same spec."""
        traced = SweepRequest(circuit="s38417", tp_percents=(0.0, 2.0),
                              trace=True)
        plain = SweepRequest(circuit="s38417", tp_percents=(0.0, 2.0))
        assert traced.spec_key() == plain.spec_key()

    def test_non_bool_trace_rejected(self):
        wire = SweepRequest(circuit="s38417").to_wire()
        wire["trace"] = "yes"
        with pytest.raises(WireError, match="trace"):
            SweepRequest.from_wire(wire)

    def test_report_timestamps_round_trip(self):
        report = SweepReport(started_at=1700000000.25,
                             finished_at=1700000001.5,
                             started_mono=50.125, finished_mono=51.375)
        decoded = report_from_wire(through_json(report_to_wire(report)))
        assert decoded.started_at == report.started_at
        assert decoded.finished_at == report.finished_at
        assert decoded.started_mono == report.started_mono
        assert decoded.finished_mono == report.finished_mono

    def test_report_timestamps_default_for_old_wire(self):
        wire = report_to_wire(SweepReport())
        for key in ("started_at", "finished_at", "started_mono",
                    "finished_mono"):
            wire.pop(key, None)  # payload from an older daemon
        decoded = report_from_wire(through_json(wire))
        assert decoded.started_at == 0.0
        assert decoded.finished_mono == 0.0
