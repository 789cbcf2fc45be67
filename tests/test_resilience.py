"""Unit tests for the fault-tolerance primitives and the chaos harness.

Covers the pieces the executor composes: exception classification,
deterministic backoff, failure records, the crash-safe journal, retry
seed derivation, cache quarantine, and the scripted fault plans of
:mod:`repro.chaos`.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import chaos, obs
from repro.chaos import FaultPlan, FaultSpec, InjectedFault
from repro.core.executor import ResultCache
from repro.core.resilience import (
    RetryPolicy,
    SweepJournal,
    SweepReport,
    TaskFailure,
    TaskTimeoutError,
    WorkerCrashError,
    exception_chain,
    is_retryable,
    read_journal,
)


# ----------------------------------------------------------------------
# Exception classification
# ----------------------------------------------------------------------
class TestClassification:
    @pytest.mark.parametrize("exc", [
        TaskTimeoutError("hung"),
        WorkerCrashError("died"),
        ConnectionError("reset"),
        EOFError("truncated"),
        OSError("transient"),
        TimeoutError("slow"),
        pickle.UnpicklingError("torn"),
        InjectedFault("scripted"),
    ], ids=lambda e: type(e).__name__)
    def test_infrastructure_failures_are_retryable(self, exc):
        assert is_retryable(exc)

    @pytest.mark.parametrize("exc", [
        AssertionError("invariant"),
        AttributeError("missing"),
        KeyError("unknown"),
        TypeError("wrong type"),
        ValueError("bad config"),
        RuntimeError("plain bug"),  # unknown types default to fatal
        Exception("generic"),
    ], ids=lambda e: type(e).__name__)
    def test_logic_and_unknown_errors_are_fatal(self, exc):
        assert not is_retryable(exc)

    def test_explicit_retryable_attribute_wins(self):
        exc = ValueError("transient despite the type")
        exc.retryable = True
        assert is_retryable(exc)
        exc2 = OSError("permanent despite the type")
        exc2.retryable = False
        assert not is_retryable(exc2)

    def test_fatal_types_beat_retryable_subclassing(self):
        # FileNotFoundError is an OSError; still retryable (I/O), but a
        # hypothetical OSError subclass that is ALSO a ValueError must
        # classify fatal — FATAL_TYPES is checked first.
        class ConfigIOError(ValueError, OSError):
            pass

        assert not is_retryable(ConfigIOError("bad path in config"))


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_deterministic_exponential_sequence(self):
        policy = RetryPolicy(max_retries=4, backoff_base_s=0.1,
                             backoff_factor=2.0, backoff_max_s=30.0)
        assert [policy.delay_s(n) for n in (1, 2, 3, 4)] == [
            pytest.approx(0.1), pytest.approx(0.2),
            pytest.approx(0.4), pytest.approx(0.8),
        ]

    def test_delay_is_capped(self):
        policy = RetryPolicy(backoff_base_s=10.0, backoff_factor=10.0,
                             backoff_max_s=25.0)
        assert policy.delay_s(3) == 25.0

    def test_attempt_zero_costs_nothing(self):
        assert RetryPolicy().delay_s(0) == 0.0


# ----------------------------------------------------------------------
# Failure records
# ----------------------------------------------------------------------
class TestTaskFailure:
    def test_from_exception_captures_chain(self):
        try:
            try:
                raise OSError("disk hiccup")
            except OSError as inner:
                raise TaskTimeoutError("gave up") from inner
        except TaskTimeoutError as raised:
            exc = raised
        failure = TaskFailure.from_exception(
            "s38417", 2.0, attempts=3, exc=exc, cache_key="ab" * 32)
        assert failure.label == "s38417@2%"
        assert failure.attempts == 3
        assert failure.error_type == "TaskTimeoutError"
        assert failure.retryable  # budget ran out, not hopeless
        assert failure.chain == (
            "TaskTimeoutError: gave up",
            "OSError: disk hiccup",
        )
        assert failure.exception is exc

    def test_exception_excluded_from_equality(self):
        a = TaskFailure.from_exception("c", 1.0, 1, ValueError("x"))
        b = TaskFailure.from_exception("c", 1.0, 1, ValueError("x"))
        assert a == b  # different exception objects, equal records

    def test_exception_chain_bounds_cycles(self):
        a, b = ValueError("a"), ValueError("b")
        a.__cause__, b.__cause__ = b, a
        assert exception_chain(a) == ("ValueError: a", "ValueError: b")


class TestSweepReport:
    def test_ok_and_cell_accounting(self):
        class FakeResult:
            def __init__(self, n):
                self.runs = {float(i): object() for i in range(n)}

        report = SweepReport(results={"a": FakeResult(4)})
        assert report.ok and report.successful_cells() == 4
        degraded = SweepReport(
            results={"a": FakeResult(3)},
            failures=(TaskFailure("a", 5.0, 2, "OSError", "boom"),),
        )
        assert not degraded.ok
        assert degraded.failed_cells() == (("a", 5.0),)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            journal.record("sweep_start", jobs=2)
            journal.record("task_done", key="k1", name="a", tp_percent=0.0)
        events = read_journal(path)
        assert [e["event"] for e in events] == ["sweep_start", "task_done"]
        assert all("ts" in e for e in events)
        assert [e.get("key") for e in events] == [None, "k1"]

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            journal.record("task_done", key="k1")
            journal.record("task_done", key="k2")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "task_done", "key": "k3"')  # torn
        events = read_journal(path)
        assert [e["key"] for e in events] == ["k1", "k2"]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_journal(tmp_path / "nope.jsonl") == []


# ----------------------------------------------------------------------
# Cache quarantine (satellite: truncation regression)
# ----------------------------------------------------------------------
class TestQuarantine:
    def _store_summary(self, cache):
        from repro.core.executor import FlowSummary
        from repro.core.metrics import TestDataMetrics

        summary = FlowSummary(
            tp_percent=2.0,
            n_test_points=3,
            test=TestDataMetrics(
                n_test_points=3, n_flip_flops=40, n_chains=2, l_max=20,
                n_faults=1000, fault_coverage=0.97,
                fault_efficiency=0.99, n_patterns=80,
            ),
            area={"core_area_um2": 1234.5},
            sta=None,
            stage_seconds={"tpi_scan": 0.1},
            cached_stage_seconds={},
            log=(),
            cache_key="ef" * 32,
            worker_pid=1,
        )
        key = "ef" * 32
        cache.put(key, summary)
        return key, summary

    def test_truncated_entry_quarantined_not_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, _ = self._store_summary(cache)
        path = cache.path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        with obs.tracing() as tracer:
            assert cache.get(key) is None
        assert not path.exists()  # live path freed for the recompute
        quarantined = cache.quarantine_path(key)
        assert quarantined.exists()  # bytes kept for post-mortems
        assert quarantined.read_bytes() == data[: len(data) // 2]
        assert cache.corrupt == 1 and cache.misses == 1
        assert tracer.trace().counters.get("cache.quarantined") == 1.0

    def test_foreign_object_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "aa" * 32
        path = cache.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"not": "a summary"}))
        assert cache.get(key) is None
        assert cache.quarantine_path(key).exists()

    def test_quarantine_then_recompute_roundtrips(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, summary = self._store_summary(cache)
        cache.path(key).write_bytes(b"\x80garbage")
        assert cache.get(key) is None
        cache.put(key, summary)  # recompute lands on the freed path
        assert cache.get(key) == summary


# ----------------------------------------------------------------------
# Chaos harness
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_matching(self):
        spec = FaultSpec(kind="raise", circuit="s38417", tp_percent=2.0,
                         stage="sta", times=1)
        assert spec.fires("s38417", 2.0, "sta", attempt=0)
        assert not spec.fires("s38417", 2.0, "sta", attempt=1)  # times=1
        assert not spec.fires("s38417", 3.0, "sta", attempt=0)
        assert not spec.fires("other", 2.0, "sta", attempt=0)
        assert not spec.fires("s38417", 2.0, "atpg", attempt=0)

    def test_wildcards_and_every_attempt(self):
        spec = FaultSpec(kind="raise", times=-1)
        for attempt in range(5):
            assert spec.fires("anything", 9.0, "tpi_scan", attempt)

    def test_corrupt_cache_never_fires_at_a_stage(self):
        spec = FaultSpec(kind="corrupt_cache", circuit="c", tp_percent=1.0)
        plan = FaultPlan(faults=(spec,))
        assert plan.corrupts_cache("c", 1.0)
        assert not plan.corrupts_cache("c", 2.0)
        assert not spec.fires("c", 1.0, "tpi_scan", 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="explode")

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec(kind="kill", circuit="a", tp_percent=1.0,
                      stage="atpg", times=2),
            FaultSpec(kind="hang", seconds=9.5),
        ), seed=7)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        assert FaultPlan.from_dict(json.loads(
            json.dumps(plan.to_dict()))) == plan

    def test_plan_is_picklable(self):
        plan = FaultPlan(faults=(FaultSpec(kind="raise"),))
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestCheckpoint:
    def test_inactive_checkpoint_is_noop(self):
        chaos.checkpoint("tpi_scan")  # no active context: returns

    def test_raise_fault_fires_at_matching_stage(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", circuit="c", tp_percent=1.0,
                      stage="sta", times=1),
        ))
        with chaos.active(plan, "c", 1.0, attempt=0):
            chaos.checkpoint("tpi_scan")  # other stages unaffected
            with pytest.raises(InjectedFault, match="injected failure"):
                chaos.checkpoint("sta")
        chaos.checkpoint("sta")  # context restored on exit

    def test_retry_attempt_escapes_times_limited_fault(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", circuit="c", tp_percent=1.0,
                      stage="sta", times=1),
        ))
        with chaos.active(plan, "c", 1.0, attempt=1):
            chaos.checkpoint("sta")  # attempt 1 >= times: no fire

    def test_none_plan_activation_costs_nothing(self):
        with chaos.active(None, "c", 1.0):
            chaos.checkpoint("sta")
