"""Tests for the parallel sweep executor and its result cache.

The headline test is the determinism regression gate: the s38417-small
sweep run by the reference ``run_experiment`` and through the executor
with ``jobs=4`` must produce *exactly* equal Table 1/2/3 rows — not
approximately equal: the executor's contract is bit-identical results
at any job count.
"""

from __future__ import annotations

import functools
import os
import pickle
from dataclasses import replace

import pytest

from repro import obs
from repro.atpg import AtpgConfig
from repro.circuits import s38417_like
from repro.core import (
    ExecutorConfig,
    ExperimentConfig,
    ExperimentResult,
    FlowConfig,
    FlowSummary,
    ResultCache,
    circuit_structural_hash,
    config_fingerprint,
    flow_cache_key,
    run_experiment,
    run_flow,
    run_sweeps_report,
    summarize,
)
from repro.core import executor as executor_mod
from repro.core.resilience import read_journal
from repro.library import cmos130
from repro.lint import LintError
from repro.service.protocol import progress_from_journal

#: Cheap ATPG knobs: full flow semantics at a fraction of the runtime.
FAST_ATPG = AtpgConfig(seed=7, backtrack_limit=24, max_deterministic=60,
                       abort_recovery_blocks=4, second_chance_factor=1)
LEVELS = (0.0, 2.0, 4.0)
SCALE = 0.012


def small_experiment(name: str = "s38417") -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        circuit_factory=functools.partial(s38417_like, scale=SCALE),
        tp_percents=LEVELS,
        flow=FlowConfig(atpg=FAST_ATPG),
    )


def sweep(config: ExperimentConfig,
          executor: ExecutorConfig) -> ExperimentResult:
    """One circuit's sweep through the executor; every cell finishes."""
    report = run_sweeps_report([config], executor)
    assert report.ok, report.failures
    return report.results[config.name]


def table_dicts(result):
    return {
        "table1": result.table1_rows(),
        "table2": result.table2_rows(),
        "table3": result.table3_rows(),
    }


@pytest.fixture(scope="module")
def serial_result():
    """The reference: the classic serial sweep."""
    return run_experiment(small_experiment())


@pytest.fixture(scope="module")
def sweep_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sweep_cache"))


@pytest.fixture(scope="module")
def parallel_result(sweep_cache_dir):
    """The same sweep through the executor: 4 workers, cold cache."""
    return sweep(
        small_experiment(),
        ExecutorConfig(jobs=4, cache_dir=sweep_cache_dir),
    )


@pytest.fixture(scope="module")
def warm_result(parallel_result, sweep_cache_dir):
    """Second invocation against the now-warm cache."""
    return sweep(
        small_experiment(),
        ExecutorConfig(jobs=4, cache_dir=sweep_cache_dir),
    )


# ----------------------------------------------------------------------
# Determinism regression gate (the tentpole's correctness test)
# ----------------------------------------------------------------------
def test_parallel_sweep_is_bit_identical_to_serial(serial_result,
                                                   parallel_result):
    assert table_dicts(serial_result) == table_dicts(parallel_result)


def test_parallel_sweep_ran_in_worker_processes(parallel_result):
    pids = {run.worker_pid for run in parallel_result.runs.values()}
    assert os.getpid() not in pids
    assert not any(run.from_cache for run in parallel_result.runs.values())


def test_parallel_sweep_covers_all_levels(parallel_result):
    assert sorted(parallel_result.runs) == sorted(LEVELS)
    for run in parallel_result.runs.values():
        assert isinstance(run, FlowSummary)
        assert run.test is not None and run.area is not None
        assert run.sta is not None and run.cache_key


# ----------------------------------------------------------------------
# Warm cache
# ----------------------------------------------------------------------
def test_warm_cache_serves_every_level(warm_result, parallel_result):
    assert all(run.from_cache for run in warm_result.runs.values())
    assert table_dicts(warm_result) == table_dicts(parallel_result)


def test_warm_cache_reruns_no_flow_stage(warm_result):
    for run in warm_result.runs.values():
        assert sum(run.stage_seconds.values()) == 0.0
        # The original timings survive for inspection.
        assert sum(run.cached_stage_seconds.values()) > 0.0


@pytest.fixture(scope="module")
def warm_journal(parallel_result, sweep_cache_dir):
    """A warm inline sweep's journal events and metrics registry."""
    registry = obs.MetricsRegistry()
    report = run_sweeps_report(
        [small_experiment()],
        ExecutorConfig(jobs=1, cache_dir=sweep_cache_dir,
                       registry=registry))
    # The cache's journal holds the cold and warm runs before this one.
    events = read_journal(report.journal_path)
    last_start = max(i for i, e in enumerate(events)
                     if e["event"] == "sweep_start")
    return events[last_start:], registry


def test_warm_cells_reach_the_journal(warm_journal):
    events, _ = warm_journal
    planned = {(c["name"], c["tp_percent"]): c["key"]
               for c in events[0]["cells"]}
    assert sorted(planned) == [("s38417", pct) for pct in LEVELS]
    cached = [e for e in events if e["event"] == "task_cached"]
    assert len(cached) == len(LEVELS)
    assert {(e["name"], e["tp_percent"]): e["key"]
            for e in cached} == planned
    # The daemon's progress endpoint counts every cached cell as done.
    progress = progress_from_journal(events)
    assert progress["total"] == progress["done"] == len(LEVELS)
    assert progress["finished"]


def test_cached_cells_keep_their_circuit_label(warm_journal):
    _, registry = warm_journal
    series = {labels: counter.value for labels, counter
              in registry.get("repro_cells_total").series.items()}
    # One series, labelled by circuit like the ok and failed outcomes.
    assert series == {
        (("circuit", "s38417"), ("outcome", "cached")): len(LEVELS)}


# ----------------------------------------------------------------------
# Cache keys and fingerprints
# ----------------------------------------------------------------------
def test_structural_hash_is_reproducible_and_sensitive():
    a = s38417_like(scale=SCALE)
    b = s38417_like(scale=SCALE)
    c = s38417_like(scale=0.015)
    assert circuit_structural_hash(a) == circuit_structural_hash(b)
    assert circuit_structural_hash(a) == circuit_structural_hash(a.clone())
    assert circuit_structural_hash(a) != circuit_structural_hash(c)


def test_structural_hash_sees_netlist_edits():
    a = s38417_like(scale=SCALE)
    before = circuit_structural_hash(a)
    lib = cmos130()
    net = a.new_net("probe")
    a.add_instance(a.new_instance_name("probe"), lib["INV_X1"],
                   {"A": a.inputs[0], "Z": net.name})
    assert circuit_structural_hash(a) != before


def test_config_fingerprint_distinguishes_configs():
    base = FlowConfig(atpg=FAST_ATPG)
    assert config_fingerprint(base) == config_fingerprint(
        FlowConfig(atpg=FAST_ATPG))
    assert config_fingerprint(base) != config_fingerprint(
        FlowConfig(atpg=FAST_ATPG, tp_percent=1.0))
    assert config_fingerprint(base) != config_fingerprint(
        FlowConfig(atpg=AtpgConfig(seed=8)))


def test_cache_key_covers_circuit_config_and_mode():
    circuit = s38417_like(scale=SCALE)
    lib = cmos130()
    config = FlowConfig(atpg=FAST_ATPG)
    key = flow_cache_key(circuit, config, lib)
    assert key == flow_cache_key(s38417_like(scale=SCALE), config, lib)
    assert key != flow_cache_key(circuit, FlowConfig(tp_percent=2.0), lib)


def test_plan_builds_the_circuit_once_per_experiment():
    calls = []

    def factory():
        calls.append(None)
        return s38417_like(scale=SCALE)

    levels = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    flow = FlowConfig(atpg=FAST_ATPG)
    tasks = executor_mod._plan_levels(
        ExperimentConfig(name="s38417", circuit_factory=factory,
                         tp_percents=levels, flow=flow),
        ExecutorConfig())
    assert len(calls) == 1
    lib = cmos130()
    assert [t.cache_key for t in tasks] == [
        flow_cache_key(factory(), replace(flow, tp_percent=pct), lib)
        for pct in levels
    ]


def test_plan_hashes_the_circuit_once_per_experiment(monkeypatch):
    hashed = []
    structural_hash = executor_mod.circuit_structural_hash

    def spy(circuit):
        hashed.append(circuit.name)
        return structural_hash(circuit)

    monkeypatch.setattr(executor_mod, "circuit_structural_hash", spy)
    factory = functools.partial(s38417_like, scale=SCALE)
    levels = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    flow = FlowConfig(atpg=FAST_ATPG)
    tasks = executor_mod._plan_levels(
        ExperimentConfig(name="s38417", circuit_factory=factory,
                         tp_percents=levels, flow=flow),
        ExecutorConfig())
    assert len(hashed) == 1
    lib = cmos130()
    assert [t.cache_key for t in tasks] == [
        flow_cache_key(factory(), replace(flow, tp_percent=pct), lib)
        for pct in levels
    ]


# ----------------------------------------------------------------------
# ResultCache robustness
# ----------------------------------------------------------------------
def test_result_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    summary = FlowSummary(tp_percent=1.0, n_test_points=3,
                          stage_seconds={"atpg": 1.5}, cache_key="ab" * 32)
    key = "ab" * 32
    assert cache.get(key) is None
    cache.put(key, summary)
    loaded = cache.get(key)
    assert loaded == summary
    assert cache.hits == 1 and cache.misses == 1


def test_result_cache_treats_corrupt_entries_as_misses(tmp_path):
    cache = ResultCache(tmp_path)
    key = "cd" * 32
    cache.put(key, FlowSummary(tp_percent=0.0, n_test_points=0))
    cache.path(key).write_bytes(b"not a pickle")
    assert cache.get(key) is None
    assert not cache.path(key).exists()  # dropped, will be recomputed


def test_result_cache_rejects_foreign_objects(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ef" * 32
    path = cache.path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"not": "a summary"}))
    assert cache.get(key) is None


# ----------------------------------------------------------------------
# Size-capped LRU eviction
# ----------------------------------------------------------------------
def _filled_cache(tmp_path, keys, max_bytes=None):
    """A cache holding one tiny summary per key, mtimes strictly
    increasing in ``keys`` order (explicit, because filesystem mtime
    granularity is too coarse for back-to-back puts)."""
    cache = ResultCache(tmp_path, max_bytes=max_bytes)
    for i, key in enumerate(keys):
        cache.put(key, FlowSummary(tp_percent=float(i), n_test_points=i,
                                   cache_key=key))
        os.utime(cache.path(key), (1000.0 + i, 1000.0 + i))
    return cache


def test_unbounded_cache_never_evicts(tmp_path):
    keys = [f"{i:02x}" * 32 for i in range(4)]
    cache = _filled_cache(tmp_path, keys)
    assert all(cache.path(k).exists() for k in keys)
    assert cache.evictions == 0


def test_result_cache_evicts_oldest_beyond_budget(tmp_path):
    keys = [f"{i:02x}" * 32 for i in range(4)]
    probe = _filled_cache(tmp_path / "probe", keys[:1])
    entry_size = probe.path(keys[0]).stat().st_size
    # Room for two entries: writing four must evict the two oldest.
    cache = _filled_cache(tmp_path / "lru", keys,
                          max_bytes=2 * entry_size)
    assert not cache.path(keys[0]).exists()
    assert not cache.path(keys[1]).exists()
    assert cache.path(keys[2]).exists()
    assert cache.path(keys[3]).exists()
    assert cache.evictions >= 2
    assert cache.total_bytes() <= 2 * entry_size


def test_result_cache_get_refreshes_recency(tmp_path):
    keys = [f"{i:02x}" * 32 for i in range(3)]
    probe = _filled_cache(tmp_path / "probe", keys[:1])
    entry_size = probe.path(keys[0]).stat().st_size
    cache = _filled_cache(tmp_path / "lru", keys[:2],
                          max_bytes=2 * entry_size)
    assert cache.get(keys[0]) is not None  # touch: now most recent
    cache.put(keys[2], FlowSummary(tp_percent=9.0, n_test_points=9,
                                   cache_key=keys[2]))
    assert cache.path(keys[0]).exists()      # refreshed, survives
    assert not cache.path(keys[1]).exists()  # stale, evicted
    assert cache.path(keys[2]).exists()


def test_result_cache_never_evicts_entry_just_written(tmp_path):
    key = "aa" * 32
    cache = ResultCache(tmp_path, max_bytes=1)  # below any entry size
    cache.put(key, FlowSummary(tp_percent=0.0, n_test_points=0,
                               cache_key=key))
    # The budget is unsatisfiable, but evicting the entry being
    # written would turn the cache into a black hole.
    assert cache.path(key).exists()
    assert cache.get(key) is not None


def test_executor_config_passes_cache_budget_through(tmp_path):
    config = ExecutorConfig(cache_dir=str(tmp_path),
                            cache_max_bytes=12345)
    assert config.cache.max_bytes == 12345


def test_sweep_honours_cache_budget_end_to_end(tmp_path):
    """A capped sweep stays within budget and reports evictions."""
    from repro import api

    cache_dir = str(tmp_path / "capped")
    warm = api.sweep_report("s38417", scale=SCALE, tp_percents=LEVELS,
                            cache_dir=cache_dir, atpg=FAST_ATPG)
    assert not warm.failures and warm.cache_evictions == 0
    sizes = [p.stat().st_size
             for p in (tmp_path / "capped").glob("*/*.pkl")]
    assert len(sizes) == len(LEVELS)
    budget = max(sizes) * 2  # room for ~2 entries
    # Sweep *new* levels under the cap: their puts must evict the old
    # entries (eviction happens on write — a pure-hit run never evicts).
    capped = api.sweep_report("s38417", scale=SCALE,
                              tp_percents=(1.0, 3.0),
                              cache_dir=cache_dir,
                              cache_max_bytes=budget, atpg=FAST_ATPG)
    assert not capped.failures
    assert capped.cache_evictions >= 1
    remaining = sum(p.stat().st_size
                    for p in (tmp_path / "capped").glob("*/*.pkl"))
    assert remaining <= budget


# ----------------------------------------------------------------------
# Failure handling and resume
# ----------------------------------------------------------------------
def test_failed_levels_resume_from_cache(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "resume")
    config = ExperimentConfig(
        name="s38417",
        circuit_factory=functools.partial(s38417_like, scale=0.01),
        tp_percents=(0.0, 2.0, 4.0),
        flow=FlowConfig(atpg=FAST_ATPG, run_layout_phase=False),
    )

    real_run_flow = executor_mod.run_flow

    def failing_run_flow(circuit, library, flow_config):
        if flow_config.tp_percent == 2.0:
            raise RuntimeError("injected level failure")
        return real_run_flow(circuit, library, flow_config)

    monkeypatch.setattr(executor_mod, "run_flow", failing_run_flow)
    report = run_sweeps_report(
        [config], ExecutorConfig(jobs=1, cache_dir=cache_dir))
    assert report.failed_cells() == (("s38417", 2.0),)

    # The healthy levels were cached before the failure surfaced ...
    monkeypatch.setattr(executor_mod, "run_flow", real_run_flow)
    result = sweep(config, ExecutorConfig(jobs=1, cache_dir=cache_dir))
    assert result.runs[0.0].from_cache and result.runs[4.0].from_cache
    # ... and only the failed level ran fresh on the retry.
    assert not result.runs[2.0].from_cache


def _undriven_s38417():
    """A picklable factory whose netlist has one undriven net."""
    circuit = s38417_like(scale=0.01)
    circuit.add_net("orphan_probe")
    return circuit


@pytest.mark.parametrize("jobs", [1, 2])
def test_lint_failure_is_reported_once_at_every_job_count(jobs):
    config = ExperimentConfig(
        name="s38417",
        circuit_factory=_undriven_s38417,
        tp_percents=(0.0, 2.0),
        flow=FlowConfig(lint=True, run_layout_phase=False,
                        run_atpg_phase=False),
    )
    report = run_sweeps_report([config], ExecutorConfig(jobs=jobs))
    assert (report.retries, report.worker_crashes) == (0, 0)
    assert [(f.error_type, f.attempts) for f in report.failures] \
        == [("LintError", 1)] * 2
    assert all(isinstance(f.exception, LintError)
               for f in report.failures)


def test_unpicklable_factory_fails_with_pointed_message():
    config = ExperimentConfig(
        name="s38417",
        circuit_factory=lambda: s38417_like(scale=0.01),
        tp_percents=(0.0,),
        flow=FlowConfig(atpg=FAST_ATPG, run_layout_phase=False),
    )
    with pytest.raises(TypeError, match="functools.partial"):
        run_sweeps_report([config], ExecutorConfig(jobs=2))


# ----------------------------------------------------------------------
# Multi-circuit fan-out
# ----------------------------------------------------------------------
def test_run_sweeps_fans_out_whole_circuits():
    flow = FlowConfig(atpg=FAST_ATPG, run_layout_phase=False)
    configs = []
    for name, scale in (("tiny_a", 0.01), ("tiny_b", 0.012)):
        configs.append(ExperimentConfig(
            name=name,
            circuit_factory=functools.partial(s38417_like, scale=scale),
            tp_percents=(0.0, 2.0),
            flow=flow,
        ))
    report = run_sweeps_report(configs, ExecutorConfig(jobs=4))
    assert report.ok, report.failures
    results = report.results
    assert sorted(results) == ["tiny_a", "tiny_b"]
    for result in results.values():
        assert sorted(result.runs) == [0.0, 2.0]
        assert all(r.test is not None for r in result.runs.values())
    keys_a = {r.cache_key for r in results["tiny_a"].runs.values()}
    keys_b = {r.cache_key for r in results["tiny_b"].runs.values()}
    assert len(keys_a | keys_b) == 4  # every level's key is distinct


# ----------------------------------------------------------------------
# FlowSummary contract
# ----------------------------------------------------------------------
def test_summary_raises_like_flow_result_when_phases_skipped():
    circuit = s38417_like(scale=0.01)
    config = FlowConfig(atpg=FAST_ATPG, run_layout_phase=False)
    summary = summarize(run_flow(circuit, cmos130(), config))
    assert summary.test_metrics().n_patterns > 0
    with pytest.raises(ValueError, match="layout phase"):
        summary.area_metrics()
    assert summary.sta is None
    assert summary.log  # per-stage records came along
    assert all("ms" in line for line in summary.log)
