"""Tests for the resource/durability lint pack (RES001–RES004).

Fixtures pin each rule; the drop-fsync seeded mutation proves RES004
bites on the real job store; and a regression test locks in the
executor fix this pack caught: the sweep journal must close even when
the scheduler fails to construct.
"""

from __future__ import annotations

import functools
import textwrap
from pathlib import Path

import pytest

from repro.lint.mutation import MUTATIONS, check_mutation
from repro.lint.resrules import lint_resources
from repro.lint.selfrules import default_source_root


def _lint(tmp_path, code, name="mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return lint_resources(tmp_path)


def _ids(report):
    return [d.rule_id for d in report.diagnostics]


# ---------------------------------------------------------------------------
# RES001 — resource open at return


def test_res001_flags_file_open_at_return(tmp_path):
    report = _lint(tmp_path, """\
        def leak(path):
            fh = open(path)
            return fh.read()

        def closed(path):
            fh = open(path)
            try:
                return fh.read()
            finally:
                fh.close()

        def managed(path):
            with open(path) as fh:
                return fh.read()

        def escapes(path):
            fh = open(path)
            return fh
    """)
    res001 = [d for d in report.diagnostics if d.rule_id == "RES001"]
    assert len(res001) == 1
    assert res001[0].line == 2


def test_res001_tracks_journal_and_store_openers(tmp_path):
    report = _lint(tmp_path, """\
        from repro.core.resilience import SweepJournal

        def leak(path):
            journal = SweepJournal(path)
            journal.record("x")

        def closed(path):
            journal = SweepJournal(path)
            try:
                journal.record("x")
            finally:
                journal.close()
    """)
    res001 = [d for d in report.diagnostics if d.rule_id == "RES001"]
    assert len(res001) == 1
    assert "journal" in res001[0].message


def test_res001_guard_refinement_avoids_false_positive(tmp_path):
    report = _lint(tmp_path, """\
        def guarded(path, want):
            fh = open(path) if want else None
            try:
                return fh.read() if fh is not None else ""
            finally:
                if fh is not None:
                    fh.close()
    """)
    assert "RES001" not in _ids(report)


# ---------------------------------------------------------------------------
# RES002 — pools


def test_res002_flags_unshutdown_pool(tmp_path):
    report = _lint(tmp_path, """\
        from concurrent.futures import ThreadPoolExecutor

        def bad(items, work):
            pool = ThreadPoolExecutor(4)
            return list(pool.map(work, items))

        def good(items, work):
            with ThreadPoolExecutor(4) as pool:
                return list(pool.map(work, items))
    """)
    assert _ids(report).count("RES002") == 1


# ---------------------------------------------------------------------------
# RES003 — leak on the exception path only


def test_res003_warns_when_only_normal_path_closes(tmp_path):
    report = _lint(tmp_path, """\
        def risky(path):
            fh = open(path)
            data = fh.read()
            fh.close()
            return data
    """)
    res003 = [d for d in report.diagnostics if d.rule_id == "RES003"]
    assert len(res003) == 1
    assert res003[0].severity == "warning"


def test_res003_quiet_with_try_finally(tmp_path):
    report = _lint(tmp_path, """\
        def safe(path):
            fh = open(path)
            try:
                return fh.read()
            finally:
                fh.close()
    """)
    assert "RES003" not in _ids(report)


# ---------------------------------------------------------------------------
# RES004 — the durable write contract (§14: write → flush → fsync)


def test_res004_clean_on_full_contract(tmp_path):
    report = _lint(tmp_path, """\
        import os

        class Store:
            def append(self, line):  # lint: durable
                self._handle.write(line)
                self._handle.flush()
                try:
                    os.fsync(self._handle.fileno())
                except OSError:
                    pass
    """)
    assert "RES004" not in _ids(report)


def test_res004_flags_missing_fsync(tmp_path):
    report = _lint(tmp_path, """\
        import os

        class Store:
            def append(self, line):  # lint: durable
                self._handle.write(line)
                self._handle.flush()
    """)
    res004 = [d for d in report.diagnostics if d.rule_id == "RES004"]
    assert len(res004) == 1
    assert res004[0].severity == "error"


def test_res004_flags_missing_flush(tmp_path):
    report = _lint(tmp_path, """\
        import os

        class Store:
            def append(self, line):  # lint: durable
                self._handle.write(line)
                os.fsync(self._handle.fileno())
    """)
    assert "RES004" in _ids(report)


# ---------------------------------------------------------------------------
# Seeded mutation against the real durable log writer


def test_drop_fsync_mutation_is_caught(tmp_path):
    by_name = {m.name: m for m in MUTATIONS}
    hits = check_mutation(default_source_root(), by_name["drop-fsync"],
                          tmp_path)
    assert hits, "fsync removal in JsonlLog.append escaped"
    assert all(d.rule_id == "RES004" for d in hits)


# ---------------------------------------------------------------------------
# The executor regression this pack caught: the sweep journal closes
# even when the scheduler fails before running a single task.


def test_sweep_journal_closed_when_scheduler_raises(tmp_path, monkeypatch):
    from repro.atpg import AtpgConfig
    from repro.circuits import s38417_like
    from repro.core import ExecutorConfig, ExperimentConfig, FlowConfig
    from repro.core import executor as executor_mod
    from repro.core.resilience import SweepJournal

    journals = []

    class SpyJournal(SweepJournal):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            journals.append(self)

    class BoomScheduler:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("scheduler init failed")

    monkeypatch.setattr(executor_mod, "SweepJournal", SpyJournal)
    monkeypatch.setattr(executor_mod, "_Scheduler", BoomScheduler)

    config = ExperimentConfig(
        name="s38417",
        circuit_factory=functools.partial(s38417_like, scale=0.012),
        tp_percents=(0.0,),
        flow=FlowConfig(atpg=AtpgConfig(seed=7, backtrack_limit=24,
                                        max_deterministic=60)),
    )
    executor = ExecutorConfig(jobs=1,
                              journal=str(tmp_path / "sweep.jsonl"))
    with pytest.raises(RuntimeError, match="scheduler init failed"):
        executor_mod.run_sweeps_report([config], executor)

    assert journals, "sweep never opened its journal"
    assert all(j._handle.closed for j in journals), \
        "journal handle leaked past the failed sweep"


# ---------------------------------------------------------------------------
# The real tree stays clean


def test_repro_sources_have_no_resource_findings():
    report = lint_resources(default_source_root())
    assert report.diagnostics == [], report.format_text()
