"""Durable job store and daemon restart recovery.

The tentpole contract under test: a daemon that dies — cleanly or by
``kill -9`` — loses no job *state*.  Every job transition is an fsync'd
line in ``<cache_dir>/jobs/store.jsonl``; a restarted
:class:`~repro.service.jobs.JobManager` replays it, re-adopts terminal
jobs with their full reports (``/result`` keeps working), marks jobs
the crash caught queued/running as ``interrupted``, and re-runs them
— where the shared artifact cache serves every cell that finished, so
the resumed result is **byte-identical** to an uninterrupted run.

The store and the sweep journal share one JSONL log
(:mod:`repro.jsonl`), so one crash-damage matrix runs against both:
torn lines are skipped *and counted*, never fatal, and an append after
a tear first terminates the half-line so the damage stays confined to
exactly one frame.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List, Tuple

import pytest

from repro import api
from repro.core import resilience
from repro.core.resilience import SweepJournal, read_journal
from repro.jsonl import read_jsonl
from repro.service import (
    JobManager,
    JobRecord,
    JobStore,
    SweepRequest,
)
from repro.service.protocol import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_INTERRUPTED,
    JOB_QUEUED,
    JOB_RUNNING,
    TERMINAL_STATES,
    canonical_result_bytes,
    report_to_wire,
)
from repro.service import store as store_module
from repro.service.store import STORE_FILENAME, STORE_VERSION
from tests.conftest import prom_value, scrape

GOLDEN = Path(__file__).parent / "golden"

#: Cheap ATPG knobs, matching tests/test_service.py.
ATPG = {"seed": 7, "backtrack_limit": 24, "max_deterministic": 60,
        "abort_recovery_blocks": 4, "second_chance_factor": 1}
SCALE = 0.012
OPTIONS = {"atpg": ATPG}


def request(tp_percents, **overrides):
    return SweepRequest(circuit="s38417", scale=SCALE,
                        tp_percents=tp_percents, options=OPTIONS,
                        **overrides)


def record_for(job_id, state, req, **overrides):
    return JobRecord(id=job_id, state=state, request=req,
                     submitted_at=overrides.pop("submitted_at",
                                                time.time()),
                     **overrides)


def wait_terminal(manager, job_id, timeout_s=300.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = manager.record(job_id)
        if record.state in TERMINAL_STATES:
            return record
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} not terminal in {timeout_s}s")


# ----------------------------------------------------------------------
# JobStore unit behaviour
# ----------------------------------------------------------------------
def test_store_replay_last_record_per_job_wins(tmp_path):
    req = request((0.0,))
    with JobStore(tmp_path) as store:
        store.record_transition(record_for("j1", JOB_QUEUED, req))
        store.record_transition(record_for("j2", JOB_QUEUED, req))
        store.record_transition(record_for("j1", JOB_RUNNING, req))
        store.record_transition(
            record_for("j1", JOB_DONE, req),
            report={"fake": "report"})

    replay = JobStore.replay(tmp_path)
    assert replay.torn_lines == 0
    # First-submission order, latest state each.
    assert [r.id for r in replay.records] == ["j1", "j2"]
    assert replay.records[0].state == JOB_DONE
    assert replay.records[1].state == JOB_QUEUED
    assert replay.reports == {"j1": {"fake": "report"}}


def test_store_replay_of_missing_file_is_empty(tmp_path):
    replay = JobStore.replay(tmp_path / "nowhere")
    assert replay.records == []
    assert replay.reports == {}
    assert replay.torn_lines == 0


# ----------------------------------------------------------------------
# Crash-damage matrix over both clients of the shared JSONL log: the
# job store (replay) and the sweep journal (a re-run appends, the
# progress reader counts).  Each case runs against every client that
# can see the damage, from the same inputs.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LogClient:
    """One writer/reader pair over :class:`repro.jsonl.JsonlLog`."""

    name: str
    filename: str
    #: Reopen the log for append and record one frame tagged ``tag``.
    append: Callable[[Path, str], None]
    #: ``(tags of the intact frames, torn_lines)``.
    read: Callable[[Path], Tuple[List[str], int]]


def _store_append(root, tag):
    with JobStore(root) as store:
        store.record_transition(record_for(tag, JOB_QUEUED, request((0.0,))))


def _store_read(root):
    replay = JobStore.replay(root)
    return [r.id for r in replay.records], replay.torn_lines


def _journal_append(root, tag):
    with SweepJournal(root / "journal.jsonl") as journal:
        journal.record("task_done", key=tag)


def _journal_read(root):
    events, torn = read_jsonl(root / "journal.jsonl")
    return [e["key"] for e in events], torn


STORE = LogClient("store", STORE_FILENAME, _store_append, _store_read)
JOURNAL = LogClient("journal", "journal.jsonl", _journal_append,
                    _journal_read)
LOG_CLIENTS = (STORE, JOURNAL)

#: What ``kill -9`` leaves mid-write: a line with no newline.
TORN_STUMP = '{"v": 1, "ts": 12.5, "rec'


def _damage(root, client, text):
    with open(root / client.filename, "a", encoding="utf-8") as fh:
        fh.write(text)


def test_store_replay_skips_and_counts_torn_tail(tmp_path):
    for client in LOG_CLIENTS:
        root = tmp_path / client.name
        client.append(root, "j1")
        _damage(root, client, TORN_STUMP)
        assert client.read(root) == (["j1"], 1), client.name


@pytest.mark.parametrize("bad_line,clients", [
    pytest.param("not json at all", LOG_CLIENTS, id="not json at all"),
    # JSON, wrong shape
    pytest.param("[1, 2, 3]", LOG_CLIENTS, id="[1, 2, 3]"),
    # Store-only: a foreign store version, an undecodable record (both
    # are valid objects to the journal reader).
    pytest.param('{"v": 999, "record": {}}', (STORE,),
                 id='{"v": 999, "record": {}}'),
    pytest.param('{"v": %d, "record": {"id": "jx"}}' % STORE_VERSION,
                 (STORE,),
                 id='{"v": %d, "record": {"id": "jx"}}' % STORE_VERSION),
])
def test_store_replay_counts_every_damage_shape(tmp_path, bad_line,
                                                clients):
    for client in clients:
        root = tmp_path / client.name
        client.append(root, "j1")
        _damage(root, client, bad_line + "\n")
        client.append(root, "j2")  # mid-file damage: reading goes on
        assert client.read(root) == (["j1", "j2"], 1), client.name


def test_store_append_after_tear_confines_damage_to_one_frame(tmp_path):
    """A kill -9 tears the trailing line; the next writer (a restarted
    daemon, a re-run sweep) must not glue its first frame onto
    the stump."""
    for client in LOG_CLIENTS:
        root = tmp_path / client.name
        client.append(root, "j1")
        _damage(root, client, TORN_STUMP)
        client.append(root, "j2")
        # The stump, nothing more.
        assert client.read(root) == (["j1", "j2"], 1), client.name


# ----------------------------------------------------------------------
# Logs written by the previous writers (tests/golden/legacy_*.jsonl,
# each ending in a torn tail) replay, resume and re-encode unchanged.
# ----------------------------------------------------------------------
def _intact_lines(path):
    """The fixture's complete lines (its last line is the torn stump)."""
    return path.read_text(encoding="utf-8").splitlines()[:-1]


def test_legacy_store_replays_and_resumes(tmp_path):
    shutil.copy(GOLDEN / "legacy_store.jsonl", tmp_path / STORE_FILENAME)
    replay = JobStore.replay(tmp_path)
    assert replay.torn_lines == 1
    assert [(r.id, r.state) for r in replay.records] == [
        ("jdone", JOB_DONE), ("jrun", JOB_RUNNING)]
    assert replay.reports == {"jdone": {"fake": "report"}}

    # A restarted daemon re-adopts the running job behind the stump.
    with JobStore(tmp_path) as store:
        store.record_transition(replace(replay.records[1],
                                        state=JOB_INTERRUPTED))
    again = JobStore.replay(tmp_path)
    assert again.torn_lines == 1
    assert [(r.id, r.state) for r in again.records] == [
        ("jdone", JOB_DONE), ("jrun", JOB_INTERRUPTED)]


def test_legacy_store_lines_reencode_byte_identically(tmp_path,
                                                      monkeypatch):
    lines = _intact_lines(GOLDEN / "legacy_store.jsonl")
    with JobStore(tmp_path) as store:
        for raw in lines:
            line = json.loads(raw)
            monkeypatch.setattr(store_module, "time",
                                SimpleNamespace(time=lambda: line["ts"]))
            store.record_transition(JobRecord.from_wire(line["record"]),
                                    report=line.get("report"))
    written = (tmp_path / STORE_FILENAME).read_text(encoding="utf-8")
    assert written == "".join(raw + "\n" for raw in lines)


def _done_keys(events):
    return {e["key"] for e in events if e["event"] == "task_done"}


def test_legacy_journal_resumes(tmp_path):
    path = tmp_path / "journal.jsonl"
    shutil.copy(GOLDEN / "legacy_journal.jsonl", path)
    events, torn = read_jsonl(path)
    assert torn == 1
    assert [e["event"] for e in events] == [
        "sweep_start", "task_start", "task_done", "task_start"]
    assert _done_keys(read_journal(path)) == {"k0"}

    with SweepJournal(path) as journal:
        journal.record("task_done", key="k2", name="s38417",
                       tp_percent=2.0, attempt=0)
    events, torn = read_jsonl(path)
    assert torn == 1
    assert _done_keys(events) == {"k0", "k2"}


def test_legacy_journal_lines_reencode_byte_identically(tmp_path,
                                                        monkeypatch):
    lines = _intact_lines(GOLDEN / "legacy_journal.jsonl")
    path = tmp_path / "journal.jsonl"
    with SweepJournal(path) as journal:
        for raw in lines:
            data = json.loads(raw)
            ts, mono = data.pop("ts"), data.pop("ts_mono")
            monkeypatch.setattr(
                resilience, "time",
                SimpleNamespace(time=lambda: ts, monotonic=lambda: mono))
            journal.record(data.pop("event"), **data)
    written = path.read_text(encoding="utf-8")
    assert written == "".join(raw + "\n" for raw in lines)


# ----------------------------------------------------------------------
# Manager restart recovery
# ----------------------------------------------------------------------
def test_restart_readopts_done_jobs_with_servable_report(tmp_path):
    manager = JobManager(cache_dir=str(tmp_path), job_workers=1)
    try:
        job = manager.submit(request((0.0,)))
        wait_terminal(manager, job.id)
        original = manager.report(job.id)
        assert original is not None
    finally:
        manager.shutdown()

    reborn = JobManager(cache_dir=str(tmp_path), job_workers=1)
    try:
        record = reborn.record(job.id)
        assert record.state == JOB_DONE
        assert record.submitted_at == pytest.approx(job.submitted_at)
        recovered = reborn.report(job.id)
        assert recovered is not None
        assert (canonical_result_bytes(recovered.results["s38417"])
                == canonical_result_bytes(original.results["s38417"]))
        metrics = scrape(reborn)
        assert prom_value(metrics, "repro_jobs_total",
                          event="recovered") == 1
        assert prom_value(metrics, "repro_jobs_total",
                          event="interrupted") == 0
        assert prom_value(metrics, "repro_store_torn_lines_total") == 0
    finally:
        reborn.shutdown()


def test_restart_resumes_interrupted_job_byte_identical(tmp_path):
    """Crash simulation: the store says ``running`` (the daemon died
    between the last cell and the done transition), the sweep journal
    and cache hold the finished cells.  The restarted manager must
    re-adopt the job as interrupted, resume it entirely from cache,
    and serve a byte-identical result."""
    levels = (0.0, 2.0)
    manager = JobManager(cache_dir=str(tmp_path), job_workers=1)
    try:
        job = manager.submit(request(levels))
        wait_terminal(manager, job.id)
        original = manager.report(job.id)
    finally:
        manager.shutdown()

    # Roll the durable state back to mid-run: append a running-state
    # transition, exactly what a crash-before-done leaves behind.
    with JobStore(tmp_path / "jobs") as store:
        store.record_transition(
            record_for(job.id, JOB_RUNNING, request(levels),
                       submitted_at=job.submitted_at,
                       started_at=time.time()))

    reborn = JobManager(cache_dir=str(tmp_path), job_workers=1)
    try:
        assert prom_value(scrape(reborn), "repro_jobs_total",
                          event="interrupted") == 1
        final = wait_terminal(reborn, job.id)
        assert final.state == JOB_DONE
        resumed = reborn.report(job.id)
        assert (canonical_result_bytes(resumed.results["s38417"])
                == canonical_result_bytes(original.results["s38417"]))
        # Resumption was a replay, not a recomputation.
        assert resumed.cache_hits == len(levels)
        assert resumed.cache_misses == 0
    finally:
        reborn.shutdown()

    # In-process reference: the whole round trip stayed faithful.
    local = api.sweep("s38417", scale=SCALE, tp_percents=levels,
                      **OPTIONS)
    assert (canonical_result_bytes(resumed.results["s38417"])
            == canonical_result_bytes(local))


def test_resubmission_coalesces_onto_recovered_job(tmp_path):
    """Idempotent resubmission: a tenant that lost its connection
    during a daemon restart resubmits the same spec and attaches to
    the recovered (interrupted, resuming) job instead of forking a
    duplicate computation."""
    levels = (1.0, 3.0)
    with JobStore(tmp_path / "jobs") as store:
        store.record_transition(
            record_for("jcrashed", JOB_RUNNING, request(levels),
                       started_at=time.time()))

    manager = JobManager(cache_dir=str(tmp_path), job_workers=1)
    try:
        twin = manager.submit(request(levels))
        if twin.coalesced_with is not None:
            # The recovered job was still in flight: attached to it.
            assert twin.coalesced_with == "jcrashed"
        else:
            # The tiny resumed sweep finished before the resubmission
            # landed — then the cache serves it without recomputing.
            assert manager.record("jcrashed").state in TERMINAL_STATES
        wait_terminal(manager, "jcrashed")
        final = wait_terminal(manager, twin.id)
        assert final.state == JOB_DONE
        assert (canonical_result_bytes(
                    manager.report(twin.id).results["s38417"])
                == canonical_result_bytes(
                    manager.report("jcrashed").results["s38417"]))
    finally:
        manager.shutdown()


def test_recovered_cancelled_job_stays_cancelled(tmp_path):
    with JobStore(tmp_path / "jobs") as store:
        store.record_transition(
            record_for("jgone", JOB_CANCELLED, request((0.0,)),
                       finished_at=time.time()))
    manager = JobManager(cache_dir=str(tmp_path), job_workers=1)
    try:
        assert manager.record("jgone").state == JOB_CANCELLED
        assert manager.report("jgone") is None
        assert prom_value(scrape(manager), "repro_jobs_total",
                          event="recovered") == 1
    finally:
        manager.shutdown()


def test_restart_counts_store_torn_lines(tmp_path):
    manager = JobManager(cache_dir=str(tmp_path), job_workers=1)
    try:
        job = manager.submit(request((0.0,)))
        wait_terminal(manager, job.id)
    finally:
        manager.shutdown()
    with open(tmp_path / "jobs" / STORE_FILENAME, "a",
              encoding="utf-8") as fh:
        fh.write('{"v": 1, "ts": 99.0, "reco')  # kill -9 stump

    reborn = JobManager(cache_dir=str(tmp_path), job_workers=1)
    try:
        assert prom_value(scrape(reborn),
                          "repro_store_torn_lines_total") == 1
        assert reborn.record(job.id).state == JOB_DONE
    finally:
        reborn.shutdown()


def test_done_transition_carries_wire_report(tmp_path):
    """The store line for a done job embeds the full report wire form
    — that is what lets ``/result`` survive a restart."""
    manager = JobManager(cache_dir=str(tmp_path), job_workers=1)
    try:
        job = manager.submit(request((0.0,)))
        wait_terminal(manager, job.id)
        report = manager.report(job.id)
    finally:
        manager.shutdown()
    replay = JobStore.replay(tmp_path / "jobs")
    assert replay.reports[job.id] == report_to_wire(report)


def test_interrupted_state_is_declared_non_terminal():
    # The recovery design leans on this: an interrupted job must look
    # in-flight to the coalescing scan and to client wait() loops.
    assert JOB_INTERRUPTED not in TERMINAL_STATES
