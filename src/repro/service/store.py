"""Durable job store: the daemon's crash-safe job-state journal.

A :class:`~repro.service.jobs.JobManager` keeps its jobs in memory —
fast, but a daemon crash would orphan every queued and running job
even though their sweep journals and cache artifacts survive on disk.
:class:`JobStore` closes that gap with the same discipline the sweep
journal uses one level down (both are :class:`~repro.jsonl.JsonlLog`
files): an append-only JSONL file under
``<cache_dir>/jobs/`` where every job-state transition is one fsync'd
line carrying the full :class:`~repro.service.protocol.JobRecord`
wire form (and, for ``done`` jobs, the complete report payload, so
``/result`` works across a restart without recomputing anything).

Replay (:func:`JobStore.replay`) reads through the same torn-line
tolerant reader as the journal — skip and *count*, never stop: after a
``kill -9`` the torn frame sits mid-file once the restarted daemon
appends behind it, so stopping at the first tear would discard every
post-restart transition.  Within one job the *last* intact record
wins; jobs come back in first-submission order so a restarted
daemon's ``/sweeps`` listing matches the pre-crash one.

The store is a journal, not a database: it only ever appends, one
line per transition, so replay cost grows with daemon history.  That
is the right trade for a job queue whose records are small and whose
consistency story must survive ``kill -9`` — compaction can ride a
later PR without changing the format.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.jsonl import JsonlLog, read_jsonl
from repro.service.protocol import JobRecord, WireError

#: Bump on any incompatible change to the record-line layout.
STORE_VERSION = 1

#: File name of the job-state journal inside the store directory.
STORE_FILENAME = "store.jsonl"


@dataclass
class StoreReplay:
    """What a replayed job store says about past jobs.

    Attributes:
        records: The latest intact :class:`JobRecord` per job id, in
            first-submission order (the order the lines first mention
            each id).
        reports: Wire-encoded sweep reports by job id, from the latest
            record line that carried one (``done`` transitions do).
        torn_lines: Lines the replay had to skip — a torn trailing
            frame after a crash, or mid-file damage.  Non-zero is
            expected exactly once per ``kill -9``; anything more is
            real corruption worth alerting on.
    """

    records: List[JobRecord] = field(default_factory=list)
    reports: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    torn_lines: int = 0


class JobStore(JsonlLog):
    """Append-only fsync'd journal of job-state transitions.

    One writer (the daemon) appends; :meth:`replay` reads.  Every
    :meth:`record_transition` is durable before it returns (the
    :class:`~repro.jsonl.JsonlLog` contract), so the store never
    claims less than what actually happened — after a crash the worst
    case is a *final* transition that tore, which replay counts and
    skips, leaving the job in its previous state (``running`` →
    re-adopted as interrupted and resumed; resumption is cheap because
    the sweep's own journal + cache already hold the finished cells).
    """

    def __init__(self, root):
        self.root = Path(root)
        super().__init__(self.root / STORE_FILENAME,
                         separators=(",", ":"))

    def record_transition(self, record: JobRecord,
                          report: Optional[Dict[str, Any]] = None
                          ) -> None:
        """Append one job-state transition; durable before return.

        ``report`` is the wire-encoded sweep report
        (:func:`~repro.service.protocol.report_to_wire`) and travels
        on ``done`` transitions so a restarted daemon can serve
        ``/result`` for jobs that finished in a previous life.
        """
        line = {
            "v": STORE_VERSION,
            "ts": time.time(),
            "record": record.to_wire(),
        }
        if report is not None:
            line["report"] = report
        self.append(line)

    # -- replay ----------------------------------------------------------
    @classmethod
    def replay(cls, root) -> StoreReplay:
        """Fold the store's history into its latest per-job state.

        Never raises on damaged content: unparseable lines, foreign
        JSON shapes, unknown store versions and undecodable records
        all count as torn and are skipped — a restarting daemon must
        come up with whatever intact history exists, not crash on the
        byte that crashed its predecessor.
        """
        lines, torn = read_jsonl(Path(root) / STORE_FILENAME)
        replay = StoreReplay(torn_lines=torn)
        latest: Dict[str, JobRecord] = {}
        order: List[str] = []
        for line in lines:
            if (line.get("v") != STORE_VERSION
                    or not isinstance(line.get("record"), dict)):
                replay.torn_lines += 1
                continue
            try:
                record = JobRecord.from_wire(line["record"])
            except WireError:
                replay.torn_lines += 1
                continue
            if record.id not in latest:
                order.append(record.id)
            latest[record.id] = record
            report = line.get("report")
            if isinstance(report, dict):
                replay.reports[record.id] = report
        replay.records = [latest[jid] for jid in order]
        return replay
