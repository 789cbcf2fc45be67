"""Append-only JSON-lines log: the one durable writer and the one reader.

The sweep journal (:class:`~repro.core.resilience.SweepJournal`) and
the daemon's job store (:class:`~repro.service.store.JobStore`) share
one on-disk format — one JSON object per line — and one crash story:

* :meth:`JsonlLog.append` writes, flushes and fsyncs before it
  returns, so a record is durable once it is visible, and a
  ``kill -9`` tears at most the trailing line.
* A log always opens for append (a re-run adds to the history, never
  rewrites it), and opening first terminates a torn trailing line, so
  the first new record cannot glue onto the stump: the damage stays
  confined to exactly one frame.
* :func:`read_jsonl` skips *and counts* bad lines instead of stopping:
  after a restart the torn frame sits mid-file, and stopping there
  would discard everything appended behind it.

Stdlib only and free of ``repro`` imports, so every layer can use it
without an import cycle.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple


class JsonlLog:
    """Append-only JSONL file; every :meth:`append` is fsync'd.

    Args:
        path: The log file (parent directories are created); an
            existing one is appended to.
        separators: ``json.dumps`` separators for each line (``None``
            keeps the ``json`` defaults).  Keys are always sorted.
    """

    def __init__(self, path, separators: Optional[Tuple[str, str]] = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._separators = separators
        self._handle = open(self.path, "a", encoding="utf-8")
        self._isolate_torn_tail()

    def _isolate_torn_tail(self) -> None:
        """Terminate a torn trailing line before the first append.

        A ``kill -9`` mid-write leaves the file without a final
        newline; appending straight after it would glue the first new
        record onto the torn half-line, losing *both* to the reader.
        One newline confines the damage to exactly the torn frame.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                last = handle.read(1)
        except OSError:  # pragma: no cover - unreadable log
            return
        if last != b"\n":
            self._handle.write("\n")
            self._handle.flush()

    def append(self, obj: Dict[str, Any]) -> None:  # lint: durable
        """Append one JSON object as a line; durable before return."""
        self._handle.write(json.dumps(obj, sort_keys=True,
                                      separators=self._separators) + "\n")
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            pass

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_jsonl(lines: Iterable[str]) -> Tuple[List[Dict[str, Any]], int]:
    """Decode JSONL lines into ``(objects, torn_lines)``.

    Blank lines are ignored.  A line that is not valid JSON, or is
    JSON but not an object (a bare number, a list), is skipped and
    counted in ``torn_lines`` — non-zero is evidence of a crash (one
    per ``kill -9``) or of real corruption.
    """
    objects: List[Dict[str, Any]] = []
    torn = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            torn += 1
            continue
        if not isinstance(obj, dict):
            torn += 1
            continue
        objects.append(obj)
    return objects, torn


def read_jsonl(path) -> Tuple[List[Dict[str, Any]], int]:
    """Read a JSONL file into ``(objects, torn_lines)``.

    A missing file reads as ``([], 0)``; otherwise see
    :func:`parse_jsonl`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_jsonl(handle)
    except FileNotFoundError:
        return [], 0


__all__ = ["JsonlLog", "parse_jsonl", "read_jsonl"]
