"""Cross-process trace files: serialize, collect, summarize.

A parallel sweep produces many :class:`~repro.obs.tracer.Trace`
objects — one per cell recorded inside a worker process, plus the
parent's scheduling trace and (under the daemon) per-job spans
recorded in the service.  This module carries that pile across
process and file boundaries; :func:`~repro.obs.export.chrome_trace`
stitches it into one sweep-level Chrome/Perfetto trace:

* :func:`trace_to_dict` / :func:`trace_from_dict` — lossless JSON
  round-trip of ``Trace``/``Span`` trees, so traces survive outside a
  pickle (``repro sweep --trace-dir`` writes one file per cell,
  the daemon writes one per job).
* :func:`write_trace_file` / :func:`read_trace_file` /
  :func:`collect_trace_files` — raw trace bundles on disk, the input
  of ``repro trace merge``.
* :func:`summarize_merged` — a per-track per-span text table for a
  merged Chrome object, the ``repro trace summarize`` backend.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracer import Span, Trace

TRACE_FILE_KEY = "repro_traces"


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def _span_to_dict(span: Span) -> dict:
    out: dict = {
        "name": span.name,
        "t_start": span.t_start,
        "t_end": span.t_end,
    }
    if span.counters:
        out["counters"] = dict(span.counters)
    if span.gauges:
        out["gauges"] = dict(span.gauges)
    if span.children:
        out["children"] = [_span_to_dict(c) for c in span.children]
    return out


def _span_from_dict(data: dict) -> Span:
    return Span(
        name=str(data.get("name", "")),
        t_start=float(data.get("t_start", 0.0)),
        t_end=float(data.get("t_end", 0.0)),
        counters=dict(data.get("counters") or {}),
        gauges=dict(data.get("gauges") or {}),
        children=[_span_from_dict(c) for c in data.get("children") or []],
    )


def trace_to_dict(trace: Trace) -> dict:
    """Plain-JSON form of a trace (inverse of :func:`trace_from_dict`)."""
    return {
        "label": trace.label,
        "pid": trace.pid,
        "wall_epoch": trace.wall_epoch,
        "mono_epoch": trace.mono_epoch,
        "counters": dict(trace.counters),
        "gauges": dict(trace.gauges),
        "spans": [_span_to_dict(s) for s in trace.spans],
    }


def trace_from_dict(data: dict) -> Trace:
    """Rebuild a :class:`Trace` from its JSON form.

    Tolerant of missing keys so traces written by older versions
    (no ``mono_epoch``) still load.
    """
    return Trace(
        spans=[_span_from_dict(s) for s in data.get("spans") or []],
        label=str(data.get("label", "")),
        pid=int(data.get("pid", 0)),
        wall_epoch=float(data.get("wall_epoch", 0.0)),
        counters=dict(data.get("counters") or {}),
        gauges=dict(data.get("gauges") or {}),
        mono_epoch=float(data.get("mono_epoch", 0.0)),
    )


def write_trace_file(path, traces: Iterable[Optional[Trace]]) -> int:
    """Write raw traces (JSON, not Chrome format) to ``path``.

    ``None`` entries are skipped.  Returns the number written.  The
    file is ``{"repro_traces": [...]}`` so readers can tell a raw
    trace bundle from a merged Chrome object (``traceEvents``).
    """
    live = [trace_to_dict(t) for t in traces if t is not None]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({TRACE_FILE_KEY: live}, fh, indent=1)
    return len(live)


def read_trace_file(path) -> List[Trace]:
    """Load raw traces from ``path`` (a bundle or one bare trace dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and TRACE_FILE_KEY in obj:
        return [trace_from_dict(d) for d in obj[TRACE_FILE_KEY]]
    if isinstance(obj, dict) and "spans" in obj:
        return [trace_from_dict(obj)]
    raise ValueError(
        f"{path}: not a repro trace file (expected {TRACE_FILE_KEY!r} "
        f"bundle or a single trace object)")


def collect_trace_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of trace files.

    A directory contributes every ``*.trace.json`` inside it (sorted),
    which is the layout ``repro sweep --trace-dir`` produces.
    """
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            out.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".trace.json"))
        else:
            out.append(path)
    return out


# ----------------------------------------------------------------------
# Summaries of merged objects
# ----------------------------------------------------------------------
def summarize_merged(obj: dict) -> str:
    """Per-track span table for a merged Chrome trace object.

    Groups complete (``"X"``) events by ``(pid, tid, name)``; each
    track is headed by its ``process_name`` metadata when present.
    """
    events = obj.get("traceEvents") or []
    names: Dict[Tuple[int, int], str] = {}
    rows: Dict[Tuple[int, int], Dict[str, Tuple[int, float]]] = {}
    for event in events:
        key = (event.get("pid", 0), event.get("tid", 0))
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[key] = str((event.get("args") or {}).get("name", ""))
        elif event.get("ph") == "X":
            per = rows.setdefault(key, {})
            calls, total = per.get(event["name"], (0, 0.0))
            per[event["name"]] = (
                calls + 1, total + float(event.get("dur", 0.0)) / 1e6)
    if not rows:
        return "(no complete events)"
    lines: List[str] = []
    for key in sorted(rows):
        title = names.get(key, "")
        lines.append(
            f"track pid={key[0]} tid={key[1]}"
            + (f" ({title})" if title else ""))
        per = rows[key]
        width = max(len(n) for n in per)
        for name in sorted(per, key=lambda n: -per[n][1]):
            calls, total = per[name]
            lines.append(f"  {name:<{width}}  {calls:>5}  {total:>9.3f}s")
    return "\n".join(lines)
