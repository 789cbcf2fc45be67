"""Trace exporters: Chrome trace-event JSON and plain-text summaries.

Two consumers, two formats:

* :func:`chrome_trace` — the Chrome trace-event format (the
  ``{"traceEvents": [...]}`` JSON object understood by Perfetto and
  ``chrome://tracing``).  Spans become complete (``"ph": "X"``) events
  with microsecond timestamps; traces from several processes merge
  onto one time axis (the shared monotonic clock, else wall clock),
  keyed by stable virtual ``pid``/``tid``.  It is the only trace file
  format: ``repro flow/sweep --trace``, the daemon's stored job trace
  (served at ``GET /sweeps/<id>/trace``) and the benchmark's traced
  run all write its output.
* :func:`format_trace_summary` — a human-readable per-stage table
  (span tree with call counts, total seconds and attached
  counters/gauges), for terminals and bench artifacts;
  :func:`summarize_merged` is its per-track counterpart for a written
  Chrome object (the ``repro trace summarize`` backend).

The exporters operate on the plain-data :class:`~repro.obs.tracer.Trace`
objects, so they work identically on a live tracer's snapshot, a
worker trace shipped through the executor, or a trace loaded back from
a ``FlowSummary``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracer import Span, Trace


def _span_args(span: Span) -> Dict[str, float]:
    args: Dict[str, float] = {}
    args.update(span.counters)
    args.update(span.gauges)
    return args


def _sort_key(trace: Trace) -> Tuple:
    return (trace.pid, trace.wall_epoch, trace.mono_epoch, trace.label)


def chrome_trace(traces: Iterable[Optional[Trace]]) -> dict:
    """Stitch traces into one Chrome trace-event JSON object.

    ``None`` entries (untraced runs) are skipped.  Each trace becomes
    one ``(pid, tid)`` track:

    * **Alignment** prefers the shared monotonic clock: when every
      trace carries a non-zero ``mono_epoch`` (same machine, same
      boot), offsets come from it and wall-clock skew between
      processes cannot misplace spans.  Otherwise offsets come from
      ``wall_epoch``.  ``otherData.clock`` names the clock used.
    * **Stable pids**: distinct recording processes are renumbered
      ``1..N`` in deterministic ``(pid, epoch, label)`` order, so the
      output does not depend on input order and stays diffable across
      runs even though real pids change; the real OS pid is recorded
      in the track's ``process_name`` metadata args.  ``tid``
      disambiguates several traces from the same process (the inline
      ``jobs=1`` executor runs every level in the parent).
    """
    live = sorted((t for t in traces if t is not None), key=_sort_key)
    events: List[dict] = []
    if not live:
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    use_mono = all(t.mono_epoch for t in live)
    epoch_of = (lambda t: t.mono_epoch) if use_mono else (
        lambda t: t.wall_epoch)
    epoch0 = min(epoch_of(t) for t in live)

    pid_map: Dict[int, int] = {}
    tid_of_pid: Dict[int, int] = {}
    for trace in live:
        vpid = pid_map.setdefault(trace.pid, len(pid_map) + 1)
        tid = tid_of_pid.get(vpid, 0) + 1
        tid_of_pid[vpid] = tid
        offset_us = (epoch_of(trace) - epoch0) * 1e6
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": vpid,
            "tid": tid,
            "args": {
                "name": trace.label or f"pid {trace.pid}",
                "os_pid": trace.pid,
            },
        })
        if trace.counters or trace.gauges:
            events.append({
                "name": "trace_totals",
                "ph": "I",
                "s": "p",
                "ts": offset_us,
                "pid": vpid,
                "tid": tid,
                "args": dict(trace.counters, **trace.gauges),
            })
        for span in trace.walk():
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": offset_us + span.t_start * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": vpid,
                "tid": tid,
                "args": _span_args(span),
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "monotonic" if use_mono else "wall"},
    }


def write_chrome_trace(path, traces: Iterable[Optional[Trace]]) -> dict:
    """Write the merged Chrome trace JSON to ``path``; returns it."""
    obj = chrome_trace(traces)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1)
    return obj


def validate_chrome_trace(obj) -> List[str]:
    """Schema check of a Chrome trace-event object.

    Returns a list of problems (empty when the object is a loadable
    trace).  Checks the subset of the trace-event spec this package
    emits: a ``traceEvents`` array of events carrying ``name``/``ph``/
    ``pid``/``tid``, with non-negative numeric ``ts``/``dur`` on
    complete events.
    """
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for n, event in enumerate(events):
        where = f"traceEvents[{n}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        ph = event.get("ph")
        if ph not in ("X", "M", "I", "B", "E", "C"):
            problems.append(f"{where}: unknown phase {ph!r}")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: {key!r} must be a non-negative number"
                    )
    return problems


# ----------------------------------------------------------------------
# Plain-text summary
# ----------------------------------------------------------------------
def _merge_rows(
    spans: Sequence[Span], depth: int,
    rows: List[Tuple[int, str, int, float, Dict[str, float]]],
) -> None:
    """Aggregate sibling spans by name into (depth, name, calls,
    seconds, detail) rows, depth first."""
    order: List[str] = []
    grouped: Dict[str, List[Span]] = {}
    for span in spans:
        if span.name not in grouped:
            order.append(span.name)
            grouped[span.name] = []
        grouped[span.name].append(span)
    for name in order:
        group = grouped[name]
        detail: Dict[str, float] = {}
        for span in group:
            for key, value in span.counters.items():
                detail[key] = detail.get(key, 0.0) + value
            detail.update(span.gauges)  # gauges: last write wins
        rows.append((
            depth, name, len(group),
            sum(s.duration_s for s in group), detail,
        ))
        children = [c for s in group for c in s.children]
        if children:
            _merge_rows(children, depth + 1, rows)


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.3g}"


def format_trace_summary(trace: Optional[Trace]) -> str:
    """Render one trace as an indented per-span table.

    Sibling spans with the same name (e.g. repeated hold-fix rounds)
    are aggregated into one row with a call count; counters sum over
    the group, gauges keep their last value.
    """
    if trace is None or not trace.spans:
        return "(no trace recorded)"
    rows: List[Tuple[int, str, int, float, Dict[str, float]]] = []
    _merge_rows(trace.spans, 0, rows)
    name_width = max(
        len("  " * depth + name) for depth, name, _, _, _ in rows
    )
    name_width = max(name_width, len("span"))
    lines = []
    title = f"trace {trace.label}" if trace.label else "trace"
    lines.append(f"{title} (pid {trace.pid})")
    lines.append(
        f"{'span':<{name_width}}  {'calls':>5}  {'total(s)':>9}  detail"
    )
    for depth, name, calls, seconds, detail in rows:
        label = "  " * depth + name
        detail_text = " ".join(
            f"{key}={_format_value(value)}"
            for key, value in sorted(detail.items())
        )
        lines.append(
            f"{label:<{name_width}}  {calls:>5}  {seconds:>9.3f}  "
            f"{detail_text}".rstrip()
        )
    extras = dict(trace.counters, **trace.gauges)
    if extras:
        lines.append("totals: " + " ".join(
            f"{key}={_format_value(value)}"
            for key, value in sorted(extras.items())
        ))
    return "\n".join(lines)


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
