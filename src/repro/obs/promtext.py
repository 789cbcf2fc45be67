"""Prometheus text exposition, dependency-free: encoder + validator.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` in the
Prometheus *text exposition format* (version 0.0.4) so any scraper —
``curl``, Prometheus itself, a Grafana agent — can consume the
daemon's ``/metrics`` without the repo growing a client
library dependency.  The inverse direction,
:func:`validate_exposition`, is a strict-enough linter that CI can
fail a scrape that drifts from the format: it checks name/label
syntax, TYPE declarations, histogram bucket monotonicity and the
``_count``/``+Inf`` consistency rule.

Format reference (the subset we emit)::

    # HELP repro_stage_seconds Stage wall time.
    # TYPE repro_stage_seconds histogram
    repro_stage_seconds_bucket{stage="atpg",le="0.001"} 0
    repro_stage_seconds_bucket{stage="atpg",le="+Inf"} 12
    repro_stage_seconds_sum{stage="atpg"} 4.2
    repro_stage_seconds_count{stage="atpg"} 12

Buckets are cumulative, every histogram ends in ``+Inf``, and the
``+Inf`` bucket equals ``_count`` for the same label set.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?$")
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    return "+Inf" if bound == float("inf") else _format_value(bound)


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def render_registry(registry: MetricsRegistry) -> str:
    """Encode ``registry`` as Prometheus exposition text.

    Families appear in sorted-name order and label sets in sorted-key
    order, so two renders of equal registries are byte-identical —
    tests diff the text directly.
    """
    lines: List[str] = []
    for fam in registry.families():
        if not METRIC_NAME_RE.match(fam.name):
            raise ValueError(f"invalid metric name {fam.name!r}")
        if fam.help:
            lines.append(f"# HELP {fam.name} {_escape_help(fam.help)}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        for key in sorted(fam.series):
            labels = dict(key)
            for name in labels:
                if not LABEL_NAME_RE.match(name):
                    raise ValueError(f"invalid label name {name!r}")
            inst = fam.series[key]
            if fam.kind in ("counter", "gauge"):
                lines.append(
                    f"{fam.name}{_labels_text(labels)} "
                    f"{_format_value(inst.value)}")
            else:
                for le, cum in inst.cumulative():
                    blabels = dict(labels)
                    blabels["le"] = _format_le(le)
                    lines.append(
                        f"{fam.name}_bucket{_labels_text(blabels)} {cum}")
                lines.append(
                    f"{fam.name}_sum{_labels_text(labels)} "
                    f"{_format_value(inst.sum)}")
                lines.append(
                    f"{fam.name}_count{_labels_text(labels)} {inst.count}")
    text = "\n".join(lines)
    return text + "\n" if text else ""


def _parse_value(raw: str) -> Optional[float]:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    if raw == "NaN":
        return float("nan")
    try:
        return float(raw)
    except ValueError:
        return None


def _parse_labels(raw: str) -> Optional[Dict[str, str]]:
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        m = _LABEL_PAIR_RE.match(raw, pos)
        if not m:
            return None
        labels[m.group(1)] = m.group(2)
        pos = m.end()
        if pos < len(raw):
            if raw[pos] != ",":
                return None
            pos += 1
    return labels


def _base_name(sample_name: str, declared: Dict[str, str]) -> str:
    """Map a histogram sample name back onto its declared family."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if declared.get(base) in ("histogram", "summary"):
                return base
    return sample_name


def validate_exposition(text: str) -> List[str]:
    """Lint exposition text; returns a list of problems (empty = OK).

    Checks, per line and per histogram family:

    * metric and label names match the Prometheus grammar;
    * ``# TYPE`` values are legal and declared at most once;
    * sample values parse (``+Inf``/``-Inf``/``NaN`` included);
    * histogram buckets are cumulative (non-decreasing in ``le``
      order) and end with ``le="+Inf"``;
    * the ``+Inf`` bucket count equals ``_count`` for the same label
      set.
    """
    problems: List[str] = []
    declared: Dict[str, str] = {}
    # (family, labelkey-without-le) -> list of (le, count)
    buckets: Dict[Tuple[str, Tuple], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, Tuple], float] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) < 4:
                    problems.append(f"line {lineno}: malformed TYPE line")
                    continue
                name, kind = parts[2], parts[3].strip()
                if not METRIC_NAME_RE.match(name):
                    problems.append(
                        f"line {lineno}: invalid metric name {name!r}")
                if kind not in _VALID_TYPES:
                    problems.append(
                        f"line {lineno}: invalid TYPE {kind!r}")
                if name in declared:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {name!r}")
                declared[name] = kind
            elif len(parts) >= 2 and parts[1] == "HELP":
                if len(parts) < 3:
                    problems.append(f"line {lineno}: malformed HELP line")
            # other comments are ignored, per the format
            continue

        m = _SAMPLE_RE.match(line.strip())
        if not m:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name = m.group("name")
        labels = _parse_labels(m.group("labels") or "")
        if labels is None:
            problems.append(f"line {lineno}: malformed labels: {line!r}")
            continue
        value = _parse_value(m.group("value"))
        if value is None:
            problems.append(
                f"line {lineno}: unparseable value {m.group('value')!r}")
            continue

        base = _base_name(name, declared)
        if declared.get(base) == "histogram" and name == base + "_bucket":
            le_raw = labels.pop("le", None)
            if le_raw is None:
                problems.append(
                    f"line {lineno}: histogram bucket without le label")
                continue
            le = _parse_value(le_raw)
            if le is None:
                problems.append(f"line {lineno}: unparseable le {le_raw!r}")
                continue
            key = (base, tuple(sorted(labels.items())))
            buckets.setdefault(key, []).append((le, value))
        elif declared.get(base) == "histogram" and name == base + "_count":
            key = (base, tuple(sorted(labels.items())))
            counts[key] = value

    for (family, labelkey), series in sorted(buckets.items()):
        label_repr = dict(labelkey) or "{}"
        les = [le for le, _ in series]
        if les != sorted(les):
            problems.append(
                f"histogram {family}{label_repr}: buckets out of le order")
        for (_, lo), (hi_le, hi) in zip(series, series[1:]):
            if hi < lo:
                problems.append(
                    f"histogram {family}{label_repr}: bucket counts "
                    f"decrease at le={_format_le(hi_le)}")
                break
        if not series or series[-1][0] != float("inf"):
            problems.append(
                f"histogram {family}{label_repr}: missing +Inf bucket")
        else:
            total = counts.get((family, labelkey))
            if total is None:
                problems.append(
                    f"histogram {family}{label_repr}: missing _count sample")
            elif series[-1][1] != total:
                problems.append(
                    f"histogram {family}{label_repr}: +Inf bucket "
                    f"({series[-1][1]:g}) != _count ({total:g})")
    return problems
