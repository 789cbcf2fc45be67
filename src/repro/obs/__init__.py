"""Observability layer: traces and metrics.

Zero-dependency telemetry for the Figure 2 flow, the sweep executor
and the serving daemon, organised as two pillars (DESIGN.md §7,
§12):

1. **Traces** — :mod:`repro.obs.tracer` records span trees with
   counters/gauges (plain dataclasses, so they cross process
   boundaries by pickle); :mod:`repro.obs.export` stitches any number
   of them into one Chrome trace-event object (the only trace file
   format) and renders text summaries.
2. **Metrics** — :mod:`repro.obs.metrics` is a registry of counters,
   gauges and log-bucketed histograms;
   :mod:`repro.obs.promtext` encodes it in Prometheus text exposition
   format (and validates scrapes).

What happened to each sweep task is recorded once, in the sweep
journal (:class:`~repro.core.resilience.SweepJournal`), and each
daemon job's lifecycle in the job store; neither is telemetry.

The performance record of the reproduction is ``benchmarks/perf``,
which builds on the tracer; nothing here stores bench timings.

A metrics registry is an object its owner creates and passes on: the
daemon's job manager hands its one registry to every sweep on
``ExecutorConfig.registry``.  The tracer is the one process-wide
telemetry object, because the flow opens its spans deep inside
library code; it is a shared null singleton, off and free, until a
caller installs a real one::

    from repro import obs

    with obs.tracing(label="sweep") as tracer:
        ...instrumented code...
        obs.write_chrome_trace("out.json", [tracer.trace()])
"""

from repro.obs.export import (
    chrome_trace,
    format_trace_summary,
    summarize_merged,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.obs.promtext import render_registry, validate_exposition
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Trace,
    Tracer,
    counter,
    gauge,
    get_tracer,
    in_span,
    install,
    span,
    tracing,
    tracing_active,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Trace",
    "Tracer",
    "chrome_trace",
    "counter",
    "format_trace_summary",
    "gauge",
    "get_tracer",
    "in_span",
    "install",
    "log_buckets",
    "render_registry",
    "span",
    "summarize_merged",
    "tracing",
    "tracing_active",
    "validate_chrome_trace",
    "validate_exposition",
    "write_chrome_trace",
]
