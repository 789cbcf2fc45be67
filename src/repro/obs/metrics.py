"""Metrics registry: counters, gauges and histograms.

The span tracer (:mod:`repro.obs.tracer`) answers *why one run was
slow*; this module answers *how the fleet behaves over many runs*.  It
provides the second telemetry pillar: a :class:`MetricsRegistry`
holding named metric families — monotonic **counters**, last-value
**gauges** and log-bucketed **histograms** — each optionally split by
a small set of labels (``stage="atpg"``, ``circuit="s38417"``, ...).

Design constraints:

* **Owned, not installed.**  A registry is an object its owner
  creates and passes on; nothing here is process-wide.  The daemon's
  :class:`~repro.service.jobs.JobManager` keeps one and hands it to
  every sweep on ``ExecutorConfig.registry``, so two daemons in one
  process count apart.
* **Prometheus-compatible semantics.**  Histogram buckets follow the
  exposition contract: the bucket labelled ``le=x`` counts every
  observation ``<= x``, buckets are cumulative when rendered, and an
  implicit ``+Inf`` bucket catches the tail, so
  :mod:`repro.obs.promtext` can encode a registry without loss.

Thread safety: the daemon's job workers and its event loop share one
registry.  Every instrument a registry creates updates under the
registry's one lock, and :meth:`MetricsRegistry.families` and
:meth:`MetricsRegistry.get` hand out copies taken under it, so a
scrape never renders half an observation (an ``le="+Inf"`` bucket
that disagrees with ``_count``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


def log_buckets(start: float = 0.001, factor: float = 2.0,
                count: int = 17) -> Tuple[float, ...]:
    """Geometric bucket upper bounds: ``start * factor**i``.

    The default covers 1 ms .. ~65 s in 17 doubling steps — wide
    enough for both a single extraction stage and a whole chaos sweep.
    ``+Inf`` is always implicit and must not be included.
    """
    if start <= 0:
        raise ValueError("log_buckets start must be > 0")
    if factor <= 1.0:
        raise ValueError("log_buckets factor must be > 1")
    if count < 1:
        raise ValueError("log_buckets count must be >= 1")
    return tuple(start * factor ** i for i in range(count))


#: Default histogram buckets for stage/cell/request latencies.
DEFAULT_LATENCY_BUCKETS = log_buckets()

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic accumulator.  Negative increments are rejected.

    Every instrument updates under ``lock``: a registry passes its
    own, a standalone instrument makes one.
    """

    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.Lock] = None) -> None:
        self.value = 0.0
        self._lock = lock or threading.Lock()

    def inc(self, delta: float = 1.0) -> None:
        if delta < 0:
            raise ValueError("counter increments must be >= 0")
        with self._lock:
            self.value += delta

    def copy(self) -> "Counter":
        """A detached copy (the caller holds the lock)."""
        twin = Counter()
        twin.value = self.value
        return twin


class Gauge:
    """Last-written value."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.Lock] = None) -> None:
        self.value = 0.0
        self._lock = lock or threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, delta: float = 1.0) -> None:
        with self._lock:
            self.value += delta

    def copy(self) -> "Gauge":
        """A detached copy (the caller holds the lock)."""
        twin = Gauge()
        twin.value = self.value
        return twin


class Histogram:
    """Log-bucketed distribution with Prometheus ``le`` semantics.

    ``bounds`` are finite upper bounds in increasing order; an
    observation lands in the first bucket whose bound is ``>= value``
    (i.e. ``value <= le``, boundary inclusive), or in the implicit
    ``+Inf`` bucket past the last bound.  ``bucket_counts`` stores
    per-bucket (non-cumulative) counts with one extra slot for
    ``+Inf``; the exposition layer accumulates them.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count", "_lock")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 lock: Optional[threading.Lock] = None):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        if bounds[-1] == float("inf"):
            raise ValueError("+Inf bucket is implicit; pass finite bounds")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = lock or threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect_left finds the first bound >= value, which is exactly
        # the Prometheus rule "value <= le": an observation sitting on
        # a boundary belongs to that boundary's bucket, 0 lands in the
        # first bucket, and inf/NaN-free overflow lands in +Inf.
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1

    def copy(self) -> "Histogram":
        """A detached copy (the caller holds the lock)."""
        twin = Histogram(self.bounds)
        twin.bucket_counts = list(self.bucket_counts)
        twin.sum = self.sum
        twin.count = self.count
        return twin

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(+Inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out


class MetricFamily:
    """All series of one metric name: type, help text and per-label data."""

    __slots__ = ("name", "kind", "help", "bounds", "series")

    def __init__(self, name: str, kind: str, help: str = "",
                 bounds: Optional[Tuple[float, ...]] = None):
        self.name = name
        self.kind = kind
        self.help = help
        self.bounds = bounds
        self.series: Dict[LabelKey, object] = {}

    def copy(self) -> "MetricFamily":
        """A copy no later update reaches (the caller holds the
        registry's lock)."""
        twin = MetricFamily(self.name, self.kind, self.help, self.bounds)
        twin.series = {key: inst.copy() for key, inst in self.series.items()}
        return twin


class MetricsRegistry:
    """Named metric families, each fanned out by label values.

    The three accessor methods (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) create-or-fetch a series and return the live
    instrument; the shorthand mutators (:meth:`inc`, :meth:`set`,
    :meth:`observe`) do the common one-shot update.  A family's kind
    is fixed at first use — re-registering a name with a different
    kind raises, which catches typo'd instrumentation in tests.
    Every instrument shares the registry's one lock; :meth:`families`
    and :meth:`get` return copies taken under it.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # -- series access ---------------------------------------------------
    def _series(self, name: str, kind: str, help: str,
                labels: Dict[str, str],
                bounds: Optional[Sequence[float]] = None):
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = MetricFamily(
                    name, kind, help,
                    tuple(float(b) for b in bounds) if bounds else None)
                self._families[name] = fam
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}, "
                    f"not {kind}")
            if help and not fam.help:
                fam.help = help
            key = _label_key(labels)
            inst = fam.series.get(key)
            if inst is None:
                if kind == "counter":
                    inst = Counter(self._lock)
                elif kind == "gauge":
                    inst = Gauge(self._lock)
                else:
                    inst = Histogram(fam.bounds or DEFAULT_LATENCY_BUCKETS,
                                     self._lock)
                fam.series[key] = inst
            return inst

    def describe(self, name: str, kind: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        """Pre-register a family's kind, help text and (for
        histograms) bucket bounds without creating any series — the
        daemon declares its metric vocabulary up front so the first
        scrape after boot already carries HELP lines and so kind
        conflicts surface at startup, not mid-flight."""
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                self._families[name] = MetricFamily(
                    name, kind, help,
                    tuple(float(b) for b in buckets) if buckets else None)
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}, "
                    f"not {kind}")
            elif help and not fam.help:
                fam.help = help

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._series(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._series(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels: str) -> Histogram:
        return self._series(name, "histogram", help, labels, bounds=buckets)

    # -- shorthand mutators ---------------------------------------------
    def inc(self, name: str, delta: float = 1.0, help: str = "",
            **labels: str) -> None:
        self.counter(name, help, **labels).inc(delta)

    def set(self, name: str, value: float, help: str = "",
            **labels: str) -> None:
        self.gauge(name, help, **labels).set(value)

    def observe(self, name: str, value: float, help: str = "",
                buckets: Optional[Sequence[float]] = None,
                **labels: str) -> None:
        self.histogram(name, help, buckets=buckets, **labels).observe(value)

    # -- introspection ---------------------------------------------------
    def families(self) -> Iterator[MetricFamily]:
        """Copies of the families in sorted-name order (stable
        exposition), all taken at one instant."""
        with self._lock:
            fams = [fam.copy() for fam in sorted(
                self._families.values(), key=lambda f: f.name)]
        return iter(fams)

    def get(self, name: str) -> Optional[MetricFamily]:
        """A copy of the family ``name``, or None."""
        with self._lock:
            fam = self._families.get(name)
            return fam.copy() if fam is not None else None
