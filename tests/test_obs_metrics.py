"""Tests for the metrics registry: bucket semantics and labels.

The load-bearing contract is Prometheus ``le`` semantics: the bucket
labelled ``le=x`` counts every observation ``<= x`` (boundary
*inclusive*), 0 lands in the first bucket, ``inf`` in the implicit
``+Inf`` bucket, and cumulative rendering never decreases.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.metrics import Counter, Gauge, Histogram, log_buckets


# ----------------------------------------------------------------------
# Bucket construction
# ----------------------------------------------------------------------
def test_log_buckets_are_geometric():
    bounds = log_buckets(start=0.001, factor=2.0, count=5)
    assert bounds == (0.001, 0.002, 0.004, 0.008, 0.016)


def test_log_buckets_reject_bad_parameters():
    with pytest.raises(ValueError):
        log_buckets(start=0)
    with pytest.raises(ValueError):
        log_buckets(factor=1.0)
    with pytest.raises(ValueError):
        log_buckets(count=0)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram([])
    with pytest.raises(ValueError):
        Histogram([1.0, 1.0])  # not strictly increasing
    with pytest.raises(ValueError):
        Histogram([1.0, float("inf")])  # +Inf is implicit


# ----------------------------------------------------------------------
# Boundary semantics: 0, inf, and exact bucket edges
# ----------------------------------------------------------------------
def test_histogram_boundary_edge_cases():
    h = Histogram([1.0, 2.0])
    h.observe(0.0)    # below everything -> first bucket
    h.observe(1.0)    # exactly on a bound -> that bound's bucket (<=)
    h.observe(1.5)    # between bounds -> second bucket
    h.observe(2.0)    # exactly on the last bound -> still le=2
    h.observe(3.0)    # past the last bound -> implicit +Inf
    h.observe(float("inf"))
    assert h.bucket_counts == [2, 2, 2]
    assert h.count == 6
    assert h.sum == float("inf")


def test_histogram_cumulative_ends_at_count():
    h = Histogram([0.5, 1.0])
    for v in (0.2, 0.5, 0.9, 5.0):
        h.observe(v)
    cum = h.cumulative()
    assert cum == [(0.5, 2), (1.0, 3), (float("inf"), 4)]
    assert cum[-1][1] == h.count
    # cumulative counts never decrease
    assert all(b >= a for (_, a), (_, b) in zip(cum, cum[1:]))


def test_counter_rejects_negative_and_gauge_does_not():
    c = Counter()
    c.inc(2)
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 2
    g = Gauge()
    g.set(-3.5)
    g.inc(-1)
    assert g.value == -4.5


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
def test_registry_series_split_by_labels():
    reg = obs.MetricsRegistry()
    reg.inc("cells", 1, circuit="a")
    reg.inc("cells", 2, circuit="b")
    reg.inc("cells", 3, circuit="a")
    fam = reg.get("cells")
    assert fam.kind == "counter"
    assert {dict(k)["circuit"]: v.value
            for k, v in fam.series.items()} == {"a": 4.0, "b": 2.0}


def test_registry_kind_conflict_raises():
    reg = obs.MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")
    reg.describe("y", "histogram")
    with pytest.raises(ValueError):
        reg.describe("y", "counter")


def test_describe_attaches_help_without_creating_series():
    reg = obs.MetricsRegistry()
    reg.describe("latency", "histogram", "How slow.", buckets=(1.0, 2.0))
    fam = reg.get("latency")
    assert fam.help == "How slow."
    assert fam.series == {}
    reg.observe("latency", 1.5)
    assert reg.get("latency").series  # first observation lands
    assert reg.histogram("latency").bounds == (1.0, 2.0)


def test_families_are_sorted_by_name():
    reg = obs.MetricsRegistry()
    for name in ("zed", "alpha", "mid"):
        reg.inc(name)
    assert [f.name for f in reg.families()] == ["alpha", "mid", "zed"]

