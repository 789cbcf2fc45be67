"""Tests for the Prometheus text exposition encoder and validator.

Round-trip property: anything :func:`repro.obs.render_registry` emits
must pass :func:`repro.obs.validate_exposition` with zero problems —
CI scrapes the live daemon and lints the text with the same validator,
so these tests pin the contract both sides share.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
from repro.obs.promtext import render_registry, validate_exposition


def _registry() -> obs.MetricsRegistry:
    reg = obs.MetricsRegistry()
    reg.inc("repro_cells_total", 3, help="Cells done.",
            circuit="s38417", outcome="ok")
    reg.inc("repro_cells_total", 1, circuit="s38417", outcome="failed")
    reg.set("repro_queue_depth", 2, help="Queued jobs.")
    for v in (0.0005, 0.003, 0.003, 5.0):
        reg.observe("repro_stage_seconds", v, help="Stage wall time.",
                    buckets=(0.001, 0.01, 1.0), stage="atpg")
    return reg


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def test_render_is_valid_exposition():
    text = render_registry(_registry())
    assert validate_exposition(text) == []


def test_render_is_deterministic():
    assert render_registry(_registry()) == render_registry(_registry())


def test_render_shapes():
    text = render_registry(_registry())
    assert "# HELP repro_cells_total Cells done." in text
    assert "# TYPE repro_cells_total counter" in text
    assert ('repro_cells_total{circuit="s38417",outcome="ok"} 3'
            in text)
    assert "# TYPE repro_stage_seconds histogram" in text
    # boundary-inclusive cumulative buckets: 0.0005<=0.001 -> 1;
    # two 0.003s land in le=0.01 -> 3; 5.0 only in +Inf -> 4.
    assert 'repro_stage_seconds_bucket{le="0.001",stage="atpg"} 1' in text
    assert 'repro_stage_seconds_bucket{le="0.01",stage="atpg"} 3' in text
    assert 'repro_stage_seconds_bucket{le="1",stage="atpg"} 3' in text
    assert 'repro_stage_seconds_bucket{le="+Inf",stage="atpg"} 4' in text
    assert 'repro_stage_seconds_count{stage="atpg"} 4' in text


def test_render_escapes_label_values_and_help():
    reg = obs.MetricsRegistry()
    reg.inc("m", 1, help='line1\nline2 \\ slash',
            label='quo"te\\back\nnl')
    text = render_registry(reg)
    assert validate_exposition(text) == []
    assert '# HELP m line1\\nline2 \\\\ slash' in text
    assert 'label="quo\\"te\\\\back\\nnl"' in text


def test_render_empty_family_is_type_only_and_valid():
    reg = obs.MetricsRegistry()
    reg.describe("repro_job_seconds", "histogram", "Job seconds.")
    text = render_registry(reg)
    assert "# TYPE repro_job_seconds histogram" in text
    assert "repro_job_seconds_bucket" not in text
    assert validate_exposition(text) == []


def test_render_rejects_invalid_names():
    reg = obs.MetricsRegistry()
    reg.inc("bad-name")
    with pytest.raises(ValueError):
        render_registry(reg)
    reg2 = obs.MetricsRegistry()
    reg2.inc("good_name", **{"0bad": "v"})
    with pytest.raises(ValueError):
        render_registry(reg2)


def test_render_special_float_values():
    reg = obs.MetricsRegistry()
    reg.set("g_inf", float("inf"))
    reg.set("g_neg", float("-inf"))
    reg.set("g_nan", float("nan"))
    text = render_registry(reg)
    assert "g_inf +Inf" in text
    assert "g_neg -Inf" in text
    assert "g_nan NaN" in text
    assert validate_exposition(text) == []


def test_scrapes_racing_an_observer_always_validate():
    """A scrape taken while another thread observes renders every
    histogram whole: ``le="+Inf"`` equals ``_count``."""
    reg = obs.MetricsRegistry()
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            reg.observe("repro_stage_seconds", 0.01, stage="atpg")

    thread = threading.Thread(target=writer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread.start()
        invalid = [problems for problems in (
            validate_exposition(render_registry(reg)) for _ in range(300))
            if problems]
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert invalid == []


# ----------------------------------------------------------------------
# Validator rejection paths
# ----------------------------------------------------------------------
def test_validator_flags_bad_samples():
    assert validate_exposition("9metric 1\n")
    assert validate_exposition("metric one_point_five\n")
    assert validate_exposition('m{bad label="x"} 1\n')
    assert validate_exposition("# TYPE m flumph\nm 1\n")
    assert validate_exposition("# TYPE m counter\n# TYPE m counter\n")


def test_validator_flags_histogram_problems():
    # buckets out of le order
    out_of_order = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 2\n'
        'h_bucket{le="0.5"} 1\n'
        'h_bucket{le="+Inf"} 2\n'
        "h_sum 1\nh_count 2\n")
    assert any("le order" in p
               for p in validate_exposition(out_of_order))
    # cumulative counts decrease
    decreasing = (
        "# TYPE h histogram\n"
        'h_bucket{le="0.5"} 3\n'
        'h_bucket{le="+Inf"} 1\n'
        "h_sum 1\nh_count 1\n")
    assert any("decrease" in p for p in validate_exposition(decreasing))
    # missing +Inf
    no_inf = ("# TYPE h histogram\n"
              'h_bucket{le="0.5"} 1\n'
              "h_sum 1\nh_count 1\n")
    assert any("+Inf" in p for p in validate_exposition(no_inf))
    # +Inf bucket != _count
    mismatch = (
        "# TYPE h histogram\n"
        'h_bucket{le="+Inf"} 2\n'
        "h_sum 1\nh_count 5\n")
    assert any("_count" in p for p in validate_exposition(mismatch))


def test_validator_accepts_plain_untyped_samples():
    assert validate_exposition("free_metric 42\n") == []
    assert validate_exposition("") == []
