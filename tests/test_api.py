"""Import-stability tests for the public ``repro`` / ``repro.api``
surface.

The supported surface — ``repro.__all__``, ``repro.api.__all__`` and
the :class:`FlowConfig` field set — is frozen as a JSON snapshot under
``tests/golden/``.  Adding, renaming or removing a public name fails
here until the snapshot is deliberately refreshed with
``--update-golden``, which is exactly the review speed bump an API
contract needs (CI runs this file as its public-API lint step).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import pytest

import repro
from repro import api
from repro.core import (
    ExperimentConfig,
    FlowConfig,
    FlowSummary,
    run_experiment,
)
from repro.service.protocol import canonical_result_bytes

SNAPSHOT_PATH = Path(__file__).parent / "golden" / "api_surface.json"


def current_surface() -> dict:
    return {
        "repro.__all__": sorted(repro.__all__),
        "repro.api.__all__": sorted(api.__all__),
        "FlowConfig.fields": sorted(
            f.name for f in dataclasses.fields(FlowConfig)
        ),
    }


def test_api_surface_matches_snapshot(update_golden):
    fresh = current_surface()
    if update_golden:
        SNAPSHOT_PATH.parent.mkdir(exist_ok=True)
        SNAPSHOT_PATH.write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip(f"rewrote {SNAPSHOT_PATH}")
    assert SNAPSHOT_PATH.exists(), (
        f"API snapshot {SNAPSHOT_PATH} missing; create it with "
        "--update-golden"
    )
    frozen = json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))
    assert fresh == frozen, (
        "public API surface changed; if intentional, refresh the "
        "snapshot with --update-golden and flag the change in review"
    )


def test_facade_exports_resolve():
    """Every advertised name is importable and the right object."""
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    assert repro.run is api.run
    assert repro.sweep is api.sweep
    assert repro.load_circuit is api.load_circuit
    assert repro.CIRCUITS is api.CIRCUITS
    assert repro.PLACERS is api.PLACERS
    assert repro.FlowConfig is FlowConfig
    for name in repro.__all__:
        assert name in dir(repro)
    with pytest.raises(AttributeError):
        repro.nonexistent_name


def test_flow_config_round_trip():
    config = FlowConfig(tp_percent=3.0, exclude_nets=["b", "a"],
                        hold_fix_iterations=5)
    data = config.to_dict()
    assert data["exclude_nets"] == ["a", "b"]  # JSON-friendly, sorted
    assert isinstance(data["atpg"], dict)
    clone = FlowConfig.from_dict(data)
    assert clone == config
    # And the round trip survives JSON itself.
    assert FlowConfig.from_dict(json.loads(json.dumps(data))) == config


def test_flow_config_replace_chainable():
    base = FlowConfig()
    variant = base.replace(tp_percent=2.0).replace(fix_holds=False)
    assert variant.tp_percent == 2.0 and not variant.fix_holds
    assert base.tp_percent == 0.0 and base.fix_holds  # untouched
    nested = base.replace(sta={"hold_margin_ps": 40.0})
    assert nested.sta.hold_margin_ps == 40.0
    assert base.sta.hold_margin_ps == 0.0


def test_flow_config_rejects_unknown_keys_with_suggestion():
    with pytest.raises(ValueError, match="did you mean 'tp_percent'"):
        FlowConfig.from_dict({"tp_precent": 1.0})
    with pytest.raises(ValueError, match="unknown FlowConfig key"):
        FlowConfig().replace(not_a_knob=True)
    with pytest.raises(ValueError, match="did you mean 'hold_margin_ps'"):
        FlowConfig().replace(sta={"hold_margin": 1.0})


def test_api_run_accepts_circuit_names_and_options():
    result = repro.run("s38417", scale=0.012, tp_percent=0.0,
                       run_atpg_phase=False)
    assert result.sta is not None
    assert result.config.target_utilization == 0.97  # registry default
    with pytest.raises(KeyError, match="unknown circuit"):
        repro.run("s9999")
    with pytest.raises(ValueError, match="did you mean"):
        repro.run("s38417", tp_precent=1.0)


def test_api_sweep_serial_matches_experiment():
    """One sweep path: every job count reproduces the reference."""
    spec = api.CIRCUITS["s38417"]
    reference = run_experiment(ExperimentConfig(
        name="s38417",
        circuit_factory=lambda: spec.factory(scale=0.012),
        tp_percents=(0.0, 5.0),
        flow=FlowConfig(run_atpg_phase=False).replace(
            **spec.flow_defaults),
    ))
    for jobs in (1, 2):
        result = repro.sweep("s38417", scale=0.012,
                             tp_percents=(0.0, 5.0), jobs=jobs,
                             run_atpg_phase=False)
        assert sorted(result.runs) == [0.0, 5.0]
        rows = result.table2_rows()
        assert [r["tp_percent"] for r in rows] == [0.0, 5.0]
        assert all(isinstance(run, FlowSummary)
                   for run in result.runs.values())
        assert (canonical_result_bytes(result)
                == canonical_result_bytes(reference)), jobs


def test_no_cache_flag_forces_fresh_runs(tmp_path):
    sweep = functools.partial(
        api.sweep, "s38417", scale=0.01, tp_percents=(0.0,),
        cache_dir=str(tmp_path), run_layout_phase=False,
        atpg={"backtrack_limit": 24, "max_deterministic": 60})
    sweep()
    assert sweep().runs[0.0].from_cache  # the cache is warm ...
    # ... but use_cache=False ignores it.
    assert not sweep(use_cache=False).runs[0.0].from_cache
