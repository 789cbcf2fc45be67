"""Integration tests for the full Figure 2 flow and the experiment
sweep."""

import pytest

from repro.circuits import s38417_like
from repro.core import (
    ExperimentConfig,
    FlowConfig,
    ascii_density,
    format_table1,
    format_table2,
    format_table3,
    render_svg,
    run_experiment,
    run_flow,
)
from repro.atpg import AtpgConfig
from repro.layout import PLACERS
from tests.conftest import structural_errors


@pytest.fixture(scope="module")
def flow_result(lib):
    circuit = s38417_like(scale=0.03)
    config = FlowConfig(
        tp_percent=2.0,
        atpg=AtpgConfig(seed=3, backtrack_limit=32,
                        max_deterministic=250),
    )
    from repro.library import cmos130
    return run_flow(circuit, cmos130(), config)


def test_flow_produces_all_artifacts(flow_result):
    r = flow_result
    assert r.chains is not None and r.chains.n_chains >= 1
    assert r.plan is not None and r.placement is not None
    assert r.clock_trees and r.filler is not None
    assert r.congestion is not None and r.parasitics
    assert r.sta is not None and r.atpg is not None
    assert not structural_errors(r.circuit)


def test_flow_tables(flow_result):
    m = flow_result.test_metrics()
    assert m.n_test_points >= 1
    assert 0.80 <= m.fault_coverage <= 1.0
    assert m.n_patterns > 0
    a = flow_result.area_metrics()
    assert a["chip_area_um2"] > a["core_area_um2"]
    assert 0 <= a["filler_fraction"] < 0.6


def test_flow_timing_sane(flow_result):
    sta = flow_result.sta
    path = sta.critical("clk")
    assert path is not None
    assert path.total_ps > 0
    assert path.t_setup_ps > 0
    assert sta.hold_violations == 0  # hold-fix ECO ran
    total = (path.t_wires_ps + path.t_intrinsic_ps + path.t_load_dep_ps
             + path.t_setup_ps + path.t_skew_ps)
    assert path.total_ps == pytest.approx(total)


def test_flow_stage_timings_recorded(flow_result):
    stages = flow_result.stage_seconds
    for key in ("tpi_scan", "floorplan_place", "scan_reorder",
                "eco_cts_route", "extraction", "sta", "atpg"):
        assert key in stages


def test_render_views(flow_result):
    r = flow_result
    svg = render_svg(r.circuit, r.plan, r.placement, r.routed, "routed")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "line" in svg  # wires drawn
    svg_fp = render_svg(r.circuit, r.plan, stage="floorplan")
    assert "line" not in svg_fp
    with pytest.raises(ValueError):
        render_svg(r.circuit, r.plan, stage="nope")
    density = ascii_density(r.circuit, r.placement)
    assert len(density.splitlines()) >= 4


# ----------------------------------------------------------------------
# Hold-fix ECO
# ----------------------------------------------------------------------
class _StubSta:
    """Bare minimum of StaResult that _fix_hold_violations reads."""

    def __init__(self, hold_slacks):
        self.hold_slacks = hold_slacks


def _seq_endpoint(circuit):
    """A sequential instance with a connected data pin."""
    for name, inst in sorted(circuit.instances.items()):
        seq = inst.cell.sequential
        if seq is not None and inst.conns.get(seq.data_pin):
            return name
    raise AssertionError("no sequential endpoint found")


@pytest.fixture(scope="module")
def hold_fix_flow():
    """A small placed layout to exercise the hold-fix ECO against."""
    from repro.library import cmos130
    circuit = s38417_like(scale=0.02)
    config = FlowConfig(tp_percent=0.0, run_atpg_phase=False,
                        atpg=AtpgConfig(seed=3))
    return run_flow(circuit, cmos130(), config)


def test_hold_fix_rounds_census_is_consistent(flow_result):
    for fix in flow_result.hold_fix_rounds:
        assert fix.violations_before >= 1
        assert 0 <= fix.buffers_inserted <= fix.budget
        assert fix.budget_left == fix.budget - fix.buffers_inserted


def test_fix_hold_violations_budget_exhaustion(hold_fix_flow, monkeypatch):
    """Full rows -> zero budget -> no insertions, netlist untouched."""
    from repro.core.flow import _fix_hold_violations

    r = hold_fix_flow
    placement = r.placement
    monkeypatch.setattr(
        placement, "row_occupancy_sites",
        lambda circuit: [row.n_sites for row in placement.plan.rows],
    )
    endpoint = _seq_endpoint(r.circuit)
    before = len(r.circuit.instances)
    from repro.library import cmos130
    fix = _fix_hold_violations(r.circuit, cmos130(), placement,
                               _StubSta({endpoint: -80.0}),
                               PLACERS["quadratic"]())
    assert fix.budget == 0
    assert fix.buffers_inserted == 0
    assert fix.budget_left == 0
    assert fix.violations_before == 1
    assert len(r.circuit.instances) == before


def test_fix_hold_violations_inserts_within_budget(hold_fix_flow,
                                                   monkeypatch):
    from repro.core.flow import _fix_hold_violations

    r = hold_fix_flow
    placement = r.placement
    # The finished flow's fillers occupy all whitespace; report
    # half-empty rows so the ECO has a budget to spend.
    monkeypatch.setattr(
        placement, "row_occupancy_sites",
        lambda circuit: [row.n_sites // 2 for row in placement.plan.rows],
    )
    endpoint = _seq_endpoint(r.circuit)
    before = len(r.circuit.instances)
    from repro.library import cmos130
    fix = _fix_hold_violations(r.circuit, cmos130(), placement,
                               _StubSta({endpoint: -50.0}),
                               PLACERS["quadratic"](), round_no=2)
    assert fix.round == 2
    assert fix.violations_before == 1
    assert fix.buffers_inserted >= 1
    assert fix.budget_left == fix.budget - fix.buffers_inserted
    assert len(r.circuit.instances) == before + fix.buffers_inserted


def test_hold_fix_loop_breaks_on_exhausted_budget(monkeypatch):
    """A zero-insertion round ends the ECO loop with violations left."""
    from repro.core import flow as flow_mod
    from repro.library import cmos130

    calls = []

    def exhausted_fix(circuit, library, placement, sta, placer,
                      round_no=1):
        calls.append(round_no)
        return flow_mod.HoldFixRound(
            round=round_no, violations_before=len(sta.hold_slacks),
            buffers_inserted=0, budget=0, budget_left=0,
        )

    real_run_sta = flow_mod.run_sta
    real_run_sta_with_state = flow_mod.run_sta_with_state

    def sta_with_violation(circuit, parasitics, config):
        res = real_run_sta(circuit, parasitics, config)
        res.hold_slacks = {"fake_ff": -10.0}
        res.hold_violations = 1
        return res

    def sta_state_with_violation(circuit, parasitics, config):
        res, state = real_run_sta_with_state(circuit, parasitics, config)
        res.hold_slacks = {"fake_ff": -10.0}
        res.hold_violations = 1
        return res, state

    monkeypatch.setattr(flow_mod, "_fix_hold_violations", exhausted_fix)
    monkeypatch.setattr(flow_mod, "run_sta", sta_with_violation)
    monkeypatch.setattr(flow_mod, "run_sta_with_state",
                        sta_state_with_violation)
    result = run_flow(s38417_like(scale=0.015), cmos130(),
                      FlowConfig(tp_percent=0.0, run_atpg_phase=False))
    assert calls == [1]  # the loop broke after the exhausted round
    assert result.hold_fix_rounds == [flow_mod.HoldFixRound(
        round=1, violations_before=1, buffers_inserted=0,
        budget=0, budget_left=0,
    )]
    assert result.sta.hold_violations == 1  # reported, not hidden


def test_experiment_sweep_and_formatting(lib):
    config = ExperimentConfig(
        name="mini",
        circuit_factory=lambda: s38417_like(scale=0.02),
        tp_percents=(0.0, 3.0),
        flow=FlowConfig(
            atpg=AtpgConfig(seed=1, backtrack_limit=24,
                            max_deterministic=150),
        ),
    )
    result = run_experiment(config)
    rows1 = result.table1_rows()
    assert [r["tp_percent"] for r in rows1] == [0.0, 3.0]
    assert rows1[0]["n_tp"] == 0 and rows1[1]["n_tp"] >= 1
    assert rows1[0]["patterns_dec_percent"] == 0.0
    rows2 = result.table2_rows()
    assert rows2[0]["core_inc_percent"] == 0.0
    assert rows2[1]["n_cells"] > rows2[0]["n_cells"]
    rows3 = result.table3_rows()
    assert {r["domain"] for r in rows3} == {"clk"}
    # Formatting produces aligned headers.
    for rows, fmt in ((rows1, format_table1), (rows2, format_table2),
                      (rows3, format_table3)):
        text = fmt(rows)
        lines = text.splitlines()
        assert len(lines) == len(rows) + 2
        assert len(set(len(l) for l in lines)) == 1
