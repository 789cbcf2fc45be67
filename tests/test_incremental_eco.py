"""Tests for the incremental ECO timing engine.

Covers the three layers of the tentpole — the :class:`Circuit` dirty
tracker, the scoped re-route / re-extract / re-STA primitives — and
the equivalence gate: with the same edits, the incremental path must
reproduce the full-recompute path's wirelength, hold slacks and
eq. (3) T_cp decomposition within float tolerance.
"""

from __future__ import annotations

import pytest

from repro.circuits import s38417_like
from repro.core import FlowConfig, HoldFixRound, run_flow
from repro.extraction import extract_all, extract_incremental
from repro.layout import GlobalRouter
from repro.library import cmos130
from repro.sta import StaConfig, run_sta, run_sta_incremental, \
    run_sta_with_state


# ----------------------------------------------------------------------
# Dirty-set tracker
# ----------------------------------------------------------------------
def test_mutators_mark_dirty(tiny_pipeline, lib):
    c = tiny_pipeline
    c.reset_dirty()
    assert c.dirty_nets == frozenset() and c.dirty_instances == frozenset()

    c.add_net("fresh")
    assert "fresh" in c.dirty_nets
    c.add_instance("g3", lib["INV_X1"], {"A": "q2", "Z": "fresh"})
    assert "g3" in c.dirty_instances

    nets, insts = c.reset_dirty()
    assert "fresh" in nets and "g3" in insts
    assert c.dirty_nets == frozenset()

    c.disconnect("g3", "A")
    assert "q2" in c.dirty_nets and "g3" in c.dirty_instances
    c.connect("g3", "A", "q1")
    assert "q1" in c.dirty_nets

    c.reset_dirty()
    c.swap_cell("g2", lib["INV_X2"])
    assert "g2" in c.dirty_instances
    assert {"q1", "n2"} <= set(c.dirty_nets)


def test_split_net_marks_moved_sink_dirty(tiny_pipeline):
    c = tiny_pipeline
    c.reset_dirty()
    new_net = c.split_net_before_sinks("n2", [("ff2", "D")], "hold")
    assert "n2" in c.dirty_nets
    assert new_net.name in c.dirty_nets
    assert "ff2" in c.dirty_instances


def test_clone_starts_clean(tiny_pipeline):
    c = tiny_pipeline
    c.add_net("scratch")
    assert c.clone().dirty_nets == frozenset()


# ----------------------------------------------------------------------
# Scoped primitives against their full-recompute references
# ----------------------------------------------------------------------
@pytest.fixture()
def laid_out():
    """A routed, extracted, timed layout plus its flow artifacts.

    Function-scoped: every test applies its own netlist edit, so the
    layout must start pristine each time.
    """
    circuit = s38417_like(scale=0.02)
    config = FlowConfig(tp_percent=0.0, run_atpg_phase=False,
                        fix_holds=False)
    return run_flow(circuit, cmos130(), config)


def _hold_fix_edit(result):
    """One hold-buffer-style edit; returns the dirty snapshot.

    The buffer is dropped at the endpoint's own position (the finished
    flow's fillers leave no ECO whitespace), which is all the router,
    extractor and STA need.
    """
    circuit = result.circuit
    circuit.reset_dirty()
    endpoint = next(
        name for name, inst in sorted(circuit.instances.items())
        if inst.cell.sequential is not None
        and not inst.cell.is_tsff
        and inst.conns.get(inst.cell.sequential.data_pin)
    )
    seq = circuit.instances[endpoint].cell.sequential
    d_net = circuit.instances[endpoint].conns[seq.data_pin]
    new_net = circuit.split_net_before_sinks(
        d_net, [(endpoint, seq.data_pin)], "hold"
    )
    buf = circuit.new_instance_name("holdbuf")
    circuit.add_instance(buf, cmos130().family("BUF")[0],
                         {"A": d_net, "Z": new_net.name})
    result.placement.positions[buf] = result.placement.positions[endpoint]
    return circuit.reset_dirty()


def test_reroute_matches_route_all(laid_out):
    result = laid_out
    dirty_nets, _ = _hold_fix_edit(result)

    incr = GlobalRouter(result.circuit, result.placement)
    incr.routed = dict(result.routed)
    # Rebuild the standing demand map from the pre-edit routes.
    for net in incr.routed.values():
        for seg in net.segments:
            incr._record(seg, +1.0)
    report_incr = incr.reroute(dirty_nets)

    full = GlobalRouter(result.circuit, result.placement)
    report_full = full.route_all()

    assert set(incr.routed) == set(full.routed)
    for name in full.routed:
        assert incr.routed[name].segments == full.routed[name].segments
    assert report_incr.total_wirelength_um == pytest.approx(
        report_full.total_wirelength_um, rel=1e-9
    )
    assert report_incr.overflowed_edges == report_full.overflowed_edges


def test_extract_incremental_reuses_clean_nets(laid_out):
    result = laid_out
    dirty_nets, _ = _hold_fix_edit(result)
    router = GlobalRouter(result.circuit, result.placement)
    router.route_all()

    full = extract_all(result.circuit, result.placement, router.routed)
    prior = extract_all(result.circuit, result.placement, router.routed)
    incr = extract_incremental(result.circuit, result.placement,
                               router.routed, prior, dirty_nets)

    assert set(incr) == set(full)
    for name, fresh in full.items():
        got = incr[name]
        if name not in dirty_nets:
            assert got is prior[name]  # reused, not recomputed
        assert got.wirelength_um == pytest.approx(fresh.wirelength_um)
        assert got.total_cap_ff == pytest.approx(fresh.total_cap_ff)
        assert got.elmore_ps.keys() == fresh.elmore_ps.keys()
        for sink, delay in fresh.elmore_ps.items():
            assert got.elmore_ps[sink] == pytest.approx(delay)


def test_run_sta_incremental_matches_full(laid_out):
    result = laid_out
    config = StaConfig()
    _, state = run_sta_with_state(result.circuit, result.parasitics,
                                  config)
    dirty_nets, dirty_insts = _hold_fix_edit(result)

    router = GlobalRouter(result.circuit, result.placement)
    router.route_all()
    parasitics = extract_all(result.circuit, result.placement,
                             router.routed)

    incr, state = run_sta_incremental(
        result.circuit, parasitics, state, dirty_nets, dirty_insts,
        config,
    )
    full = run_sta(result.circuit, parasitics, config)

    assert state.cone_size > 0
    assert set(incr.paths) == set(full.paths)
    for domain, paths in full.paths.items():
        got = incr.paths[domain]
        assert [p.endpoint for p in got] == [p.endpoint for p in paths]
        for g, f in zip(got, paths):
            assert g.total_ps == pytest.approx(f.total_ps, rel=1e-12)
            assert g.slack_ps == pytest.approx(f.slack_ps, rel=1e-12)
            assert g.t_wires_ps == pytest.approx(f.t_wires_ps)
            assert g.nets == f.nets
    assert incr.hold_slacks.keys() == full.hold_slacks.keys()
    for name, slack in full.hold_slacks.items():
        assert incr.hold_slacks[name] == pytest.approx(slack, rel=1e-12)
    assert incr.slow_nodes == full.slow_nodes


def test_incremental_cone_is_scoped(laid_out):
    """The re-propagated cone stays far below the full graph size."""
    from repro.sta import build_timing_nodes

    result = laid_out
    _, state = run_sta_with_state(result.circuit, result.parasitics)
    dirty_nets, dirty_insts = _hold_fix_edit(result)
    router = GlobalRouter(result.circuit, result.placement)
    router.route_all()
    parasitics = extract_all(result.circuit, result.placement,
                             router.routed)
    _, state = run_sta_incremental(result.circuit, parasitics, state,
                                   dirty_nets, dirty_insts)
    n_nodes = len(build_timing_nodes(result.circuit))
    assert 0 < state.cone_size < n_nodes / 2


# ----------------------------------------------------------------------
# Flow-level equivalence gate (the issue's acceptance test)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tp_percent", [0.0, 5.0])
def test_incremental_flow_equivalent_to_full(tp_percent):
    """Incremental and full ECO closure agree on every reported number.

    ``hold_margin_ps`` hardens the hold check so the loop runs more
    than one round, making the scoped path do real work.
    """
    def run_once(incremental: bool):
        circuit = s38417_like(scale=0.03)
        config = FlowConfig(
            tp_percent=tp_percent,
            run_atpg_phase=False,
            incremental_eco=incremental,
            hold_fix_iterations=6,
            sta=StaConfig(hold_margin_ps=80.0),
        )
        return run_flow(circuit, cmos130(), config)

    inc = run_once(True)
    full = run_once(False)

    assert inc.hold_fix_rounds == full.hold_fix_rounds
    assert len(inc.hold_fix_rounds) >= 1
    assert inc.congestion.total_wirelength_um == pytest.approx(
        full.congestion.total_wirelength_um, rel=1e-9
    )
    assert inc.sta.hold_violations == full.sta.hold_violations
    assert inc.sta.hold_slacks.keys() == full.sta.hold_slacks.keys()
    for name, slack in full.sta.hold_slacks.items():
        assert inc.sta.hold_slacks[name] == pytest.approx(slack,
                                                          rel=1e-9)
    assert set(inc.sta.paths) == set(full.sta.paths)
    for domain in full.sta.paths:
        a, b = inc.sta.critical(domain), full.sta.critical(domain)
        assert a.endpoint == b.endpoint
        assert a.total_ps == pytest.approx(b.total_ps, rel=1e-9)
        assert a.t_wires_ps == pytest.approx(b.t_wires_ps, rel=1e-9)
        assert a.t_skew_ps == pytest.approx(b.t_skew_ps, rel=1e-9)
    assert inc.sta.slow_nodes == full.sta.slow_nodes


# ----------------------------------------------------------------------
# Budget clamp regression (the issue's underflow fix)
# ----------------------------------------------------------------------
def test_hold_fix_budget_never_underflows(monkeypatch):
    """A budget-exhausting first endpoint stops the loop cleanly.

    Two deep violations against a 4-buffer budget: the worst endpoint
    may spend the whole budget (clamped to the remainder, never
    negative) and the second endpoint must see a clean break — no
    negative ``min()`` fold, no over-insertion.
    """
    from repro.core.flow import _fix_hold_violations
    from repro.layout import PLACERS

    circuit = s38417_like(scale=0.02)
    library = cmos130()
    result = run_flow(circuit, library, FlowConfig(
        tp_percent=0.0, run_atpg_phase=False, fix_holds=False,
    ))
    placement = result.placement
    width = library.family("BUF")[0].width_sites
    # Report exactly 5 buffer-widths of whitespace (all in one row,
    # the finished flow's fillers having eaten the real gaps):
    # budget == 5 - 1 == 4.
    target = 5 * width
    assert placement.plan.rows[0].n_sites > target

    def scripted_occupancy(circuit):
        out = [row.n_sites for row in placement.plan.rows]
        out[0] -= target
        return out

    monkeypatch.setattr(placement, "row_occupancy_sites",
                        scripted_occupancy)
    endpoints = [
        name for name, inst in sorted(circuit.instances.items())
        if inst.cell.sequential is not None
        and inst.conns.get(inst.cell.sequential.data_pin)
    ][:2]
    assert len(endpoints) == 2
    before = len(circuit.instances)

    class _StubSta:
        hold_slacks = {endpoints[0]: -900.0, endpoints[1]: -800.0}

    fix = _fix_hold_violations(circuit, library, placement, _StubSta(),
                               PLACERS["quadratic"]())
    assert fix == HoldFixRound(
        round=1, violations_before=2, buffers_inserted=4,
        budget=4, budget_left=0,
    )
    assert len(circuit.instances) == before + 4
