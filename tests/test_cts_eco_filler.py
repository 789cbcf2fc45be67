"""Tests for clock-tree synthesis, ECO placement and filler insertion."""

import pytest

from repro.layout import (
    MAX_CLUSTER_SINKS,
    build_floorplan,
    desired_position,
    eco_place,
    global_place,
    insert_fillers,
    synthesize_all_clock_trees,
)


@pytest.fixture()
def placed(lib, small_circuit_mutable):
    c = small_circuit_mutable
    plan = build_floorplan(c, 0.85)
    placement = global_place(c, plan)
    return c, plan, placement


def test_cts_rewires_every_ff(placed, lib):
    c, plan, placement = placed
    domain = c.clocks[0].net
    ffs = [i.name for i in c.instances.values() if i.is_sequential]
    trees = synthesize_all_clock_trees(c, lib, dict(placement.positions))
    tree = trees[0]
    assert set(tree.sink_leaf) == set(ffs)
    # No FF hangs on the raw clock net any more.
    raw_sinks = {i for i, _ in c.nets[domain].sinks}
    for name in ffs:
        assert name not in raw_sinks
        leaf_net = tree.sink_leaf[name]
        clk_pin = c.instances[name].cell.clock_pin
        assert c.instances[name].conns[clk_pin] == leaf_net
    # The root buffer is driven from the clock port.
    root_candidates = [
        b for b in tree.buffers
        if c.instances[b].conns["A"] == domain
    ]
    assert len(root_candidates) == 1


def test_cts_cluster_fanout_bounded(placed, lib):
    c, plan, placement = placed
    trees = synthesize_all_clock_trees(c, lib, dict(placement.positions))
    for tree in trees:
        for buf in tree.buffers:
            net = c.instances[buf].conns["Z"]
            assert len(c.nets[net].sinks) <= MAX_CLUSTER_SINKS


def test_eco_place_inserts_near_desired(placed, lib):
    c, plan, placement = placed
    trees = synthesize_all_clock_trees(c, lib, dict(placement.positions))
    buffers = [b for t in trees for b in t.buffers]
    hints = {}
    for t in trees:
        hints.update(t.buffer_positions)
    placed_names = eco_place(c, placement, buffers, hints=hints)
    assert set(placed_names) == set(buffers)
    for name in buffers:
        x, y = placement.positions[name]
        hx, hy = hints[name]
        assert abs(y - hy) <= plan.core.height / 2
    # Rows remain legal.
    occupancy = placement.row_occupancy_sites(c)
    for row, used in zip(plan.rows, occupancy):
        assert used <= row.n_sites


def test_desired_position_uses_connectivity(placed, lib):
    c, plan, placement = placed
    some_gate = next(
        i.name for i in c.instances.values()
        if not i.is_sequential and not i.cell.is_filler
    )
    pos = desired_position(c, placement, some_gate)
    assert plan.chip.contains(pos)


def test_fillers_close_every_gap(placed, lib):
    c, plan, placement = placed
    report = insert_fillers(c, placement, lib)
    assert report.n_fillers > 0
    assert 0.0 < report.filler_fraction < 0.5
    # Every row is now exactly full.
    occupancy = placement.row_occupancy_sites(c)
    for row, used in zip(plan.rows, occupancy):
        assert used == row.n_sites
    # Fillers are real, pin-free instances.
    fillers = [i for i in c.instances.values() if i.cell.is_filler]
    assert len(fillers) == report.n_fillers
    assert all(not f.conns for f in fillers)
