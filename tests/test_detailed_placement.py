"""Tests for the detailed-placement refinement pass."""

import copy

import pytest

from repro.layout import build_floorplan, global_place, refine_placement
from repro.netlist.net import PORT


def reference_refine(circuit, placement, passes=2):
    """The refinement that rescored both sides of every trial swap from
    scratch, kept as the reference for the kept per-net HPWL."""
    nets_of = {
        name: list(dict.fromkeys(inst.conns.values()))
        for name, inst in circuit.instances.items()
        if not inst.cell.is_filler
    }

    def hpwl(net_name):
        net = circuit.nets[net_name]
        refs = list(net.sinks)
        if net.driver is not None:
            refs.append(net.driver)
        points = []
        for inst, pin in refs:
            if inst == PORT:
                pos = placement.plan.pad_positions.get(pin)
            else:
                pos = placement.positions.get(inst)
            if pos is not None:
                points.append(pos)
        if not points:
            return 0.0
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def cost_around(cells):
        nets = dict.fromkeys(net for cell in cells
                             for net in nets_of.get(cell, ()))
        return sum(hpwl(net) for net in nets)

    improvement = 0.0
    for _ in range(max(0, passes)):
        swapped_any = False
        for cells in placement.rows_cells:
            for i in range(len(cells) - 1):
                a, b = cells[i], cells[i + 1]
                if (circuit.instances[a].cell.is_filler
                        or circuit.instances[b].cell.is_filler):
                    continue
                before = cost_around((a, b))
                pos_a = placement.positions[a]
                pos_b = placement.positions[b]
                wa = circuit.instances[a].cell.width_um
                wb = circuit.instances[b].cell.width_um
                left = min(pos_a[0] - wa / 2, pos_b[0] - wb / 2)
                placement.positions[b] = (left + wb / 2, pos_b[1])
                placement.positions[a] = (left + wb + wa / 2, pos_a[1])
                after = cost_around((a, b))
                if after < before - 1e-9:
                    cells[i], cells[i + 1] = b, a
                    improvement += before - after
                    swapped_any = True
                else:
                    placement.positions[a] = pos_a
                    placement.positions[b] = pos_b
        if not swapped_any:
            break
    return improvement


@pytest.fixture(scope="module")
def refined():
    from repro.circuits import s38417_like
    c = s38417_like(scale=0.04)
    plan = build_floorplan(c, 0.95)
    placement = global_place(c, plan)
    unrefined = copy.deepcopy(placement)
    before = placement.total_hpwl_um(c)
    gain = refine_placement(c, placement, passes=2)
    return c, plan, placement, before, gain, unrefined


def test_refinement_reduces_hpwl(refined):
    c, plan, placement, before, gain, _ = refined
    after = placement.total_hpwl_um(c)
    assert after <= before
    assert gain >= 0
    # The returned gain is the sum of the accepted swaps' HPWL drops, so
    # it equals the total drop up to float rounding; a looser bound
    # would hide kept per-net HPWL values that went stale.
    assert before - after == pytest.approx(gain, rel=1e-9)


def test_refinement_matches_recomputing_reference(refined):
    c, _, placement, _, gain, unrefined = refined
    reference = copy.deepcopy(unrefined)
    assert reference_refine(c, reference, passes=2) == gain
    assert placement.rows_cells == reference.rows_cells
    assert placement.positions == reference.positions


def test_refinement_matches_reference_on_control_core():
    from repro.circuits import control_core
    c = control_core(scale=0.02)
    plan = build_floorplan(c, 0.9)
    placement = global_place(c, plan)
    reference = copy.deepcopy(placement)
    gain = refine_placement(c, placement, passes=2)
    assert gain > 0
    assert reference_refine(c, reference, passes=2) == gain
    assert placement.rows_cells == reference.rows_cells
    assert placement.positions == reference.positions


def test_refinement_preserves_legality(refined):
    c, plan, placement, _, _, _ = refined
    for row_idx, cells in enumerate(placement.rows_cells):
        row = plan.rows[row_idx]
        spans = sorted(
            (placement.positions[n][0] - c.instances[n].cell.width_um / 2,
             placement.positions[n][0] + c.instances[n].cell.width_um / 2)
            for n in cells
        )
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0 + 1e-6
        if spans:
            assert spans[0][0] >= row.x0 - 1e-6
            assert spans[-1][1] <= row.x1 + 1e-6


def test_zero_passes_is_noop():
    from repro.circuits import s38417_like
    c = s38417_like(scale=0.02)
    plan = build_floorplan(c, 0.9)
    placement = global_place(c, plan)
    snapshot = dict(placement.positions)
    assert refine_placement(c, placement, passes=0) == 0.0
    assert placement.positions == snapshot
