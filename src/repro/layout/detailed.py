"""Detailed placement: greedy wirelength refinement.

After global placement and legalisation, a classic cleanup pass walks
every row and swaps adjacent cells whenever the swap shortens the
half-perimeter wirelength of the nets they touch.  The pass preserves
legality by construction (cells exchange their site spans within the
row) and converges in a few sweeps; it is the cheap tail of what
Silicon Ensemble's detailed placer did after its global stage.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.layout.geometry import Point
from repro.layout.placement import Placement, _pack_row
from repro.netlist.circuit import Circuit
from repro.netlist.net import PORT


class _HpwlCache:
    """Incremental HPWL bookkeeping for swap evaluation."""

    def __init__(self, circuit: Circuit, placement: Placement):
        self.circuit = circuit
        self.placement = placement
        # Nets incident to each instance (data nets only).
        self.nets_of: Dict[str, List[str]] = {}
        for name, inst in circuit.instances.items():
            if inst.cell.is_filler:
                continue
            self.nets_of[name] = list(dict.fromkeys(inst.conns.values()))

    def _net_points(self, net_name: str) -> List[Point]:
        net = self.circuit.nets[net_name]
        refs = list(net.sinks)
        if net.driver is not None:
            refs.append(net.driver)
        points = []
        for inst, pin in refs:
            if inst == PORT:
                pos = self.placement.plan.pad_positions.get(pin)
            else:
                pos = self.placement.positions.get(inst)
            if pos is not None:
                points.append(pos)
        return points

    def hpwl(self, net_name: str) -> float:
        points = self._net_points(net_name)
        if not points:
            return 0.0
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def cost_around(self, cells: Tuple[str, ...]) -> float:
        nets = dict.fromkeys(net for cell in cells
                             for net in self.nets_of.get(cell, ()))
        return sum(self.hpwl(net) for net in nets)


def refine_placement(circuit: Circuit, placement: Placement,
                     passes: int = 2) -> float:
    """Swap-adjacent detailed placement, in place.

    Args:
        circuit: The placed netlist.
        placement: Placement to refine (positions are updated).
        passes: Full row sweeps to run.

    Returns:
        Total HPWL improvement in um (>= 0).
    """
    cache = _HpwlCache(circuit, placement)
    improvement = 0.0
    for _ in range(max(0, passes)):
        swapped_any = False
        for row_index, cells in enumerate(placement.rows_cells):
            for i in range(len(cells) - 1):
                a, b = cells[i], cells[i + 1]
                if (circuit.instances[a].cell.is_filler
                        or circuit.instances[b].cell.is_filler):
                    continue
                before = cache.cost_around((a, b))
                pos_a = placement.positions[a]
                pos_b = placement.positions[b]
                wa = circuit.instances[a].cell.width_um
                wb = circuit.instances[b].cell.width_um
                # Swap: b takes a's left edge, a follows b.
                left = min(pos_a[0] - wa / 2, pos_b[0] - wb / 2)
                placement.positions[b] = (left + wb / 2, pos_b[1])
                placement.positions[a] = (left + wb + wa / 2, pos_a[1])
                after = cache.cost_around((a, b))
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
