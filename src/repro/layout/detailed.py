"""Detailed placement: greedy wirelength refinement.

After global placement and legalisation, a classic cleanup pass walks
every row and swaps adjacent cells whenever the swap shortens the
half-perimeter wirelength of the nets they touch.  The pass preserves
legality by construction (cells exchange their site spans within the
row) and converges in a few sweeps; it is the cheap tail of what
Silicon Ensemble's detailed placer did after its global stage.

Each net's HPWL is kept at the current positions, so scoring a trial
swap recomputes only the HPWL after the move, and an accepted swap
stores it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.layout.geometry import hpwl
from repro.layout.placement import Placement
from repro.netlist.circuit import Circuit
from repro.netlist.net import PORT


class _HpwlCache:
    """Per-net HPWL at the current positions, for swap evaluation.

    ``kept`` must be refreshed for every net of a cell that moves;
    :func:`refine_placement` stores the fresh values of an accepted
    swap and restores the positions of a rejected one.
    """

    def __init__(self, circuit: Circuit, placement: Placement):
        # Nets incident to each instance (data nets only).
        self.nets_of: Dict[str, List[str]] = {}
        for name, inst in circuit.instances.items():
            if inst.cell.is_filler:
                continue
            self.nets_of[name] = list(dict.fromkeys(inst.conns.values()))
        # Where each net's pin positions live, sinks first and the
        # source pin last, each as (position dict, key).
        pads = placement.plan.pad_positions
        self._pins: Dict[str, List[Tuple[dict, str]]] = {}
        for nets in self.nets_of.values():
            for net_name in nets:
                if net_name in self._pins:
                    continue
                net = circuit.nets[net_name]
                refs = list(net.sinks)
                if net.driver is not None:
                    refs.append(net.driver)
                self._pins[net_name] = [
                    (pads, pin) if inst == PORT
                    else (placement.positions, inst)
                    for inst, pin in refs
                ]
        self.kept: Dict[str, float] = {
            net: self.hpwl(net) for net in self._pins
        }

    def hpwl(self, net_name: str) -> float:
        """HPWL of ``net_name`` at the current positions."""
        return hpwl([pos for where, key in self._pins[net_name]
                     if (pos := where.get(key)) is not None])

    def nets_around(self, cells: Tuple[str, ...]) -> Tuple[str, ...]:
        """The nets of ``cells``, each once, in first-seen order."""
        return tuple(dict.fromkeys(net for cell in cells
                                   for net in self.nets_of.get(cell, ())))


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
    kept = cache.kept
    improvement = 0.0
    for _ in range(max(0, passes)):
        swapped_any = False
        for row_index, cells in enumerate(placement.rows_cells):
            for i in range(len(cells) - 1):
                a, b = cells[i], cells[i + 1]
                if (circuit.instances[a].cell.is_filler
                        or circuit.instances[b].cell.is_filler):
                    continue
                nets = cache.nets_around((a, b))
                before = sum(kept[net] for net in nets)
                pos_a = placement.positions[a]
                pos_b = placement.positions[b]
                wa = circuit.instances[a].cell.width_um
                wb = circuit.instances[b].cell.width_um
                # Swap: b takes a's left edge, a follows b.
                left = min(pos_a[0] - wa / 2, pos_b[0] - wb / 2)
                placement.positions[b] = (left + wb / 2, pos_b[1])
                placement.positions[a] = (left + wb + wa / 2, pos_a[1])
                fresh = [cache.hpwl(net) for net in nets]
                after = sum(fresh)
                if after < before - 1e-9:
                    cells[i], cells[i + 1] = b, a
                    improvement += before - after
                    swapped_any = True
                    kept.update(zip(nets, fresh))
                else:
                    placement.positions[a] = pos_a
                    placement.positions[b] = pos_b
        if not swapped_any:
            break
    return improvement
