"""Simulated-annealing detailed placement, and the engine table.

:data:`PLACERS` maps each ``FlowConfig.placer`` name to its engine
class: ``"quadratic"`` (:class:`repro.layout.placement.QuadraticPlacer`,
the default) and ``"sa"`` (:class:`SimulatedAnnealingPlacer`, below).

The ``"sa"`` engine keeps the quadratic analytic solve for global
placement — annealing from a random start would be both slow and
worse — and replaces the greedy adjacent-swap cleanup with a
Metropolis search over two legality-preserving move classes:

* **adjacent swap** — two neighbouring cells in a row exchange their
  site span (the same move the greedy refiner uses, but accepted
  probabilistically so the search can climb out of local minima);
* **global swap** — two cells of *equal site width* anywhere in the
  core exchange positions and rows outright.  Equal widths make the
  exchange exactly legal: every other cell keeps its sites, so no
  re-packing (and no position drift) is ever needed.

The cost is half-perimeter wirelength over the nets incident to the
swapped pair, evaluated in sorted-net order so float accumulation is
identical in every process.  The temperature starts at a fixed
fraction of the mean incident-net HPWL and cools geometrically to
1e-3 of that over the move budget; the budget scales linearly with
the cell count and the caller's ``passes``.

Determinism: the *only* source of randomness is the ``seed`` handed to
:meth:`SimulatedAnnealingPlacer.refine` (the flow derives it from the
netlist's structural content via :func:`placement_seed`), consumed
through a private ``random.Random`` — never the process-global RNG.
The same (circuit, placement, passes, seed) inputs therefore replay
the exact accept/reject sequence on any machine and under any
``--jobs`` count.  Only this engine reads the seed; the quadratic
engine is deterministic without one.

A final greedy pass (the quadratic engine's refiner) polishes what the
annealer leaves, so ``"sa"`` results are never worse than untouched
global placement by more than the annealer's own uphill moves allow.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, List

from repro import obs
from repro.layout.placement import Placement, QuadraticPlacer
from repro.netlist.circuit import Circuit

#: Move budget per cell per ``passes`` unit.
_MOVES_PER_CELL = 6

#: Starting temperature as a fraction of the mean incident-net HPWL.
_T0_FRACTION = 0.2

#: Final temperature as a fraction of the starting one.
_COOL_TO = 1e-3


class _SaCost:
    """Deterministic incremental HPWL bookkeeping for swap moves.

    Unlike the greedy refiner's cache this iterates nets in *sorted*
    order, so the float sums — and therefore every accept/reject
    decision — are bitwise identical across processes.
    """

    def __init__(self, circuit: Circuit, placement: Placement):
        self.circuit = circuit
        self.placement = placement
        self.nets_of: Dict[str, List[str]] = {}
        for name, inst in circuit.instances.items():
            if inst.cell.is_filler:
                continue
            self.nets_of[name] = sorted(set(inst.conns.values()))

    def pair_cost(self, a: str, b: str) -> float:
        nets = self.nets_of.get(a, [])
        nets_b = self.nets_of.get(b, [])
        seen = sorted(set(nets) | set(nets_b))
        placement = self.placement
        circuit = self.circuit
        total = 0.0
        for net in seen:
            points = placement.net_pins(circuit, net)
            if not points:
                continue
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total


class SimulatedAnnealingPlacer(QuadraticPlacer):
    """Quadratic global placement + annealed detailed placement."""

    def refine(self, circuit: Circuit, placement: Placement, *,
               passes: int = 2, seed: int = 0) -> float:
        """Anneal, then greedy-polish; returns total HPWL gain in um."""
        start_hpwl = placement.total_hpwl_um(circuit)
        with obs.span("sa_anneal") as sp:
            moves, accepted = _anneal(circuit, placement,
                                      passes=passes, seed=seed)
            sp.counter("sa_moves", moves)
            sp.counter("sa_accepted", accepted)
        gain = start_hpwl - placement.total_hpwl_um(circuit)
        gain += super().refine(circuit, placement,
                               passes=passes, seed=seed)
        return gain


#: Placement engines by ``FlowConfig.placer`` name.
PLACERS = {"quadratic": QuadraticPlacer, "sa": SimulatedAnnealingPlacer}


def placement_seed(circuit: Circuit, engine: str = "") -> int:
    """Deterministic 63-bit seed from the netlist's structural content.

    The digest covers the circuit name and the sorted instance/net
    name-and-cell structure — exactly the inputs that shape a
    placement — plus the engine name, so two engines never share a
    random stream.  Positions and other derived state never enter the
    hash.  Equal (circuit, engine) pairs seed equally in every
    process, which is what makes the SA backend bit-identical across
    ``--jobs 1`` and ``--jobs N``.
    """
    h = hashlib.sha256()
    h.update(engine.encode("utf-8"))
    h.update(b"\x00")
    h.update(circuit.name.encode("utf-8"))
    for name in sorted(circuit.instances):
        inst = circuit.instances[name]
        h.update(b"\x00i")
        h.update(name.encode("utf-8"))
        h.update(inst.cell.name.encode("utf-8"))
    for name in sorted(circuit.nets):
        net = circuit.nets[name]
        h.update(b"\x00n")
        h.update(name.encode("utf-8"))
        h.update(repr(net.driver).encode("utf-8"))
    return int(h.hexdigest()[:16], 16) & 0x7FFFFFFFFFFFFFFF


def _anneal(circuit: Circuit, placement: Placement, *,
            passes: int, seed: int) -> tuple:
    """Run the Metropolis search in place; returns (moves, accepted)."""
    rng = random.Random(seed)
    cost = _SaCost(circuit, placement)

    # Deterministic move pools, in row-major placement order.
    movable: List[str] = [
        name
        for cells in placement.rows_cells
        for name in cells
        if not circuit.instances[name].cell.is_filler
    ]
    if len(movable) < 2:
        return 0, 0
    width_class: Dict[int, List[str]] = {}
    for name in movable:
        w = circuit.instances[name].cell.width_sites
        width_class.setdefault(w, []).append(name)
    swap_rows = [
        i for i, cells in enumerate(placement.rows_cells)
        if len(cells) >= 2
    ]
    pos_in_row = {
        name: i
        for cells in placement.rows_cells
        for i, name in enumerate(cells)
    }

    # Temperature from the mean incident-net span: scale-free across
    # circuit sizes, deterministic because total_hpwl_um iterates the
    # net dict in insertion order.
    n_nets = max(1, len(circuit.nets))
    mean_hpwl = placement.total_hpwl_um(circuit) / n_nets
    t0 = max(1e-9, _T0_FRACTION * mean_hpwl)
    budget = max(0, passes) * _MOVES_PER_CELL * len(movable)
    if budget == 0:
        return 0, 0
    alpha = _COOL_TO ** (1.0 / budget)

    temperature = t0
    accepted = 0
    for _ in range(budget):
        if rng.random() < 0.5 and swap_rows:
            accepted += _try_adjacent_swap(
                circuit, placement, cost, rng, swap_rows,
                pos_in_row, temperature)
        else:
            accepted += _try_global_swap(
                circuit, placement, cost, rng, movable, width_class,
                pos_in_row, temperature)
        temperature *= alpha
    return budget, accepted


def _metropolis(delta: float, temperature: float,
                rng: random.Random) -> bool:
    """Standard acceptance rule (downhill always, uphill by Boltzmann)."""
    if delta < 0.0:
        return True
    scaled = delta / temperature
    if scaled > 700.0:  # exp underflow guard
        return False
    return rng.random() < math.exp(-scaled)


def _try_adjacent_swap(circuit, placement, cost, rng, swap_rows,
                       pos_in_row, temperature) -> int:
    cells = placement.rows_cells[rng.choice(swap_rows)]
    i = rng.randrange(len(cells) - 1)
    a, b = cells[i], cells[i + 1]
    if (circuit.instances[a].cell.is_filler
            or circuit.instances[b].cell.is_filler):
        return 0
    before = cost.pair_cost(a, b)
    pos_a = placement.positions[a]
    pos_b = placement.positions[b]
    wa = circuit.instances[a].cell.width_um
    wb = circuit.instances[b].cell.width_um
    left = min(pos_a[0] - wa / 2, pos_b[0] - wb / 2)
    placement.positions[b] = (left + wb / 2, pos_b[1])
    placement.positions[a] = (left + wb + wa / 2, pos_a[1])
    after = cost.pair_cost(a, b)
    if _metropolis(after - before, temperature, rng):
        cells[i], cells[i + 1] = b, a
        pos_in_row[a], pos_in_row[b] = i + 1, i
        return 1
    placement.positions[a] = pos_a
    placement.positions[b] = pos_b
    return 0


def _try_global_swap(circuit, placement, cost, rng, movable,
                     width_class, pos_in_row, temperature) -> int:
    a = rng.choice(movable)
    peers = width_class[circuit.instances[a].cell.width_sites]
    if len(peers) < 2:
        return 0
    b = rng.choice(peers)
    if a == b:
        return 0
    before = cost.pair_cost(a, b)
    placement.positions[a], placement.positions[b] = (
        placement.positions[b], placement.positions[a])
    after = cost.pair_cost(a, b)
    if _metropolis(after - before, temperature, rng):
        row_a, row_b = placement.row_of[a], placement.row_of[b]
        ia, ib = pos_in_row[a], pos_in_row[b]
        placement.rows_cells[row_a][ia] = b
        placement.rows_cells[row_b][ib] = a
        placement.row_of[a], placement.row_of[b] = row_b, row_a
        pos_in_row[a], pos_in_row[b] = ib, ia
        return 1
    placement.positions[a], placement.positions[b] = (
        placement.positions[b], placement.positions[a])
    return 0
