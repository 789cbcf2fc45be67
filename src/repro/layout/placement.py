"""Global placement and row legalisation.

Placement runs in two stages, the classic analytic recipe:

1. **Quadratic global placement** — every net becomes a clique of
   springs (weight 1/(pins-1)); pad positions are fixed anchors.  The
   resulting sparse Laplacian systems (one for x, one for y) are solved
   with conjugate gradients, giving a wirelength-driven but overlapping
   spread of cells over the core.
2. **Capacity-driven legalisation** — cells are distributed to rows in
   y-order against per-row site quotas, then packed in x-order with the
   remaining whitespace spread uniformly.  This fills every row to the
   floorplan's target utilisation, which is exactly the quantity the
   paper tracks (97% for s38417/circuit 1, 50% for p26909).

The paper optimises for area only (no timing-driven placement), and so
does this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import cg

from repro.library.cell import SITE_WIDTH_UM
from repro.layout.floorplan import Floorplan
from repro.layout.geometry import Point, hpwl
from repro.netlist.circuit import Circuit
from repro.netlist.net import PORT

#: Nets larger than this are connected via a star to reduce fill-in.
_CLIQUE_LIMIT = 8


@dataclass
class Placement:
    """Cell locations of one layout.

    Attributes:
        plan: The floorplan the placement lives in.
        positions: Cell-centre location per instance (um).
        row_of: Row index per instance.
        rows_cells: Instance names per row, left to right.
    """

    plan: Floorplan
    positions: Dict[str, Point] = field(default_factory=dict)
    row_of: Dict[str, int] = field(default_factory=dict)
    rows_cells: List[List[str]] = field(default_factory=list)

    def pin_position(self, circuit: Circuit, inst: str) -> Point:
        """Location used for a pin of ``inst`` (cell centre)."""
        if inst == PORT:
            raise ValueError("ports are located via the floorplan pads")
        return self.positions[inst]

    def net_pins(self, circuit: Circuit, net_name: str) -> List[Point]:
        """Locations of every pin on a net (pads included)."""
        net = circuit.nets[net_name]
        points: List[Point] = []
        refs = list(net.sinks)
        if net.driver is not None:
            refs.append(net.driver)
        for inst, pin in refs:
            if inst == PORT:
                pos = self.plan.pad_positions.get(pin)
                if pos is not None:
                    points.append(pos)
            elif inst in self.positions:
                points.append(self.positions[inst])
        return points

    def total_hpwl_um(self, circuit: Circuit) -> float:
        """Half-perimeter wirelength over all nets (pre-route metric)."""
        return sum(
            hpwl(self.net_pins(circuit, net)) for net in circuit.nets
        )

    def row_occupancy_sites(self, circuit: Circuit) -> List[int]:
        """Occupied sites per row."""
        used = [0] * self.plan.n_rows
        for row_index, cells in enumerate(self.rows_cells):
            used[row_index] = sum(
                circuit.instances[name].cell.width_sites for name in cells
            )
        return used

    def utilization(self, circuit: Circuit) -> float:
        """Achieved row utilisation (occupied / available sites)."""
        total = sum(row.n_sites for row in self.plan.rows)
        used = sum(self.row_occupancy_sites(circuit))
        return used / total if total else 0.0


def global_place(circuit: Circuit, plan: Floorplan) -> Placement:
    """Place every non-filler cell of ``circuit`` into ``plan``.

    Args:
        circuit: Netlist to place.
        plan: Floorplan with rows and pad positions.

    Returns:
        A legalised placement at the floorplan's utilisation.
    """
    movable = [
        inst.name
        for inst in circuit.instances.values()
        if not inst.cell.is_filler
    ]
    index = {name: i for i, name in enumerate(movable)}
    n = len(movable)
    if n == 0:
        return Placement(plan=plan)

    # Gordian-style iteration: the unconstrained quadratic solution
    # collapses towards the pad centroid, so alternate solving with
    # legalisation, anchoring each re-solve to the previous legalised
    # slots with growing weight.  Three rounds recover most of the
    # spread while keeping connected cells together.
    #
    # The spring system itself is anchor-independent, so it is
    # assembled once (the Python clique/star expansion dominates the
    # stage's runtime) and each round only applies its eps/anchor
    # terms as vectorised numpy adds on copies of the base arrays —
    # byte-identical to re-assembling from scratch every round.
    system = _assemble_springs(circuit, plan, movable, index)
    xs, ys = _solve_quadratic(system, plan)
    placement = _legalize(circuit, plan, movable, xs, ys)
    for anchor_weight in (0.06, 0.25, 0.9):
        ax = np.array([placement.positions[m][0] for m in movable])
        ay = np.array([placement.positions[m][1] for m in movable])
        xs, ys = _solve_quadratic(
            system, plan,
            anchors=(ax, ay), anchor_weight=anchor_weight,
        )
        placement = _legalize(circuit, plan, movable, xs, ys)
    return placement


@dataclass
class _SpringSystem:
    """One assembly of the placement spring system, anchor-free.

    ``rows_i``/``rows_j``/``vals`` hold the off-diagonal COO triplets;
    ``diag``/``bx``/``by`` carry the net-derived diagonal and
    right-hand sides *before* the centre pull and anchor springs,
    which change per Gordian round and are applied on copies.
    """

    n: int
    rows_i: np.ndarray
    rows_j: np.ndarray
    vals: np.ndarray
    diag: np.ndarray
    bx: np.ndarray
    by: np.ndarray


def _assemble_springs(
    circuit: Circuit,
    plan: Floorplan,
    movable: List[str],
    index: Dict[str, int],
) -> _SpringSystem:
    """Expand every net into clique/star springs (the Python-heavy
    part of the quadratic solve, done once per placement)."""
    n = len(movable)
    rows_i: List[int] = []
    rows_j: List[int] = []
    vals: List[float] = []
    diag = np.zeros(n)
    bx = np.zeros(n)
    by = np.zeros(n)

    def add_pair(i: int, j: int, w: float) -> None:
        rows_i.append(i)
        rows_j.append(j)
        vals.append(-w)
        rows_i.append(j)
        rows_j.append(i)
        vals.append(-w)
        diag[i] += w
        diag[j] += w

    def add_fixed(i: int, pos: Point, w: float) -> None:
        diag[i] += w
        bx[i] += w * pos[0]
        by[i] += w * pos[1]

    for net in circuit.nets.values():
        refs = list(net.sinks)
        if net.driver is not None:
            refs.append(net.driver)
        cells = [index[i] for i, _ in refs if i != PORT and i in index]
        pads = [
            plan.pad_positions[p]
            for i, p in refs
            if i == PORT and p in plan.pad_positions
        ]
        p = len(cells) + len(pads)
        if p < 2:
            continue
        if p <= _CLIQUE_LIMIT:
            w = 1.0 / (p - 1)
            for a in range(len(cells)):
                for b in range(a + 1, len(cells)):
                    add_pair(cells[a], cells[b], w)
                for pad in pads:
                    add_fixed(cells[a], pad, w)
        else:
            # Star model: connect pins to the net's virtual centre,
            # approximated by anchoring everything pairwise to the
            # first pin (cheap, adequate for huge clock/scan nets).
            w = 2.0 / p
            hub = cells[0] if cells else None
            if hub is None:
                continue
            for other in cells[1:]:
                add_pair(hub, other, w)
            for pad in pads:
                add_fixed(hub, pad, w)

    return _SpringSystem(
        n=n,
        rows_i=np.asarray(rows_i, dtype=np.int64),
        rows_j=np.asarray(rows_j, dtype=np.int64),
        vals=np.asarray(vals, dtype=np.float64),
        diag=diag,
        bx=bx,
        by=by,
    )


def _solve_quadratic(
    system: _SpringSystem,
    plan: Floorplan,
    anchors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    anchor_weight: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the two spring systems; returns raw (x, y) coordinates.

    Args:
        system: Pre-assembled springs (:func:`_assemble_springs`).
        anchors: Per-cell anchor positions (previous legalised slots).
        anchor_weight: Spring weight to the anchors, relative to an
            average net weight of ~1.

    The eps/anchor terms are added to *copies* of the base arrays in
    the same order the historical single-pass assembly used, so the CG
    inputs — and therefore its iterates — are bitwise identical to a
    from-scratch rebuild.
    """
    diag = system.diag.copy()
    bx = system.bx.copy()
    by = system.by.copy()

    # Weak pull to the core centre keeps disconnected cells bounded.
    cx, cy = plan.core.center
    eps = 1e-4
    diag += eps
    bx += eps * cx
    by += eps * cy
    if anchors is not None and anchor_weight > 0.0:
        ax, ay = anchors
        diag += anchor_weight
        bx += anchor_weight * ax
        by += anchor_weight * ay

    return _solve_cg(system.n, system.rows_i, system.rows_j,
                     system.vals, diag, bx, by, cx, cy)


def _solve_cg(n, rows_i, rows_j, vals, diag, bx, by, cx, cy):
    """Sparse conjugate-gradient solve for large systems."""
    a = coo_matrix(
        (
            np.concatenate([np.asarray(vals), diag]),
            (
                np.concatenate([np.asarray(rows_i), np.arange(n)]),
                np.concatenate([np.asarray(rows_j), np.arange(n)]),
            ),
        ),
        shape=(n, n),
    ).tocsr()

    x0 = np.full(n, cx)
    y0 = np.full(n, cy)
    xs, _ = cg(a, bx, x0=x0, rtol=1e-6, maxiter=600)
    ys, _ = cg(a, by, x0=y0, rtol=1e-6, maxiter=600)
    return xs, ys


def _legalize(
    circuit: Circuit,
    plan: Floorplan,
    movable: List[str],
    xs: np.ndarray,
    ys: np.ndarray,
) -> Placement:
    """Distribute cells to rows by quota and pack them on sites."""
    placement = Placement(plan=plan)
    n_rows = plan.n_rows
    widths = {
        name: circuit.instances[name].cell.width_sites for name in movable
    }
    total_cell_sites = sum(widths.values())
    total_sites = sum(row.n_sites for row in plan.rows)
    if total_cell_sites > total_sites:
        raise ValueError(
            f"core overflow: {total_cell_sites} cell sites > "
            f"{total_sites} available"
        )

    order = sorted(range(len(movable)), key=lambda i: (ys[i], xs[i]))
    placement.rows_cells = [[] for _ in range(n_rows)]
    # Cumulative targeting: cell k's row follows the running share of
    # placed sites, so rounding shortfalls never accumulate into the
    # last row.  Capacity is still enforced with forward spill.
    fill_per_row = total_cell_sites / n_rows
    occupancy = [0] * n_rows
    row_index = 0
    cum = 0
    for i in order:
        name = movable[i]
        w = widths[name]
        target = min(n_rows - 1, int(cum / fill_per_row))
        row_index = max(row_index, target)
        while (
            row_index < n_rows - 1
            and occupancy[row_index] + w > plan.rows[row_index].n_sites
        ):
            row_index += 1
        placement.rows_cells[row_index].append(name)
        placement.row_of[name] = row_index
        occupancy[row_index] += w
        cum += w

    for row_index, cells in enumerate(placement.rows_cells):
        cells.sort(key=lambda name: xs[index_of(movable, name)])
        _pack_row(circuit, plan, placement, row_index)
    return placement


def index_of(movable: List[str], name: str) -> int:
    """Index helper kept separate for reuse in tests."""
    # movable lists are in insertion order; build a cache lazily.
    cache = getattr(index_of, "_cache", None)
    if cache is None or cache[0] is not movable:
        cache = (movable, {n: i for i, n in enumerate(movable)})
        index_of._cache = cache  # type: ignore[attr-defined]
    return cache[1][name]


def _pack_row(circuit: Circuit, plan: Floorplan,
              placement: Placement, row_index: int) -> None:
    """Pack one row's cells onto sites, spreading whitespace evenly."""
    from repro.library.cell import ROW_HEIGHT_UM

    row = plan.rows[row_index]
    cells = placement.rows_cells[row_index]
    if not cells:
        return
    used = sum(circuit.instances[c].cell.width_sites for c in cells)
    free = max(0, row.n_sites - used)
    gap = free / (len(cells) + 1)
    y_center = row.y + 0.5 * ROW_HEIGHT_UM
    # Absolute ideal start per cell (cumulative widths plus its share
    # of the whitespace): rounding never drifts, so the last cell ends
    # inside the row by construction.
    next_free = 0  # first unoccupied site
    cum_width = 0
    for i, name in enumerate(cells):
        w = circuit.instances[name].cell.width_sites
        ideal = cum_width + gap * (i + 1)
        site = int(round(ideal))
        site = max(next_free, min(site, row.n_sites - w))
        site = max(0, site)
        x_center = row.site_x(site) + w * SITE_WIDTH_UM / 2.0
        placement.positions[name] = (x_center, y_center)
        next_free = site + w
        cum_width += w


def repack_row(circuit: Circuit, placement: Placement,
               row_index: int) -> None:
    """Re-pack one row after ECO insertions (order preserved)."""
    _pack_row(circuit, placement.plan, placement, row_index)


class QuadraticPlacer:
    """The default engine: analytic quadratic placement + greedy refine.

    The flow builds its engine from ``repro.layout.sa.PLACERS`` and
    calls these three methods; ``SimulatedAnnealingPlacer`` subclasses
    this class and overrides only :meth:`refine`.  The analytic solve
    is deterministic, so :meth:`refine` accepts the flow's ``seed``
    only to share the subclass's signature.
    """

    def place(self, circuit: Circuit, plan: Floorplan) -> Placement:
        """Quadratic global placement with capacity legalisation."""
        return global_place(circuit, plan)

    def refine(self, circuit: Circuit, placement: Placement, *,
               passes: int = 2, seed: int = 0) -> float:
        """Greedy adjacent-swap detailed placement (in place)."""
        from repro.layout.detailed import refine_placement

        return refine_placement(circuit, placement, passes=passes)

    def eco_place(self, circuit: Circuit, placement: Placement,
                  new_cells: Iterable[str],
                  hints: Optional[Dict[str, Point]] = None) -> List[str]:
        """Capacity-aware row insertion of post-placement ECO cells."""
        from repro.layout.eco import eco_place as _eco_place

        return _eco_place(circuit, placement, new_cells, hints=hints)
