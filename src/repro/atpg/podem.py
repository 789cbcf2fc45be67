"""PODEM deterministic test-pattern generation.

Classic PODEM (Goel) over the test-mode combinational view: objectives
are justified by backtracing to primary/pseudo-primary inputs only,
with five-valued reasoning carried as two three-valued machines (good
and faulty).  The search is confined to the fault's *region* — the
forward cone of the fault site plus the backward support of that cone.

The engine runs on integer tables built once per view: per node, its
input-net index tuple, a compiled evaluator and a backtrace table entry
(inversion, And/Or with its controlling value, Xor, Mux); per net, its
reader positions, its driver and its SCOAP measures.  Values are *pair
codes* (see :mod:`repro.atpg.threeval`): one byte per net carries the
good machine in bits 0-1 and the faulty machine in bits 2-3, so one
compiled call per node implies both machines.  Each fault site's region
is cached as flat arrays: the region in (level, position) order, its
forward-cone subsequence and its observable nets; the cache keeps the
most recently used regions within a fixed size.
Outside the forward cone the faulty machine equals the good one, so
each decision scans the D-frontier once, over the forward cone only.
Only compound cells (AOI/OAI) backtrace by walking their expression
trees.

A speed-up here must keep every search decision and its order:
``tests/test_atpg_golden.py`` pins a digest over every ``generate``
call of six flows (three circuits, each with and without test points).

Outcomes per fault: a test cube (partial input assignment guaranteed to
detect the fault under any fill), a redundancy proof (search space
exhausted), or an abort (backtrack limit), mirroring the detected /
redundant / aborted classification behind the paper's fault-efficiency
numbers.
"""

from __future__ import annotations

import heapq
import random
import zlib
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.atpg.faults import Fault
from repro.atpg.threeval import (
    ONE,
    PAIR_ONE,
    PAIR_ZERO,
    X,
    ZERO,
    compile_pair,
    decode,
    encode,
    eval3_encoded,
    pair,
)
from repro.library.logic import And, Const, LogicExpr, Mux, Not, Or, Var, Xor
from repro.netlist.levelize import CombView
from repro.netlist.net import PORT
from repro.testability.scoap import ScoapResult

#: SCOAP cost of a net the measures do not cover.
_UNKNOWN_COST = 1e18

#: Ints the region cache may hold (8 MiB of array data).  Both the
#: number of searched sites and each region grow with the view, so an
#: unbounded cache would grow with the square of the view size; past
#: this budget the least recently used regions go.
_REGION_CACHE_INTS = 1 << 21

#: Backtrace table kinds: compound expression (tree walk), wire
#: (buffer/inverter), And/Or gate over pins, Xor over pins, Mux over
#: pins.
_BT_EXPR, _BT_WIRE, _BT_GATE, _BT_XOR, _BT_MUX = range(5)

#: Node modes of one search (0 is outside the region): a region node,
#: the branch-faulted node, the driver of a stem-faulted site.
_IN, _BRANCH, _STEM = 1, 2, 3

#: Per pair code: both machines known and different (a D or D-bar).
_IS_D = bytes(int(c & 3 != 0 and c >> 2 != 0 and c & 3 != c >> 2)
              for c in range(16))

#: Per pair code: both machines known.
_RESOLVED = bytes(int(c & 3 != 0 and c >> 2 != 0) for c in range(16))


@dataclass
class TestCube:
    """Result of one PODEM run.

    Attributes:
        status: ``"detected"``, ``"redundant"`` or ``"aborted"``.
        assignment: Input-net assignment (only for detected faults);
            unassigned inputs may be filled arbitrarily.
        backtracks: Number of backtracks spent.
        restarts: Number of search restarts consumed (1 = the first,
            fully deterministic search sufficed).
    """

    status: str
    assignment: Dict[str, int]
    backtracks: int = 0
    restarts: int = 0


class _Region:
    """A fault site's region as flat integer arrays (cached per site).

    Attributes:
        order: Region node positions sorted by (level, position).
        forward: The subsequence of ``order`` reading the site,
            directly or transitively (the forward cone).
        observed: Observable nets in the forward cone.
        size: The number of ints held in the three arrays.
    """

    __slots__ = ("order", "forward", "observed", "size")

    def __init__(self, order: Sequence[int], forward: Sequence[int],
                 observed: Sequence[int]):
        self.order = array("i", order)
        self.forward = array("i", forward)
        self.observed = array("i", observed)
        self.size = len(self.order) + len(self.forward) + len(self.observed)


class _Problem:
    """One fault under one set of fixed inputs: what its restarts share.

    ``mode`` holds each node's role in this search and ``values`` the
    implied pair codes before the first decision.
    """

    __slots__ = ("site", "stuck", "stem", "branch_observed", "branch_pos",
                 "branch_k", "forced", "mode", "forward", "observed",
                 "values")


def _backtrace_entry(expr: LogicExpr, pin_index: Dict[str, int]) -> tuple:
    """A node's backtrace table entry.

    Inverters above the core operator fold into one parity bit.  And/Or,
    Xor and Mux directly over pins get integer entries; anything else
    keeps its expression for :meth:`PodemEngine._backtrace_expr`.
    """
    core, inv = expr, 0
    while isinstance(core, Not):
        core, inv = core.arg, inv ^ 1
    if isinstance(core, Var):
        return (_BT_WIRE, inv, pin_index[core.pin])
    if isinstance(core, (And, Or)) and all(
            isinstance(a, Var) for a in core.args):
        controlling = 0 if isinstance(core, And) else 1
        return (_BT_GATE, inv, controlling,
                tuple(pin_index[a.pin] for a in core.args))
    if isinstance(core, Xor) and isinstance(core.a, Var) and isinstance(
            core.b, Var):
        return (_BT_XOR, inv, pin_index[core.a.pin], pin_index[core.b.pin])
    if isinstance(core, Mux) and all(
            isinstance(e, Var) for e in (core.sel, core.a, core.b)):
        return (_BT_MUX, inv, pin_index[core.sel.pin],
                pin_index[core.a.pin], pin_index[core.b.pin])
    return (_BT_EXPR, expr, pin_index)


class PodemEngine:
    """PODEM test generator bound to one combinational view.

    Chronological backtracking alone locks into failing subspaces on
    reconvergent logic, so the per-fault budget is split across several
    *restarts*: the first runs the deterministic SCOAP-guided
    heuristics, later ones randomise frontier and backtrace
    tie-breaking.  Restarts recover most would-be aborts at a fraction
    of the cost of a deep single search.

    Args:
        view: Test-mode combinational view.
        scoap: SCOAP measures used as backtrace guidance (computed on
            demand when omitted).
        backtrack_limit: Total backtrack budget per fault.
        restarts: Number of search restarts sharing the budget.
    """

    def __init__(self, view: CombView, scoap: Optional[ScoapResult] = None,
                 backtrack_limit: int = 64, restarts: int = 4):
        self.view = view
        self.backtrack_limit = backtrack_limit
        self.restarts = max(1, restarts)
        self._rng = random.Random(0xDF7)
        self._rand_active = False
        if scoap is None:
            from repro.testability.scoap import compute_scoap
            scoap = compute_scoap(view)
        self.scoap = scoap

        # Net index space; ``names`` inverts it.
        self.nidx: Dict[str, int] = {}
        for net in view.input_nets:
            self.nidx.setdefault(net, len(self.nidx))
        for net in view.constants:
            self.nidx.setdefault(net, len(self.nidx))
        for node in view.nodes:
            self.nidx.setdefault(node.out_net, len(self.nidx))
        self.names: List[str] = list(self.nidx)
        self.n_nets = n_nets = len(self.nidx)

        # Per-node tables, aligned with view.nodes order.  A heap key
        # ``level << shift | position`` orders nodes by (level,
        # position) as one int.
        self.nodes = nodes = view.nodes
        shift = max(1, len(nodes).bit_length())
        self._pos_mask = (1 << shift) - 1
        self._out: List[int] = []
        self._fn: List[Callable[[Sequence[int]], int]] = []
        self._pins: List[Tuple[int, ...]] = []  # input net per pin
        self._pin_names: List[Tuple[str, ...]] = []
        self._key: List[int] = []
        self._bt: List[tuple] = []
        readers: List[List[int]] = [[] for _ in range(n_nets)]
        self._driver = [-1] * n_nets
        for pos, node in enumerate(nodes):
            out = self.nidx[node.out_net]
            pin_index = {
                pin: self.nidx[net] for pin, net in node.pin_nets.items()
            }
            self._out.append(out)
            self._fn.append(compile_pair(node.expr, pin_index))
            self._pins.append(tuple(pin_index.values()))
            self._pin_names.append(tuple(pin_index))
            self._key.append(node.level << shift | pos)
            self._bt.append(_backtrace_entry(node.expr, pin_index))
            self._driver[out] = pos
            for idx in dict.fromkeys(pin_index.values()):
                readers[idx].append(pos)
        self._readers: List[Tuple[int, ...]] = [tuple(r) for r in readers]

        # Per-net flags and SCOAP measures.
        self._is_input = bytearray(n_nets)
        for net in view.input_nets:
            self._is_input[self.nidx[net]] = 1
        self._is_const = bytearray(n_nets)
        for net in view.constants:
            self._is_const[self.nidx[net]] = 1
        self._is_obs = bytearray(n_nets)
        for net in view.output_nets:
            if net in self.nidx:
                self._is_obs[self.nidx[net]] = 1
        self.observable_sinks = set(view.output_refs)
        self._cc0 = array("d", (scoap.cc0.get(net, _UNKNOWN_COST)
                                for net in self.names))
        self._cc1 = array("d", (scoap.cc1.get(net, _UNKNOWN_COST)
                                for net in self.names))
        self._cc_min = array("d", map(min, self._cc0, self._cc1))
        self._easier = bytes(int(c0 > c1)
                             for c0, c1 in zip(self._cc0, self._cc1))
        self._co = [scoap.co.get(node.out_net, _UNKNOWN_COST)
                    for node in nodes]

        # Template pair-code array with constants pre-applied.
        self._template = bytearray(n_nets)
        for net, value in view.constants.items():
            self._template[self.nidx[net]] = pair(encode(value),
                                                  encode(value))

        # Regions in least recently used order, and their total size.
        self._regions: Dict[int, _Region] = {}
        self._region_ints = 0
        # At most two evaluators per node pin: bounded by the view.
        self._forced: Dict[Tuple[int, int, int], Callable] = {}

    # ------------------------------------------------------------------
    # Region extraction
    # ------------------------------------------------------------------
    def _region(self, site: int) -> _Region:
        """The site's forward cone plus its backward support.

        Cached per site within :data:`_REGION_CACHE_INTS`, least
        recently used out first.
        """
        regions = self._regions
        region = regions.pop(site, None)
        if region is None:
            region = self._build_region(site)
            self._region_ints += region.size
            while regions and self._region_ints > _REGION_CACHE_INTS:
                self._region_ints -= regions.pop(next(iter(regions))).size
        regions[site] = region
        return region

    def _build_region(self, site: int) -> _Region:
        node_out = self._out
        forward_nets = {site}
        stack = [site]
        while stack:
            for pos in self._readers[stack.pop()]:
                out = node_out[pos]
                if out not in forward_nets:
                    forward_nets.add(out)
                    stack.append(out)
        positions = set()
        seen = set(forward_nets)
        stack = list(forward_nets)
        while stack:
            pos = self._driver[stack.pop()]
            if pos < 0 or pos in positions:
                continue
            positions.add(pos)
            for idx in self._pins[pos]:
                if idx not in seen:
                    seen.add(idx)
                    stack.append(idx)
        order = sorted(positions, key=self._key.__getitem__)
        return _Region(
            order,
            [pos for pos in order
             if node_out[pos] in forward_nets and node_out[pos] != site],
            sorted(idx for idx in forward_nets if self._is_obs[idx]),
        )

    def _forced_fn(self, pos: int, k: int, stuck: int) -> Callable:
        """Node ``pos``'s evaluator with its ``k``-th pin stuck (cached)."""
        key = (pos, k, stuck)
        fn = self._forced.get(key)
        if fn is None:
            names = self._pin_names[pos]
            fn = self._forced[key] = compile_pair(
                self.nodes[pos].expr, dict(zip(names, self._pins[pos])),
                names[k], stuck)
        return fn

    # ------------------------------------------------------------------
    # Main entry
    # ------------------------------------------------------------------
    def generate(self, fault: Fault,
                 fixed: Optional[Dict[str, int]] = None,
                 restarts: Optional[int] = None,
                 backtrack_limit: Optional[int] = None) -> TestCube:
        """Attempt to generate a test for ``fault``.

        Runs up to :attr:`restarts` searches; the first is fully
        deterministic, later ones randomise tie-breaking.  A redundancy
        proof from any restart is final (the search space, not the
        heuristics, was exhausted).

        Args:
            fault: Target fault.
            fixed: Input-net values that must be respected (dynamic
                compaction onto an existing test cube).  When the
                search space is exhausted *under constraints* the
                status is ``"incompatible"`` rather than
                ``"redundant"`` — the fault may still be testable on a
                fresh pattern.
            restarts: Override the engine's restart count.
            backtrack_limit: Override the engine's backtrack budget.
        """
        n_restarts = max(1, restarts if restarts is not None
                         else self.restarts)
        limit = (
            backtrack_limit if backtrack_limit is not None
            else self.backtrack_limit
        )
        budget = max(1, limit // n_restarts)
        problem = self._prepare(fault, fixed)
        spent = 0
        result = TestCube(status="aborted", assignment={})
        for attempt in range(n_restarts):
            self._rand_active = attempt > 0
            # Stable per-(fault, attempt) seed: ``hash()`` on strings is
            # randomised per process (PYTHONHASHSEED), which would make
            # pool workers diverge from a serial run bit for bit.
            self._rng.seed(zlib.crc32(repr(
                (fault.net, fault.sink, fault.value, attempt)
            ).encode("utf-8")))
            if problem is None:
                result = TestCube(status="aborted", assignment={})
            else:
                result = self._search(problem, budget)
            spent += result.backtracks
            result.backtracks = spent
            result.restarts = attempt + 1
            if result.status in ("detected", "redundant"):
                if result.status == "redundant" and fixed:
                    result.status = "incompatible"
                return result
        return result

    def _prepare(self, fault: Fault,
                 fixed: Optional[Dict[str, int]]) -> Optional[_Problem]:
        """Resolve the fault onto the tables and imply the base state.

        Returns ``None`` when the fault site (or its branch sink) is
        not in the view.
        """
        site = self.nidx.get(fault.net)
        if site is None:
            return None
        p = _Problem()
        p.site = site
        p.stuck = stuck = encode(fault.value)
        p.stem = stem = fault.sink is None
        p.branch_observed = not stem and (
            (fault.net, fault.sink) in self.observable_sinks
            or fault.sink[0] == PORT
        )
        p.branch_pos = p.branch_k = -1
        p.forced = None
        if not stem and not p.branch_observed:
            inst, pin = fault.sink
            for pos in self._readers[site]:
                names = self._pin_names[pos]
                if self.nodes[pos].inst.name == inst and pin in names:
                    k = names.index(pin)
                    if self._pins[pos][k] == site:
                        p.branch_pos, p.branch_k = pos, k
                        break
            if p.branch_pos < 0:
                return None
            p.forced = self._forced_fn(p.branch_pos, p.branch_k, stuck)

        region = self._region(site)
        p.forward = tuple(region.forward)
        p.observed = tuple(region.observed)
        p.mode = mode = bytearray(len(self.nodes))
        for pos in region.order:
            mode[pos] = _IN
        if p.branch_pos >= 0:
            mode[p.branch_pos] = _BRANCH
        if stem and self._driver[site] >= 0:
            mode[self._driver[site]] = _STEM

        v = bytearray(self._template)
        if fixed:
            for net, value in fixed.items():
                idx = self.nidx.get(net)
                if idx is None:
                    continue
                v[idx] = PAIR_ONE if value else PAIR_ZERO
        if stem:
            # The faulty machine sees the stuck value regardless of what
            # (if anything) the good machine drives there.
            v[site] = v[site] & 3 | stuck << 2
        # Base implication over the whole region (constants resolve).
        node_out, fns, forced = self._out, self._fn, p.forced
        for pos in region.order:
            m = mode[pos]
            if m == _IN:
                code = fns[pos](v)
            elif m == _BRANCH:
                code = forced(v)
            else:
                code = fns[pos](v) & 3 | stuck << 2
            v[node_out[pos]] = code
        p.values = v
        return p

    def _search(self, p: _Problem, backtrack_budget: int) -> TestCube:
        """One PODEM search with the current heuristic mode.

        Implication is incremental: assignments propagate event-driven
        through the fault region, every value change is recorded on a
        trail, and backtracking unwinds the trail to the decision's
        mark (DPLL-style), so each decision costs only its own cone
        instead of a full region recompute.
        """
        v = bytearray(p.values)
        site, stuck, stem = p.site, p.stuck, p.stem
        stuck_f = stuck << 2
        mode, forced = p.mode, p.forced
        node_out, fns, readers = self._out, self._fn, self._readers
        keys, pos_mask = self._key, self._pos_mask
        heappush, heappop = heapq.heappush, heapq.heappop
        queued = bytearray(len(fns))
        # Trail entry: ``net << 4 | old pair code``.
        trail: List[int] = []

        def propagate(start: int) -> None:
            heap = []
            for pos in readers[start]:
                if mode[pos]:
                    heap.append(keys[pos])
                    queued[pos] = 1
            heapq.heapify(heap)
            while heap:
                pos = heappop(heap) & pos_mask
                queued[pos] = 0
                m = mode[pos]
                if m == _IN:
                    code = fns[pos](v)
                elif m == _BRANCH:
                    code = forced(v)
                else:
                    code = fns[pos](v) & 3 | stuck_f
                out = node_out[pos]
                old = v[out]
                if code == old:
                    continue
                trail.append(out << 4 | old)
                v[out] = code
                for reader in readers[out]:
                    if mode[reader] and not queued[reader]:
                        heappush(heap, keys[reader])
                        queued[reader] = 1

        def assign(idx: int, value: int) -> None:
            enc = ONE if value else ZERO
            trail.append(idx << 4 | v[idx])
            v[idx] = enc | (stuck_f if (stem and idx == site) else enc << 2)
            propagate(idx)

        def undo_to(mark: int) -> None:
            for entry in reversed(trail[mark:]):
                v[entry >> 4] = entry & 15
            del trail[mark:]

        activate = site, (0 if stuck == ONE else 1)
        observed, is_d = p.observed, _IS_D
        # Decisions: [net_idx, value, flipped, trail_mark].
        decisions: List[List[int]] = []
        backtracks = 0

        while True:
            # Classify the state; the D-frontier is computed once.
            site_g = v[site] & 3
            target: Optional[Tuple[int, int]] = None
            if site_g == stuck:
                conflict = True  # activation impossible on this path
            else:
                if (site_g != X and p.branch_observed) or any(
                        is_d[v[idx]] for idx in observed):
                    return TestCube(
                        status="detected",
                        assignment={
                            self.names[d[0]]: d[1] for d in decisions
                        },
                        backtracks=backtracks,
                    )
                if site_g == X:
                    objective = activate  # keep justifying activation
                else:
                    frontier = self._d_frontier(p, v)
                    objective = (
                        self._objective(p, frontier, v)
                        if frontier and self._x_path(frontier, v)
                        else None
                    )
                if objective is not None:
                    target = self._backtrace(objective[0], objective[1], v)
                conflict = target is None
            if conflict:
                while decisions and decisions[-1][2]:
                    undo_to(decisions.pop()[3])
                if not decisions:
                    return TestCube(
                        status="redundant",
                        assignment={},
                        backtracks=backtracks,
                    )
                backtracks += 1
                if backtracks > backtrack_budget:
                    return TestCube(
                        status="aborted",
                        assignment={},
                        backtracks=backtracks,
                    )
                last = decisions[-1]
                undo_to(last[3])
                last[1] ^= 1
                last[2] = 1
                assign(last[0], last[1])
                continue
            idx, value = target
            decisions.append([idx, value, 0, len(trail)])
            assign(idx, value)

    # ------------------------------------------------------------------
    # D-frontier
    # ------------------------------------------------------------------
    def _d_frontier(self, p: _Problem, v: bytearray) -> List[int]:
        """Forward-cone nodes with a D input and an undetermined output.

        A D (good and faulty values known and different) lives only in
        the forward cone.  For branch faults the D lives on the faulted
        *pin* rather than on any net, so the faulted node itself joins
        the frontier (the fault is activated whenever this runs) as
        long as its output is unresolved.
        """
        frontier = []
        node_out, pins, branch_pos = self._out, self._pins, p.branch_pos
        resolved, is_d = _RESOLVED, _IS_D
        for pos in p.forward:
            if resolved[v[node_out[pos]]]:
                continue
            if pos == branch_pos:
                frontier.append(pos)
                continue
            for idx in pins[pos]:
                if is_d[v[idx]]:
                    frontier.append(pos)
                    break
        return frontier

    def _x_path(self, frontier: List[int], v: bytearray) -> bool:
        """True when some frontier node reaches an observable via X nets."""
        node_out, readers, is_obs = self._out, self._readers, self._is_obs
        seen = set()
        stack = [node_out[pos] for pos in frontier]
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            code = v[idx]
            if code == PAIR_ONE or code == PAIR_ZERO:
                continue  # blocked: resolved identically in both machines
            if is_obs[idx]:
                return True
            for pos in readers[idx]:
                out = node_out[pos]
                if out not in seen:
                    stack.append(out)
        return False

    # ------------------------------------------------------------------
    # Objective selection
    # ------------------------------------------------------------------
    def _objective(self, p: _Problem, frontier: List[int],
                   v: bytearray) -> Optional[Tuple[int, int]]:
        """Pick the next (net index, value) goal from the D-frontier."""
        frontier.sort(key=self._co.__getitem__)
        if self._rand_active and len(frontier) > 1:
            self._rng.shuffle(frontier)
        for pos in frontier:
            obj = self._propagation_objective(p, pos, v)
            if obj is not None:
                return obj
        return None

    def _propagation_objective(self, p: _Problem, pos: int,
                               v: bytearray) -> Optional[Tuple[int, int]]:
        """Choose an X side-input value that un-blocks propagation.

        For the branch-faulted node, the faulty machine is evaluated
        with the faulted pin forced to the stuck value.
        """
        fn, skip = self._fn[pos], -1
        if pos == p.branch_pos:
            fn, skip = p.forced, p.branch_k
        is_const = self._is_const
        x_nets = [
            idx for k, idx in enumerate(self._pins[pos])
            if v[idx] & 3 == X and not is_const[idx] and k != skip
        ]
        if not x_nets:
            return None
        # Look ahead: does assigning an X net 1 or 0 turn the output
        # into a D?
        is_d = _IS_D
        for idx in x_nets:
            old = v[idx]
            for code in (PAIR_ONE, PAIR_ZERO):
                v[idx] = code
                if is_d[fn(v)]:
                    v[idx] = old
                    return idx, 1 if code == PAIR_ONE else 0
            v[idx] = old
        # Fallback: drive the easiest X input to its easier value.
        idx = min(x_nets, key=self._cc_min.__getitem__)
        return idx, self._easier[idx]

    # ------------------------------------------------------------------
    # Backtrace
    # ------------------------------------------------------------------
    def _backtrace(self, idx: int, value: int,
                   v: bytearray) -> Optional[Tuple[int, int]]:
        """Walk an objective back to an unassigned input net.

        Backtrace reads the good machine only: bits 0-1 of each code.
        """
        is_input, driver, bt = self._is_input, self._driver, self._bt
        for _ in range(100000):
            if is_input[idx]:
                if v[idx] & 3 != X:
                    return None  # already assigned: cannot justify
                return idx, value
            pos = driver[idx]
            if pos < 0:
                return None  # constant or unreachable net
            entry = bt[pos]
            kind = entry[0]
            if kind == _BT_EXPR:
                step = self._backtrace_expr(entry[1], value, entry[2], v)
                if step is None:
                    return None
                pin, value = step
                idx = entry[2][pin]
                continue
            value ^= entry[1]
            if kind == _BT_WIRE:
                idx = entry[2]
            elif kind == _BT_GATE:
                # A non-controlled output needs every input at
                # ``value``: take the hardest X input first.  A
                # controlled one needs one input at ``value``: take the
                # easiest.
                xs = [a for a in entry[3] if v[a] & 3 == X]
                if not xs:
                    return None
                if self._rand_active and len(xs) > 1:
                    idx = self._rng.choice(xs)
                else:
                    cost = (self._cc1 if value else self._cc0).__getitem__
                    idx = (max(xs, key=cost) if value != entry[2]
                           else min(xs, key=cost))
            elif kind == _BT_XOR:
                a, b = v[entry[2]] & 3, v[entry[3]] & 3
                if a == X:
                    idx = entry[2]
                    if b != X:
                        value ^= decode(b)
                elif b == X:
                    idx = entry[3]
                    value ^= decode(a)
                else:
                    return None
            else:  # _BT_MUX
                sel, a, b = (v[entry[2]] & 3, v[entry[3]] & 3,
                             v[entry[4]] & 3)
                if sel != X:
                    idx = entry[4] if sel == ONE else entry[3]
                else:
                    want = ONE if value else ZERO
                    if a == want:
                        idx, value = entry[2], 0
                    elif b == want:
                        idx, value = entry[2], 1
                    elif a == X:
                        idx = entry[3]
                    else:
                        idx, value = entry[2], 1
        raise RuntimeError("backtrace did not terminate")

    def _backtrace_expr(
        self,
        expr: LogicExpr,
        value: int,
        pin_index: Dict[str, int],
        v: bytearray,
    ) -> Optional[Tuple[str, int]]:
        """Choose an X pin and target value justifying ``value``.

        The tree walk behind compound cells (AOI/OAI), whose operators
        nest; every other node backtraces through its table entry.
        """

        def pin_val(pin: str) -> int:
            return v[pin_index[pin]] & 3

        def is_x(e: LogicExpr) -> bool:
            if isinstance(e, Var):
                return pin_val(e.pin) == X
            if isinstance(e, Const):
                return False
            if isinstance(e, Not):
                return is_x(e.arg)
            if isinstance(e, (And, Or)):
                return any(is_x(a) for a in e.args)
            if isinstance(e, Xor):
                return is_x(e.a) or is_x(e.b)
            if isinstance(e, Mux):
                return is_x(e.sel) or is_x(e.a) or is_x(e.b)
            raise TypeError(type(e).__name__)

        def cc(e: LogicExpr, v: int) -> float:
            if isinstance(e, Var):
                return (self._cc1 if v else self._cc0)[pin_index[e.pin]]
            return 1.0  # internal operators: flat cost

        def value_of(e: LogicExpr) -> int:
            return eval3_encoded(
                e, {p: pin_val(p) for p in e.support()}
            )

        if isinstance(expr, Var):
            return expr.pin, value
        if isinstance(expr, Const):
            return None
        if isinstance(expr, Not):
            return self._backtrace_expr(expr.arg, 1 - value, pin_index, v)
        if isinstance(expr, (And, Or)):
            is_and = isinstance(expr, And)
            controlling = 0 if is_and else 1
            xs = [a for a in expr.args if is_x(a)]
            if not xs:
                return None
            randomize = self._rand_active and len(xs) > 1
            if value == (1 if is_and else 0):
                child = (
                    self._rng.choice(xs)
                    if randomize
                    else max(xs, key=lambda a: cc(a, 1 - controlling))
                )
                return self._backtrace_expr(
                    child, 1 - controlling, pin_index, v
                )
            child = (
                self._rng.choice(xs)
                if randomize
                else min(xs, key=lambda a: cc(a, controlling))
            )
            return self._backtrace_expr(child, controlling, pin_index, v)
        if isinstance(expr, Xor):
            a_x, b_x = is_x(expr.a), is_x(expr.b)
            a_val = decode(value_of(expr.a))
            b_val = decode(value_of(expr.b))
            if a_x and b_val is not None:
                return self._backtrace_expr(
                    expr.a, value ^ b_val, pin_index, v
                )
            if b_x and a_val is not None:
                return self._backtrace_expr(
                    expr.b, value ^ a_val, pin_index, v
                )
            if a_x:
                return self._backtrace_expr(expr.a, value, pin_index, v)
            if b_x:
                return self._backtrace_expr(expr.b, value, pin_index, v)
            return None
        if isinstance(expr, Mux):
            s_val = decode(value_of(expr.sel))
            if s_val is not None:
                branch = expr.b if s_val else expr.a
                return self._backtrace_expr(branch, value, pin_index, v)
            a_val = decode(value_of(expr.a))
            b_val = decode(value_of(expr.b))
            if a_val == value and is_x(expr.sel):
                return self._backtrace_expr(expr.sel, 0, pin_index, v)
            if b_val == value and is_x(expr.sel):
                return self._backtrace_expr(expr.sel, 1, pin_index, v)
            if is_x(expr.a):
                return self._backtrace_expr(expr.a, value, pin_index, v)
            if is_x(expr.sel):
                return self._backtrace_expr(expr.sel, 1, pin_index, v)
            if is_x(expr.b):
                return self._backtrace_expr(expr.b, value, pin_index, v)
            return None
        raise TypeError(f"unsupported expression node {type(expr).__name__}")
