"""The complete tool flow of the paper's Figure 2.

Steps, in order:

1. **TPI & scan insertion** — TSFFs inserted by testability analysis,
   then full-scan substitution and balanced chain stitching.
2. **Floorplanning & placement** — square core at the target row
   utilisation, analytic global placement, row legalisation.
3. **Layout-driven scan-chain reordering** — chains restitched to the
   placement (with scan-enable buffering); ATPG runs on this updated
   netlist.
4. **ECO** — reorder/CTS buffers placed into the existing layout,
   clock trees synthesised, filler cells inserted, routing.
5. **Layout extraction** — RC per net.
6. **Static timing analysis** — worst-case PVT, test-mode false paths
   blocked.

Area-only optimisation throughout: no timing-driven placement, sizing
or buffering of data paths (paper Section 4.1).
"""

from __future__ import annotations

import dataclasses
import difflib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro import chaos, obs
from repro.atpg.engine import AtpgConfig, AtpgResult, run_atpg
from repro.core.metrics import TestDataMetrics
from repro.obs.tracer import Trace
from repro.extraction.rc import NetParasitics, extract_all, extract_incremental
from repro.layout.cts import ClockTree, synthesize_all_clock_trees
from repro.layout.filler import FillerReport, insert_fillers
from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.placement import Placement
from repro.layout.routing import CongestionReport, GlobalRouter, RoutedNet
from repro.layout.sa import PLACERS, placement_seed
from repro.library.cell import Library
from repro.lint.core import LintReport
from repro.lint.netlist_rules import lint_netlist
from repro.netlist.circuit import Circuit
from repro.netlist.fanout import DrcReport, fix_electrical
from repro.netlist.validate import validate
from repro.scan.insertion import ScanChains, insert_scan
from repro.scan.reorder import ReorderReport, reorder_chains
from repro.sta.analysis import (
    StaConfig,
    StaResult,
    StaState,
    run_sta,
    run_sta_incremental,
    run_sta_with_state,
)
from repro.tpi.insertion import TpiConfig, TpiReport, insert_test_points

#: Stable contract: the keys of :attr:`FlowResult.stage_seconds`, in
#: execution order.  A full run records exactly these; skipping the
#: layout phase drops the five middle keys, skipping the ATPG phase
#: drops ``"atpg"``.  Dashboards, benches and the executor's cache
#: summaries key on these names — treat renames as breaking changes.
STAGE_KEYS = (
    "tpi_scan",
    "floorplan_place",
    "scan_reorder",
    "eco_cts_route",
    "extraction",
    "sta",
    "atpg",
)

#: Stage keys recorded only when ``run_layout_phase`` is on.
LAYOUT_STAGE_KEYS = (
    "floorplan_place",
    "scan_reorder",
    "eco_cts_route",
    "extraction",
    "sta",
)


def _reject_unknown_keys(given: Mapping[str, Any], known: List[str],
                         what: str) -> None:
    """Raise a did-you-mean ValueError for keys outside ``known``."""
    for key in given:
        if key in known:
            continue
        close = difflib.get_close_matches(key, known, n=1)
        hint = f" — did you mean {close[0]!r}?" if close else ""
        raise ValueError(f"unknown {what} key {key!r}{hint}")


def _coerce_config_kwargs(data: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and coerce plain-data kwargs for :class:`FlowConfig`."""
    known = [f.name for f in dataclasses.fields(FlowConfig)]
    _reject_unknown_keys(data, known, "FlowConfig")
    for key, sub_cls in (("atpg", AtpgConfig), ("sta", StaConfig)):
        value = data.get(key)
        if isinstance(value, Mapping):
            sub_known = [f.name for f in dataclasses.fields(sub_cls)]
            _reject_unknown_keys(value, sub_known, sub_cls.__name__)
            data[key] = sub_cls(**value)
    if "exclude_nets" in data and data["exclude_nets"] is not None:
        data["exclude_nets"] = frozenset(data["exclude_nets"])
    return data


@dataclass
class FlowConfig:
    """Configuration of one flow run.

    Attributes:
        tp_percent: Test points as a percentage of the (pre-TPI)
            flip-flop count — the paper's sweep variable.
        target_utilization: Row utilisation (0.97 or 0.50 in the paper).
        max_chain_length: Balanced chain cap (s38417/circuit 1: 100).
        n_chains: Fixed chain count (p26909: 32); exclusive with
            ``max_chain_length``.
        atpg: ATPG configuration.
        sta: STA configuration.
        exclude_nets: Timing-aware TPI exclusion set (Section 5).
            Stored as a ``frozenset`` (any iterable is accepted and
            normalised), so a ``FlowConfig`` shared between runs can
            never leak per-run mutations; the flow hands TPI a fresh
            mutable copy each call.
        run_atpg_phase: Generate patterns (Table 1 needs it; Tables 2-3
            do not).
        run_layout_phase: Run placement/route/extraction/STA.
        lint: Run the full netlist/DFT lint pack as flow gates: once
            after DFT insertion (stage 0), once before routing, and —
            scoped to the dirty set — after every hold-fix ECO round.
            Widens the structural audit that always runs between
            steps (:func:`repro.netlist.validate.validate`) with
            combinational-loop, scan-chain and clock-domain audits;
            any error aborts the run with
            :class:`repro.lint.LintError`.  Reports land in
            :attr:`FlowResult.lint_reports`.
        fix_holds: Repair hold violations with delay-buffer ECOs and
            re-analyse (the paper "verified that no hold ... violations
            occur"); up to ``hold_fix_iterations`` rounds.
        hold_fix_iterations: Maximum hold-fix ECO rounds.
        incremental_eco: Use the scoped re-route / re-extract / re-STA
            engine inside the hold-fix loop (the default).  Off, every
            round recomputes the whole design from scratch — the
            equivalence escape hatch behind the CLI's
            ``--no-incremental``.
        detailed_passes: Detailed-placement refinement sweeps run after
            legalisation (adjacent-swap wirelength cleanup).
        placer: Placement engine, a key of ``repro.layout.PLACERS``:
            ``"quadratic"`` (the default analytic engine) or ``"sa"``
            (quadratic + simulated-annealing detailed placement).
            Unknown names are rejected at construction with a
            did-you-mean hint.

    Construct with keyword arguments, :meth:`from_dict`, or
    :meth:`replace` — positional construction is deprecated: the field
    order is not part of the API contract and changes between
    releases.
    """

    tp_percent: float = 0.0
    target_utilization: float = 0.97
    max_chain_length: Optional[int] = 100
    n_chains: Optional[int] = None
    atpg: AtpgConfig = field(default_factory=AtpgConfig)
    sta: StaConfig = field(default_factory=StaConfig)
    exclude_nets: frozenset = frozenset()
    run_atpg_phase: bool = True
    run_layout_phase: bool = True
    lint: bool = False
    fix_holds: bool = True
    hold_fix_iterations: int = 3
    incremental_eco: bool = True
    #: Detailed-placement refinement sweeps after legalisation.
    detailed_passes: int = 2
    #: Placement engine (a ``repro.layout.PLACERS`` key).
    placer: str = "quadratic"

    def __post_init__(self):
        # Normalise any iterable (list, set, generator) to a frozenset:
        # configs must be immutable, hashable and fingerprintable.
        if not isinstance(self.exclude_nets, frozenset):
            self.exclude_nets = frozenset(self.exclude_nets)
        _reject_unknown_keys([self.placer], sorted(PLACERS), "placer")

    # -- plain-data interchange -----------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-data form; inverse of :meth:`from_dict`."""
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            elif isinstance(value, frozenset):
                value = sorted(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowConfig":
        """Build a config from plain data (e.g. parsed JSON/YAML).

        Nested ``atpg``/``sta`` entries may be dicts or the config
        objects themselves.

        Raises:
            ValueError: An unknown key was given (with a did-you-mean
                suggestion when one is close).
        """
        return cls(**_coerce_config_kwargs(dict(data)))

    def replace(self, **changes: Any) -> "FlowConfig":
        """A copy with ``changes`` applied; chainable.

        ``config.replace(tp_percent=5.0).replace(fix_holds=False)``
        builds run variants without mutating the original.  Accepts
        the same keys (and nested dicts) as :meth:`from_dict`.

        Raises:
            ValueError: An unknown key was given.
        """
        return dataclasses.replace(self, **_coerce_config_kwargs(changes))


@dataclass(frozen=True)
class HoldFixRound:
    """Census of one hold-fix ECO round.

    Attributes:
        round: 1-based round number within the STA stage.
        violations_before: Hold-violating endpoints entering the round.
        buffers_inserted: Delay buffers the round placed (0 means the
            whitespace budget was exhausted and the loop stopped).
        budget: Buffer budget the round started with (row whitespace
            divided by the delay buffer's width).
        budget_left: Budget remaining after the round's insertions.
    """

    round: int
    violations_before: int
    buffers_inserted: int
    budget: int
    budget_left: int


@dataclass
class FlowResult:
    """Everything a flow run produces.

    The Table 1/2/3 quantities are available through
    :meth:`test_metrics`, :meth:`area_metrics` and the :attr:`sta`
    result; benches diff them against the 0% run.

    :attr:`stage_seconds` maps stage name to wall-clock seconds; its
    keys are the documented :data:`STAGE_KEYS` contract (in that
    order), with the layout keys present only when the layout phase
    ran and ``"atpg"`` only when the ATPG phase ran.

    :attr:`hold_fix_rounds` records one :class:`HoldFixRound` per
    hold-fix ECO iteration (empty when no violations occurred or
    ``fix_holds`` was off).  :attr:`trace` carries the run's span tree
    when a tracer was active (see :mod:`repro.obs`), else None; the
    trace's top-level spans are exactly the recorded
    :data:`STAGE_KEYS` subset.
    """

    circuit: Circuit
    config: FlowConfig
    n_test_points: int = 0
    tpi: Optional[TpiReport] = None
    chains: Optional[ScanChains] = None
    atpg: Optional[AtpgResult] = None
    drc: Optional[DrcReport] = None
    plan: Optional[Floorplan] = None
    placement: Optional[Placement] = None
    reorder: Optional[ReorderReport] = None
    clock_trees: List[ClockTree] = field(default_factory=list)
    filler: Optional[FillerReport] = None
    congestion: Optional[CongestionReport] = None
    routed: Dict[str, RoutedNet] = field(default_factory=dict)
    parasitics: Dict[str, NetParasitics] = field(default_factory=dict)
    sta: Optional[StaResult] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    hold_fix_rounds: List[HoldFixRound] = field(default_factory=list)
    #: Lint-gate reports by stage (``"stage0"``, ``"pre_route"``,
    #: ``"eco_round_<n>"``); populated only when ``config.lint`` is on.
    lint_reports: Dict[str, LintReport] = field(default_factory=dict)
    trace: Optional[Trace] = None

    # -- Table 1 --------------------------------------------------------
    def test_metrics(self) -> TestDataMetrics:
        """The paper's Table 1 row for this run."""
        if self.atpg is None or self.chains is None:
            raise ValueError("flow ran without the ATPG phase")
        return TestDataMetrics(
            n_test_points=self.n_test_points,
            n_flip_flops=self.circuit.num_flip_flops,
            n_chains=self.chains.n_chains,
            l_max=self.chains.max_length,
            n_faults=self.atpg.fault_list.total,
            fault_coverage=self.atpg.fault_coverage,
            fault_efficiency=self.atpg.fault_efficiency,
            n_patterns=self.atpg.n_patterns,
        )

    # -- Table 2 --------------------------------------------------------
    def area_metrics(self) -> Dict[str, float]:
        """The paper's Table 2 row for this run."""
        if self.plan is None or self.congestion is None:
            raise ValueError("flow ran without the layout phase")
        logic_cells = sum(
            1 for inst in self.circuit.instances.values()
            if not inst.cell.is_filler
        )
        return {
            "n_cells": self.circuit.num_cells,
            "n_cells_logic": logic_cells,
            "n_rows": self.plan.n_rows,
            "row_length_um": self.plan.total_row_length_um,
            "core_area_um2": self.plan.core_area_um2,
            "filler_fraction": (
                self.filler.filler_fraction if self.filler else 0.0
            ),
            "chip_area_um2": self.plan.chip_area_um2,
            "wirelength_um": self.congestion.total_wirelength_um,
        }


def _lint_gate(circuit: Circuit, config: FlowConfig, result: FlowResult,
               stage: str, nets=None) -> None:
    """Run the netlist/DFT pack as a flow gate; abort on errors.

    ``nets`` scopes the audit to a dirty set (ECO rounds); the full
    design is checked when it is None.  The report is kept in
    ``result.lint_reports[stage]`` either way, so warnings stay
    inspectable even on clean runs.
    """
    report = lint_netlist(
        circuit,
        chains=result.chains,
        max_chain_length=config.max_chain_length,
        n_chains=config.n_chains,
        nets=nets,
    )
    result.lint_reports[stage] = report
    report.raise_on_error(context=f"lint gate {stage!r}")


def prepare_dft(circuit: Circuit, library: Library,
                config: FlowConfig) -> FlowResult:
    """Flow step 1 on ``circuit`` (modified in place): TPI at
    ``config.tp_percent`` of the flip-flops, scan insertion and the
    electrical fix-up.

    Returns a :class:`FlowResult` with the DFT fields filled in.
    :func:`repro.api.lint_netlist` audits its netlist, which is the
    one the stage-0 lint gate sees.
    """
    result = FlowResult(circuit=circuit, config=config)
    n_tp = round(config.tp_percent / 100.0 * circuit.num_flip_flops)
    result.n_test_points = n_tp
    if n_tp > 0:
        result.tpi = insert_test_points(circuit, library, TpiConfig(
            n_test_points=n_tp,
            exclude_nets=set(config.exclude_nets),
        ))
    result.chains = insert_scan(
        circuit, library,
        max_chain_length=config.max_chain_length,
        n_chains=config.n_chains,
    )
    # Synthesis-style electrical DRC: bound fanout (TSFF outputs and
    # the TE/TR control nets in particular), size overloaded drivers.
    result.drc = fix_electrical(circuit, library)
    return result


def run_flow(circuit: Circuit, library: Library,
             config: Optional[FlowConfig] = None) -> FlowResult:
    """Run the Figure 2 flow on ``circuit`` (modified in place).

    Args:
        circuit: Pre-DFT netlist (plain DFFs).  Pass a clone when the
            original must survive.
        library: Standard-cell library.
        config: Flow configuration.

    Returns:
        The populated :class:`FlowResult`.
    """
    config = config or FlowConfig()
    clock = time.perf_counter
    tracer = obs.get_tracer()
    trace_mark = tracer.mark()

    # -- Step 1: TPI & scan insertion -----------------------------------
    t0 = clock()
    with obs.span("tpi_scan") as sp:
        chaos.checkpoint("tpi_scan")
        result = prepare_dft(circuit, library, config)
        sp.gauge("test_points", result.n_test_points)
        sp.gauge("scan_chains", result.chains.n_chains)
    result.stage_seconds["tpi_scan"] = clock() - t0
    validate(circuit).raise_on_error()
    if config.lint:
        # Stage-0 gate: the freshly DFT-prepared netlist must pass the
        # full pack (loops, chain continuity/balance, clock domains)
        # before any layout effort is spent on it.
        _lint_gate(circuit, config, result, "stage0")

    if config.run_layout_phase:
        _layout_phase(circuit, library, config, result)

    # -- ATPG (on the reordered netlist, as in the paper) ----------------
    if config.run_atpg_phase:
        t0 = clock()
        with obs.span("atpg") as sp:
            chaos.checkpoint("atpg")
            result.atpg = run_atpg(circuit, config=config.atpg)
            sp.counter("patterns", result.atpg.n_patterns)
            sp.counter("aborted_faults", result.atpg.aborted)
            sp.counter("redundant_faults", result.atpg.redundant)
        result.stage_seconds["atpg"] = clock() - t0
    result.trace = tracer.capture(trace_mark)
    return result


def _layout_phase(circuit: Circuit, library: Library,
                  config: FlowConfig, result: FlowResult) -> None:
    """Steps 2-6 of the flow."""
    clock = time.perf_counter

    # -- Step 2: floorplanning & placement -------------------------------
    t0 = clock()
    with obs.span("floorplan_place") as sp:
        chaos.checkpoint("floorplan_place")
        # Reserve whitespace for the cells later ECO steps insert: clock
        # buffers (about 1.5x the leaf-cluster count) plus a hold/scan
        # buffer allowance.  Without the reserve, a 97%-utilisation
        # floorplan cannot absorb the clock tree.
        clock_buffer = library.clock_buffers()[-1]
        small_buffer = library.family("BUF")[0]
        n_ff = circuit.num_flip_flops
        est_clock_buffers = 4 + int(1.6 * (n_ff / 18 + 1))
        reserve = (
            est_clock_buffers * clock_buffer.area_um2
            + 40 * small_buffer.area_um2
        )
        plan = build_floorplan(circuit, config.target_utilization,
                               reserve_area_um2=reserve)
        # The configured engine owns global place, detailed refinement
        # and every later ECO insertion.  The seed is derived from the
        # netlist's structural content plus the engine name, so SA
        # replays identically in-process, across workers and across
        # machines.
        placer = PLACERS[config.placer]()
        placement = placer.place(circuit, plan)
        placer.refine(circuit, placement, passes=config.detailed_passes,
                      seed=placement_seed(circuit, config.placer))
        result.plan = plan
        result.placement = placement
        sp.gauge("rows", plan.n_rows)
        sp.gauge("cells_placed", len(placement.positions))
    result.stage_seconds["floorplan_place"] = clock() - t0

    # -- Step 3: layout-driven scan-chain reordering ----------------------
    t0 = clock()
    with obs.span("scan_reorder") as sp:
        chaos.checkpoint("scan_reorder")
        chains = result.chains
        assert chains is not None
        ff_positions = {
            name: placement.positions[name]
            for chain in chains.chains
            for name in chain
        }
        scan_in_positions = {
            i: plan.pad_positions.get(port, plan.core.center)
            for i, port in enumerate(chains.scan_in_ports)
        }
        before_buffers = set(circuit.instances)
        result.reorder = reorder_chains(
            circuit, chains, ff_positions, scan_in_positions, library
        )
        te_buffers = [n for n in circuit.instances
                      if n not in before_buffers]
        sp.counter("te_buffers", len(te_buffers))
    result.stage_seconds["scan_reorder"] = clock() - t0

    # -- Step 4: ECO, clock trees, fillers, routing -----------------------
    t0 = clock()
    with obs.span("eco_cts_route") as sp:
        chaos.checkpoint("eco_cts_route")
        if te_buffers:
            placer.eco_place(circuit, placement, te_buffers)
        trees = synthesize_all_clock_trees(
            circuit, library, dict(placement.positions)
        )
        result.clock_trees = trees
        hints = {}
        new_buffers = []
        for tree in trees:
            hints.update(tree.buffer_positions)
            new_buffers.extend(tree.buffers)
        if new_buffers:
            placer.eco_place(circuit, placement, new_buffers, hints=hints)
        sp.counter("clock_buffers", len(new_buffers))
        validate(circuit).raise_on_error()
        if config.lint:
            # Pre-route gate: last full-pack audit before routing, so a
            # netlist corrupted by the ECO / CTS edits above is caught
            # before the (expensive) route + extraction + STA chain.
            _lint_gate(circuit, config, result, "pre_route")
        router = GlobalRouter(circuit, placement)
        result.congestion = router.route_all()
        result.routed = router.routed
    result.stage_seconds["eco_cts_route"] = clock() - t0

    # -- Step 5: extraction ----------------------------------------------
    t0 = clock()
    with obs.span("extraction") as sp:
        chaos.checkpoint("extraction")
        result.parasitics = extract_all(circuit, placement, result.routed)
        sp.counter("nets_extracted", len(result.parasitics))
    result.stage_seconds["extraction"] = clock() - t0

    # -- Step 6: STA (with hold-fix ECO loop) ------------------------------
    t0 = clock()
    with obs.span("sta") as sta_span:
        chaos.checkpoint("sta")
        sta_state: Optional[StaState] = None
        if config.incremental_eco:
            result.sta, sta_state = run_sta_with_state(
                circuit, result.parasitics, config.sta
            )
        else:
            result.sta = run_sta(circuit, result.parasitics, config.sta)
        # Everything dirtied while *building* the layout is already
        # reflected in the full route/extract/STA above; from here the
        # tracker censuses only the hold-fix edits.
        circuit.reset_dirty()
        rounds = config.hold_fix_iterations if config.fix_holds else 0
        for round_no in range(1, rounds + 1):
            if not result.sta.hold_slacks:
                break
            with obs.span("hold_fix_round") as sp:
                fix = _fix_hold_violations(circuit, library, placement,
                                           result.sta, placer,
                                           round_no=round_no)
                result.hold_fix_rounds.append(fix)
                sp.gauge("round", fix.round)
                sp.gauge("violations_before", fix.violations_before)
                sp.gauge("buffers_inserted", fix.buffers_inserted)
                sp.gauge("budget_left", fix.budget_left)
                if fix.buffers_inserted == 0:
                    # Out of whitespace: remaining violations reported.
                    break
                if sta_state is not None:
                    # Scoped ECO update: rip up / re-route / re-extract
                    # / re-propagate only what the round touched.
                    dirty_nets, dirty_insts = circuit.reset_dirty()
                    if config.lint:
                        # Cheap dirty-set re-lint: audit only the nets
                        # this round touched before re-routing them.
                        _lint_gate(circuit, config, result,
                                   f"eco_round_{round_no}",
                                   nets=dirty_nets)
                    result.congestion = router.reroute(dirty_nets)
                    result.routed = router.routed
                    result.parasitics = extract_incremental(
                        circuit, placement, result.routed,
                        result.parasitics, dirty_nets,
                    )
                    result.sta, sta_state = run_sta_incremental(
                        circuit, result.parasitics, sta_state,
                        dirty_nets, dirty_insts, config.sta,
                    )
                    sp.counter("route.rerouted_nets", len(dirty_nets))
                    sp.gauge("sta_incr.cone_size", sta_state.cone_size)
                    sp.gauge("sta_incr.endpoints_rechecked",
                             sta_state.endpoints_rechecked)
                else:
                    dirty_nets, _ = circuit.reset_dirty()
                    if config.lint:
                        _lint_gate(circuit, config, result,
                                   f"eco_round_{round_no}",
                                   nets=dirty_nets)
                    router = GlobalRouter(circuit, placement)
                    result.congestion = router.route_all()
                    result.routed = router.routed
                    result.parasitics = extract_all(circuit, placement,
                                                    result.routed)
                    result.sta = run_sta(circuit, result.parasitics,
                                         config.sta)
        sta_span.counter(
            "hold_buffers_inserted",
            sum(r.buffers_inserted for r in result.hold_fix_rounds),
        )
        sta_span.gauge("hold_violations_left", result.sta.hold_violations)
    result.stage_seconds["sta"] = clock() - t0

    # Fillers last: the hold-fix ECO needs the row gaps the fillers
    # would otherwise occupy.  Fillers have no pins, so routing and
    # timing are unaffected; only the area census reads them.
    result.filler = insert_fillers(circuit, placement, library)
    validate(circuit).raise_on_error()


def _fix_hold_violations(circuit: Circuit, library: Library,
                         placement, sta: StaResult, placer,
                         round_no: int = 1) -> HoldFixRound:
    """Insert delay buffers in front of hold-violating data pins.

    The smallest buffer is chained on the endpoint's D net (moving only
    that sink) until the measured negative slack is covered; the
    inserted cells are ECO-placed near the endpoint.  Returns the
    round's :class:`HoldFixRound` census; ``buffers_inserted == 0``
    means the whitespace budget was spent.
    """
    delay_buffer = library.family("BUF")[0]
    min_delay_ps = delay_buffer.arcs[0].delay.lookup(20.0, 4.0).value
    # Buffer budget: only as many as the remaining row whitespace can
    # legally hold (at 97% utilisation there is little slack to spend).
    occupancy = placement.row_occupancy_sites(circuit)
    free_sites = sum(
        row.n_sites - used
        for row, used in zip(placement.plan.rows, occupancy)
    )
    budget = max(0, free_sites // delay_buffer.width_sites - 1)
    new_cells = []
    ordered = sorted(sta.hold_slacks.items(), key=lambda kv: kv[1])
    for endpoint, slack in ordered:
        inst = circuit.instances.get(endpoint)
        if inst is None or inst.cell.sequential is None:
            continue
        seq = inst.cell.sequential
        d_net = inst.conns.get(seq.data_pin)
        if d_net is None:
            continue
        # Clamp against the budget *remaining*, never letting the bound
        # go negative: an earlier endpoint spending the whole budget
        # must stop the loop, not fold a negative cap into min().
        remaining = budget - len(new_cells)
        if remaining <= 0:
            break  # out of whitespace; remaining violations stay
        n_buffers = max(1, int(-slack / max(1.0, min_delay_ps)) + 1)
        n_buffers = min(n_buffers, 6, remaining)
        source = d_net
        for _ in range(n_buffers):
            new_net = circuit.split_net_before_sinks(
                source, [(endpoint, seq.data_pin)], "hold"
            )
            name = circuit.new_instance_name("holdbuf")
            circuit.add_instance(
                name, delay_buffer, {"A": source, "Z": new_net.name}
            )
            new_cells.append(name)
            source = new_net.name
    if new_cells:
        placer.eco_place(circuit, placement, new_cells)
    return HoldFixRound(
        round=round_no,
        violations_before=len(sta.hold_slacks),
        buffers_inserted=len(new_cells),
        budget=budget,
        budget_left=budget - len(new_cells),
    )
