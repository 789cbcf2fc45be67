"""Iterative test-point insertion (the paper's Section 3.1 method).

Each iteration recomputes the testability analyses (COP detection
probabilities, fanout-free regions; SCOAP is computed once for ATPG
guidance), derives the hard-fault population, ranks candidate nets with
:class:`repro.tpi.cost.CandidateScorer`, and inserts one TSFF at the
winner.  Insertion follows the paper's three steps:

1. calculate the netlist location (the candidate net),
2. determine the appropriate clock for the TSFF (clock-domain
   assignment by nearest-register majority),
3. insert the TSFF and connect its input and output signals: the
   original driver keeps the net and feeds the TSFF's ``D``; a fresh
   net driven by the TSFF's ``Q`` takes over all original sinks.

TPI stops when the requested number of test points has been inserted,
when the hard-fault population is exhausted (remaining budget falls
back to the largest poorly observable fanout-free regions), or when a
user constraint (iteration cap) is met — mirroring the stop criteria
listed in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.library.cell import Library
from repro.netlist.circuit import Circuit
from repro.netlist.levelize import extract_comb_view
from repro.netlist.net import PORT
from repro.testability.cop import compute_cop
from repro.testability.regions import find_regions, region_of_net
from repro.tpi.clockdomain import assign_clock, single_clock
from repro.tpi.cost import CandidateScorer, collect_hard_faults

#: COP detection probability below which a fault counts as hard
#: (targets ~4k-pattern random tests).
PD_THRESHOLD = 1.0 / 4096.0
#: Candidate nets scored per TPI iteration.
MAX_CANDIDATES = 96


@dataclass
class TpiConfig:
    """Knobs of a TPI run.

    Attributes:
        n_test_points: Number of TSFFs to insert (callers derive this
            from the paper's percentage of the flip-flop count).
        exclude_nets: Nets that must not receive test points (the
            timing-aware exclusion of paper Section 5).
    """

    n_test_points: int
    exclude_nets: Set[str] = field(default_factory=set)


@dataclass
class InsertedTestPoint:
    """Record of one inserted TSFF.

    Attributes:
        instance: TSFF instance name.
        net: Net the TSFF observes (its ``D`` input).
        new_net: Net the TSFF drives (its ``Q`` output).
        clock: Clock domain assigned to the TSFF.
        iteration: TPI iteration that placed it.
        score: Candidate score at insertion time.
    """

    instance: str
    net: str
    new_net: str
    clock: str
    iteration: int
    score: float


@dataclass
class TpiReport:
    """Outcome of a TPI run.

    Attributes:
        inserted: Every inserted test point, in insertion order.
        hard_faults_before: Hard-fault count before the first insertion.
        hard_faults_after: Hard-fault count after the last insertion.
    """

    inserted: List[InsertedTestPoint] = field(default_factory=list)
    hard_faults_before: int = 0
    hard_faults_after: int = 0

    @property
    def count(self) -> int:
        """Number of inserted test points."""
        return len(self.inserted)


def _insertable(circuit: Circuit, net_name: str,
                forbidden: Set[str]) -> bool:
    """True when a TSFF may be inserted on ``net_name``."""
    if net_name in forbidden:
        return False
    net = circuit.nets[net_name]
    if net.driver is None or not net.sinks:
        return False
    driver_inst, _ = net.driver
    if driver_inst != PORT and circuit.instances[driver_inst].cell.is_tsff:
        return False  # never stack test points back to back
    for inst_name, pin in net.sinks:
        if inst_name == PORT:
            continue
        sink_cell = circuit.instances[inst_name].cell
        if sink_cell.is_tsff and sink_cell.sequential.data_pin == pin:
            return False  # the net already has an observation point
    # Nets that feed only sequential-control pins are off limits; data
    # sinks make a net eligible.
    for inst_name, pin in net.sinks:
        if inst_name == PORT:
            return True
        inst = circuit.instances[inst_name]
        pin_def = inst.cell.pins[pin]
        if not pin_def.is_clock:
            return True
    return False


def _forbidden_nets(circuit: Circuit, config: TpiConfig) -> Set[str]:
    """Clock nets, scan-control nets and user exclusions."""
    forbidden = set(config.exclude_nets)
    for dom in circuit.clocks:
        forbidden.add(dom.net)
    for inst in circuit.instances.values():
        seq = inst.cell.sequential
        if seq is None:
            continue
        for pin in (seq.scan_enable, seq.test_point_enable, seq.scan_in):
            if pin is not None and pin in inst.conns:
                forbidden.add(inst.conns[pin])
    return forbidden


def insert_test_points(circuit: Circuit, library: Library,
                       config: TpiConfig) -> TpiReport:
    """Insert ``config.n_test_points`` TSFFs into ``circuit``, in place.

    The TSFFs' scan pins (TI/TE/TR) are left unconnected; scan insertion
    (:func:`repro.scan.insertion.insert_scan`) stitches them, matching
    the combined "TPI & scan insertion" step of the paper's flow.

    Returns:
        A report of every insertion with its analysis context.
    """
    report = TpiReport()
    tsff_cell = library["TSFF_X1"]
    clock = single_clock(circuit)

    for iteration in range(config.n_test_points):
        view = extract_comb_view(circuit, "test")
        cop = compute_cop(view)
        hard = collect_hard_faults(cop, PD_THRESHOLD)
        if iteration == 0:
            report.hard_faults_before = len(hard)
        forbidden = _forbidden_nets(circuit, config)

        candidate_nets = _candidates(circuit, view, cop, hard, forbidden)
        if not candidate_nets:
            break
        scorer = CandidateScorer(view, cop, hard)
        scored = [(scorer.score(net), net) for net in candidate_nets]
        score, best = max(scored)
        record = _insert_tsff(
            circuit, tsff_cell, best, iteration, score, clock
        )
        report.inserted.append(record)

    view = extract_comb_view(circuit, "test")
    cop = compute_cop(view)
    report.hard_faults_after = len(
        collect_hard_faults(cop, PD_THRESHOLD)
    )
    return report


def _candidates(circuit, view, cop, hard,
                forbidden: Set[str]) -> List[str]:
    """Shortlist of insertable nets worth scoring this iteration.

    Hard-fault sites, their fanout-free-region roots and *gating
    side-inputs* come first; when the hard population is exhausted the
    remaining budget falls back to roots of the largest badly
    observable regions.

    Gating side-inputs are the near-constant (extreme signal
    probability) signals feeding the same gates as a hard net: when a
    comparator output gates a whole region, that enable signal is where
    a single control point rescues every fault behind it, so it must be
    scored even though the enable itself may not carry the very hardest
    faults.
    """
    seen: Set[str] = set()
    ordered: List[str] = []

    def consider(net: Optional[str]) -> None:
        if (
            net is not None
            and net not in seen
            and net in circuit.nets
            and _insertable(circuit, net, forbidden)
        ):
            seen.add(net)
            ordered.append(net)

    regions = find_regions(view)
    root_of = region_of_net(regions)
    readers = view.fanout_index()

    def gating_side_inputs(net: str, hops: int = 12) -> None:
        """Walk the best observation path downstream from ``net`` and
        offer every near-constant side input met on the way.

        A hard fault deep inside a gated region observes the world
        through a chain ending at the gating AND; the gate's enable is
        the single most valuable control-point site and is only
        discoverable by following the path, not by looking at the
        fault's immediate neighbours.
        """
        current = net
        for _ in range(hops):
            nodes = readers.get(current, ())
            if not nodes:
                return
            best = max(
                nodes,
                key=lambda n: max(
                    (cop.branch_obs.get((current, n.inst.name, pin), 0.0)
                     for pin, pn in n.pin_nets.items() if pn == current),
                    default=0.0,
                ),
            )
            for pin_net in best.pin_nets.values():
                if pin_net == current:
                    continue
                p1 = cop.p1.get(pin_net, 0.5)
                if p1 < 0.05 or p1 > 0.95:
                    consider(pin_net)
            current = best.out_net

    for fault in sorted(hard, key=lambda f: f.pd):
        gating_side_inputs(fault.net)
        consider(fault.net)
        consider(root_of.get(fault.net))
        if len(ordered) >= MAX_CANDIDATES:
            return ordered

    # Fallback: largest regions with the worst root observability.
    by_benefit = sorted(
        regions.values(),
        key=lambda r: r.size * (1.0 - cop.obs.get(r.root, 0.0)),
        reverse=True,
    )
    for region in by_benefit:
        consider(region.root)
        if len(ordered) >= MAX_CANDIDATES:
            break
    return ordered


def _insert_tsff(circuit: Circuit, tsff_cell, net: str,
                 iteration: int, score: float,
                 clock: Optional[str]) -> InsertedTestPoint:
    """Steps 2+3 of the paper: clock assignment and netlist rewrite.

    ``clock`` is the run's :func:`single_clock`; when it is None the
    clock is assigned from the flip-flops nearest to ``net``.
    """
    if clock is None:
        clock = assign_clock(circuit, net)
    sinks = list(circuit.nets[net].sinks)
    new_net = circuit.split_net_before_sinks(net, sinks, new_prefix="tpq")
    name = circuit.new_instance_name("tp")
    circuit.add_instance(name, tsff_cell, {
        "D": net,
        "Q": new_net.name,
        "CLK": clock,
    })
    return InsertedTestPoint(
        instance=name,
        net=net,
        new_net=new_net.name,
        clock=clock,
        iteration=iteration,
        score=score,
    )
