"""The ATPG engine: random phase, deterministic PODEM, compaction.

The flow mirrors a production scan ATPG run:

1. **Random phase** — blocks of uniform random patterns are fault
   simulated with dropping; only patterns that are the first detector
   of some fault are kept.  This cheaply clears the easy bulk of the
   fault list.
2. **Deterministic phase** — remaining class representatives are
   targeted hardest-first with PODEM.  Each test cube's unassigned
   inputs are random filled (dynamic compaction: the fill detects many
   untargeted faults for free) and the filled patterns are fault
   simulated in blocks with dropping.
3. **Static compaction** — reverse-order replay discards patterns made
   redundant by later, denser ones.

The resulting pattern count is the paper's "SAF patterns" column; fault
coverage and efficiency come from the final fault-list census.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import obs
from repro.atpg.compaction import (
    first_detectors,
    pack_block,
    reverse_order_compaction,
    unpack_block,
)
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import Fault, FaultList, FaultStatus, build_fault_list
from repro.atpg.podem import PodemEngine
from repro.atpg.simulator import BitSimulator
from repro.netlist.circuit import Circuit
from repro.netlist.levelize import CombView, extract_comb_view
from repro.testability.cop import compute_cop
from repro.testability.scoap import compute_scoap

#: Fault-simulate (and drop) after this many pending deterministic
#: patterns (at most one 64-pattern block).  Smaller values compact
#: harder but cost more simulation passes.
FLUSH_EVERY = 16
#: Secondary-target attempts per pattern before giving up.
MERGE_ATTEMPTS = 24
#: Consecutive merge failures that close a pattern.
MERGE_FAIL_STREAK = 6


@dataclass
class AtpgConfig:
    """Knobs of an ATPG run.

    Fault simulation runs in blocks of 64 patterns (the
    :class:`~repro.atpg.simulator.BitSimulator` width) and the
    reverse-order static compaction pass always runs.

    Attributes:
        random_blocks: Number of random-phase blocks.  The default (0)
            gives the *compact* flow of the paper's ATPG (Geuzebroek et
            al.): purely deterministic patterns with dynamic
            compaction.  A non-zero value adds an LBIST-style random
            phase whose useful patterns are kept — cheaper, but the
            test set is then dominated by random patterns and loses
            sensitivity to test points.
        backtrack_limit: PODEM abort threshold.
        seed: RNG seed (pattern fill and random phase).
        max_deterministic: Optional cap on PODEM targets (None = all).
        abort_recovery_blocks: After the deterministic phase, spend up
            to this many random blocks on PODEM-aborted faults only;
            many aborts are search failures on random-detectable
            faults, and a handful of kept patterns recovers them.
    """

    random_blocks: int = 0
    backtrack_limit: int = 96
    seed: int = 1
    max_deterministic: Optional[int] = None
    abort_recovery_blocks: int = 48
    #: Secondary targets merged onto each pattern (dynamic compaction).
    merge_limit: int = 12
    #: Budget multiplier of the second-chance pass over aborted faults.
    second_chance_factor: int = 6


@dataclass
class AtpgResult:
    """Outcome of an ATPG run.

    Attributes:
        patterns: Final compacted test set; each pattern is an integer
            with bit *j* carrying the value of ``input_nets[j]``.
        input_nets: Bit order of the pattern encoding.
        fault_list: Final fault census (statuses updated in place).
        random_patterns_kept: Patterns contributed by the random phase
            (before static compaction).
        deterministic_patterns: Patterns contributed by PODEM.
        aborted: Faults abandoned at the backtrack limit.
        redundant: Faults proven untestable.
    """

    patterns: List[int]
    input_nets: List[str]
    fault_list: FaultList
    random_patterns_kept: int = 0
    deterministic_patterns: int = 0
    aborted: int = 0
    redundant: int = 0

    @property
    def n_patterns(self) -> int:
        """Number of scan-capture patterns in the final test set."""
        return len(self.patterns)

    @property
    def fault_coverage(self) -> float:
        """FC after the run."""
        return self.fault_list.fault_coverage

    @property
    def fault_efficiency(self) -> float:
        """FE after the run."""
        return self.fault_list.fault_efficiency


def run_atpg(
    circuit: Circuit,
    view: Optional[CombView] = None,
    config: Optional[AtpgConfig] = None,
    fault_list: Optional[FaultList] = None,
) -> AtpgResult:
    """Generate a compact stuck-at test set for ``circuit``.

    Args:
        circuit: Netlist under test (scan-inserted or not; the test-mode
            combinational view defines controllability/observability).
        view: Pre-extracted test view (extracted when omitted).
        config: Run configuration.
        fault_list: Pre-built fault universe (built when omitted).
    """
    config = config or AtpgConfig()
    rng = random.Random(config.seed)
    if view is None:
        view = extract_comb_view(circuit, "test")
    if fault_list is None:
        fault_list = build_fault_list(circuit, view)

    sim = BitSimulator(view)
    fsim = FaultSimulator(sim)
    inputs = list(view.input_nets)

    patterns: List[int] = []
    active = [
        f for f in fault_list.targets() if fsim.in_view(f)
    ]

    # ------------------------------------------------------------- 1
    with obs.span("random_phase") as sp:
        random_kept = _random_phase(
            sim, fsim, fault_list, active, patterns, rng, config
        )
        sp.counter("patterns_kept", random_kept)

    # ------------------------------------------------------------- 2
    with obs.span("podem") as sp:
        det_count, aborted, redundant = _deterministic_phase(
            circuit, view, sim, fsim, fault_list, patterns, rng, config
        )
        sp.counter("patterns", det_count)
        sp.counter("aborted_faults", aborted)
        sp.counter("redundant_faults", redundant)

    # ------------------------------------------------------------- 2b
    with obs.span("abort_recovery") as sp:
        recovered = _abort_recovery_phase(
            sim, fsim, fault_list, patterns, rng, config
        )
        aborted -= recovered
        sp.counter("recovered_faults", recovered)

    # ------------------------------------------------------------- 3
    if patterns:
        with obs.span("static_compaction") as sp:
            sp.gauge("patterns_before", len(patterns))
            detected_targets = [
                rep
                for rep in fault_list.classes()
                if fault_list.status[rep] is FaultStatus.DETECTED
            ]
            patterns = reverse_order_compaction(fsim, patterns,
                                                detected_targets)
            sp.gauge("patterns_after", len(patterns))

    return AtpgResult(
        patterns=patterns,
        input_nets=inputs,
        fault_list=fault_list,
        random_patterns_kept=random_kept,
        deterministic_patterns=det_count,
        aborted=aborted,
        redundant=redundant,
    )


def _keep_first_detectors(
    sim: BitSimulator,
    words: Dict[str, int],
    detections: Dict[Fault, int],
    patterns: List[int],
) -> int:
    """Append the first detecting pattern of each detected fault.

    Patterns are appended in bit order; returns how many were kept.
    """
    credited = first_detectors(detections, sim.mask)
    kept = unpack_block(sim.view.input_nets, words, credited)
    patterns.extend(kept)
    return len(kept)


def _random_phase(
    sim: BitSimulator,
    fsim: FaultSimulator,
    fault_list: FaultList,
    active: List[Fault],
    patterns: List[int],
    rng: random.Random,
    config: AtpgConfig,
) -> int:
    """Random-pattern phase with fault dropping; returns kept count."""
    kept_total = 0
    remaining = set(active)
    for _ in range(config.random_blocks):
        if not remaining:
            break
        words = sim.random_block(rng)
        detections = fsim.run_block(words, remaining)
        if not detections:
            continue
        kept_total += _keep_first_detectors(sim, words, detections,
                                            patterns)
        fault_list.mark_many(detections, FaultStatus.DETECTED)
        remaining.difference_update(detections)
        # Equivalence classes may have retired other representatives.
        remaining = {
            f for f in remaining
            if fault_list.status[f] is FaultStatus.UNDETECTED
        }
    active[:] = [f for f in active if f in remaining]
    return kept_total


def _abort_recovery_phase(
    sim: BitSimulator,
    fsim: FaultSimulator,
    fault_list: FaultList,
    patterns: List[int],
    rng: random.Random,
    config: AtpgConfig,
) -> int:
    """Random patterns aimed only at PODEM-aborted faults.

    Returns the number of recovered (now detected) fault classes.
    """
    remaining = {
        rep
        for rep in fault_list.classes()
        if fault_list.status[rep] is FaultStatus.ABORTED
        and fsim.in_view(rep)
    }
    recovered = 0
    for _ in range(config.abort_recovery_blocks):
        if not remaining:
            break
        words = sim.random_block(rng)
        detections = fsim.run_block(words, remaining)
        if not detections:
            continue
        _keep_first_detectors(sim, words, detections, patterns)
        fault_list.mark_many(detections, FaultStatus.DETECTED)
        recovered += len(detections)
        remaining.difference_update(detections)
    return recovered


def _aborted_in_view(fault_list: FaultList,
                     fsim: FaultSimulator) -> List[Fault]:
    """Aborted class representatives the simulator can target."""
    return [
        rep for rep in fault_list.classes()
        if fault_list.status[rep] is FaultStatus.ABORTED
        and fsim.in_view(rep)
    ]


def _deterministic_phase(
    circuit: Circuit,
    view: CombView,
    sim: BitSimulator,
    fsim: FaultSimulator,
    fault_list: FaultList,
    patterns: List[int],
    rng: random.Random,
    config: AtpgConfig,
):
    """PODEM phase with multi-target dynamic compaction.

    Each pattern starts from the hardest remaining fault's test cube,
    then secondary targets are merged onto it (PODEM constrained to the
    cube's assignments) until a failure streak or the merge limit
    closes the pattern.  Unassigned inputs are random filled and the
    pattern block is fault simulated with dropping — so per-pattern
    fault density, the quantity test points raise, directly sets the
    final pattern count.
    """
    targets = [f for f in fault_list.targets() if fsim.in_view(f)]
    limit = config.max_deterministic
    if not targets[:limit] and not (
            config.second_chance_factor > 1
            and _aborted_in_view(fault_list, fsim)):
        return 0, 0, 0  # nothing to search: skip the PODEM set-up
    scoap = compute_scoap(view)
    cop = compute_cop(view)
    podem = PodemEngine(
        view, scoap=scoap, backtrack_limit=config.backtrack_limit
    )
    inputs = list(view.input_nets)
    index_of = {net: j for j, net in enumerate(inputs)}
    n_inputs = len(inputs)

    def hardness(fault: Fault) -> float:
        return cop.detection_probability(fault.net, fault.value)

    targets = sorted(targets, key=hardness)[:limit]

    det_count = aborted = redundant = 0
    pending_block: List[int] = []

    def flush_block() -> None:
        nonlocal det_count
        if not pending_block:
            return
        words = pack_block(inputs, pending_block)
        detections = fsim.run_block(
            words,
            [f for f in fault_list.targets() if fsim.in_view(f)],
        )
        fault_list.mark_many(detections, FaultStatus.DETECTED)
        patterns.extend(pending_block)
        det_count += len(pending_block)
        # One flush = one dynamic-compaction round: the kept patterns
        # per round measure how hard the dropping simulation works.
        obs.counter("compaction_rounds")
        obs.counter("compaction_patterns", len(pending_block))
        obs.counter("dropped_by_simulation", len(detections))
        pending_block.clear()

    cursor = 0
    while cursor < len(targets):
        fault = targets[cursor]
        cursor += 1
        if fault_list.status[fault] is not FaultStatus.UNDETECTED:
            continue
        cube = podem.generate(fault)
        obs.counter("backtracks", cube.backtracks)
        obs.counter("restarts", cube.restarts)
        if cube.status == "redundant":
            fault_list.mark(fault, FaultStatus.REDUNDANT)
            redundant += 1
            continue
        if cube.status == "aborted":
            fault_list.mark(fault, FaultStatus.ABORTED)
            aborted += 1
            continue
        fault_list.mark(fault, FaultStatus.DETECTED)
        cube_assign = dict(cube.assignment)

        # Merge secondary targets onto the cube (dynamic compaction).
        merged = 1
        failures = 0
        attempts = 0
        scan = cursor
        while (
            scan < len(targets)
            and merged < config.merge_limit
            and failures < MERGE_FAIL_STREAK
            and attempts < MERGE_ATTEMPTS
        ):
            candidate = targets[scan]
            scan += 1
            if fault_list.status[candidate] is not FaultStatus.UNDETECTED:
                continue
            attempts += 1
            extra = podem.generate(
                candidate, fixed=cube_assign,
                restarts=2, backtrack_limit=24,
            )
            obs.counter("backtracks", extra.backtracks)
            if extra.status == "detected":
                cube_assign.update(extra.assignment)
                fault_list.mark(candidate, FaultStatus.DETECTED)
                merged += 1
                failures = 0
            else:
                failures += 1
        if merged > 1:
            obs.counter("merged_targets", merged - 1)

        # Random fill of the remaining inputs.
        pattern = rng.getrandbits(n_inputs) if n_inputs else 0
        for net, value in cube_assign.items():
            j = index_of[net]
            if value:
                pattern |= 1 << j
            else:
                pattern &= ~(1 << j)
        pending_block.append(pattern)
        if len(pending_block) >= FLUSH_EVERY:
            flush_block()
    flush_block()

    # Second chance: re-target aborted faults with a much larger search
    # budget.  Aborts are mostly heuristic lock-in, not hardness; a
    # deeper randomised search recovers a large share at bounded cost.
    if config.second_chance_factor > 1:
        for fault in _aborted_in_view(fault_list, fsim):
            if fault_list.status[fault] is not FaultStatus.ABORTED:
                continue
            cube = podem.generate(
                fault,
                restarts=2 * config.second_chance_factor,
                backtrack_limit=(
                    config.backtrack_limit * config.second_chance_factor
                ),
            )
            obs.counter("backtracks", cube.backtracks)
            obs.counter("restarts", cube.restarts)
            obs.counter("second_chance_targets")
            if cube.status == "redundant":
                fault_list.mark(fault, FaultStatus.REDUNDANT)
                redundant += 1
                aborted -= 1
                continue
            if cube.status != "detected":
                continue
            aborted -= 1
            fault_list.mark(fault, FaultStatus.DETECTED)
            pattern = rng.getrandbits(n_inputs) if n_inputs else 0
            for net, value in cube.assignment.items():
                j = index_of[net]
                if value:
                    pattern |= 1 << j
                else:
                    pattern &= ~(1 << j)
            pending_block.append(pattern)
            if len(pending_block) >= FLUSH_EVERY:
                flush_block()
        flush_block()
    return det_count, aborted, redundant
