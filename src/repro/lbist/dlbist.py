"""Deterministic logic BIST by bit-flipping (TPI + DLBIST, Section 5).

The paper closes by recommending the combination of TPI with
*deterministic* LBIST: "The deterministic pattern generator can be
added as a shell around the circuit layout, and it provides that still
complete fault coverage is achieved" — referencing the authors' own
bit-flipping DLBIST scheme (Vranken, Meister, Wunderlich, ETW'02).

The scheme: an LFSR feeds pseudo-random scan loads; a small bit-flip
function (BFF) observes the pattern counter and inverts selected scan
bits so that chosen pseudo-random patterns *become* deterministic test
cubes for the random-resistant faults.  The BFF's silicon cost grows
with the number of embedded care bits that disagree with the underlying
pseudo-random pattern — so anything that shrinks the deterministic
top-up (test points!) shrinks the DLBIST hardware.  That interplay is
exactly what this module makes measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.atpg.compaction import pack_block
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import FaultStatus, build_fault_list
from repro.atpg.podem import PodemEngine
from repro.atpg.simulator import BitSimulator
from repro.lbist.lfsr import LFSR
from repro.netlist.circuit import Circuit
from repro.netlist.levelize import extract_comb_view

#: Estimated BFF area per flipped bit, in um^2 (an XOR plus its share
#: of the pattern-count decode, 130 nm-class).
BFF_AREA_PER_FLIP_UM2 = 24.0

#: Fixed BFF overhead (counter compare, control), in um^2.
BFF_AREA_FIXED_UM2 = 450.0


@dataclass
class DlbistConfig:
    """Knobs of a DLBIST session.

    Attributes:
        n_patterns: Pseudo-random pattern budget.
        lfsr_width: Pattern generator width.
        seed: LFSR seed.
        backtrack_limit: PODEM budget for the deterministic top-up.
        max_cubes: Cap on embedded deterministic cubes.
    """

    n_patterns: int = 2048
    lfsr_width: int = 32
    seed: int = 0xACE1
    backtrack_limit: int = 48
    max_cubes: int = 256


@dataclass
class DlbistResult:
    """Outcome of one DLBIST session.

    Attributes:
        pseudo_random_coverage: FC after the pseudo-random phase alone.
        final_coverage: FC after bit-flipped deterministic embedding.
        n_cubes: Deterministic cubes embedded.
        n_flips: Total scan bits flipped by the BFF.
        bff_area_um2: Estimated bit-flip-function silicon area.
        patterns: The final pattern set (flipped patterns included).
    """

    pseudo_random_coverage: float = 0.0
    final_coverage: float = 0.0
    n_cubes: int = 0
    n_flips: int = 0
    bff_area_um2: float = 0.0
    patterns: List[int] = field(default_factory=list)


def _hamming_on_cares(pattern: int, care_mask: int, care_value: int) -> int:
    """Disagreeing care bits between a pattern and a cube."""
    return bin((pattern & care_mask) ^ care_value).count("1")


def run_dlbist(circuit: Circuit,
               config: Optional[DlbistConfig] = None) -> DlbistResult:
    """Run bit-flipping DLBIST on a scan-inserted circuit.

    Phase 1 applies the pseudo-random budget with fault dropping.
    Phase 2 generates deterministic cubes for the surviving faults and
    embeds each into the pseudo-random pattern that needs the fewest
    bit flips; the flip count prices the BFF hardware.

    Returns:
        Coverage before/after embedding and the BFF cost model.
    """
    config = config or DlbistConfig()
    view = extract_comb_view(circuit, "test")
    sim = BitSimulator(view)
    fsim = FaultSimulator(sim)
    fault_list = build_fault_list(circuit, view)
    inputs = list(view.input_nets)
    n_inputs = len(inputs)
    index_of = {net: j for j, net in enumerate(inputs)}

    # Phase 1: pseudo-random patterns with dropping.
    lfsr = LFSR(width=config.lfsr_width, seed=config.seed)
    patterns: List[int] = []
    remaining = {f for f in fault_list.targets() if fsim.in_view(f)}
    applied = 0
    while applied < config.n_patterns:
        block_size = min(sim.width, config.n_patterns - applied)
        block = lfsr.patterns(n_inputs, block_size)
        patterns.extend(block)
        words = pack_block(inputs, block)
        detections = fsim.run_block(words, remaining)
        fault_list.mark_many(detections, FaultStatus.DETECTED)
        remaining.difference_update(detections)
        remaining = {
            f for f in remaining
            if fault_list.status[f] is FaultStatus.UNDETECTED
        }
        applied += block_size

    result = DlbistResult(
        pseudo_random_coverage=fault_list.fault_coverage,
    )

    # Phase 2: deterministic top-up, embedded by bit flipping.
    podem = PodemEngine(view, backtrack_limit=config.backtrack_limit)
    flippable = list(range(len(patterns)))
    for fault in sorted(remaining, key=str):
        if result.n_cubes >= config.max_cubes:
            break
        if fault_list.status[fault] is not FaultStatus.UNDETECTED:
            continue
        cube = podem.generate(fault)
        if cube.status != "detected":
            continue
        care_mask = 0
        care_value = 0
        for net, value in cube.assignment.items():
            bit = 1 << index_of[net]
            care_mask |= bit
            if value:
                care_value |= bit
        # Embed into the nearest pseudo-random pattern.
        best_idx = min(
            flippable,
            key=lambda i: _hamming_on_cares(
                patterns[i], care_mask, care_value
            ),
        )
        flips = _hamming_on_cares(patterns[best_idx], care_mask,
                                  care_value)
        patterns[best_idx] = (
            (patterns[best_idx] & ~care_mask) | care_value
        )
        result.n_cubes += 1
        result.n_flips += flips
        # Fault-simulate the flipped pattern: it detects the target and
        # usually more.
        words = pack_block(inputs, [patterns[best_idx]])
        detections = fsim.run_block(words, remaining)
        fault_list.mark(fault, FaultStatus.DETECTED)
        fault_list.mark_many(detections, FaultStatus.DETECTED)
        remaining = {
            f for f in remaining
            if fault_list.status[f] is FaultStatus.UNDETECTED
        }

    result.final_coverage = fault_list.fault_coverage
    result.bff_area_um2 = (
        BFF_AREA_FIXED_UM2 + BFF_AREA_PER_FLIP_UM2 * result.n_flips
    )
    result.patterns = patterns
    return result
