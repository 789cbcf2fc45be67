"""Static test-set compaction, and the pattern-block helpers it shares
with the ATPG engine.

Reverse-order fault simulation: patterns are replayed newest-first
against a fresh copy of the target fault set, and only patterns that
detect at least one still-undetected fault survive.  Deterministic
patterns generated late in ATPG tend to cover many early random-phase
detections, so replaying in reverse discards the now-redundant early
patterns — the classic cheap static compaction used after dynamic
(fill-based) compaction.

A pattern is an integer, bit *j* the value of input *j*; a block packs
up to ``width`` patterns into one word per input, pattern *i* in bit
*i*.  Crediting a fault to its first detecting pattern takes the lowest
set bit of its detection word, so the bookkeeping costs one operation
per detected fault and one input scan per kept pattern, not one per bit.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from repro.atpg.faults import Fault
from repro.atpg.fault_sim import FaultSimulator


def pack_block(sim_inputs: Sequence[str], patterns: Sequence[int]
               ) -> Dict[str, int]:
    """Pack integer-encoded patterns into per-input block words.

    Args:
        sim_inputs: Input nets in bit order (bit *j* of a pattern is the
            value of ``sim_inputs[j]``).
        patterns: Up to ``width`` patterns.

    Returns:
        Word per input net, pattern *i* in bit *i*.
    """
    words = {net: 0 for net in sim_inputs}
    for i, pattern in enumerate(patterns):
        bit = 1 << i
        for j, net in enumerate(sim_inputs):
            if (pattern >> j) & 1:
                words[net] |= bit
    return words


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def unpack_block(sim_inputs: Sequence[str], words: Dict[str, int],
                 bits: int) -> List[int]:
    """The patterns at the set bits of ``bits``, lowest bit first.

    The inverse of :func:`pack_block` for the chosen bits only: each
    pattern is built from one scan of the input words.
    """
    column = [words[net] for net in sim_inputs]
    patterns = []
    for bit in set_bits(bits):
        pattern = 0
        for j, word in enumerate(column):
            if word >> bit & 1:
                pattern |= 1 << j
        patterns.append(pattern)
    return patterns


def first_detectors(detections: Dict[Fault, int], live: int) -> int:
    """Bits of the first detecting pattern of each detected fault.

    Args:
        detections: Detection word per fault, from
            :meth:`FaultSimulator.run_block`.
        live: Bits that hold a pattern; bits beyond them are padding
            and credit nothing.

    Returns:
        The union over faults of each word's lowest live bit.
    """
    credited = 0
    for word in detections.values():
        word &= live
        credited |= word & -word
    return credited


def reverse_order_compaction(
    fsim: FaultSimulator,
    patterns: List[int],
    targets: List[Fault],
) -> List[int]:
    """Drop patterns that detect nothing new when replayed newest-first.

    Each fault is credited to the first pattern of the replay that
    detects it, and a pattern survives when some fault is credited to
    it.

    Args:
        fsim: Fault simulator over the test-mode view.
        patterns: Integer-encoded patterns, oldest first.
        targets: Faults the compacted set must still detect (class
            representatives; only in-view faults are considered).

    Returns:
        The surviving patterns, in their original relative order.
    """
    width = fsim.sim.width
    inputs = fsim.sim.view.input_nets
    remaining = {f for f in targets if fsim.in_view(f)}
    keep: List[int] = []

    reversed_patterns = list(reversed(patterns))
    for start in range(0, len(reversed_patterns), width):
        block = reversed_patterns[start:start + width]
        if not remaining:
            break
        detections = fsim.run_block(pack_block(inputs, block), remaining)
        # Within a block, earlier bits correspond to newer patterns.  A
        # short block's padding bits replay the all-zero pattern, which
        # is not in the set, so they are masked off.
        live = (1 << len(block)) - 1
        credited = first_detectors(detections, live)
        keep.extend(block[bit] for bit in set_bits(credited))
        remaining.difference_update(
            fault for fault, word in detections.items() if word & live)
    keep.reverse()
    return keep
