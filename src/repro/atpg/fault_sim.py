"""Parallel-pattern single-fault propagation (PPSFP) fault simulation.

For each block of ``width`` patterns the good machine is simulated once
(compiled), then every active fault is injected and its divergence is
propagated event-driven, in level order, through the fanout cone only.
Faults whose divergence dies out are abandoned early; faults reaching an
observable net report the pattern bits that detect them.

This is the workhorse behind the random-pattern ATPG phase, serendipity
dropping of deterministic patterns, and reverse-order static compaction.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.atpg.faults import Fault
from repro.atpg.simulator import BitSimulator
from repro.netlist.net import PORT


class FaultSimulator:
    """Event-driven PPSFP fault simulator.

    Args:
        sim: Compiled good-machine simulator (defines block width).
    """

    def __init__(self, sim: BitSimulator):
        self.sim = sim
        view = sim.view
        self.mask = sim.mask

        # Reader index: net index -> list of (node position, node).
        self._node_pos = {id(n): i for i, n in enumerate(view.nodes)}
        self.readers: Dict[int, List[int]] = {}
        for pos, node in enumerate(view.nodes):
            for net in dict.fromkeys(node.pin_nets.values()):
                idx = sim.net_index.get(net)
                if idx is not None:
                    self.readers.setdefault(idx, []).append(pos)
        self.levels = [node.level for node in view.nodes]
        self.out_idx = [
            sim.net_index[node.out_net] for node in view.nodes
        ]
        self.observable = {
            sim.net_index[net]
            for net in view.output_nets
            if net in sim.net_index
        }
        # Observable sink pins: (net, inst, pin) that are PPO/PO points.
        self.observable_sinks = {
            (net, ref) for net, ref in view.output_refs
        }

    # ------------------------------------------------------------------
    def in_view(self, fault: Fault) -> bool:
        """True when the fault site is simulatable in this view."""
        return fault.net in self.sim.net_index

    def detect_word(self, good: List[int], fault: Fault) -> int:
        """Pattern bits of the current block that detect ``fault``.

        Args:
            good: Good-machine values from :meth:`BitSimulator.run`.
            fault: Fault to inject (must satisfy :meth:`in_view`).

        Returns:
            A word with bit *i* set when pattern *i* detects the fault.
        """
        sim = self.sim
        site = sim.net_index[fault.net]
        stuck = sim.mask if fault.value else 0
        activated = (good[site] ^ stuck) & sim.mask
        if not activated:
            return 0

        if fault.sink is not None:
            return self._detect_branch(good, fault, site, stuck, activated)
        return self._propagate(good, {site: stuck}, activated, site)

    def _detect_branch(self, good: List[int], fault: Fault,
                       site: int, stuck: int, activated: int) -> int:
        """Branch fault: faulty value enters one sink only."""
        inst, pin = fault.sink
        if (fault.net, (inst, pin)) in self.observable_sinks or inst == PORT:
            # The faulted branch feeds an observation point directly.
            return activated
        # Find the reading node and re-evaluate it with the pin forced.
        for pos in self.readers.get(site, ()):
            node = self.sim.view.nodes[pos]
            if node.inst.name != inst or node.pin_nets.get(pin) != fault.net:
                continue
            # Only the faulted pin takes the stuck value; other pins on
            # the same net keep their good values.
            new_out = self._eval_with_pin(node, good, pin, stuck)
            out = self.out_idx[pos]
            diff_bits = (new_out ^ good[out]) & self.mask
            if not diff_bits:
                return 0
            return self._propagate(good, {out: new_out}, diff_bits, out)
        return 0

    def _eval_with_pin(self, node, good: List[int],
                       pin: str, word: int) -> int:
        """Evaluate a node with one input pin forced to ``word``."""
        pin_vals = {
            p: good[self.sim.net_index[net]]
            for p, net in node.pin_nets.items()
        }
        pin_vals[pin] = word
        return node.expr.eval2(pin_vals) & self.mask

    def _propagate(self, good: List[int], diff: Dict[int, int],
                   detected: int, start: int) -> int:
        """Propagate faulty values forward; return detection word.

        Args:
            good: Good values per net index.
            diff: Faulty values per diverged net index.
            detected: Detection bits accumulated so far (bits detected
                at the start net if it is observable).
            start: Net index where divergence begins.
        """
        det = detected if start in self.observable else 0
        node_fns = self.sim.node_fns
        out_idx = self.out_idx
        mask = self.mask

        def get(i: int) -> int:
            return diff.get(i, good[i])

        heap: List[Tuple[int, int]] = []
        queued = set()
        for pos in self.readers.get(start, ()):
            heapq.heappush(heap, (self.levels[pos], pos))
            queued.add(pos)
        while heap:
            _, pos = heapq.heappop(heap)
            queued.discard(pos)
            new_out = node_fns[pos](get) & mask
            out = out_idx[pos]
            if new_out == get(out):
                continue
            if new_out == good[out]:
                diff.pop(out, None)
            else:
                diff[out] = new_out
            if out in self.observable:
                det |= (new_out ^ good[out]) & mask
            for reader in self.readers.get(out, ()):
                if reader not in queued:
                    heapq.heappush(heap, (self.levels[reader], reader))
                    queued.add(reader)
        return det

    # ------------------------------------------------------------------
    def run_block(
        self,
        input_words: Dict[str, int],
        faults: Iterable[Fault],
        good: Optional[List[int]] = None,
    ) -> Dict[Fault, int]:
        """Simulate one pattern block against many faults.

        Args:
            input_words: Packed input words for the block.
            faults: Faults to inject (non-simulatable ones are skipped).
            good: Pre-computed good values (simulated when omitted).

        Returns:
            Detection word per fault, for faults detected at least once.
        """
        if good is None:
            good = self.sim.run(input_words)
        detections: Dict[Fault, int] = {}
        for fault in faults:
            if not self.in_view(fault):
                continue
            word = self.detect_word(good, fault)
            if word:
                detections[fault] = word
        return detections
