"""Stem-based parallel-pattern single-fault propagation (PPSFP).

For each block of ``width`` patterns the good machine is simulated once
(compiled).  The faults are then simulated together in three steps,
after critical path tracing inside fanout-free regions (Abramovici,
Menon and Miller, 1984):

1. *Local word.*  A net is a *tree net* when it feeds exactly one pin
   in the view and is not observed.  Every other net is a *stem*:
   fanout stems, observed nets, nets read twice by one gate, dangling
   nets, view inputs and constants.  A fault's local word is its
   activation bits ANDed with the bitwise sensitisation of the single
   path from its net to that net's stem; a branch fault first
   re-evaluates its one reader with the faulted pin forced.
2. *Stem propagation.*  Each stem carrying local bits is flipped on the
   union of those bits and propagated once, event-driven in level
   order, through its fanout cone only; a flip that dies out stops.
3. *Fault word.*  A fault's detection word is its local word ANDed with
   the bits observed from its stem.

The result is exact, equal to propagating every fault through its own
cone.  A tree net reaches its stem along one path, and the side inputs
on that path lie outside the fault's cone, so they keep their good
values.  Every bit of a block is an independent pattern, so masking the
stem's observed bits with each fault's own bits gives that fault's word.

All of it runs in place on one copy of the good values per block,
through the per-node evaluators :class:`BitSimulator` compiles; an undo
trail restores the copy after each stem.

This is the workhorse behind the random-pattern ATPG phase, serendipity
dropping of deterministic patterns, and reverse-order static compaction.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple

from repro.atpg.faults import Fault
from repro.atpg.simulator import BitSimulator
from repro.netlist.net import PinRef

#: Slot of a branch that feeds an observation point directly.
_OBSERVED = -1


class FaultSimulator:
    """Stem-based PPSFP fault simulator.

    Every input pin of a view node is a *slot*: the pin's net feeds the
    node there.  Path sensitisations are kept per slot, so the faults
    that share a path share its evaluation.

    Args:
        sim: Compiled good-machine simulator (defines block width).
    """

    def __init__(self, sim: BitSimulator):
        self.sim = sim
        self.mask = sim.mask
        view = sim.view
        index = sim.net_index
        n_nets = sim.n_nets
        self.out_idx = [index[node.out_net] for node in view.nodes]

        # Readers of each net (node positions, ascending) and the slots.
        self.readers: List[List[int]] = [[] for _ in range(n_nets)]
        self._slot_pos: List[int] = []
        self._slot_net: List[int] = []
        self._shared_pin: Dict[int, str] = {}
        self._branch_slot: Dict[Tuple[int, PinRef], int] = {}
        for pos, node in enumerate(view.nodes):
            nets = list(node.pin_nets.values())
            for pin, net in node.pin_nets.items():
                slot = len(self._slot_pos)
                site = index[net]
                if nets.count(net) > 1:
                    self._shared_pin[slot] = pin
                # A branch fault enters the first node reading its pin.
                self._branch_slot.setdefault(
                    (site, (node.inst.name, pin)), slot)
                self._slot_pos.append(pos)
                self._slot_net.append(site)
            for net in dict.fromkeys(nets):
                self.readers[index[net]].append(pos)

        self.observed = [False] * n_nets
        for net, ref in view.output_refs:
            site = index.get(net)
            if site is not None:
                self.observed[site] = True
                self._branch_slot[(site, ref)] = _OBSERVED

        # A tree net is driven by a node and read by one slot only.
        pins_read = [0] * n_nets
        for site in self._slot_net:
            pins_read[site] += 1
        driven = [False] * n_nets
        for out in self.out_idx:
            driven[out] = True
        self._tree_slot = [-1] * n_nets
        for slot, site in enumerate(self._slot_net):
            if driven[site] and pins_read[site] == 1 \
                    and not self.observed[site]:
                self._tree_slot[site] = slot
        # Stems, from the outputs back: a tree net's reader comes later.
        stem_of = list(range(n_nets))
        for out in reversed(self.out_idx):
            slot = self._tree_slot[out]
            if slot >= 0:
                stem_of[out] = stem_of[self.out_idx[self._slot_pos[slot]]]
        self._slot_next = [
            self._tree_slot[self.out_idx[pos]] for pos in self._slot_pos
        ]
        self._slot_stem = [
            stem_of[self.out_idx[pos]] for pos in self._slot_pos
        ]

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
        return self.run_block({}, (fault,), good=good).get(fault, 0)

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
            good: Pre-computed good values (simulated when omitted);
                left unchanged.

        Returns:
            Detection word per fault, for faults detected at least once,
            in the order of ``faults``.
        """
        if good is None:
            good = self.sim.run(input_words)
        mask = self.mask
        index = self.sim.net_index
        tree_slot = self._tree_slot
        slot_stem = self._slot_stem
        branch_slot = self._branch_slot
        values = list(good)
        paths: List[Optional[int]] = [None] * len(self._slot_pos)

        # 1. Local words: activation ANDed with the path to the stem.
        local: List[Tuple[Fault, int, int]] = []
        flips: Dict[int, int] = {}
        for fault in faults:
            site = index.get(fault.net)
            if site is None:
                continue
            word = values[site] ^ mask if fault.value else values[site]
            if not word:
                continue
            if fault.sink is None:
                stem = site
                slot = tree_slot[site]
            else:
                slot = branch_slot.get((site, fault.sink))
                if slot is None:
                    continue  # the sink is not in the view
                if slot == _OBSERVED:
                    local.append((fault, word, _OBSERVED))
                    continue
            if slot >= 0:
                path = paths[slot]
                if path is None:
                    path = self._path(slot, values, paths)
                word &= path
                if not word:
                    continue
                stem = slot_stem[slot]
            local.append((fault, word, stem))
            flips[stem] = flips.get(stem, 0) | word

        # 2. One propagation per stem, on the union of its local bits.
        seen = {_OBSERVED: mask}
        for stem, flip in flips.items():
            seen[stem] = (flip if self.observed[stem]
                          else self._propagate(values, good, stem, flip))

        # 3. Fault words.
        detections: Dict[Fault, int] = {}
        for fault, word, stem in local:
            word &= seen[stem]
            if word:
                detections[fault] = word
        return detections

    # ------------------------------------------------------------------
    def _path(self, slot: int, values: List[int],
              paths: List[Optional[int]]) -> int:
        """Bits on which flipping the net at ``slot`` flips its stem.

        Walks the tree from ``slot`` to the stem and memoises every
        slot's path word in ``paths`` on the way back.
        """
        chain = []
        word = self.mask
        while slot >= 0:
            known = paths[slot]
            if known is not None:
                word = known
                break
            chain.append(slot)
            slot = self._slot_next[slot]
        for slot in reversed(chain):
            if word:
                word &= self._sensitivity(slot, values)
            paths[slot] = word
        return word

    def _sensitivity(self, slot: int, values: List[int]) -> int:
        """Bits on which the node at ``slot`` flips when that pin does."""
        pos = self._slot_pos[slot]
        good_out = values[self.out_idx[pos]]
        pin = self._shared_pin.get(slot)
        if pin is not None:
            # The net feeds another pin of this node too: flip one pin.
            node = self.sim.view.nodes[pos]
            index = self.sim.net_index
            env = {p: values[index[net]] for p, net in node.pin_nets.items()}
            env[pin] ^= self.mask
            return (node.expr.eval2(env) ^ good_out) & self.mask
        site = self._slot_net[slot]
        good_in = values[site]
        values[site] = good_in ^ self.mask
        flipped = self.sim.node_fns[pos](values)
        values[site] = good_in
        return flipped ^ good_out

    def _propagate(self, values: List[int], good: List[int],
                   stem: int, flip: int) -> int:
        """Observed bits when ``stem`` is flipped on ``flip``.

        Events run in place on ``values`` in ascending node position,
        which is level order, so each node is evaluated at most once;
        the undo trail restores ``values`` to ``good`` afterwards.
        """
        node_fns = self.sim.node_fns
        out_idx = self.out_idx
        readers = self.readers
        observed = self.observed
        heap = list(readers[stem])  # ascending, hence a heap already
        values[stem] ^= flip
        trail = [stem]
        seen = 0
        last = -1
        while heap:
            pos = heappop(heap)
            if pos == last:
                continue  # queued twice by reconvergent fanout
            last = pos
            out = out_idx[pos]
            word = node_fns[pos](values)
            old = values[out]
            if word == old:
                continue
            values[out] = word
            trail.append(out)
            if observed[out]:
                seen |= word ^ old
                if seen == flip:
                    break  # every flipped bit is observed
            for reader in readers[out]:
                heappush(heap, reader)
        for site in trail:
            values[site] = good[site]
        return seen
