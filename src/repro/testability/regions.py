"""Fanout-free region (FFR) decomposition.

A fanout-free region is a maximal tree of gates in which every internal
net has exactly one sink; its root is a *stem* (a net with fanout > 1)
or an observable point.  The paper's TPI engine uses FFR sizes as one
of its per-iteration analysis measures: faults inside a large FFR all
funnel through one root, so an observation point at the root of a large,
poorly observable FFR pays for many faults at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.netlist.levelize import CombView


@dataclass
class FanoutFreeRegion:
    """One fanout-free region.

    Attributes:
        root: Net at the region's root (a stem or observable point).
        nets: All nets inside the region, root included.
        size: Number of gates (view nodes) inside the region.
    """

    root: str
    nets: List[str]
    size: int


def find_regions(view: CombView) -> Dict[str, FanoutFreeRegion]:
    """Decompose ``view`` into fanout-free regions, keyed by root net.

    Every node's output net belongs to exactly one region.  Inputs of
    the view are not members of any region.
    """
    observable = set(view.output_nets)
    fanout: Dict[str, int] = {}
    for node in view.nodes:
        for net in node.pin_nets.values():
            fanout[net] = fanout.get(net, 0) + 1
    for net in observable:
        fanout[net] = fanout.get(net, 0) + 1

    node_of = view.node_by_output()
    is_root = {
        net: (fanout.get(net, 0) != 1 or net in observable)
        for net in node_of
    }

    # Union-find-free approach: walk from each root down its tree.
    regions: Dict[str, FanoutFreeRegion] = {}
    for net, root_flag in is_root.items():
        if not root_flag:
            continue
        nets: List[str] = []
        stack = [net]
        gates = 0
        while stack:
            current = stack.pop()
            nets.append(current)
            node = node_of.get(current)
            if node is None:
                continue
            gates += 1
            for pin_net in dict.fromkeys(node.pin_nets.values()):
                if pin_net in node_of and not is_root[pin_net]:
                    stack.append(pin_net)
        regions[net] = FanoutFreeRegion(root=net, nets=nets, size=gates)
    return regions


def region_of_net(regions: Dict[str, FanoutFreeRegion]) -> Dict[str, str]:
    """Invert a region map: net name -> root net of its region."""
    inverse: Dict[str, str] = {}
    for root, region in regions.items():
        for net in region.nets:
            inverse[net] = root
    return inverse
