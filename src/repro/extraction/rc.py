"""RC extraction from routed nets (the flow's HyperExtract substitute).

Every routed net becomes an RC tree: each segment contributes the
resistance and capacitance of its metal layer (half the capacitance
lumped at each end), vias add their fixed resistance, and sink pin
capacitances load the tree at the pin nodes.  Elmore delays from the
driver to every sink, and the net's total capacitance (the load seen by
the driving cell), feed static timing analysis.

Units: ohm, fF, um, ps (1 ohm x 1 fF = 0.001 ps).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.library.layers import (
    MetalLayer,
    VIA_RESISTANCE_OHM,
    metal_stack_130nm,
)
from repro.layout.geometry import Point
from repro.layout.placement import Placement
from repro.layout.routing import RoutedNet
from repro.netlist.circuit import Circuit
from repro.netlist.net import PORT, PinRef

#: ohm * fF -> ps conversion.
OHM_FF_TO_PS = 1e-3

#: Estimated intra-gcell wirelength for unrouted/local nets, in um.
LOCAL_WIRE_UM = 6.0


@dataclass
class NetParasitics:
    """Extracted parasitics of one net.

    Attributes:
        net: Net name.
        wirelength_um: Routed length.
        wire_cap_ff: Capacitance of the wire itself.
        pin_cap_ff: Total sink pin capacitance.
        elmore_ps: Driver-to-sink Elmore delay per sink pin.
    """

    net: str
    wirelength_um: float
    wire_cap_ff: float
    pin_cap_ff: float
    elmore_ps: Dict[PinRef, float] = field(default_factory=dict)

    @property
    def total_cap_ff(self) -> float:
        """Load presented to the driving cell."""
        return self.wire_cap_ff + self.pin_cap_ff

    def delay_to(self, sink: PinRef) -> float:
        """Elmore delay to one sink (0 for unknown sinks)."""
        return self.elmore_ps.get(sink, 0.0)


def _quantize(p: Point) -> Tuple[int, int]:
    """Snap a point to a 0.01 um grid for node identity."""
    return int(round(p[0] * 100)), int(round(p[1] * 100))


def extract_net(
    circuit: Circuit,
    placement: Placement,
    routed: RoutedNet,
    layers: Dict[int, MetalLayer],
) -> NetParasitics:
    """Extract one net's RC tree and Elmore delays."""
    net = circuit.nets[routed.net]

    # Sink pin caps and sink node positions.
    pin_cap = 0.0
    sink_nodes: Dict[PinRef, Tuple[int, int]] = {}
    for inst, pin in net.sinks:
        if inst == PORT:
            pos = placement.plan.pad_positions.get(pin)
            cap = 2.0  # pad input capacitance
        else:
            pos = placement.positions.get(inst)
            cap = circuit.instances[inst].cell.pin_cap_ff(pin)
        pin_cap += cap
        if pos is not None:
            sink_nodes[(inst, pin)] = _quantize(pos)

    driver_pos: Optional[Point] = None
    if net.driver is not None:
        d_inst, d_pin = net.driver
        if d_inst == PORT:
            driver_pos = placement.plan.pad_positions.get(d_pin)
        else:
            driver_pos = placement.positions.get(d_inst)

    wire_cap = 0.0
    result = NetParasitics(
        net=routed.net,
        wirelength_um=routed.wirelength_um,
        wire_cap_ff=0.0,
        pin_cap_ff=pin_cap,
    )

    if driver_pos is None or not sink_nodes:
        return result

    if not routed.segments:
        # Local net: a short stub on the lowest signal layer.
        layer = layers[2]
        wire_cap = LOCAL_WIRE_UM * layer.c_ff_per_um
        r = LOCAL_WIRE_UM * layer.r_ohm_per_um
        result.wire_cap_ff = wire_cap
        for sink in sink_nodes:
            cap_here = wire_cap + pin_cap
            result.elmore_ps[sink] = r * cap_here * OHM_FF_TO_PS
        return result

    # Build the node graph of the routed tree.
    adjacency: Dict[Tuple[int, int], List[Tuple[Tuple[int, int], float, float]]]
    adjacency = defaultdict(list)
    node_cap: Dict[Tuple[int, int], float] = defaultdict(float)
    for seg in routed.segments:
        a = _quantize((seg.x0, seg.y0))
        b = _quantize((seg.x1, seg.y1))
        if a == b:
            continue
        layer = layers[seg.layer]
        r = seg.length_um * layer.r_ohm_per_um + VIA_RESISTANCE_OHM
        c = seg.length_um * layer.c_ff_per_um
        wire_cap += c
        node_cap[a] += c / 2
        node_cap[b] += c / 2
        adjacency[a].append((b, r, c))
        adjacency[b].append((a, r, c))
    result.wire_cap_ff = wire_cap

    for sink, node in sink_nodes.items():
        inst, pin = sink
        if inst == PORT:
            node_cap[node] += 2.0
        else:
            node_cap[node] += circuit.instances[inst].cell.pin_cap_ff(pin)

    root = _quantize(driver_pos)
    if root not in adjacency:
        root = min(
            adjacency,
            key=lambda n: abs(n[0] - root[0]) + abs(n[1] - root[1]),
        )

    # BFS spanning tree from the driver.
    parent: Dict[Tuple[int, int], Tuple[Optional[Tuple[int, int]], float]] = {
        root: (None, 0.0)
    }
    order = [root]
    queue = [root]
    while queue:
        current = queue.pop()
        for neighbour, r, _ in adjacency[current]:
            if neighbour not in parent:
                parent[neighbour] = (current, r)
                order.append(neighbour)
                queue.append(neighbour)

    # Downstream capacitance per node (children-first accumulation).
    down_cap: Dict[Tuple[int, int], float] = {
        node: node_cap.get(node, 0.0) for node in order
    }
    for node in reversed(order):
        up, _ = parent[node]
        if up is not None:
            down_cap[up] += down_cap[node]

    # Elmore: delay(node) = delay(parent) + R_edge * down_cap(node).
    delay: Dict[Tuple[int, int], float] = {root: 0.0}
    for node in order[1:]:
        up, r = parent[node]
        delay[node] = delay[up] + r * down_cap[node] * OHM_FF_TO_PS

    fallback = max(delay.values(), default=0.0)
    for sink, node in sink_nodes.items():
        result.elmore_ps[sink] = delay.get(node, fallback)
    return result


def extract_all(
    circuit: Circuit,
    placement: Placement,
    routed_nets: Dict[str, RoutedNet],
    stack: Optional[List[MetalLayer]] = None,
) -> Dict[str, NetParasitics]:
    """Extract every routed net; returns parasitics keyed by net name."""
    stack = stack or metal_stack_130nm()
    layers = {layer.index: layer for layer in stack}
    out: Dict[str, NetParasitics] = {}
    for name in circuit.nets:
        routed = routed_nets.get(name)
        if routed is None:
            routed = RoutedNet(net=name)
        out[name] = extract_net(circuit, placement, routed, layers)
    return out


def extract_incremental(
    circuit: Circuit,
    placement: Placement,
    routed_nets: Dict[str, RoutedNet],
    previous: Dict[str, NetParasitics],
    dirty_nets: Iterable[str],
    stack: Optional[List[MetalLayer]] = None,
) -> Dict[str, NetParasitics]:
    """Re-extract only the dirty nets, reusing prior parasitics.

    The dirty-set contract: a net's reused :class:`NetParasitics` is
    valid only if neither its route, its pin set, nor any of its pin
    positions changed since ``previous`` was extracted — callers must
    list every such net in ``dirty_nets``.  Nets absent from
    ``previous`` (newly created) are always extracted; nets deleted
    from the circuit are dropped.  Given a complete dirty set the
    result equals :func:`extract_all` exactly, because per-net
    extraction is independent.

    Args:
        circuit: Netlist after the edit.
        placement: Current placement (pin positions).
        routed_nets: Current routes for the whole design.
        previous: Parasitics from the last full or incremental pass.
        dirty_nets: Nets whose geometry may have changed.
        stack: Metal stack (defaults to the 130 nm stack).

    Returns:
        Parasitics for every net of the circuit, keyed by name.
    """
    stack = stack or metal_stack_130nm()
    layers = {layer.index: layer for layer in stack}
    dirty = set(dirty_nets)
    out: Dict[str, NetParasitics] = {}
    for name in circuit.nets:
        prior = previous.get(name)
        if prior is not None and name not in dirty:
            out[name] = prior
            continue
        routed = routed_nets.get(name)
        if routed is None:
            routed = RoutedNet(net=name)
        out[name] = extract_net(circuit, placement, routed, layers)
    return out
