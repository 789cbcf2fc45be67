"""Clock-domain assignment for inserted test points.

Step 2 of the paper's three TPI steps (Section 3.1): "determine the
appropriate clock signal for each TSFF, which is required for circuits
with multiple clock domains".  A TSFF inserted into combinational logic
must be clocked by the domain whose registers launch/capture through
that logic, otherwise scan capture would race the functional clocks.

The assignment walks the netlist breadth-first from the insertion net,
both backwards and forwards, until it meets sequential cells; the
majority domain among the nearest flip-flops wins.  A circuit whose
flip-flops all sit on its first declared clock needs no walk:
:func:`single_clock` names that clock once per TPI run.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Optional, Set

from repro.netlist.circuit import Circuit
from repro.netlist.net import PORT


def nearest_domains(circuit: Circuit, net: str,
                    max_radius: int = 12) -> Counter:
    """Count clock domains of the flip-flops nearest to ``net``.

    Args:
        circuit: The netlist.
        net: Net where the test point will be inserted.
        max_radius: BFS depth bound (nets).

    Returns:
        Counter of clock-net names, weighted by 1/(1+distance) so that
        closer registers dominate.
    """
    counts: Counter = Counter()
    seen: Set[str] = {net}
    queue = deque([(net, 0)])
    while queue:
        current, dist = queue.popleft()
        if dist > max_radius:
            continue
        cnet = circuit.nets[current]
        neighbours = []
        # Backwards through the driver.
        if cnet.driver is not None and cnet.driver[0] != PORT:
            neighbours.append(cnet.driver[0])
        # Forwards through the sinks.
        neighbours.extend(
            inst for inst, _ in cnet.sinks if inst != PORT
        )
        for inst_name in neighbours:
            inst = circuit.instances[inst_name]
            if inst.is_sequential:
                clock = circuit.clock_of(inst_name)
                if clock is not None:
                    counts[clock] += 1.0 / (1 + dist)
                continue
            for _, nxt in list(inst.input_conns()) + list(inst.output_conns()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, dist + 1))
    return counts


def assign_clock(circuit: Circuit, net: str) -> str:
    """Clock domain for a test point on ``net``.

    Falls back to the circuit's first declared clock when no register
    is reachable (isolated logic).
    """
    counts = nearest_domains(circuit, net)
    if counts:
        return counts.most_common(1)[0][0]
    if not circuit.clocks:
        raise ValueError("circuit has no clock domains")
    return circuit.clocks[0].net


def single_clock(circuit: Circuit) -> Optional[str]:
    """The clock :func:`assign_clock` returns for every net, if one is
    certain.

    When every sequential instance is unclocked or on the first
    declared clock, the walk can only count that clock, and its
    fallback is that clock too.  A TSFF inserted on it keeps the
    condition, so one check covers a whole TPI run.

    Returns:
        The first declared clock's net, or None when the circuit
        declares no clock or has flip-flops on another clock.
    """
    if not circuit.clocks:
        return None
    first = circuit.clocks[0].net
    for name, inst in circuit.instances.items():
        if inst.is_sequential and circuit.clock_of(name) not in (None, first):
            return None
    return first
