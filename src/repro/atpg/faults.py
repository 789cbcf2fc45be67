"""Single stuck-at fault model: fault universe, classes and collapsing.

The fault universe follows the pin-fault convention of industrial ATPG:
one stem fault pair per net plus one branch fault pair per fanout sink.
Faults on the scan path itself (scan-in, scan-enable, TR and clock pins)
are covered by the scan shift and flush tests rather than by capture
patterns (paper Section 3.1 describes the flush test for the TSFF mux
path), so they are classified ``scan_path`` and credited as detected by
those structural tests — which is why the paper's fault coverage rises
slightly after TPI: the added test-point faults are easy to detect.

Equivalence collapsing is structural: branch faults on fanout-free nets
collapse into their stems, and stem faults collapse through
buffer/inverter chains.  ATPG targets class representatives; detection
is credited to whole classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.levelize import CombView
from repro.netlist.net import PORT, PinRef


class FaultStatus(Enum):
    """Lifecycle of a fault during test generation."""

    UNDETECTED = "undetected"
    DETECTED = "detected"
    SCAN_TESTED = "scan_tested"  # covered by scan shift / flush tests
    REDUNDANT = "redundant"      # proven untestable
    ABORTED = "aborted"          # ATPG gave up (backtrack limit)


class Fault(NamedTuple):
    """One single stuck-at fault.

    A named tuple, so hashing and equality run in C.  Its hash,
    ``hash((net, sink, value))``, sets the iteration order of the fault
    sets that ATPG walks, and with it the kept patterns, so it must not
    change (``tests/test_fault_sim.py`` pins it).

    Attributes:
        net: The faulted net.
        sink: ``None`` for the stem fault; a ``(instance, pin)``
            reference for a branch fault at that sink.
        value: Stuck-at value, 0 or 1.
    """

    net: str
    sink: Optional[PinRef]
    value: int

    def __str__(self) -> str:
        where = self.net if self.sink is None else (
            f"{self.net}->{self.sink[0]}.{self.sink[1]}"
        )
        return f"{where} sa{self.value}"


@dataclass
class FaultList:
    """The complete fault universe of a circuit.

    Attributes:
        faults: Every fault, in deterministic order.
        status: Current status per fault.
        representative: Maps each fault to its equivalence-class
            representative (itself for class leaders).
    """

    faults: List[Fault] = field(default_factory=list)
    status: Dict[Fault, FaultStatus] = field(default_factory=dict)
    representative: Dict[Fault, Fault] = field(default_factory=dict)
    _members: Dict[Fault, List[Fault]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def rebuild_classes(self) -> None:
        """Recompute the representative -> members index."""
        self._members = {}
        for fault, rep in self.representative.items():
            self._members.setdefault(rep, []).append(fault)

    def classes(self) -> Dict[Fault, List[Fault]]:
        """Equivalence classes: representative -> members."""
        if not self._members:
            self.rebuild_classes()
        return self._members

    def targets(self) -> List[Fault]:
        """Class representatives still awaiting detection."""
        return [
            rep
            for rep in self.classes()
            if self.status[rep] is FaultStatus.UNDETECTED
        ]

    def mark(self, fault: Fault, status: FaultStatus) -> None:
        """Set the status of ``fault``'s whole equivalence class."""
        rep = self.representative[fault]
        for member in self.classes()[rep]:
            self.status[member] = status

    def mark_many(self, faults: Iterable[Fault], status: FaultStatus) -> None:
        """Mark several faults (and their classes) at once."""
        for fault in faults:
            self.mark(fault, status)

    # ------------------------------------------------------------------
    def count(self, status: FaultStatus) -> int:
        """Number of faults currently in ``status``."""
        return sum(1 for s in self.status.values() if s is status)

    @property
    def total(self) -> int:
        """Total number of faults in the universe."""
        return len(self.faults)

    @property
    def detected(self) -> int:
        """Faults detected by capture patterns or scan/flush tests."""
        return self.count(FaultStatus.DETECTED) + self.count(
            FaultStatus.SCAN_TESTED
        )

    @property
    def fault_coverage(self) -> float:
        """FC = detected / total (paper Table 1)."""
        return self.detected / self.total if self.total else 1.0

    @property
    def fault_efficiency(self) -> float:
        """FE = (detected + proven redundant) / total (paper Table 1)."""
        if not self.total:
            return 1.0
        return (self.detected + self.count(FaultStatus.REDUNDANT)) / self.total


def _scan_path_pins(circuit: Circuit) -> Dict[str, set]:
    """Input pins per instance that belong to the scan/test path."""
    result: Dict[str, set] = {}
    for inst in circuit.instances.values():
        seq = inst.cell.sequential
        if seq is None:
            continue
        pins = {seq.clock_pin}
        if seq.scan_in is not None:
            pins.add(seq.scan_in)
        if seq.scan_enable is not None:
            pins.add(seq.scan_enable)
        if seq.test_point_enable is not None:
            pins.add(seq.test_point_enable)
        result[inst.name] = pins
    return result


def build_fault_list(circuit: Circuit, view: CombView) -> FaultList:
    """Construct the fault universe for ``circuit``.

    Args:
        circuit: The netlist (defines nets/pins and hence the universe).
        view: Its test-mode combinational view (defines which faults are
            reachable by capture patterns vs. scan-path tests).

    Returns:
        A fault list with scan-path faults pre-marked ``SCAN_TESTED``
        and structural equivalence collapsing applied.
    """
    flist = FaultList()
    scan_pins = _scan_path_pins(circuit)
    control_nets = set(view.constants) | {d.net for d in circuit.clocks}
    node_of = view.node_by_output()

    def add(fault: Fault, scan_path: bool) -> None:
        flist.faults.append(fault)
        flist.status[fault] = (
            FaultStatus.SCAN_TESTED if scan_path else FaultStatus.UNDETECTED
        )
        flist.representative[fault] = fault

    for net_name in sorted(circuit.nets):
        net = circuit.nets[net_name]
        if net.driver is None:
            continue
        net_is_control = net_name in control_nets
        in_view = net_name in node_of or net_name in view.input_nets
        stem_scan = net_is_control or not in_view
        for value in (0, 1):
            add(Fault(net_name, None, value), stem_scan)
        if net.fanout <= 1:
            continue
        for sink in net.sinks:
            inst_name, pin = sink
            branch_scan = stem_scan
            if inst_name != PORT and pin in scan_pins.get(inst_name, ()):
                branch_scan = True
            for value in (0, 1):
                add(Fault(net_name, sink, value), branch_scan)

    _collapse(circuit, view, flist)
    return flist


def _collapse(circuit: Circuit, view: CombView, flist: FaultList) -> None:
    """Structural equivalence collapsing.

    Two rules (applied only within capture-targetable faults):

    * branch faults of single-fanout nets are the stem fault (handled
      at construction: no branches are emitted for fanout-1 nets);
    * a buffer/inverter output stem fault is equivalent to its (possibly
      inverted) input stem fault when the input net is fanout-free.
    """
    by_key: Dict[Tuple[str, Optional[PinRef], int], Fault] = {
        (f.net, f.sink, f.value): f for f in flist.faults
    }

    def find(key: Tuple[str, Optional[PinRef], int]) -> Optional[Fault]:
        return by_key.get(key)

    for node in view.nodes:
        cell = node.inst.cell
        if not (cell.is_buffer_like or len(cell.input_pins) == 1):
            continue
        if cell.is_sequential:
            continue
        in_pin = cell.input_pins[0]
        in_net = node.pin_nets.get(in_pin)
        if in_net is None or circuit.nets[in_net].fanout != 1:
            continue
        inverting = cell.name.startswith("INV")
        for value in (0, 1):
            out_fault = find((node.out_net, None, value))
            in_value = 1 - value if inverting else value
            in_fault = find((in_net, None, in_value))
            if out_fault is None or in_fault is None:
                continue
            rep = flist.representative[in_fault]
            flist.representative[out_fault] = rep
            flist.status[out_fault] = flist.status[rep]
    flist.rebuild_classes()
