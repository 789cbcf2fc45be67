"""Circuit: a flat gate-level netlist of library-cell instances and nets.

The circuit is the central mutable object of the whole flow: test-point
insertion, scan stitching and ECO steps all rewrite it in place, while
analysis passes (testability, ATPG, STA) read it.

Conventions
-----------
* A primary input port ``p`` drives the net named ``p`` (driver
  ``(PORT, p)``).
* A primary output port ``p`` is the sink ``(PORT, p)`` on some net.
* Clock nets are regular nets listed in :attr:`Circuit.clocks` together
  with their target period; flip-flop CLK pins connect to them.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.netlist.instance import Instance
from repro.netlist.net import PORT, Net, PinRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.library.cell import LibraryCell


@dataclass
class ClockDomain:
    """A clock net together with its target period.

    Attributes:
        net: Name of the clock net (also a primary input).
        period_ps: Target clock period in picoseconds.
    """

    net: str
    period_ps: float


class Circuit:
    """A flat gate-level netlist.

    Args:
        name: Circuit (module) name.
    """

    def __init__(self, name: str):
        self.name = name
        self.instances: Dict[str, Instance] = {}
        self.nets: Dict[str, Net] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self._output_net: Dict[str, str] = {}
        self.clocks: List[ClockDomain] = []
        self._name_counter = itertools.count()
        # Dirty-set tracker: every mutation records the nets and
        # instances it touched, so incremental ECO passes (scoped
        # re-route / re-extract / re-STA) know exactly what changed
        # since the last reset_dirty() snapshot.
        self._dirty_nets: Set[str] = set()
        self._dirty_instances: Set[str] = set()

    # ------------------------------------------------------------------
    # Dirty-set tracking (incremental ECO contract)
    # ------------------------------------------------------------------
    @property
    def dirty_nets(self) -> FrozenSet[str]:
        """Nets touched since the last :meth:`reset_dirty` snapshot.

        A net is *touched* when it is created or removed, gains or
        loses a driver or sink, or is explicitly marked via
        :meth:`mark_nets_dirty` (e.g. because a connected instance
        moved during ECO placement).  Names of since-deleted nets may
        appear; consumers must tolerate them.
        """
        return frozenset(self._dirty_nets)

    @property
    def dirty_instances(self) -> FrozenSet[str]:
        """Instances touched since the last :meth:`reset_dirty`.

        An instance is *touched* when it is created or removed, a pin
        is (dis)connected or rewired, or its library cell is swapped.
        Pure placement moves do not dirty the instance (its timing
        arcs are unchanged); they dirty its nets instead.
        """
        return frozenset(self._dirty_instances)

    def mark_nets_dirty(self, names: Iterable[str]) -> None:
        """Explicitly mark nets as changed (e.g. after a cell moved)."""
        self._dirty_nets.update(names)

    def mark_instances_dirty(self, names: Iterable[str]) -> None:
        """Explicitly mark instances as changed."""
        self._dirty_instances.update(names)

    def reset_dirty(self) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """Snapshot and clear the dirty sets.

        Returns:
            ``(dirty_nets, dirty_instances)`` accumulated since the
            previous reset (or construction).
        """
        snapshot = (frozenset(self._dirty_nets),
                    frozenset(self._dirty_instances))
        self._dirty_nets.clear()
        self._dirty_instances.clear()
        return snapshot

    # ------------------------------------------------------------------
    # Construction primitives
    # ------------------------------------------------------------------
    def add_net(self, name: str) -> Net:
        """Create an unconnected net.  Names must be unique."""
        if name in self.nets:
            raise ValueError(f"net {name!r} already exists in {self.name!r}")
        net = Net(name)
        self.nets[name] = net
        self._dirty_nets.add(name)
        return net

    def new_net(self, prefix: str = "n") -> Net:
        """Create a net with a fresh auto-generated name."""
        while True:
            name = f"{prefix}_{next(self._name_counter)}"
            if name not in self.nets:
                return self.add_net(name)

    def new_instance_name(self, prefix: str) -> str:
        """Return a fresh instance name with the given prefix."""
        while True:
            name = f"{prefix}_{next(self._name_counter)}"
            if name not in self.instances:
                return name

    def add_input(self, name: str) -> Net:
        """Declare a primary input port and its same-named net."""
        net = self.add_net(name)
        net.driver = (PORT, name)
        self.inputs.append(name)
        return net

    def add_output(self, name: str, net: Optional[str] = None) -> None:
        """Declare a primary output port reading ``net`` (default: same name)."""
        net_name = net if net is not None else name
        if net_name not in self.nets:
            raise KeyError(f"net {net_name!r} does not exist")
        self.nets[net_name].add_sink(PORT, name)
        self.outputs.append(name)
        self._output_net[name] = net_name

    def add_clock(self, name: str, period_ps: float) -> Net:
        """Declare a clock port: a primary input tracked as a clock domain."""
        net = self.add_input(name)
        self.clocks.append(ClockDomain(net=name, period_ps=period_ps))
        return net

    def output_net(self, port: str) -> str:
        """Net observed by primary output port ``port``."""
        return self._output_net[port]

    def add_instance(
        self,
        name: str,
        cell: "LibraryCell",
        conns: Optional[Dict[str, str]] = None,
    ) -> Instance:
        """Instantiate ``cell`` and connect the given pins.

        Args:
            name: Unique instance name.
            cell: Library cell to instantiate.
            conns: Pin-to-net mapping; every referenced net must exist.
        """
        if name in self.instances:
            raise ValueError(f"instance {name!r} already exists")
        inst = Instance(name=name, cell=cell)
        self.instances[name] = inst
        self._dirty_instances.add(name)
        for pin, net in (conns or {}).items():
            self.connect(name, pin, net)
        return inst

    def connect(self, inst_name: str, pin: str, net_name: str) -> None:
        """Connect an instance pin to a net, registering driver/sink."""
        inst = self.instances[inst_name]
        net = self.nets[net_name]
        if pin in inst.conns:
            raise ValueError(f"pin {inst_name}.{pin} is already connected")
        if pin not in inst.cell.pins:
            raise KeyError(f"cell {inst.cell.name!r} has no pin {pin!r}")
        inst.conns[pin] = net_name
        self._dirty_nets.add(net_name)
        self._dirty_instances.add(inst_name)
        if inst.cell.pin_is_output(pin):
            if net.driver is not None:
                raise ValueError(
                    f"net {net_name!r} already driven by {net.driver}; "
                    f"cannot add driver {inst_name}.{pin}"
                )
            net.driver = (inst_name, pin)
        else:
            net.add_sink(inst_name, pin)

    def disconnect(self, inst_name: str, pin: str) -> str:
        """Disconnect an instance pin; returns the net it was on."""
        inst = self.instances[inst_name]
        net_name = inst.conns.pop(pin)
        net = self.nets[net_name]
        self._dirty_nets.add(net_name)
        self._dirty_instances.add(inst_name)
        if inst.cell.pin_is_output(pin):
            net.driver = None
        else:
            net.remove_sink(inst_name, pin)
        return net_name

    def remove_instance(self, name: str) -> None:
        """Delete an instance, detaching all of its pins."""
        inst = self.instances[name]
        for pin in list(inst.conns):
            self.disconnect(name, pin)
        del self.instances[name]
        self._dirty_instances.add(name)

    def remove_net(self, name: str) -> None:
        """Delete a net; it must be completely unconnected."""
        net = self.nets[name]
        if net.driver is not None or net.sinks:
            raise ValueError(f"net {name!r} is still connected")
        del self.nets[name]
        self._dirty_nets.add(name)

    # ------------------------------------------------------------------
    # Netlist editing used by TPI / scan / ECO
    # ------------------------------------------------------------------
    def split_net_before_sinks(
        self, net_name: str, sinks: Iterable[PinRef], new_prefix: str = "tp"
    ) -> Net:
        """Detach ``sinks`` from a net and move them to a fresh net.

        This is the primitive behind test-point insertion: the inserted
        cell's input is connected to the original net and its output to
        the returned net, which now feeds the moved sinks.

        Args:
            net_name: The net to split.
            sinks: Subset of the net's current sinks to move.
            new_prefix: Prefix for the freshly created net's name.

        Returns:
            The new net carrying the moved sinks (undriven on return).
        """
        net = self.nets[net_name]
        moved = list(sinks)
        for inst, pin in moved:
            if (inst, pin) not in net.sinks:
                raise ValueError(f"({inst}, {pin}) is not a sink of {net_name!r}")
        new_net = self.new_net(prefix=new_prefix)
        self._dirty_nets.add(net_name)
        for inst, pin in moved:
            net.remove_sink(inst, pin)
            if inst == PORT:
                new_net.add_sink(PORT, pin)
                self._output_net[pin] = new_net.name
            else:
                self.instances[inst].conns[pin] = new_net.name
                new_net.add_sink(inst, pin)
                self._dirty_instances.add(inst)
        return new_net

    def swap_cell(self, inst_name: str, new_cell: "LibraryCell") -> None:
        """Replace an instance's library cell, keeping same-named pins.

        Pins present on the old cell but absent on the new one must be
        unconnected; pins new to the new cell start unconnected.  Used
        for scan substitution (DFF -> SDFF) and drive-strength changes.
        """
        inst = self.instances[inst_name]
        for pin in inst.conns:
            if pin not in new_cell.pins:
                raise ValueError(
                    f"pin {pin!r} of {inst_name!r} is connected but cell "
                    f"{new_cell.name!r} has no such pin"
                )
            if new_cell.pin_is_output(pin) != inst.cell.pin_is_output(pin):
                raise ValueError(
                    f"pin {pin!r} changes direction between {inst.cell.name!r} "
                    f"and {new_cell.name!r}"
                )
        inst.cell = new_cell
        self._dirty_instances.add(inst_name)
        self._dirty_nets.update(inst.conns.values())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def driver_instance(self, net_name: str) -> Optional[Instance]:
        """Instance driving a net, or None for ports/undriven nets."""
        driver = self.nets[net_name].driver
        if driver is None or driver[0] == PORT:
            return None
        return self.instances[driver[0]]

    def flip_flops(self) -> List[Instance]:
        """All sequential instances, in deterministic (insertion) order."""
        return [inst for inst in self.instances.values() if inst.is_sequential]

    @property
    def num_flip_flops(self) -> int:
        """Number of sequential instances."""
        return sum(1 for inst in self.instances.values() if inst.is_sequential)

    @property
    def num_cells(self) -> int:
        """Number of instances of every kind (fillers included)."""
        return len(self.instances)

    def clock_of(self, inst_name: str) -> Optional[str]:
        """Clock net of a sequential instance, or None."""
        inst = self.instances[inst_name]
        clk_pin = inst.cell.clock_pin
        if clk_pin is None:
            return None
        return inst.conns.get(clk_pin)

    def clock_period_ps(self, clock_net: str) -> float:
        """Target period of a declared clock domain."""
        for dom in self.clocks:
            if dom.net == clock_net:
                return dom.period_ps
        raise KeyError(f"{clock_net!r} is not a declared clock")

    def total_cell_area(self) -> float:
        """Sum of the library areas of all instances, in um^2."""
        return sum(inst.cell.area_um2 for inst in self.instances.values())

    def stats(self) -> Dict[str, int]:
        """Headline size statistics used in reports and tests."""
        n_ff = self.num_flip_flops
        return {
            "cells": self.num_cells,
            "flip_flops": n_ff,
            "combinational": self.num_cells - n_ff,
            "nets": len(self.nets),
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
        }

    def clone(self, name: Optional[str] = None) -> "Circuit":
        """Deep copy of the netlist (library cells are shared).

        The clone starts with empty dirty sets: dirty tracking is a
        per-object snapshot, not part of the netlist state.
        """
        dup = Circuit(name or self.name)
        dup.inputs = list(self.inputs)
        dup.outputs = list(self.outputs)
        dup._output_net = dict(self._output_net)
        dup.clocks = [ClockDomain(c.net, c.period_ps) for c in self.clocks]
        dup.nets = {
            n: Net(net.name, net.driver, list(net.sinks))
            for n, net in self.nets.items()
        }
        dup.instances = {
            i: Instance(inst.name, inst.cell, dict(inst.conns))
            for i, inst in self.instances.items()
        }
        dup._name_counter = itertools.count(next(copy.copy(self._name_counter)))
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<Circuit {self.name!r}: {s['cells']} cells "
            f"({s['flip_flops']} FFs), {s['nets']} nets>"
        )
