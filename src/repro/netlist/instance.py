"""Instance: one placed occurrence of a library cell in a netlist."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.library.cell import LibraryCell


@dataclass
class Instance:
    """One instantiated standard cell.

    Attributes:
        name: Unique instance name within the circuit.
        cell: The library cell this instance realises.
        conns: Mapping from library pin name to net name.  Pins may be
            unconnected (absent) transiently during netlist editing, but
            :mod:`repro.netlist.validate` rejects unconnected pins on a
            finished netlist.
    """

    name: str
    cell: "LibraryCell"
    conns: Dict[str, str] = field(default_factory=dict)

    @property
    def cell_name(self) -> str:
        """Library cell name (e.g. ``"NAND2_X1"``)."""
        return self.cell.name

    @property
    def is_sequential(self) -> bool:
        """True for flip-flop-like cells (DFF, scan FF, TSFF)."""
        return self.cell.is_sequential

    def input_conns(self) -> Iterator[Tuple[str, str]]:
        """Yield ``(pin, net)`` for every connected input pin."""
        for pin in self.cell.input_pins:
            net = self.conns.get(pin)
            if net is not None:
                yield pin, net

    def output_conns(self) -> Iterator[Tuple[str, str]]:
        """Yield ``(pin, net)`` for every connected output pin."""
        for pin in self.cell.output_pins:
            net = self.conns.get(pin)
            if net is not None:
                yield pin, net
