"""Net: a single electrical node connecting one driver to many sinks.

A :class:`Net` stores connectivity only; electrical data (extracted RC,
routed segments) live in the layout/extraction layers and reference nets
by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: A pin reference: ``(instance_name, pin_name)``.  Ports (primary inputs
#: and outputs) use the reserved instance name ``"@port"``.
PinRef = Tuple[str, str]

#: Reserved pseudo-instance name used for circuit ports in pin references.
PORT = "@port"


@dataclass
class Net:
    """One net in a gate-level netlist.

    Attributes:
        name: Unique net name within the circuit.
        driver: The pin driving this net, or ``None`` while unconnected.
            Primary inputs are driven by ``(PORT, <port_name>)``.
        sinks: Pins reading this net.  A primary output appears as the
            sink ``(PORT, <port_name>)``.
    """

    name: str
    driver: Optional[PinRef] = None
    sinks: List[PinRef] = field(default_factory=list)

    def add_sink(self, inst: str, pin: str) -> None:
        """Attach a sink pin; duplicate attachments are rejected."""
        ref = (inst, pin)
        if ref in self.sinks:
            raise ValueError(f"pin {ref} already a sink of net {self.name!r}")
        self.sinks.append(ref)

    def remove_sink(self, inst: str, pin: str) -> None:
        """Detach a sink pin; missing attachments are rejected."""
        try:
            self.sinks.remove((inst, pin))
        except ValueError:
            raise ValueError(
                f"pin ({inst!r}, {pin!r}) is not a sink of net {self.name!r}"
            ) from None

    @property
    def fanout(self) -> int:
        """Number of sink pins on the net."""
        return len(self.sinks)

    def instance_sinks(self) -> List[PinRef]:
        """Sinks that are real instance pins (ports filtered out)."""
        return [ref for ref in self.sinks if ref[0] != PORT]
