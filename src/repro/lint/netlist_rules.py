"""Netlist/DFT rule pack: structural and scan-architecture audits.

The pack has two tiers sharing the ``"netlist"`` rule registry:

* **structural** rules (``NL*`` plus DFT002) are the cheap integrity
  checks that :func:`repro.core.flow.validate` runs between flow
  steps — undriven/multi-driven nets, unconnected pins, stale
  driver/sink back-references, port wiring, clock-pin discipline;
* **DFT** rules (``DFT*``) audit the test architecture itself:
  combinational loops in the scan-capture view, unscanned flip-flops,
  scan-chain continuity and balance, test-enable fanout and the clock
  domains of inserted test points.

Run the whole pack with :func:`lint_netlist`; pass ``nets`` (e.g. a
:attr:`Circuit.dirty_nets` snapshot) to re-audit only the neighbourhood
an ECO round touched.

This module must not be imported from ``repro.netlist`` package init
paths; it imports circuit/net submodules directly and defers the
scan/tpi imports into the rule bodies to stay cycle-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.lint.core import (
    Diagnostic,
    ERROR,
    LintReport,
    Rule,
    WARNING,
    make_diagnostic,
    pack_rules,
    rule,
    run_rules,
)
from repro.netlist.circuit import Circuit
from repro.netlist.instance import Instance
from repro.netlist.net import Net, PORT

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.scan.insertion import ScanChains

PACK = "netlist"


@dataclass
class NetlistContext:
    """Everything the netlist rules inspect.

    Attributes:
        circuit: The design under audit.
        chains: Scan-chain configuration, when scan has been stitched
            (enables the chain rules DFT003-DFT005).
        max_chain_length: Configured balanced-chain cap (DFT005).
        n_chains: Configured fixed chain count (DFT005).
        nets: When set, per-net/per-instance rules only audit this
            neighbourhood — the cheap post-ECO re-lint over a dirty
            set.  Whole-design rules (loops, chain continuity) always
            run; they are linear and cannot be scoped soundly.
    """

    circuit: Circuit
    chains: Optional["ScanChains"] = None
    max_chain_length: Optional[int] = None
    n_chains: Optional[int] = None
    nets: Optional[FrozenSet[str]] = None

    def net_items(self) -> Iterator[Tuple[str, Net]]:
        """Nets in scope, in the circuit's deterministic dict order."""
        for name, net in self.circuit.nets.items():
            if self.nets is None or name in self.nets:
                yield name, net

    def instances(self) -> Iterator[Instance]:
        """Instances in scope (touching a scoped net, or all)."""
        for inst in self.circuit.instances.values():
            if self.nets is None or any(
                net in self.nets for net in inst.conns.values()
            ):
                yield inst

    @property
    def clock_nets(self) -> FrozenSet[str]:
        """Declared clock-domain nets."""
        return frozenset(dom.net for dom in self.circuit.clocks)


# ----------------------------------------------------------------------
# Structural tier (the subset flow.validate() runs)
# ----------------------------------------------------------------------
@rule(PACK, "NL001", "undriven net", severity=ERROR, structural=True,
      hint="connect a driver or remove the net")
def check_undriven_nets(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """Every net must have exactly one driver recorded."""
    entry = _rule("NL001")
    for name, net in ctx.net_items():
        if net.driver is None:
            yield make_diagnostic(
                entry, f"net {name!r} has no driver", obj=name,
            )


@rule(PACK, "NL002", "multi-driven net", severity=ERROR, structural=True,
      hint="exactly one output pin (or input port) may drive a net")
def check_multi_driven_nets(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """No net may be claimed by more than one driving pin.

    :meth:`Circuit.connect` prevents this during normal editing; the
    rule catches corruption introduced by direct attribute writes or a
    torn in-place rewrite.
    """
    entry = _rule("NL002")
    drivers: Dict[str, List[Tuple[str, str]]] = {}
    for port in ctx.circuit.inputs:
        drivers.setdefault(port, []).append((PORT, port))
    for inst in ctx.circuit.instances.values():
        for pin, net in inst.output_conns():
            drivers.setdefault(net, []).append((inst.name, pin))
    for name, pins in drivers.items():
        if ctx.nets is not None and name not in ctx.nets:
            continue
        if len(pins) > 1:
            listed = ", ".join(f"{i}.{p}" for i, p in pins)
            yield make_diagnostic(
                entry,
                f"net {name!r} driven by multiple pins: {listed}",
                obj=name,
            )


@rule(PACK, "NL003", "dangling net", severity=WARNING, structural=True,
      hint="remove the net or connect its intended sinks")
def check_dangling_nets(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """A net without sinks is legal but suspicious (floating output)."""
    entry = _rule("NL003")
    for name, net in ctx.net_items():
        if not net.sinks:
            yield make_diagnostic(
                entry, f"net {name!r} has no sinks (dangling)", obj=name,
            )


@rule(PACK, "NL004", "unconnected instance input", severity=ERROR,
      structural=True, hint="every pin of a placed cell must be wired")
def check_unconnected_pins(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """Every pin of every non-filler instance must be connected."""
    entry = _rule("NL004")
    for inst in ctx.instances():
        if inst.cell.is_filler:
            continue
        for pin_name in inst.cell.pins:
            if pin_name not in inst.conns:
                yield make_diagnostic(
                    entry,
                    f"pin {inst.name}.{pin_name} ({inst.cell.name}) "
                    f"unconnected",
                    obj=inst.name,
                )


@rule(PACK, "NL005", "stale connectivity back-reference", severity=ERROR,
      structural=True,
      hint="net.driver/net.sinks must mirror instance.conns exactly")
def check_back_references(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """Driver and sink back-references must mirror instance pin maps."""
    entry = _rule("NL005")
    circuit = ctx.circuit
    for name, net in ctx.net_items():
        if net.driver is not None and net.driver[0] != PORT:
            inst_name, pin = net.driver
            inst = circuit.instances.get(inst_name)
            if inst is None:
                yield make_diagnostic(
                    entry,
                    f"net {name!r} driven by missing instance {inst_name!r}",
                    obj=name,
                )
            elif inst.conns.get(pin) != name:
                yield make_diagnostic(
                    entry,
                    f"driver back-reference of net {name!r} is stale",
                    obj=name,
                )
        for inst_name, pin in net.sinks:
            if inst_name == PORT:
                continue
            inst = circuit.instances.get(inst_name)
            if inst is None:
                yield make_diagnostic(
                    entry,
                    f"net {name!r} read by missing instance {inst_name!r}",
                    obj=name,
                )
            elif inst.conns.get(pin) != name:
                yield make_diagnostic(
                    entry,
                    f"sink back-reference ({inst_name}.{pin}) of net "
                    f"{name!r} is stale",
                    obj=name,
                )


@rule(PACK, "NL006", "port wiring integrity", severity=ERROR,
      structural=True, hint="ports and their nets must stay paired")
def check_port_wiring(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """Primary ports must stay consistently wired to their nets."""
    entry = _rule("NL006")
    circuit = ctx.circuit
    for port in circuit.outputs:
        net = circuit.output_net(port)
        if ctx.nets is not None and net not in ctx.nets:
            continue
        if net not in circuit.nets:
            yield make_diagnostic(
                entry, f"output port {port!r} reads missing net", obj=port,
            )
        elif (PORT, port) not in circuit.nets[net].sinks:
            yield make_diagnostic(
                entry, f"output port {port!r} not a sink of {net!r}",
                obj=port,
            )
    for port in circuit.inputs:
        if ctx.nets is not None and port not in ctx.nets:
            continue
        if port not in circuit.nets:
            yield make_diagnostic(
                entry, f"input port {port!r} has no net", obj=port,
            )
        elif circuit.nets[port].driver != (PORT, port):
            yield make_diagnostic(
                entry, f"input net {port!r} not driven by its port",
                obj=port,
            )


@rule(PACK, "DFT002", "flip-flop clocking", severity=ERROR,
      structural=True,
      hint="clock pins must tie to a declared clock domain or a "
           "clock-tree buffer net")
def check_flip_flop_clocking(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """Connected clock pins must see a clock domain or clock-tree net.

    Unconnected clock pins are already NL004 findings; this rule flags
    clock pins wired to a non-clock net (a data net racing the scan
    capture).  Nets driven by clock-tree buffers are legal, mirroring
    the between-steps audit's allowance for synthesised trees.
    """
    entry = _rule("DFT002")
    circuit = ctx.circuit
    clock_nets = ctx.clock_nets
    for inst in ctx.instances():
        if inst.cell.is_filler:
            continue
        for pin_name, pin in inst.cell.pins.items():
            if not pin.is_clock:
                continue
            net = inst.conns.get(pin_name)
            if net is None or net in clock_nets:
                continue
            driver = circuit.driver_instance(net) if net in circuit.nets \
                else None
            if driver is None or not driver.cell.is_clock_buffer:
                yield make_diagnostic(
                    entry,
                    f"clock pin {inst.name}.{pin_name} tied to {net!r}, "
                    f"not a clock domain or clock-tree net",
                    obj=inst.name,
                )


# ----------------------------------------------------------------------
# DFT tier
# ----------------------------------------------------------------------
@rule(PACK, "DFT001", "combinational loop", severity=ERROR,
      hint="break the cycle: ATPG, simulation and STA all require an "
           "acyclic combinational core")
def check_combinational_loops(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """The combinational core (flip-flops cut) must be acyclic."""
    entry = _rule("DFT001")
    circuit = ctx.circuit
    comb = [
        inst for inst in circuit.instances.values()
        if not inst.is_sequential and not inst.cell.is_filler
    ]
    names = {inst.name for inst in comb}
    indegree: Dict[str, int] = {inst.name: 0 for inst in comb}
    fanout: Dict[str, List[str]] = {}
    for inst in comb:
        for _, net_name in inst.input_conns():
            net = circuit.nets.get(net_name)
            if net is None or net.driver is None:
                continue
            driver = net.driver[0]
            if driver != PORT and driver in names:
                indegree[inst.name] += 1
                fanout.setdefault(driver, []).append(inst.name)
    ready = [name for name in indegree if indegree[name] == 0]
    resolved = 0
    while ready:
        name = ready.pop()
        resolved += 1
        for downstream in fanout.get(name, []):
            indegree[downstream] -= 1
            if indegree[downstream] == 0:
                ready.append(downstream)
    if resolved != len(comb):
        stuck = [name for name in indegree if indegree[name] > 0]
        shown = ", ".join(stuck[:10])
        more = f" (+{len(stuck) - 10} more)" if len(stuck) > 10 else ""
        yield make_diagnostic(
            entry,
            f"combinational loop through {len(stuck)} cell(s): "
            f"{shown}{more}",
            obj=stuck[0] if stuck else None,
        )


@rule(PACK, "DFT003", "unscanned flip-flop", severity=ERROR,
      hint="full-scan flows must stitch every sequential cell into a "
           "chain")
def check_unscanned_flip_flops(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """After scan insertion, every flip-flop is a scan cell in a chain."""
    entry = _rule("DFT003")
    if ctx.chains is None:
        return
    members = {name for chain in ctx.chains.chains for name in chain}
    for inst in ctx.circuit.flip_flops():
        if not inst.cell.is_scan:
            yield make_diagnostic(
                entry,
                f"flip-flop {inst.name!r} ({inst.cell.name}) is not a "
                f"scan cell after scan insertion",
                obj=inst.name,
            )
        elif inst.name not in members:
            yield make_diagnostic(
                entry,
                f"flip-flop {inst.name!r} is stitched into no scan chain",
                obj=inst.name,
            )


def _through_buffers(circuit: Circuit, net: Optional[str],
                     limit: int = 64) -> Optional[str]:
    """Trace ``net`` back through buffer cells to its logical source.

    The electrical fix-up (:func:`repro.netlist.fanout.fix_fanout`) may
    legally split a scan net and feed the TI pin through a fanout
    buffer; the shifted value is unchanged, so chain continuity must
    look through such non-inverting single-input cells.  ``limit``
    bounds the walk against buffer cycles (reported by DFT001 anyway).
    """
    for _ in range(limit):
        if net is None:
            return None
        obj = circuit.nets.get(net)
        if obj is None or obj.driver is None:
            return net
        inst_name, _pin = obj.driver
        inst = circuit.instances.get(inst_name)
        if inst is None or not inst.cell.is_buffer_like:
            return net
        inputs = inst.cell.input_pins
        net = inst.conns.get(inputs[0]) if inputs else None
    return net


@rule(PACK, "DFT004", "scan-chain continuity", severity=ERROR,
      hint="each chain must shift scan-in -> TI/Q hops -> scan-out "
           "within one clock domain")
def check_scan_chain_continuity(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """Walk every chain: TI wiring, scan-out port, domain homogeneity."""
    entry = _rule("DFT004")
    if ctx.chains is None:
        return
    circuit = ctx.circuit
    chains = ctx.chains
    for idx, members in enumerate(chains.chains):
        label = f"chain{idx}"
        domain = (chains.clock_of_chain[idx]
                  if idx < len(chains.clock_of_chain) else None)
        expected = (chains.scan_in_ports[idx]
                    if idx < len(chains.scan_in_ports) else None)
        if expected is None or expected not in circuit.nets:
            yield make_diagnostic(
                entry,
                f"scan chain {idx}: scan-in port {expected!r} has no net",
                obj=label,
            )
            continue
        broken = False
        for name in members:
            inst = circuit.instances.get(name)
            if inst is None:
                yield make_diagnostic(
                    entry,
                    f"scan chain {idx}: member {name!r} is missing from "
                    f"the netlist",
                    obj=label,
                )
                broken = True
                break
            seq = inst.cell.sequential
            if seq is None or seq.scan_in is None:
                yield make_diagnostic(
                    entry,
                    f"scan chain {idx}: member {name!r} "
                    f"({inst.cell.name}) has no scan-in pin",
                    obj=label,
                )
                broken = True
                break
            got = inst.conns.get(seq.scan_in)
            if got != expected \
                    and _through_buffers(circuit, got) != expected:
                yield make_diagnostic(
                    entry,
                    f"scan chain {idx} cut at {name!r}: TI reads "
                    f"{got!r}, expected {expected!r}",
                    obj=label,
                )
                broken = True
                break
            if domain is not None:
                # After CTS the clock pin sees a clock-tree net; trace
                # it back through the tree buffers to the root domain.
                clock = _through_buffers(circuit, circuit.clock_of(name))
                if clock is not None and clock != domain:
                    yield make_diagnostic(
                        entry,
                        f"scan chain {idx} mixes clock domains: "
                        f"{name!r} is on {clock!r}, chain is {domain!r}",
                        obj=label,
                    )
                    broken = True
                    break
            expected = inst.conns.get(seq.output_pin)
            if expected is None:
                yield make_diagnostic(
                    entry,
                    f"scan chain {idx}: member {name!r} drives no Q net",
                    obj=label,
                )
                broken = True
                break
        if broken or not members:
            continue
        so = (chains.scan_out_ports[idx]
              if idx < len(chains.scan_out_ports) else None)
        try:
            out_net = circuit.output_net(so) if so is not None else None
        except KeyError:
            out_net = None
        if out_net is None:
            yield make_diagnostic(
                entry,
                f"scan chain {idx}: scan-out port {so!r} reads no net",
                obj=label,
            )
        elif out_net != expected \
                and _through_buffers(circuit, out_net) != expected:
            yield make_diagnostic(
                entry,
                f"scan chain {idx}: scan-out {so!r} reads {out_net!r}, "
                f"not the chain tail {expected!r}",
                obj=label,
            )


@rule(PACK, "DFT005", "scan-chain balance", severity=WARNING,
      hint="rebalance the chains: l_max bounds test application time")
def check_scan_chain_balance(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """Chains must respect the configured l_max and stay balanced."""
    entry = _rule("DFT005")
    if ctx.chains is None or not ctx.chains.chains:
        return
    chains = ctx.chains
    if ctx.max_chain_length is not None \
            and chains.max_length > ctx.max_chain_length:
        yield make_diagnostic(
            entry,
            f"l_max {chains.max_length} exceeds the configured "
            f"maximum chain length {ctx.max_chain_length}",
            obj=f"chain{max(range(chains.n_chains), key=lambda i: len(chains.chains[i]))}",
        )
    by_domain: Dict[str, List[int]] = {}
    for idx, members in enumerate(chains.chains):
        domain = (chains.clock_of_chain[idx]
                  if idx < len(chains.clock_of_chain) else "")
        by_domain.setdefault(domain, []).append(len(members))
    for domain in sorted(by_domain):
        lengths = by_domain[domain]
        if len(lengths) < 2:
            continue
        longest, shortest = max(lengths), min(lengths)
        slack = max(1, math.ceil(0.2 * longest))
        if longest - shortest > slack:
            yield make_diagnostic(
                entry,
                f"chains in domain {domain!r} imbalanced: lengths "
                f"{shortest}..{longest} (tolerance {slack})",
                obj=domain,
            )


@rule(PACK, "DFT006", "test-enable fanout", severity=WARNING,
      hint="buffer the TE/TR distribution (fix_electrical) before "
           "layout")
def check_test_enable_fanout(ctx: NetlistContext) -> Iterable[Diagnostic]:
    """TE/TR distribution nets must not overload their drivers."""
    entry = _rule("DFT006")
    circuit = ctx.circuit
    control_nets: List[str] = []
    seen = set()
    for inst in circuit.instances.values():
        seq = inst.cell.sequential
        if seq is None:
            continue
        for pin in (seq.scan_enable, seq.test_point_enable):
            if pin is None:
                continue
            net = inst.conns.get(pin)
            if net is not None and net not in seen:
                seen.add(net)
                control_nets.append(net)
    for net_name in control_nets:
        if ctx.nets is not None and net_name not in ctx.nets:
            continue
        net = circuit.nets.get(net_name)
        if net is None:
            continue
        driver = circuit.driver_instance(net_name)
        if driver is None:
            continue  # port-driven root: pad drive is not modelled
        load_ff = 0.0
        for inst_name, pin in net.sinks:
            if inst_name == PORT:
                continue
            sink = circuit.instances.get(inst_name)
            if sink is not None and pin in sink.cell.pins:
                load_ff += sink.cell.pin_cap_ff(pin)
        if load_ff > driver.cell.max_cap_ff:
            yield make_diagnostic(
                entry,
                f"test-enable net {net_name!r} loads its driver "
                f"{driver.name!r} with {load_ff:.1f} fF "
                f"(max {driver.cell.max_cap_ff:.1f} fF)",
                obj=net_name,
            )


@rule(PACK, "DFT007", "test-point clock domain", severity=WARNING,
      hint="a TSFF must be clocked by the domain of the registers "
           "around its insertion net (paper Section 3.1)")
def check_test_point_clock_domains(
        ctx: NetlistContext) -> Iterable[Diagnostic]:
    """Each TSFF's clock must match the majority domain around it."""
    entry = _rule("DFT007")
    circuit = ctx.circuit
    if len(circuit.clocks) < 2:
        return  # single-domain designs cannot misassign
    from repro.tpi.clockdomain import nearest_domains

    for inst in circuit.instances.values():
        if not inst.cell.is_tsff:
            continue
        seq = inst.cell.sequential
        d_net = inst.conns.get(seq.data_pin) if seq else None
        # Post-CTS the clock pin sees a tree net; resolve to the domain.
        clock = _through_buffers(circuit, circuit.clock_of(inst.name))
        if d_net is None or clock is None:
            continue  # NL004/DFT002 territory
        if ctx.nets is not None and d_net not in ctx.nets:
            continue
        counts = nearest_domains(circuit, d_net)
        # The TSFF itself sits on its D net at distance 0 (weight 1.0);
        # subtract that self-vote before comparing.
        counts[clock] = counts.get(clock, 0.0) - 1.0
        if not counts:
            continue
        best = max(sorted(counts), key=lambda dom: counts[dom])
        if best != clock and counts[best] > counts[clock] + 0.5:
            yield make_diagnostic(
                entry,
                f"test point {inst.name!r} is clocked by {clock!r} but "
                f"its neighbourhood is dominated by {best!r}",
                obj=inst.name,
            )


def _rule(rule_id: str) -> Rule:
    """Registered rule object for ``rule_id`` in this pack."""
    for entry in pack_rules(PACK):
        if entry.id == rule_id:
            return entry
    raise KeyError(rule_id)  # pragma: no cover - registration bug


def structural_rules() -> List[Rule]:
    """The cheap integrity subset :func:`repro.core.flow.validate`
    runs between flow steps."""
    return [r for r in pack_rules(PACK) if r.structural]


def lint_netlist(
    circuit: Circuit,
    *,
    chains: Optional["ScanChains"] = None,
    max_chain_length: Optional[int] = None,
    n_chains: Optional[int] = None,
    nets: Optional[Iterable[str]] = None,
    structural_only: bool = False,
) -> LintReport:
    """Run the netlist/DFT pack on ``circuit``.

    Args:
        circuit: Design to audit.
        chains: Scan-chain configuration; enables DFT003-DFT005.
        max_chain_length: Configured l_max cap (DFT005).
        n_chains: Configured fixed chain count (recorded for context).
        nets: Restrict per-net/per-instance rules to this set — the
            post-ECO dirty-set mode.  Whole-design rules still run.
        structural_only: Run only the :func:`structural_rules` subset.

    Returns:
        The sorted :class:`repro.lint.core.LintReport`.
    """
    ctx = NetlistContext(
        circuit=circuit,
        chains=chains,
        max_chain_length=max_chain_length,
        n_chains=n_chains,
        nets=frozenset(nets) if nets is not None else None,
    )
    rules = structural_rules() if structural_only else pack_rules(PACK)
    return run_rules(rules, ctx, pack=PACK)


__all__ = [
    "NetlistContext",
    "PACK",
    "lint_netlist",
    "structural_rules",
]
