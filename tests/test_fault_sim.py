"""Tests for the fault model and the PPSFP fault simulator.

The fault simulator is validated against two references:

* a brute-force one that re-simulates the whole circuit with the fault
  surgically injected into the expression evaluation;
* :class:`ReferenceFaultSimulator`, per-fault PPSFP that propagates
  every activated fault through its whole fanout cone on its own.  The
  stem-based simulator must return the identical dict: the same keys,
  words and insertion order.
"""

import heapq
import random

import pytest

from repro import api
from repro.atpg import (
    BitSimulator,
    Fault,
    FaultSimulator,
    FaultStatus,
    build_fault_list,
)
from repro.atpg.compaction import pack_block
from repro.netlist import Circuit, extract_comb_view
from repro.netlist.net import PORT
from tests.test_executor_properties import naive_detected


# ----------------------------------------------------------------------
# Per-fault reference
# ----------------------------------------------------------------------
class _Overlay(dict):
    """Faulty words by net index; a net without one reads its good word
    (the value list the compiled node evaluators index)."""

    def __init__(self, good, diff):
        super().__init__(diff)
        self.good = good

    def __missing__(self, i):
        return self.good[i]


class ReferenceFaultSimulator:
    """Per-fault PPSFP: each activated fault is injected on its own and
    its divergence propagated event-driven, in level order, through its
    whole fanout cone over a dict of faulty values."""

    def __init__(self, sim):
        self.sim = sim
        view = sim.view
        self.mask = sim.mask
        self.readers = {}
        for pos, node in enumerate(view.nodes):
            for net in dict.fromkeys(node.pin_nets.values()):
                idx = sim.net_index.get(net)
                if idx is not None:
                    self.readers.setdefault(idx, []).append(pos)
        self.levels = [node.level for node in view.nodes]
        self.out_idx = [sim.net_index[node.out_net] for node in view.nodes]
        self.observable = {
            sim.net_index[net]
            for net in view.output_nets
            if net in sim.net_index
        }
        self.observable_sinks = set(view.output_refs)

    def run_block(self, good, faults):
        detections = {}
        for fault in faults:
            if fault.net not in self.sim.net_index:
                continue
            word = self.detect_word(good, fault)
            if word:
                detections[fault] = word
        return detections

    def detect_word(self, good, fault):
        sim = self.sim
        site = sim.net_index[fault.net]
        stuck = sim.mask if fault.value else 0
        activated = (good[site] ^ stuck) & sim.mask
        if not activated:
            return 0
        if fault.sink is not None:
            return self._detect_branch(good, fault, site, stuck, activated)
        return self._propagate(good, {site: stuck}, activated, site)

    def _detect_branch(self, good, fault, site, stuck, activated):
        """Branch fault: the faulty value enters one sink only."""
        inst, pin = fault.sink
        if (fault.net, (inst, pin)) in self.observable_sinks or inst == PORT:
            return activated
        for pos in self.readers.get(site, ()):
            node = self.sim.view.nodes[pos]
            if node.inst.name != inst or node.pin_nets.get(pin) != fault.net:
                continue
            new_out = self._eval_with_pin(node, good, pin, stuck)
            out = self.out_idx[pos]
            diff_bits = (new_out ^ good[out]) & self.mask
            if not diff_bits:
                return 0
            return self._propagate(good, {out: new_out}, diff_bits, out)
        return 0

    def _eval_with_pin(self, node, good, pin, word):
        """Evaluate a node with one input pin forced to ``word``."""
        pin_vals = {
            p: good[self.sim.net_index[net]]
            for p, net in node.pin_nets.items()
        }
        pin_vals[pin] = word
        return node.expr.eval2(pin_vals) & self.mask

    def _propagate(self, good, diff, detected, start):
        """Propagate faulty values forward; return the detection word."""
        det = detected if start in self.observable else 0
        node_fns = self.sim.node_fns
        mask = self.mask
        faulty = _Overlay(good, diff)
        heap = []
        queued = set()
        for pos in self.readers.get(start, ()):
            heapq.heappush(heap, (self.levels[pos], pos))
            queued.add(pos)
        while heap:
            _, pos = heapq.heappop(heap)
            queued.discard(pos)
            new_out = node_fns[pos](faulty) & mask
            out = self.out_idx[pos]
            if new_out == faulty[out]:
                continue
            if new_out == good[out]:
                faulty.pop(out, None)
            else:
                faulty[out] = new_out
            if out in self.observable:
                det |= (new_out ^ good[out]) & mask
            for reader in self.readers.get(out, ()):
                if reader not in queued:
                    heapq.heappush(heap, (self.levels[reader], reader))
                    queued.add(reader)
        return det


@pytest.fixture(scope="module")
def env():
    from repro.circuits import s38417_like
    c = s38417_like(scale=0.02)
    view = extract_comb_view(c, "test")
    sim = BitSimulator(view)
    return c, view, sim, FaultSimulator(sim), build_fault_list(c, view)


def _faulty_reference(view, assignment, fault):
    """Full faulty-machine simulation, fault injected during eval."""
    values = dict(assignment)
    for net, const in view.constants.items():
        values[net] = const

    def site_value():
        return fault.value

    if fault.sink is None and fault.net in values:
        values[fault.net] = site_value()
    for node in view.nodes:
        env = {}
        for pin, net in node.pin_nets.items():
            v = values[net]
            if net == fault.net and fault.sink == (node.inst.name, pin):
                v = site_value()
            env[pin] = v
        out = node.expr.eval2(env) & 1
        if fault.sink is None and node.out_net == fault.net:
            out = site_value()
        values[node.out_net] = out
    return values


def _reference_detects(view, assignment, fault):
    good = dict(assignment)
    for net, const in view.constants.items():
        good[net] = const
    for node in view.nodes:
        env = {pin: good[net] for pin, net in node.pin_nets.items()}
        good[node.out_net] = node.expr.eval2(env) & 1
    bad = _faulty_reference(view, assignment, fault)
    for net, (inst, pin) in view.output_refs:
        g = good[net]
        b = bad[net]
        if fault.sink == (inst, pin) and net == fault.net:
            b = fault.value
        if g != b:
            return True
    return False


def test_fault_list_census(env):
    circuit, view, _, fsim, flist = env
    assert flist.total > 0
    # Every fault has a status and a representative.
    assert set(flist.status) == set(flist.faults)
    # Scan-path faults pre-credited.
    assert flist.count(FaultStatus.SCAN_TESTED) > 0
    # Collapsing never crosses scan/capture status boundaries silently.
    for f, rep in flist.representative.items():
        assert flist.status[f] == flist.status[rep]


def test_fault_collapsing_through_inverters(env, lib):
    from repro.netlist import Circuit
    c = Circuit("t")
    c.add_input("a")
    c.add_net("n1")
    c.add_net("n2")
    c.add_instance("i1", lib["INV_X1"], {"A": "a", "Z": "n1"})
    c.add_instance("i2", lib["INV_X1"], {"A": "n1", "Z": "n2"})
    c.add_output("po", "n2")
    view = extract_comb_view(c, "test")
    flist = build_fault_list(c, view)
    rep_of = flist.representative
    # n1 sa0 is equivalent to a sa1 (through i1), n2 sa0 to n1 sa1.
    f_n1_sa0 = next(f for f in flist.faults
                    if f.net == "n1" and f.sink is None and f.value == 0)
    assert rep_of[f_n1_sa0].net == "a"
    f_n2_sa0 = next(f for f in flist.faults
                    if f.net == "n2" and f.sink is None and f.value == 0)
    assert rep_of[f_n2_sa0].net == "a"
    assert rep_of[f_n2_sa0].value == 0  # double inversion


def test_detection_matches_reference(env):
    circuit, view, sim, fsim, flist = env
    rng = random.Random(5)
    targets = [f for f in flist.targets() if fsim.in_view(f)]
    sample = rng.sample(targets, min(60, len(targets)))
    for trial in range(3):
        assignment = {n: rng.getrandbits(1) for n in view.input_nets}
        words = {n: v for n, v in assignment.items()}
        good = sim.run(words)
        for fault in sample:
            got = bool(fsim.detect_word(good, fault) & 1)
            want = _reference_detects(view, assignment, fault)
            assert got == want, f"{fault} trial {trial}"


def test_run_block_drops_nothing_spurious(env):
    circuit, view, sim, fsim, flist = env
    rng = random.Random(11)
    words = sim.random_block(rng)
    targets = [f for f in flist.targets() if fsim.in_view(f)]
    detections = fsim.run_block(words, targets)
    assert detections
    # Every detection word is nonzero and within the block width.
    for fault, word in detections.items():
        assert 0 < word < (1 << sim.width)


def test_mark_propagates_to_class(env):
    _, _, _, _, flist = env
    classes = flist.classes()
    rep, members = next(
        (r, m) for r, m in classes.items()
        if len(m) > 1 and flist.status[r] is FaultStatus.UNDETECTED
    )
    flist.mark(rep, FaultStatus.DETECTED)
    assert all(flist.status[m] is FaultStatus.DETECTED for m in members)
    flist.mark(rep, FaultStatus.UNDETECTED)  # restore shared fixture


def test_coverage_metrics(env):
    _, _, _, _, flist = env
    fc = flist.fault_coverage
    fe = flist.fault_efficiency
    assert 0 < fc <= 1 and fc <= fe <= 1


# ----------------------------------------------------------------------
# Stem-based simulation equals the per-fault reference
# ----------------------------------------------------------------------
#: TP 0 % and the per-call golden's level that inserts test points
#: (tests/test_atpg_golden.py), at scale 0.005.
REFERENCE_CELLS = (("s38417", 0.0), ("s38417", 8.0),
                   ("control_core", 0.0), ("control_core", 4.0),
                   ("p26909", 0.0), ("p26909", 3.0))


@pytest.mark.parametrize("name,tp", REFERENCE_CELLS)
def test_run_block_equals_per_fault_reference(name, tp):
    result = api.run(name, scale=0.005, tp_percent=tp,
                     run_layout_phase=False)
    atpg = result.atpg
    view = extract_comb_view(result.circuit, "test")
    sim = BitSimulator(view)
    fsim = FaultSimulator(sim)
    reference = ReferenceFaultSimulator(sim)
    assert atpg.input_nets == view.input_nets
    # The whole universe: targets, detected and scan-tested faults.
    faults = [f for f in atpg.fault_list.faults if fsim.in_view(f)]
    rng = random.Random(f"{name}@{tp:g}")
    blocks = [sim.random_block(rng) for _ in range(4)]
    blocks += [
        pack_block(atpg.input_nets, atpg.patterns[start:start + sim.width])
        for start in range(0, len(atpg.patterns), sim.width)
    ]
    for words in blocks:
        want = reference.run_block(sim.run(words), faults)
        assert want
        assert list(fsim.run_block(words, faults).items()) \
            == list(want.items())


# ----------------------------------------------------------------------
# Fanout-free region edge cases against naive re-simulation
# ----------------------------------------------------------------------
def _pins_on_one_net(lib):
    """AND2 with A=B on one net: each branch fault forces one pin."""
    c = Circuit("pins_on_one_net")
    for pi in ("a", "b"):
        c.add_input(pi)
    for net in ("n", "y"):
        c.add_net(net)
    c.add_instance("g1", lib["OR2_X1"], {"A": "a", "B": "b", "Z": "n"})
    c.add_instance("g2", lib["AND2_X1"], {"A": "n", "B": "n", "Z": "y"})
    c.add_output("po", "y")
    return c


def _branches_to_outputs(lib):
    """Branches of one net feed two primary outputs and an inverter."""
    c = Circuit("branches_to_outputs")
    for pi in ("a", "b", "c"):
        c.add_input(pi)
    for net in ("n", "m", "y"):
        c.add_net(net)
    c.add_instance("g1", lib["NAND2_X1"], {"A": "a", "B": "b", "Z": "n"})
    c.add_instance("g2", lib["INV_X1"], {"A": "n", "Z": "m"})
    c.add_instance("g3", lib["AND2_X1"], {"A": "m", "B": "c", "Z": "y"})
    c.add_output("p1", "n")
    c.add_output("p2", "n")
    c.add_output("p3", "y")
    return c


def _branch_to_scan_ff(lib):
    """A branch feeds a scan flip-flop's D pin, another feeds logic."""
    c = Circuit("branch_to_scan_ff")
    c.add_clock("clk", 4000.0)
    for pi in ("a", "b", "si", "se"):
        c.add_input(pi)
    for net in ("n", "q", "y"):
        c.add_net(net)
    c.add_instance("g1", lib["NOR2_X1"], {"A": "a", "B": "b", "Z": "n"})
    c.add_instance("ff", lib["SDFF_X1"], {"D": "n", "TI": "si", "TE": "se",
                                          "CLK": "clk", "Q": "q"})
    c.add_instance("g2", lib["XOR2_X1"], {"A": "n", "B": "q", "Z": "y"})
    c.add_output("po", "y")
    return c


def _observed_nets_with_readers(lib):
    """Observed nets that also feed logic: one reader, and two."""
    c = Circuit("observed_nets_with_readers")
    for pi in ("a", "b", "c"):
        c.add_input(pi)
    for net in ("n", "k", "x", "y", "z"):
        c.add_net(net)
    c.add_instance("g1", lib["AND2_X1"], {"A": "a", "B": "b", "Z": "n"})
    c.add_instance("g2", lib["XOR2_X1"], {"A": "n", "B": "c", "Z": "x"})
    c.add_instance("g3", lib["OR2_X1"], {"A": "b", "B": "c", "Z": "k"})
    c.add_instance("g4", lib["AND2_X1"], {"A": "k", "B": "x", "Z": "y"})
    c.add_instance("g5", lib["NAND2_X1"], {"A": "k", "B": "a", "Z": "z"})
    for port, net in (("o1", "n"), ("o2", "x"), ("o3", "k"), ("o4", "y"),
                      ("o5", "z")):
        c.add_output(port, net)
    return c


def _single_reader_inputs(lib):
    """Primary inputs with one reader each, and a dangling net."""
    c = Circuit("single_reader_inputs")
    for pi in ("a", "b", "c"):
        c.add_input(pi)
    for net in ("n1", "n2", "d"):
        c.add_net(net)
    c.add_instance("g1", lib["INV_X1"], {"A": "a", "Z": "n1"})
    c.add_instance("g2", lib["NAND2_X1"], {"A": "n1", "B": "b", "Z": "n2"})
    c.add_instance("g3", lib["INV_X1"], {"A": "c", "Z": "d"})
    c.add_output("po", "n2")
    return c


def _reconvergent_xor_mux(lib):
    """Fanout of one input reconverges through an XOR2 and a MUX2."""
    c = Circuit("reconvergent_xor_mux")
    for pi in ("a", "b", "c"):
        c.add_input(pi)
    for net in ("g1", "g2", "x", "y"):
        c.add_net(net)
    c.add_instance("u1", lib["NAND2_X1"], {"A": "a", "B": "b", "Z": "g1"})
    c.add_instance("u2", lib["NOR2_X1"], {"A": "a", "B": "c", "Z": "g2"})
    c.add_instance("u3", lib["XOR2_X1"], {"A": "g1", "B": "g2", "Z": "x"})
    c.add_instance("u4", lib["MUX2_X1"], {"S": "a", "A": "x", "B": "g1",
                                          "Z": "y"})
    c.add_output("po", "y")
    return c


FFR_CASES = (_pins_on_one_net, _branches_to_outputs, _branch_to_scan_ff,
             _observed_nets_with_readers, _single_reader_inputs,
             _reconvergent_xor_mux)


@pytest.mark.parametrize("build", FFR_CASES, ids=lambda b: b.__name__[1:])
def test_ffr_edge_cases_match_naive_resimulation(lib, build):
    circuit = build(lib)
    view = extract_comb_view(circuit, "test")
    sim = BitSimulator(view, width=64)
    fsim = FaultSimulator(sim)
    faults = [f for f in build_fault_list(circuit, view).faults
              if fsim.in_view(f)]
    inputs = view.input_nets
    assert len(inputs) <= 6  # 64 patterns enumerate every assignment
    patterns = [{net: (i >> k) & 1 for k, net in enumerate(inputs)}
                for i in range(64)]
    good = sim.run(sim.patterns_to_words(patterns))
    before = list(good)
    detections = fsim.run_block({}, faults, good=good)
    assert detections
    assert good == before  # the caller's good values stay unchanged
    for fault in faults:
        want = 0
        for i, pattern in enumerate(patterns):
            if naive_detected(view, pattern, fault):
                want |= 1 << i
        assert detections.get(fault, 0) == want, str(fault)
        assert fsim.detect_word(good, fault) == want, str(fault)
    assert good == before
