"""PODEM's per-call golden and independent checks of ATPG verdicts.

Three circuits at scale 0.005 run the flow with layout off (the scan
chain order of the layout phase depends on ``PYTHONHASHSEED``) and the
default ATPG settings.  Every ``PodemEngine.generate`` call is
recorded: its arguments and its result, in call order.

* The per-call golden pins each search decision: the number of calls
  and a SHA-256 over every call's ``(fault, fixed, restarts,
  backtrack_limit)`` and ``(status, sorted assignment, backtracks,
  restarts)``.  A PODEM change that is meant to be a pure speed-up must
  leave it byte-identical.  Refresh it after an intentional change
  with::

      PYTHONPATH=src python -m pytest tests/test_atpg_golden.py \\
          --update-golden

* The verdict checks re-simulate the TP 0 % results with a fresh view,
  good-machine simulator and fault simulator.  Every DETECTED class
  must be detected by the final patterns, and every REDUNDANT verdict
  whose fault region has at most :data:`MAX_PROOF_INPUTS` input nets
  is proved by exhaustive simulation of those inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Set

import pytest

from repro import api
from repro.atpg import BitSimulator, FaultSimulator, PodemEngine
from repro.atpg.compaction import pack_block
from repro.atpg.faults import Fault, FaultStatus
from repro.netlist import extract_comb_view
from repro.netlist.levelize import CombView

GOLDEN = Path(__file__).parent / "golden" / "podem_calls.json"

CIRCUITS = ("s38417", "control_core", "p26909")
SCALE = 0.005

#: Recorded flows (circuit, TP %): TP 0 % and, per circuit, a level
#: that inserts test points at this scale (1, 1 and 2 of them).
CELLS = (("s38417", 0.0), ("s38417", 8.0),
         ("control_core", 0.0), ("control_core", 4.0),
         ("p26909", 0.0), ("p26909", 3.0))

#: Largest input support of a fault region proved by exhaustion
#: (2**10 patterns = 16 blocks of 64).
MAX_PROOF_INPUTS = 10

#: REDUNDANT verdicts at TP 0 % whose region is small enough to prove.
EXPECTED_PROVED = 88


def _cell_key(name: str, tp: float) -> str:
    return f"{name}@{tp:g}"


def _call_record(fault: Fault, fixed, restarts, backtrack_limit,
                 cube) -> str:
    return json.dumps([
        [fault.net, list(fault.sink) if fault.sink else None, fault.value],
        sorted(fixed.items()) if fixed is not None else None,
        restarts, backtrack_limit,
        [cube.status, sorted(cube.assignment.items()), cube.backtracks,
         cube.restarts],
    ])


@pytest.fixture(scope="module")
def podem_runs():
    """Per cell: the recorded call trace and the flow result."""
    runs = {}
    original = PodemEngine.generate
    with pytest.MonkeyPatch.context() as mp:
        calls: List[str] = []

        def recording(self, fault, fixed=None, restarts=None,
                      backtrack_limit=None):
            cube = original(self, fault, fixed, restarts, backtrack_limit)
            calls.append(_call_record(fault, fixed, restarts,
                                      backtrack_limit, cube))
            return cube

        mp.setattr(PodemEngine, "generate", recording)
        for name, tp in CELLS:
            calls.clear()
            result = api.run(name, scale=SCALE, tp_percent=tp,
                             run_layout_phase=False)
            digest = hashlib.sha256()
            for line in calls:
                digest.update(line.encode("utf-8") + b"\n")
            runs[_cell_key(name, tp)] = (
                {"calls": len(calls), "sha256": digest.hexdigest()},
                result,
            )
    return runs


def test_podem_calls_match_golden(podem_runs, update_golden):
    fresh = {key: trace for key, (trace, _) in podem_runs.items()}
    if update_golden:
        GOLDEN.write_text(json.dumps(fresh, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")
        pytest.skip(f"rewrote {GOLDEN}")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert fresh == golden


class _Supports:
    """Input support of fault regions in a view."""

    def __init__(self, view: CombView):
        self.readers: Dict[str, List[str]] = {}
        self.fanin: Dict[str, List[str]] = {}
        for node in view.nodes:
            self.fanin[node.out_net] = list(node.pin_nets.values())
            for pin_net in node.pin_nets.values():
                self.readers.setdefault(pin_net, []).append(node.out_net)
        self.inputs = set(view.input_nets)

    def of(self, net: str) -> Set[str]:
        """Input nets feeding the region of a fault on ``net``: the
        forward cone of ``net`` plus the backward support of that cone."""
        cone = {net}
        stack = [net]
        while stack:
            for out in self.readers.get(stack.pop(), ()):
                if out not in cone:
                    cone.add(out)
                    stack.append(out)
        support = set(cone)
        stack = list(cone)
        while stack:
            for pin_net in self.fanin.get(stack.pop(), ()):
                if pin_net not in support:
                    support.add(pin_net)
                    stack.append(pin_net)
        return support & self.inputs


def _exhaustive_blocks(inputs: List[str], support: List[str], width: int):
    """Every assignment of ``support`` (other inputs 0), as blocks."""
    position = {net: j for j, net in enumerate(inputs)}
    patterns = []
    for code in range(1 << len(support)):
        pattern = 0
        for k, net in enumerate(support):
            if (code >> k) & 1:
                pattern |= 1 << position[net]
        patterns.append(pattern)
    for start in range(0, len(patterns), width):
        yield pack_block(inputs, patterns[start:start + width])


def test_verdicts_hold_under_independent_simulation(podem_runs):
    proved = 0
    for name in CIRCUITS:
        _, result = podem_runs[_cell_key(name, 0.0)]
        atpg = result.atpg
        view = extract_comb_view(result.circuit, "test")
        fsim = FaultSimulator(BitSimulator(view))
        flist = atpg.fault_list
        width = fsim.sim.width
        supports = _Supports(view)

        claimed = [rep for rep in flist.classes()
                   if flist.status[rep] is FaultStatus.DETECTED]
        remaining = set(claimed)
        assert all(fsim.in_view(rep) for rep in claimed)
        for start in range(0, len(atpg.patterns), width):
            words = pack_block(atpg.input_nets,
                               atpg.patterns[start:start + width])
            remaining -= set(fsim.run_block(words, remaining))
        assert not remaining, (
            f"{name}: {len(remaining)} DETECTED classes not detected by "
            f"the final patterns, e.g. {sorted(map(str, remaining))[:3]}")

        for rep in flist.classes():
            if flist.status[rep] is not FaultStatus.REDUNDANT:
                continue
            support = sorted(supports.of(rep.net))
            if len(support) > MAX_PROOF_INPUTS:
                continue
            for words in _exhaustive_blocks(view.input_nets, support,
                                            width):
                assert not fsim.run_block(words, [rep]), (
                    f"{name}: REDUNDANT {rep} is detected")
            proved += 1
    assert proved == EXPECTED_PROVED
