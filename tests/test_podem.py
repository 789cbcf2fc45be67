"""Tests for the PODEM test generator."""

import itertools
import random

import pytest

from repro.atpg import (
    BitSimulator,
    Fault,
    FaultSimulator,
    PodemEngine,
    build_fault_list,
)
from repro.atpg.compaction import pack_block
from repro.atpg.threeval import ONE, X, ZERO, pair
from repro.netlist import Circuit, extract_comb_view
from repro.testability.scoap import ScoapResult


@pytest.fixture(scope="module")
def env():
    from repro.circuits import s38417_like
    c = s38417_like(scale=0.02)
    view = extract_comb_view(c, "test")
    sim = BitSimulator(view)
    return c, view, sim, FaultSimulator(sim), build_fault_list(c, view)


def _cube_to_pattern(view, cube, rng):
    inputs = list(view.input_nets)
    idx = {n: j for j, n in enumerate(inputs)}
    pattern = rng.getrandbits(len(inputs))
    for net, value in cube.assignment.items():
        j = idx[net]
        if value:
            pattern |= 1 << j
        else:
            pattern &= ~(1 << j)
    return pattern


def test_cubes_always_detect_their_target(env):
    circuit, view, sim, fsim, flist = env
    podem = PodemEngine(view, backtrack_limit=96)
    rng = random.Random(1)
    targets = [f for f in flist.targets() if fsim.in_view(f)]
    checked = 0
    for fault in rng.sample(targets, min(80, len(targets))):
        cube = podem.generate(fault)
        if cube.status != "detected":
            continue
        checked += 1
        # Detection must survive ANY fill: try three random fills.
        for _ in range(3):
            pattern = _cube_to_pattern(view, cube, rng)
            words = pack_block(view.input_nets, [pattern])
            assert fault in fsim.run_block(words, [fault]), str(fault)
    assert checked >= 50


def test_redundant_fault_proven(lib):
    """a AND (NOT a) == 0: the output sa0 is untestable."""
    c = Circuit("redundant")
    c.add_input("a")
    c.add_input("b")
    c.add_net("na")
    c.add_net("dead")
    c.add_net("out")
    c.add_instance("i", lib["INV_X1"], {"A": "a", "Z": "na"})
    c.add_instance("g", lib["AND2_X1"], {"A": "a", "B": "na", "Z": "dead"})
    c.add_instance("o", lib["OR2_X1"], {"A": "dead", "B": "b", "Z": "out"})
    c.add_output("po", "out")
    view = extract_comb_view(c, "test")
    podem = PodemEngine(view, backtrack_limit=64)
    cube = podem.generate(Fault("dead", None, 0))
    assert cube.status == "redundant"
    # The sa1 counterpart is testable: a=0, b=0 observes it.
    cube1 = podem.generate(Fault("dead", None, 1))
    assert cube1.status == "detected"


def test_fixed_constraints_respected(env):
    circuit, view, sim, fsim, flist = env
    podem = PodemEngine(view, backtrack_limit=96)
    rng = random.Random(2)
    targets = [f for f in flist.targets() if fsim.in_view(f)]
    done = 0
    for fault in targets:
        base = podem.generate(fault)
        if base.status != "detected" or not base.assignment:
            continue
        # Re-generate with the cube itself as constraints: the result
        # must not contradict them.
        again = podem.generate(fault, fixed=base.assignment)
        if again.status == "detected":
            for net, value in again.assignment.items():
                assert base.assignment.get(net, value) == value
        done += 1
        if done >= 15:
            break
    assert done == 15


def test_incompatible_status_under_conflicting_constraints(env):
    circuit, view, sim, fsim, flist = env
    podem = PodemEngine(view, backtrack_limit=48)
    targets = [f for f in flist.targets() if fsim.in_view(f)
               and f.sink is None]
    for fault in targets:
        cube = podem.generate(fault)
        if cube.status != "detected" or not cube.assignment:
            continue
        # Flip every cube bit: activation can become impossible.
        flipped = {n: 1 - v for n, v in cube.assignment.items()}
        result = podem.generate(fault, fixed=flipped)
        assert result.status in ("detected", "incompatible", "aborted")
        if result.status == "incompatible":
            return
    pytest.skip("no fault produced an incompatible constraint set")


def test_backtrack_budget_bounds_work(env):
    circuit, view, sim, fsim, flist = env
    podem = PodemEngine(view, backtrack_limit=1, restarts=1)
    targets = [f for f in flist.targets() if fsim.in_view(f)]
    statuses = {podem.generate(f).status for f in targets[:40]}
    assert statuses <= {"detected", "aborted", "redundant"}


def test_region_order_ignores_hash_seed():
    """Regression: every site's region, in search order, must not depend
    on PYTHONHASHSEED.  Region nodes are ordered by (level, position);
    ordering by level alone left ties to the iteration order of sets
    built from net-name strings."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import hashlib, json\n"
        "from repro import api\n"
        "from repro.atpg import PodemEngine\n"
        "from repro.netlist import extract_comb_view\n"
        "for name in ('s38417', 'control_core', 'p26909'):\n"
        "    view = extract_comb_view(api.load_circuit(name, scale=0.005))\n"
        "    engine = PodemEngine(view)\n"
        "    regions = {\n"
        "        net: [engine.nodes[p].out_net\n"
        "              for p in engine._region(site).order]\n"
        "        for net, site in engine.nidx.items()}\n"
        "    text = json.dumps(regions, sort_keys=True).encode()\n"
        "    print(name, len(regions), hashlib.sha256(text).hexdigest())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 3


def test_region_cache_stays_within_budget(env, monkeypatch):
    """Evicted regions are rebuilt on demand: a cache of a few regions
    holds no more than its budget and gives the same cubes."""
    circuit, view, sim, fsim, flist = env
    targets = [f for f in flist.targets() if fsim.in_view(f)][:60]
    calls = targets + targets[::-1]  # every site twice
    full = PodemEngine(view)
    want = [full.generate(f) for f in calls]
    budget = 2000
    monkeypatch.setattr("repro.atpg.podem._REGION_CACHE_INTS", budget)
    small = PodemEngine(view)
    got = []
    for fault in calls:
        got.append(small.generate(fault))
        assert small._region_ints <= budget or len(small._regions) == 1
    assert got == want
    assert 1 < len(small._regions) < len(full._regions)


def test_backtrace_tables_match_tree_walk(lib):
    """Every cell's backtrace table entry picks the same input and value
    as walking the cell's expression tree, in every good-machine state
    of its inputs, deterministic and randomised."""
    rng = random.Random(5)
    cells = [cell for cell in lib.cells.values()
             if cell.functions and not cell.is_sequential]
    assert len(cells) > 10
    for cell in cells:
        pins = cell.input_pins
        c = Circuit("one_cell")
        for pin in pins:
            c.add_input(f"in_{pin}")
        c.add_net("out")
        (out_pin,) = cell.functions
        c.add_instance("u", cell, dict(
            {pin: f"in_{pin}" for pin in pins}, **{out_pin: "out"}))
        c.add_output("po", "out")
        view = extract_comb_view(c, "test")
        nets = [f"in_{pin}" for pin in pins] + ["out"]
        scoap = ScoapResult(
            cc0={net: rng.randint(1, 4) for net in nets},
            cc1={net: rng.randint(1, 4) for net in nets},
            co={net: 0 for net in nets})
        engine = PodemEngine(view, scoap=scoap)
        (node,) = view.nodes
        pin_index = {pin: engine.nidx[net]
                     for pin, net in node.pin_nets.items()}
        out = engine.nidx["out"]
        for codes in itertools.product((X, ONE, ZERO), repeat=len(pins)):
            v = bytearray(engine._template)
            for pin, code in zip(pins, codes):
                v[engine.nidx[f"in_{pin}"]] = pair(code, code)
            for value, randomised in itertools.product((0, 1), (0, 1)):
                engine._rand_active = bool(randomised)
                engine._rng.seed(value)
                got = engine._backtrace(out, value, v)
                engine._rng.seed(value)
                step = engine._backtrace_expr(node.expr, value, pin_index, v)
                want = None
                if step is not None and v[pin_index[step[0]]] & 3 == X:
                    want = pin_index[step[0]], step[1]
                assert got == want, (cell.name, codes, value, randomised)
