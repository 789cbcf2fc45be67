"""Tests for the compiled bit-parallel simulator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import BitSimulator
from repro.atpg.compaction import pack_block
from repro.atpg.simulator import _evaluator_factory, render_expr
from repro.netlist import extract_comb_view


@pytest.fixture(scope="module")
def sim(small_circuit):
    view = extract_comb_view(small_circuit, "test")
    return BitSimulator(view, width=64)


# module-scope fixtures can't see session fixtures' args directly; use
# a tiny indirection.
@pytest.fixture(scope="module")
def small_circuit(request):
    from repro.circuits import s38417_like
    return s38417_like(scale=0.02)


def _reference_eval(view, assignment):
    """Interpreted reference simulation (single pattern)."""
    values = dict(assignment)
    for net, const in view.constants.items():
        values[net] = const
    for node in view.nodes:
        env = {
            pin: values[net] for pin, net in node.pin_nets.items()
        }
        values[node.out_net] = node.expr.eval2(env) & 1
    return values


def _reference_node_fn(sim, node):
    """The per-node ``eval`` each evaluator was compiled with before
    evaluators were compiled once per cell function."""
    pin_code = {
        pin: f"v[{sim.net_index[net]}]"
        for pin, net in node.pin_nets.items()
    }
    return eval(f"lambda v, m={sim.mask}: {render_expr(node.expr, pin_code)}")


def test_compiled_matches_interpreted(sim):
    rng = random.Random(42)
    view = sim.view
    for _ in range(5):
        assignment = {net: rng.getrandbits(1) for net in view.input_nets}
        ref = _reference_eval(view, assignment)
        got = sim.run({net: v for net, v in assignment.items()})
        for net in view.output_nets:
            assert got[sim.net_index[net]] & 1 == ref[net]


def test_block_simulates_patterns_independently(sim):
    """Bit i of the block equals a solo simulation of pattern i."""
    rng = random.Random(7)
    view = sim.view
    patterns = [
        {net: rng.getrandbits(1) for net in view.input_nets}
        for _ in range(8)
    ]
    words = sim.patterns_to_words([
        {net: p[net] for net in view.input_nets} for p in patterns
    ])
    block = sim.run(words)
    for i, pattern in enumerate(patterns):
        solo = sim.run({net: v << i for net, v in pattern.items()})
        for net in view.output_nets:
            idx = sim.net_index[net]
            assert (block[idx] >> i) & 1 == (solo[idx] >> i) & 1


def test_patterns_to_words_round_trip(sim):
    view = sim.view
    rng = random.Random(3)
    patterns = [
        {net: rng.getrandbits(1) for net in view.input_nets}
        for _ in range(5)
    ]
    words = sim.patterns_to_words(patterns)
    for i, pattern in enumerate(patterns):
        for net, value in pattern.items():
            assert (words[net] >> i) & 1 == value


def test_pack_block_matches_patterns_to_words(sim):
    inputs = list(sim.view.input_nets)
    rng = random.Random(9)
    ints = [rng.getrandbits(len(inputs)) for _ in range(6)]
    words = pack_block(inputs, ints)
    for i, p in enumerate(ints):
        for j, net in enumerate(inputs):
            assert (words[net] >> i) & 1 == (p >> j) & 1


def test_too_many_patterns_rejected(sim):
    with pytest.raises(ValueError):
        sim.patterns_to_words([{}] * (sim.width + 1))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_constants_pin_their_values(sim, seed):
    rng = random.Random(seed)
    words = sim.random_block(rng)
    values = sim.run(words)
    for net, const in sim.view.constants.items():
        idx = sim.net_index[net]
        expected = sim.mask if const else 0
        assert values[idx] == expected


@pytest.mark.parametrize("width", [64, 5])
def test_node_evaluators_equal_per_node_eval(sim, width):
    sim = BitSimulator(sim.view, width=width)
    rng = random.Random(width)
    vectors = [[rng.getrandbits(width) for _ in range(sim.n_nets)]
               for _ in range(4)]
    for pos, node in enumerate(sim.view.nodes):
        reference = _reference_node_fn(sim, node)
        for v in vectors:
            assert sim.node_fns[pos](v) == reference(v), node.inst.name


def test_evaluator_factories_are_shared_per_cell_function(sim):
    """One compiled factory per distinct cell function, not per node,
    view, width or library instance."""
    from repro.circuits import control_core
    from repro.library import cmos130

    # The second circuit is built on a library instance of its own.
    other = control_core(scale=0.015, library=cmos130())
    views = [sim.view, extract_comb_view(other, "test")]
    _evaluator_factory.cache_clear()
    for view in views:
        BitSimulator(view)
    functions = {
        render_expr(node.expr, {pin: pin for pin in node.pin_nets})
        for view in views for node in view.nodes
    }
    entries = _evaluator_factory.cache_info().currsize
    assert 0 < entries <= len(functions)
    assert entries < sum(len(view.nodes) for view in views)
    BitSimulator(views[0], width=16)
    assert _evaluator_factory.cache_info().currsize == entries
