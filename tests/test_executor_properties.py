"""Property-based tests: PPSFP fault simulation and config fingerprints.

Two families:

* :class:`~repro.atpg.fault_sim.FaultSimulator` implements
  parallel-pattern single-fault propagation with event-driven cone
  pruning — an optimisation stack with plenty of room for subtle bugs.
  The property: for random small circuits and random pattern blocks,
  its detection sets must equal a naive reference that resimulates the
  whole circuit one fault at a time, one pattern at a time, with the
  fault forced at the site (stem) or at a single sink pin (branch).
  Reverse-order compaction, which credits each fault to its first
  detecting pattern from those detection words, must keep exactly the
  patterns of the per-bit crediting loop it replaced
  (:func:`tests.test_compaction.reference_compaction`), for pattern
  counts that leave the oldest block short.

* :func:`~repro.core.executor.config_fingerprint` keys the executor's
  result cache.  The properties: logically equal configs fingerprint
  equally no matter the construction order of their fields, dicts and
  sets; distinct configs fingerprint distinctly.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.atpg import AtpgConfig
from repro.atpg.compaction import reverse_order_compaction
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import build_fault_list
from repro.atpg.simulator import BitSimulator
from repro.circuits import CircuitProfile, ClockSpec, generate
from repro.core import FlowConfig, config_fingerprint
from repro.library import cmos130
from repro.netlist import extract_comb_view
from repro.netlist.net import PORT
from tests.test_compaction import reference_compaction


# ----------------------------------------------------------------------
# Naive one-fault-at-a-time reference simulator
# ----------------------------------------------------------------------
def naive_values(view, assignment, fault=None):
    """Full-circuit single-pattern simulation with one fault forced.

    Args:
        view: Combinational view.
        assignment: 0/1 value per input net.
        fault: Fault to inject, or None for the good machine.

    Returns:
        0/1 value per net.
    """
    values = dict(view.constants)
    for net in view.input_nets:
        values[net] = assignment.get(net, 0)
    if fault is not None and fault.sink is None and fault.net in values:
        values[fault.net] = fault.value
    for node in view.nodes:
        pin_vals = {}
        for pin, net in node.pin_nets.items():
            value = values[net]
            if (fault is not None and fault.sink is not None
                    and fault.sink == (node.inst.name, pin)
                    and net == fault.net):
                value = fault.value  # branch fault: this pin only
            pin_vals[pin] = value
        out = node.expr.eval2(pin_vals) & 1
        if fault is not None and fault.sink is None \
                and node.out_net == fault.net:
            out = fault.value  # stem fault: the whole net is stuck
        values[node.out_net] = out
    return values


def naive_detected(view, assignment, fault):
    """True when ``fault`` is observable under ``assignment``."""
    good = naive_values(view, assignment)
    bad = naive_values(view, assignment, fault)
    for net, (inst, pin) in view.output_refs:
        good_obs = good[net]
        bad_obs = bad[net]
        if (fault.sink is not None and fault.sink == (inst, pin)
                and net == fault.net):
            # The faulted branch feeds this observation point directly.
            bad_obs = fault.value
        if inst == PORT and fault.sink == (PORT, pin) \
                and net == fault.net:
            bad_obs = fault.value
        if good_obs != bad_obs:
            return True
    return False


@st.composite
def small_profiles(draw):
    return CircuitProfile(
        name="ppsfp",
        n_inputs=draw(st.integers(min_value=3, max_value=8)),
        n_outputs=draw(st.integers(min_value=3, max_value=8)),
        n_flip_flops=draw(st.integers(min_value=4, max_value=12)),
        n_gates=draw(st.integers(min_value=20, max_value=90)),
        clocks=(ClockSpec("clk", 5000.0, 1.0),),
        hard_fraction=draw(st.floats(min_value=0.0, max_value=0.3)),
        datapath_fraction=draw(st.floats(min_value=0.0, max_value=0.3)),
    )


@given(small_profiles(),
       st.integers(min_value=0, max_value=2 ** 16),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=10, deadline=None)
def test_ppsfp_equals_naive_single_fault_resimulation(profile, seed,
                                                      pattern_seed):
    circuit = generate(profile, cmos130(), seed=seed)
    view = extract_comb_view(circuit, "test")
    n_patterns = 6
    sim = BitSimulator(view, width=n_patterns)
    fsim = FaultSimulator(sim)

    rng = random.Random(pattern_seed)
    patterns = [
        {net: rng.getrandbits(1) for net in view.input_nets}
        for _ in range(n_patterns)
    ]
    words = sim.patterns_to_words(patterns)

    fault_list = build_fault_list(circuit, view)
    faults = [f for f in fault_list.faults if fsim.in_view(f)]
    detections = fsim.run_block(words, faults)

    for fault in faults:
        ppsfp_word = detections.get(fault, 0)
        naive_word = 0
        for i, pattern in enumerate(patterns):
            if naive_detected(view, pattern, fault):
                naive_word |= 1 << i
        assert ppsfp_word == naive_word, (
            f"{fault}: PPSFP {ppsfp_word:0{n_patterns}b} != "
            f"naive {naive_word:0{n_patterns}b}"
        )


@given(small_profiles(),
       st.integers(min_value=0, max_value=2 ** 16),
       st.integers(min_value=1, max_value=150),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=10, deadline=None)
def test_compaction_equals_per_bit_crediting_loop(profile, seed, n_patterns,
                                                  pattern_seed):
    circuit = generate(profile, cmos130(), seed=seed)
    view = extract_comb_view(circuit, "test")
    fsim = FaultSimulator(BitSimulator(view))
    rng = random.Random(pattern_seed)
    patterns = [rng.getrandbits(len(view.input_nets))
                for _ in range(n_patterns)]
    targets = build_fault_list(circuit, view).targets()

    kept = reverse_order_compaction(fsim, patterns, targets)
    assert kept == reference_compaction(fsim, patterns, targets)


# ----------------------------------------------------------------------
# Config fingerprint properties
# ----------------------------------------------------------------------
def _flow_config_from(kwargs, order):
    """Build a FlowConfig passing kwargs in the given order."""
    shuffled = {key: kwargs[key] for key in order}
    return FlowConfig(**shuffled)


@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.integers(min_value=1, max_value=200),
    st.lists(st.sampled_from(["n1", "n2", "n3", "n4", "n5"]),
             max_size=5),
    st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_fingerprint_stable_across_field_order(tp, seed, nets, rnd):
    kwargs = dict(
        tp_percent=tp,
        atpg=AtpgConfig(seed=seed),
        exclude_nets=frozenset(nets),
        detailed_passes=1,
    )
    order = list(kwargs)
    reference = config_fingerprint(_flow_config_from(kwargs, order))
    rnd.shuffle(order)
    assert config_fingerprint(_flow_config_from(kwargs, order)) == reference
    # Set construction order is irrelevant too.
    reversed_nets = FlowConfig(
        tp_percent=tp, atpg=AtpgConfig(seed=seed),
        exclude_nets=frozenset(reversed(nets)), detailed_passes=1,
    )
    assert config_fingerprint(reversed_nets) == reference


@given(st.dictionaries(st.sampled_from("abcdef"),
                       st.integers(min_value=0, max_value=9),
                       min_size=2, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_fingerprint_ignores_dict_insertion_order(mapping, rnd):
    items = list(mapping.items())
    rnd.shuffle(items)
    assert config_fingerprint(dict(items)) == config_fingerprint(mapping)


@given(
    st.tuples(st.floats(min_value=0.0, max_value=5.0),
              st.integers(min_value=1, max_value=50)),
    st.tuples(st.floats(min_value=0.0, max_value=5.0),
              st.integers(min_value=1, max_value=50)),
)
@settings(max_examples=50, deadline=None)
def test_fingerprint_distinct_for_distinct_configs(a, b):
    config_a = FlowConfig(tp_percent=a[0], atpg=AtpgConfig(seed=a[1]))
    config_b = FlowConfig(tp_percent=b[0], atpg=AtpgConfig(seed=b[1]))
    if config_a == config_b:
        assert config_fingerprint(config_a) == config_fingerprint(config_b)
    else:
        assert config_fingerprint(config_a) != config_fingerprint(config_b)
