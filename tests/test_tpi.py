"""Tests for the test-point insertion engine."""

import random

import pytest

from repro.atpg import BitSimulator
from repro.netlist import extract_comb_view
from tests.conftest import structural_errors
from repro.testability import compute_cop
from repro.tpi import (
    TpiConfig,
    assign_clock,
    collect_hard_faults,
    critical_nets,
    exclusion_report,
    insert_test_points,
    nearest_domains,
)


def test_insertion_mechanics(lib, small_circuit_mutable):
    c = small_circuit_mutable
    before_ffs = c.num_flip_flops
    report = insert_test_points(c, lib, TpiConfig(n_test_points=4))
    assert report.count == 4
    assert c.num_flip_flops == before_ffs + 4
    for record in report.inserted:
        tp = c.instances[record.instance]
        assert tp.cell.is_tsff
        # D observes the original net, Q drives the moved sinks.
        assert tp.conns["D"] == record.net
        assert tp.conns["Q"] == record.new_net
        assert c.nets[record.new_net].sinks  # sinks actually moved
        assert tp.conns["CLK"] == record.clock


def test_insertion_reduces_hard_faults(lib, small_circuit_mutable):
    c = small_circuit_mutable
    report = insert_test_points(c, lib, TpiConfig(n_test_points=5))
    assert report.hard_faults_after < report.hard_faults_before


def test_functional_equivalence_preserved(lib, small_circuit_mutable):
    """In application mode (TSFF transparent) the logic is unchanged."""
    c = small_circuit_mutable
    reference = c.clone("ref")
    insert_test_points(c, lib, TpiConfig(n_test_points=5))

    ref_view = extract_comb_view(reference, "functional")
    new_view = extract_comb_view(c, "functional")
    ref_sim = BitSimulator(ref_view)
    new_sim = BitSimulator(new_view)
    rng = random.Random(99)
    for _ in range(4):
        words = ref_sim.random_block(rng)
        ref_vals = ref_sim.run(words)
        new_vals = new_sim.run(dict(words))
        for port in reference.outputs:
            ref_net = reference.output_net(port)
            new_net = c.output_net(port)
            assert (
                ref_vals[ref_sim.net_index[ref_net]]
                == new_vals[new_sim.net_index[new_net]]
            ), f"output {port} diverged after TPI"


def test_exclusions_respected(lib, small_circuit_mutable):
    c = small_circuit_mutable
    view = extract_comb_view(c, "test")
    cop = compute_cop(view)
    hard = collect_hard_faults(cop, 1 / 1024)
    excluded = {f.net for f in hard}
    report = insert_test_points(c, lib, TpiConfig(
        n_test_points=3, exclude_nets=excluded,
    ))
    for record in report.inserted:
        assert record.net not in excluded


def test_never_inserts_on_clock_or_scan_nets(lib, small_circuit_mutable):
    c = small_circuit_mutable
    report = insert_test_points(c, lib, TpiConfig(n_test_points=6))
    clock_nets = {d.net for d in c.clocks}
    for record in report.inserted:
        assert record.net not in clock_nets
    errors = structural_errors(c)
    assert errors == [
        e for e in errors if "unconnected" in e
    ]  # only the pending TI/TE/TR hookups may be outstanding


def test_clock_domain_assignment(lib):
    from repro.circuits import control_core
    c = control_core(scale=0.05)
    counts = nearest_domains(c, c.instances["g_100"].conns["Z"]
                             if "g_100" in c.instances else
                             next(iter(c.nets)))
    # Sanity only: counting returns known domains.
    assert set(counts) <= {"clk8", "clk64"}
    report = insert_test_points(c, lib, TpiConfig(n_test_points=4))
    for record in report.inserted:
        assert record.clock in ("clk8", "clk64")
        assert assign_clock(c, record.net) in ("clk8", "clk64")


@pytest.mark.parametrize("generator", ["s38417_like", "dsp_core_p26909"])
def test_single_clock_shortcut_matches_search(lib, monkeypatch, generator):
    import repro.circuits
    from repro.tpi import insertion
    from repro.tpi.clockdomain import single_clock

    def tpi_at_5_percent():
        c = getattr(repro.circuits, generator)(scale=0.02)
        assert single_clock(c) == c.clocks[0].net
        n = round(0.05 * c.num_flip_flops)
        return insert_test_points(c, lib, TpiConfig(n_test_points=n))

    shortcut = tpi_at_5_percent()
    monkeypatch.setattr(insertion, "single_clock", lambda circuit: None)
    searched = tpi_at_5_percent()
    assert shortcut.count > 0
    # Instances, nets, clocks, iterations and scores all match.
    assert shortcut.inserted == searched.inserted


def test_single_clock_shortcut_off_for_two_clocks():
    from repro.circuits import control_core
    from repro.tpi.clockdomain import single_clock
    assert single_clock(control_core(scale=0.02)) is None


def test_timing_aware_helpers():
    class P:  # stand-in timing path
        def __init__(self, slack, nets):
            self.slack_ps = slack
            self.nets = nets

    paths = [P(-10.0, ["a", "b"]), P(500.0, ["c"]), P(40.0, ["d"])]
    excluded = critical_nets(paths, slack_threshold_ps=50.0)
    assert excluded == {"a", "b", "d"}
    text = exclusion_report(excluded, all_nets=30)
    assert "3 nets" in text and "10.0%" in text
