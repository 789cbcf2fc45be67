"""Tests for scan insertion, chain reordering and flush simulation."""

import pytest

from repro.circuits import control_core
from tests.conftest import structural_errors
from repro.scan import (
    SCAN_ENABLE,
    TP_ENABLE,
    chain_wirelength,
    flush_delay_ok,
    insert_scan,
    nearest_neighbour_order,
    reorder_chains,
    restitch_chains,
    simulate_shift,
    tsff_flush_paths,
    two_opt,
)
from repro.tpi import TpiConfig, insert_test_points


@pytest.fixture()
def scanned(lib, small_circuit_mutable):
    c = small_circuit_mutable
    config = insert_scan(c, lib, max_chain_length=40)
    return c, config


def test_insert_scan_replaces_dffs(scanned):
    c, config = scanned
    for inst in c.instances.values():
        if inst.is_sequential:
            assert inst.cell.is_scan
    assert not structural_errors(c)


def test_chains_balanced_and_bounded(scanned):
    c, config = scanned
    assert config.max_length <= 40
    lengths = [len(chain) for chain in config.chains]
    assert max(lengths) - min(lengths) <= 1 or len(set(lengths)) <= 2
    assert config.n_flip_flops == c.num_flip_flops


def test_chains_do_not_mix_clock_domains(lib):
    c = control_core(scale=0.05)
    config = insert_scan(c, lib, max_chain_length=30)
    for chain, domain in zip(config.chains, config.clock_of_chain):
        for name in chain:
            assert c.clock_of(name) == domain
    assert set(config.clock_of_chain) == {"clk8", "clk64"}


def test_fixed_chain_count(lib, small_circuit_mutable):
    config = insert_scan(small_circuit_mutable, lib, n_chains=4)
    assert config.n_chains == 4


def test_sizing_arguments_exclusive(lib, small_circuit_mutable):
    with pytest.raises(ValueError):
        insert_scan(small_circuit_mutable, lib)
    with pytest.raises(ValueError):
        insert_scan(small_circuit_mutable, lib,
                    max_chain_length=10, n_chains=2)


def test_shift_simulation_transports_patterns(scanned):
    c, config = scanned
    stimulus = [1, 0, 1, 1, 0, 0, 1]
    out = simulate_shift(c, config, stimulus, chain=0)
    assert out == stimulus
    assert flush_delay_ok(c, config)


def test_tpi_cells_get_control_nets(lib, small_circuit_mutable):
    c = small_circuit_mutable
    insert_test_points(c, lib, TpiConfig(n_test_points=2))
    insert_scan(c, lib, max_chain_length=40)
    assert SCAN_ENABLE in c.nets
    assert TP_ENABLE in c.nets
    tsffs = [i for i in c.instances.values() if i.cell.is_tsff]
    assert tsffs
    for inst in tsffs:
        assert inst.conns["TR"] == TP_ENABLE
        assert inst.conns["TE"] == SCAN_ENABLE
        assert inst.conns["TI"] is not None
    assert tsff_flush_paths(c) == [i.name for i in tsffs]
    assert not structural_errors(c)


def test_restitch_rejects_membership_changes(scanned):
    c, config = scanned
    bad = [list(chain) for chain in config.chains]
    bad[0] = bad[0][:-1]  # drop one FF
    with pytest.raises(ValueError):
        restitch_chains(c, config, bad)


def test_nearest_neighbour_and_two_opt_improve(scanned):
    c, config = scanned
    import random
    rng = random.Random(1)
    members = config.chains[0]
    positions = {
        name: (rng.uniform(0, 100), rng.uniform(0, 100))
        for name in members
    }
    start = (0.0, 0.0)
    base = chain_wirelength(members, positions, start)
    nn = nearest_neighbour_order(members, positions, start)
    nn_len = chain_wirelength(nn, positions, start)
    assert nn_len <= base + 1e-9
    improved = two_opt(list(nn), positions, start)
    assert chain_wirelength(improved, positions, start) <= nn_len + 1e-9


def test_reorder_chains_end_to_end(scanned, lib):
    c, config = scanned
    import random
    rng = random.Random(2)
    positions = {
        name: (rng.uniform(0, 200), rng.uniform(0, 200))
        for chain in config.chains for name in chain
    }
    scan_ins = {i: (0.0, 0.0) for i in range(config.n_chains)}
    report = reorder_chains(c, config, positions, scan_ins, lib)
    assert report.wirelength_after_um <= report.wirelength_before_um
    assert not structural_errors(c)
    # Chains still shift correctly after the rewire.
    stimulus = [1, 0, 0, 1, 1]
    assert simulate_shift(c, config, stimulus, chain=0) == stimulus
