"""Tests for the synthesis-style electrical DRC passes."""

import pytest

from repro.netlist import Circuit
from tests.conftest import structural_errors
from repro.netlist.fanout import (
    estimated_load_ff,
    fix_electrical,
    fix_fanout,
    upsize_drivers,
)
from repro.scan import insert_scan
from repro.atpg import BitSimulator
from repro.netlist import extract_comb_view


def _fanout_hog(lib, n_sinks=40):
    c = Circuit("hog")
    c.add_input("a")
    c.add_net("big")
    c.add_instance("drv", lib["INV_X1"], {"A": "a", "Z": "big"})
    for i in range(n_sinks):
        c.add_net(f"o{i}")
        c.add_instance(f"s{i}", lib["INV_X1"], {"A": "big", "Z": f"o{i}"})
        c.add_output(f"p{i}", f"o{i}")
    return c


def test_fix_fanout_bounds_all_nets(lib):
    c = _fanout_hog(lib)
    report = fix_fanout(c, lib, max_fanout=8)
    assert report.buffers_added >= 5
    for name, net in c.nets.items():
        assert len(net.sinks) <= 8, f"net {name} still has {len(net.sinks)}"
    assert not structural_errors(c)


def test_fix_fanout_preserves_function(lib):
    c = _fanout_hog(lib, n_sinks=20)
    ref = c.clone("ref")
    fix_fanout(c, lib, max_fanout=6)
    view_ref = extract_comb_view(ref, "test")
    view_new = extract_comb_view(c, "test")
    import random
    rng = random.Random(0)
    sim_ref = BitSimulator(view_ref)
    sim_new = BitSimulator(view_new)
    words = sim_ref.random_block(rng)
    vals_ref = sim_ref.run(words)
    vals_new = sim_new.run({"a": words["a"]})
    for port in ref.outputs:
        net_r = ref.output_net(port)
        net_n = c.output_net(port)
        assert (
            vals_ref[sim_ref.net_index[net_r]]
            == vals_new[sim_new.net_index[net_n]]
        )


def test_clock_nets_untouched(lib, small_circuit_mutable):
    c = small_circuit_mutable
    insert_scan(c, lib, max_chain_length=50)
    clock_fanout_before = {
        d.net: len(c.nets[d.net].sinks) for d in c.clocks
    }
    fix_fanout(c, lib, max_fanout=8)
    for d in c.clocks:
        assert len(c.nets[d.net].sinks) == clock_fanout_before[d.net]


def test_upsize_drivers(lib):
    c = _fanout_hog(lib, n_sinks=8)
    assert estimated_load_ff(c, "big") > lib["INV_X1"].max_cap_ff * 0.6
    report = upsize_drivers(c, lib)
    assert report.drivers_upsized >= 1
    assert c.instances["drv"].cell.drive > 1


def test_fix_electrical_combined(lib, small_circuit_mutable):
    c = small_circuit_mutable
    insert_scan(c, lib, max_chain_length=50)
    report = fix_electrical(c, lib)
    assert report.buffers_added >= 0
    assert not structural_errors(c)
    clock_nets = {d.net for d in c.clocks}
    for name, net in c.nets.items():
        if name in clock_nets:
            continue
        assert len(net.sinks) <= 8
