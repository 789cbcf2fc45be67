"""Tests for structural-Verilog interchange."""

import pytest

from repro.circuits import s38417_like
from repro.netlist import Circuit, from_verilog, to_verilog
from tests.conftest import structural_errors


def test_round_trip_tiny(lib, tiny_pipeline):
    text = to_verilog(tiny_pipeline)
    back = from_verilog(text, lib)
    assert not structural_errors(back)
    assert back.stats() == tiny_pipeline.stats()
    assert [d.net for d in back.clocks] == ["clk"]
    assert back.clocks[0].period_ps == 4000.0


def test_round_trip_generated(lib):
    c = s38417_like(scale=0.01)
    back = from_verilog(to_verilog(c), lib)
    assert not structural_errors(back)
    assert back.stats() == c.stats()
    # Same cells on the same nets.
    for name, inst in c.instances.items():
        assert back.instances[name].cell.name == inst.cell.name
        assert back.instances[name].conns == inst.conns


def test_output_alias_round_trip(lib):
    c = Circuit("alias")
    c.add_input("a")
    c.add_net("inner")
    c.add_instance("g", lib["INV_X1"], {"A": "a", "Z": "inner"})
    c.add_output("out_port", "inner")
    text = to_verilog(c)
    assert "assign out_port = inner;" in text
    back = from_verilog(text, lib)
    assert back.output_net("out_port") == "inner"
    assert not structural_errors(back)


def test_unknown_cell_rejected(lib):
    text = """
    module m (a, y);
      input a;
      output y;
      MYSTERY u1 (.A(a), .Z(y));
    endmodule
    """
    with pytest.raises(KeyError):
        from_verilog(text, lib)


def test_missing_module_rejected(lib):
    with pytest.raises(ValueError):
        from_verilog("wire x;", lib)
