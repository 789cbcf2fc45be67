"""Failure injection: the validator and flow guards catch corruption."""

import pytest

from repro.core.flow import validate
from repro.lint import LintError
from repro.netlist import Circuit
from repro.netlist.net import PORT
from tests.conftest import structural_errors


def _healthy(lib):
    c = Circuit("t")
    c.add_clock("clk", 1000.0)
    c.add_input("a")
    c.add_input("b")
    c.add_net("n1")
    c.add_instance("g", lib["NAND2_X1"], {"A": "a", "B": "b", "Z": "n1"})
    c.add_net("q")
    c.add_instance("ff", lib["DFF_X1"], {"D": "n1", "CLK": "clk", "Q": "q"})
    c.add_output("y", "q")
    assert not structural_errors(c)
    return c


def test_stale_driver_backreference_detected(lib):
    c = _healthy(lib)
    c.nets["n1"].driver = ("g", "A")  # wrong pin recorded
    assert any("back-reference" in e or "driven" in e
               for e in structural_errors(c))


def test_stale_sink_backreference_detected(lib):
    c = _healthy(lib)
    c.nets["a"].sinks.append(("ff", "D"))  # phantom sink
    assert structural_errors(c)


def test_missing_driver_detected(lib):
    c = _healthy(lib)
    c.nets["n1"].driver = None
    assert any("no driver" in e for e in structural_errors(c))


def test_ghost_instance_detected(lib):
    c = _healthy(lib)
    del c.instances["g"]
    assert any("missing instance" in e for e in structural_errors(c))


def test_output_port_corruption_detected(lib):
    c = _healthy(lib)
    c.nets["q"].sinks.remove((PORT, "y"))
    assert any("not a sink" in e for e in structural_errors(c))


def test_raise_on_error(lib):
    c = _healthy(lib)
    c.nets["n1"].driver = None
    with pytest.raises(LintError, match="^netlist validation failed: "):
        validate(c)


def test_flow_validation_catches_corruption(lib):
    """run_flow validates between steps: a corrupted netlist aborts."""
    from repro.circuits import s38417_like
    from repro.core import FlowConfig, run_flow

    c = s38417_like(scale=0.015)
    # Sabotage: disconnect a random gate input.
    victim = next(
        i for i in c.instances.values()
        if not i.is_sequential and not i.cell.is_filler
    )
    pin = victim.cell.input_pins[0]
    c.disconnect(victim.name, pin)
    with pytest.raises(ValueError):
        run_flow(c, lib, FlowConfig(run_atpg_phase=False))
