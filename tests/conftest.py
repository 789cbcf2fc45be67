"""Shared fixtures: the library and small session-cached circuits, the
``--update-golden`` option of the golden-table regression tests, and
the Prometheus sample reader the service tests read ``/metrics`` with."""

from __future__ import annotations

import re

import pytest

from repro.circuits import s38417_like
from repro.library import cmos130
from repro.netlist import Circuit
from repro.obs import render_registry


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/ fixtures from the current outputs "
             "instead of diffing against them",
    )


@pytest.fixture()
def update_golden(request) -> bool:
    """True when the run should rewrite the golden fixtures."""
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def lib():
    """The shared 130 nm-class library."""
    return cmos130()


@pytest.fixture(scope="session")
def small_circuit(lib):
    """A small generated benchmark (session-cached, do not mutate)."""
    return s38417_like(scale=0.02)


@pytest.fixture()
def small_circuit_mutable(lib):
    """A fresh small benchmark safe to rewrite in the test."""
    return s38417_like(scale=0.02)


@pytest.fixture()
def tiny_pipeline(lib):
    """A hand-built two-stage pipeline used by timing/DFT tests.

    Structure::

        pi_a --\\
                NAND -- n1 -- FF1 -- q1 -- INV -- n2 -- FF2 -- q2 -> po
        pi_b --/
    """
    c = Circuit("tiny")
    c.add_clock("clk", 4000.0)
    c.add_input("pi_a")
    c.add_input("pi_b")
    c.add_net("n1")
    c.add_instance("g1", lib["NAND2_X1"], {"A": "pi_a", "B": "pi_b",
                                           "Z": "n1"})
    c.add_net("q1")
    c.add_instance("ff1", lib["DFF_X1"], {"D": "n1", "CLK": "clk",
                                          "Q": "q1"})
    c.add_net("n2")
    c.add_instance("g2", lib["INV_X1"], {"A": "q1", "Z": "n2"})
    c.add_net("q2")
    c.add_instance("ff2", lib["DFF_X1"], {"D": "n2", "CLK": "clk",
                                          "Q": "q2"})
    c.add_output("po", "q2")
    return c


_PROM_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def prom_samples(text):
    """``(name, labels, value)`` for every sample line of a scrape."""
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, labels, value = _PROM_SAMPLE.match(line).groups()
        samples.append((name, dict(_PROM_LABEL.findall(labels or "")),
                        float(value)))
    return samples


def prom_value(text, name, **labels):
    """Sum of the scrape's ``name`` samples whose labels include
    ``labels`` (every series of ``name`` when none are given)."""
    return sum(value for sample, got, value in prom_samples(text)
               if sample == name and labels.items() <= got.items())


def scrape(manager):
    """A job manager's registry as ``GET /metrics`` renders it (the
    daemon adds only ``repro_uptime_seconds``)."""
    return render_registry(manager.prom_registry())
