"""Placement-engine selection: seeds and ``FlowConfig.placer`` wiring.

The flow builds its engine as ``PLACERS[config.placer]()``; these tests
pin the content-derived seed the SA engine anneals with and the
config-level validation of the engine name.
"""

from __future__ import annotations

import pytest

from repro.circuits import s38417_like
from repro.core import FlowConfig
from repro.layout import build_floorplan, global_place, placement_seed


@pytest.fixture(scope="module")
def circuit():
    return s38417_like(scale=0.012)


# -- deterministic seeding ---------------------------------------------


def test_placement_seed_stable_and_engine_separated(circuit):
    s1 = placement_seed(circuit, "sa")
    s2 = placement_seed(circuit, "sa")
    assert s1 == s2
    assert 0 <= s1 < 2 ** 63
    assert placement_seed(circuit, "quadratic") != s1
    other = s38417_like(scale=0.02)
    assert placement_seed(other, "sa") != s1


def test_placement_seed_ignores_positions(circuit):
    before = placement_seed(circuit, "sa")
    plan = build_floorplan(circuit, target_utilization=0.97)
    global_place(circuit, plan)  # placing must not perturb the seed
    assert placement_seed(circuit, "sa") == before


# -- FlowConfig wiring -------------------------------------------------


def test_flow_config_validates_placer():
    assert FlowConfig().placer == "quadratic"
    assert FlowConfig(placer="sa").placer == "sa"
    with pytest.raises(ValueError, match="did you mean 'quadratic'"):
        FlowConfig(placer="quadratc")
    with pytest.raises(ValueError, match="did you mean 'sa'"):
        FlowConfig(placer="sa2")
    with pytest.raises(ValueError, match="unknown placer"):
        FlowConfig.from_dict({"placer": "gordian"})
    with pytest.raises(ValueError, match="unknown placer"):
        FlowConfig().replace(placer="annealer")


def test_flow_config_placer_round_trips():
    config = FlowConfig(placer="sa")
    assert FlowConfig.from_dict(config.to_dict()) == config
