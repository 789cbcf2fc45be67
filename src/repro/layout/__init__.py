"""Layout generation: floorplan, placement, CTS, ECO, filler, routing.

The flow places through one of two engine classes, chosen by name from
:data:`PLACERS`: ``"quadratic"`` (:class:`QuadraticPlacer`, the
default) or ``"sa"`` (:class:`SimulatedAnnealingPlacer`, which adds
simulated-annealing detailed placement).  ``global_place`` is the
quadratic engine's analytic solve, callable on its own.
"""

from repro.layout.cts import (
    ClockTree,
    MAX_CLUSTER_SINKS,
    synthesize_all_clock_trees,
    synthesize_clock_tree,
)
from repro.layout.defio import def_statistics, to_def
from repro.layout.detailed import refine_placement
from repro.layout.eco import desired_position, eco_place
from repro.layout.filler import FillerReport, insert_fillers
from repro.layout.floorplan import (
    CORE_MARGIN_UM,
    Floorplan,
    GROUND_RING_UM,
    IO_RING_UM,
    POWER_RING_UM,
    Row,
    build_floorplan,
)
from repro.layout.geometry import Point, Rect, hpwl, manhattan
from repro.layout.placement import (
    Placement,
    QuadraticPlacer,
    global_place,
    repack_row,
)
from repro.layout.sa import PLACERS, SimulatedAnnealingPlacer, placement_seed
from repro.layout.routing import (
    CongestionReport,
    GCELL_UM,
    GlobalRouter,
    RoutedNet,
    RouteSegment,
)

__all__ = [
    "CORE_MARGIN_UM",
    "def_statistics",
    "refine_placement",
    "to_def",
    "ClockTree",
    "CongestionReport",
    "FillerReport",
    "Floorplan",
    "GCELL_UM",
    "GROUND_RING_UM",
    "GlobalRouter",
    "IO_RING_UM",
    "MAX_CLUSTER_SINKS",
    "PLACERS",
    "POWER_RING_UM",
    "Placement",
    "Point",
    "QuadraticPlacer",
    "SimulatedAnnealingPlacer",
    "Rect",
    "RoutedNet",
    "RouteSegment",
    "Row",
    "build_floorplan",
    "desired_position",
    "eco_place",
    "global_place",
    "hpwl",
    "insert_fillers",
    "manhattan",
    "placement_seed",
    "repack_row",
    "synthesize_all_clock_trees",
    "synthesize_clock_tree",
]
