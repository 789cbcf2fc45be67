"""The paper's experiment: one circuit, six layouts (0%..5% TPs).

Section 4.1: "We generated six layouts for each circuit: one layout for
the circuit without test points, and five layouts for the circuit with
1%, 2%, 3%, 4%, and 5% test points respectively.  The percentage of
test points corresponds to the number of flip-flops in the design."
Each layout is generated from scratch with the same square floorplan
style, target row utilisation and ring dimensions, optimised for area
only — all reproduced by :func:`repro.core.flow.run_flow`.

This module sweeps the percentages and assembles the rows of Tables
1-3, including the percentage-change columns relative to the 0% run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.flow import FlowConfig, FlowResult, run_flow
from repro.core.metrics import percent_change
from repro.library.cell import Library
from repro.library.cmos130 import cmos130
from repro.netlist.circuit import Circuit

#: The paper's sweep (Section 4.1).
PAPER_TP_PERCENTS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)


@dataclass
class ExperimentConfig:
    """One circuit's sweep configuration.

    Attributes:
        name: Circuit label used in reports.
        circuit_factory: Builds a *fresh* pre-DFT netlist per level
            (each layout is generated from scratch, as in the paper).
        tp_percents: Test-point percentages to sweep.
        flow: Base flow configuration; ``tp_percent`` is overridden
            per level.
        library: Cell library.
    """

    name: str
    circuit_factory: Callable[[], Circuit]
    tp_percents: Sequence[float] = PAPER_TP_PERCENTS
    flow: FlowConfig = field(default_factory=FlowConfig)
    library: Optional[Library] = None


@dataclass
class ExperimentResult:
    """All runs of one circuit's sweep, keyed by TP percentage."""

    name: str
    runs: Dict[float, FlowResult] = field(default_factory=dict)

    @property
    def baseline(self) -> FlowResult:
        """The 0% run every percentage column is measured against."""
        return self.runs[min(self.runs)]

    # -- Table 1 --------------------------------------------------------
    def table1_rows(self) -> List[Dict[str, float]]:
        """Impact of TPI on test data (paper Table 1)."""
        base = self.baseline.test_metrics()
        rows = []
        for pct in sorted(self.runs):
            m = self.runs[pct].test_metrics()
            rows.append({
                "circuit": self.name,
                "tp_percent": pct,
                "n_tp": m.n_test_points,
                "n_ff": m.n_flip_flops,
                "n_chains": m.n_chains,
                "l_max": m.l_max,
                "n_faults": m.n_faults,
                "fc_percent": 100.0 * m.fault_coverage,
                "fe_percent": 100.0 * m.fault_efficiency,
                "saf_patterns": m.n_patterns,
                "patterns_dec_percent": -percent_change(
                    base.n_patterns, m.n_patterns
                ),
                "tdv_bits": m.tdv_bits,
                "tdv_dec_percent": -percent_change(
                    base.tdv_bits, m.tdv_bits
                ),
                "tat_cycles": m.tat_cycles,
                "tat_dec_percent": -percent_change(
                    base.tat_cycles, m.tat_cycles
                ),
            })
        return rows

    # -- Table 2 --------------------------------------------------------
    def table2_rows(self) -> List[Dict[str, float]]:
        """Impact of TPI on silicon area (paper Table 2)."""
        base = self.baseline.area_metrics()
        rows = []
        for pct in sorted(self.runs):
            run = self.runs[pct]
            a = run.area_metrics()
            rows.append({
                "circuit": self.name,
                "tp_percent": pct,
                "n_tp": run.n_test_points,
                "n_cells": a["n_cells"],
                "n_cells_logic": a["n_cells_logic"],
                "n_rows": a["n_rows"],
                "row_length_um": a["row_length_um"],
                "core_area_um2": a["core_area_um2"],
                "core_inc_percent": percent_change(
                    base["core_area_um2"], a["core_area_um2"]
                ),
                "filler_area_percent": 100.0 * a["filler_fraction"],
                "chip_area_um2": a["chip_area_um2"],
                "chip_inc_percent": percent_change(
                    base["chip_area_um2"], a["chip_area_um2"]
                ),
                "wirelength_um": a["wirelength_um"],
            })
        return rows

    # -- Table 3 --------------------------------------------------------
    def table3_rows(self) -> List[Dict[str, float]]:
        """Impact of TPI on timing (paper Table 3), one row per
        (TP level, clock domain)."""
        base_sta = self.baseline.sta
        if base_sta is None:
            raise ValueError("experiment ran without the layout phase")
        base_tcp = {
            domain: paths[0].total_ps
            for domain, paths in base_sta.paths.items()
            if paths
        }
        rows = []
        for pct in sorted(self.runs):
            run = self.runs[pct]
            assert run.sta is not None
            for domain in sorted(run.sta.paths):
                critical = run.sta.critical(domain)
                if critical is None:
                    continue
                rows.append({
                    "circuit": self.name,
                    "domain": domain,
                    "tp_percent": pct,
                    "n_tp": run.n_test_points,
                    "n_tp_cp": critical.n_test_points,
                    "t_cp_ps": critical.total_ps,
                    "t_cp_inc_percent": percent_change(
                        base_tcp.get(domain, critical.total_ps),
                        critical.total_ps,
                    ),
                    "fmax_mhz": critical.fmax_mhz,
                    "t_wires_ps": critical.t_wires_ps,
                    "t_intrinsic_ps": critical.t_intrinsic_ps,
                    "t_load_dep_ps": critical.t_load_dep_ps,
                    "t_setup_ps": critical.t_setup_ps,
                    "t_skew_ps": critical.t_skew_ps,
                    "slow_nodes": len(run.sta.slow_nodes),
                })
        return rows


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full sweep for one circuit, serially in this process.

    The reference the golden and bit-identity tests compare the
    executor against; programs sweep through :func:`repro.api.sweep`.
    """
    library = config.library or cmos130()
    result = ExperimentResult(name=config.name)
    for pct in config.tp_percents:
        circuit = config.circuit_factory()
        flow_config = replace(config.flow, tp_percent=pct)
        result.runs[pct] = run_flow(circuit, library, flow_config)
    return result
