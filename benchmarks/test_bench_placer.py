"""Bench: placement-engine comparison and the quadratic-solve speedup.

Two artifacts land in ``benchmarks/out/``:

* ``BENCH_placer_stages.json`` — per-stage seconds of a serial,
  cache-cold sweep under each engine (``quadratic`` and ``sa``), and
  the ``solver`` microbench quantifying the numpy acceleration of the
  quadratic global place (the spring system is assembled once and
  reused across all four Gordian rounds instead of being rebuilt per
  round).
* ``placer_engines.txt`` — the per-engine wirelength/runtime summary.

The speedup assertion is deliberately loose (cached assembly must not
be *slower* than per-round reassembly beyond timer noise): this bench
documents the win, the golden-table tests pin its bitwise safety.
"""

from __future__ import annotations

import json
import time

from conftest import write_artifact
from repro import api
from repro.circuits import s38417_like
from repro.layout import PLACERS, build_floorplan, placement_seed
from repro.layout import placement as placement_mod

#: Fast ATPG knobs: bench the layout stages, not PODEM.
FAST_ATPG = {"seed": 7, "backtrack_limit": 24, "max_deterministic": 60,
             "abort_recovery_blocks": 4, "second_chance_factor": 1}

SOLVER_SCALE = 0.15  # ~4k cells: assembly dominates at this size
SWEEP_SCALE = 0.01
TP_PERCENTS = (0.0, 2.0)


def _stage_seconds(placer: str) -> dict:
    """Per-stage seconds of a serial, cache-cold sweep, summed over
    cells (serial and uncached so they measure compute, not queueing
    or cache hits)."""
    report = api.sweep_report("s38417", scale=SWEEP_SCALE,
                              tp_percents=TP_PERCENTS, jobs=1,
                              atpg=FAST_ATPG, placer=placer)
    assert not report.failures, report.failures
    stages: dict = {}
    for result in report.results.values():
        for summary in result.runs.values():
            for key, value in summary.stage_seconds.items():
                stages[key] = stages.get(key, 0.0) + float(value)
    return {"stages": dict(sorted(stages.items())),
            "wall_s": sum(stages.values())}


def _solver_microbench() -> dict:
    """Time one cached-assembly global place vs per-round reassembly."""
    circuit = s38417_like(scale=SOLVER_SCALE)
    plan = build_floorplan(circuit, target_utilization=0.97)
    movable = [inst.name for inst in circuit.instances.values()
               if not inst.cell.is_filler]
    index = {name: i for i, name in enumerate(movable)}

    t0 = time.perf_counter()
    placement_mod.global_place(circuit, plan)
    cached_s = time.perf_counter() - t0

    # The historical path assembled the springs from scratch in each
    # of the four Gordian rounds; measure that extra work directly.
    t0 = time.perf_counter()
    for _ in range(4):
        placement_mod._assemble_springs(circuit, plan, movable, index)
    reassembly_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    placement_mod._assemble_springs(circuit, plan, movable, index)
    one_assembly_s = time.perf_counter() - t0

    historical_s = cached_s + (reassembly_s - one_assembly_s)
    return {
        "n_cells": len(movable),
        "scale": SOLVER_SCALE,
        "global_place_cached_s": cached_s,
        "assembly_once_s": one_assembly_s,
        "assembly_four_rounds_s": reassembly_s,
        "global_place_reassembling_s": historical_s,
        "speedup": historical_s / cached_s if cached_s else 1.0,
    }


def test_placer_stage_record(out_dir):
    solver = _solver_microbench()
    # Cached assembly must never lose to rebuilding four times over
    # (1.25 headroom absorbs scheduler noise on loaded machines).
    assert (solver["global_place_cached_s"]
            <= solver["global_place_reassembling_s"] * 1.25)

    quad = _stage_seconds("quadratic")
    sa = _stage_seconds("sa")
    record = {
        "circuit": "s38417",
        "scale": SWEEP_SCALE,
        "tp_percents": list(TP_PERCENTS),
        "quadratic": quad,
        "sa": sa,
        "solver": solver,
    }
    write_artifact(out_dir, "BENCH_placer_stages.json",
                   json.dumps(record, indent=1, sort_keys=True) + "\n")

    lines = [
        f"placement engines, s38417 scale={SWEEP_SCALE} tp=(0,2):",
        f"  quadratic: floorplan_place "
        f"{quad['stages'].get('floorplan_place', 0.0):.3f}s "
        f"(wall {quad['wall_s']:.2f}s)",
        f"  sa:        floorplan_place "
        f"{sa['stages'].get('floorplan_place', 0.0):.3f}s "
        f"(wall {sa['wall_s']:.2f}s)",
        f"solver microbench, s38417 scale={SOLVER_SCALE} "
        f"({solver['n_cells']} cells):",
        f"  global place (assemble once):      "
        f"{solver['global_place_cached_s']:.3f}s",
        f"  global place (reassemble 4x, old): "
        f"{solver['global_place_reassembling_s']:.3f}s",
        f"  speedup: {solver['speedup']:.2f}x",
    ]
    write_artifact(out_dir, "placer_engines.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))


def test_placer_engines_deterministic_quality(out_dir):
    """Both engines: one placement each, SA must not trail quadratic."""
    circuit = s38417_like(scale=0.05)
    results = {}
    for name in ("quadratic", "sa"):
        plan = build_floorplan(circuit, target_utilization=0.97)
        engine = PLACERS[name]()
        seed = placement_seed(circuit, name)
        placement = engine.place(circuit, plan)
        engine.refine(circuit, placement, passes=2, seed=seed)
        results[name] = placement.total_hpwl_um(circuit)
    assert results["sa"] <= results["quadratic"] * 1.02, results
