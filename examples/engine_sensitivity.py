#!/usr/bin/env python3
"""Layout-engine sensitivity: does the paper survive a change of placer?

The paper's Tables 2/3 measure TPI's area and timing impact *through*
one placement engine.  This experiment re-runs the sweep under each
engine in ``repro.api.PLACERS`` and reports, per circuit and TP
level, how much the headline quantities move when only the engine
changes: core area, wirelength, and the critical-path delay T_cp.

The punchline column is the spread: for each (circuit, tp%) cell the
max relative difference between engines.  A small spread means the
paper's conclusions are robust to the layout engine; a large one means
they are an artifact of it.

Every engine is deterministic (the SA backend is seeded from the
netlist's content hash), so this table reproduces bit-identically.

Run:  python examples/engine_sensitivity.py [scale] [circuits] [tps]
      scale     circuit size fraction       (default 0.015)
      circuits  comma list                  (default s38417,p26909)
      tps       comma list of TP percents   (default 0,2,4)
"""

import sys

from repro import api


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.015
    circuits = (sys.argv[2].split(",") if len(sys.argv) > 2
                else ["s38417", "p26909"])
    tps = (tuple(float(t) for t in sys.argv[3].split(","))
           if len(sys.argv) > 3 else (0.0, 2.0, 4.0))
    engines = sorted(api.PLACERS)

    print(f"engine sensitivity: scale={scale} engines={engines}")
    print(f"circuits={circuits} tp_percents={[f'{t:g}' for t in tps]}\n")

    # cells[(circuit, tp)][engine] -> (area, wirelength, t_cp)
    cells = {}
    domains = {}
    for circuit in circuits:
        for engine in engines:
            result = api.sweep(circuit, scale=scale, tp_percents=tps,
                               placer=engine)
            t2 = {r["tp_percent"]: r for r in result.table2_rows()}
            t3 = {}
            for row in result.table3_rows():
                # One domain per circuit is enough for the headline:
                # keep the slowest (critical) domain per level.
                key = row["tp_percent"]
                if (key not in t3
                        or row["t_cp_ps"] > t3[key]["t_cp_ps"]):
                    t3[key] = row
            for tp in tps:
                cell = cells.setdefault((circuit, tp), {})
                cell[engine] = (
                    t2[tp]["core_area_um2"],
                    t2[tp]["wirelength_um"],
                    t3[tp]["t_cp_ps"],
                )
                domains[(circuit, tp)] = t3[tp]["domain"]

    header = (f"{'circuit':>12} {'tp%':>4} {'engine':>10} "
              f"{'core(um2)':>10} {'L_wires(um)':>12} {'T_cp(ps)':>9}")
    print(header)
    print("-" * len(header))
    for (circuit, tp), per_engine in cells.items():
        for engine in engines:
            area, wires, tcp = per_engine[engine]
            print(f"{circuit:>12} {tp:>4g} {engine:>10} "
                  f"{area:>10.0f} {wires:>12.0f} {tcp:>9.0f}")

    def spread(values) -> float:
        lo, hi = min(values), max(values)
        return 100.0 * (hi - lo) / lo if lo else 0.0

    print("\nengine-to-engine spread (max-min as % of min):")
    header = (f"{'circuit':>12} {'tp%':>4} {'domain':>8} "
              f"{'area':>7} {'wires':>7} {'T_cp':>7}")
    print(header)
    print("-" * len(header))
    worst = 0.0
    for (circuit, tp), per_engine in cells.items():
        areas = [v[0] for v in per_engine.values()]
        wires = [v[1] for v in per_engine.values()]
        tcps = [v[2] for v in per_engine.values()]
        print(f"{circuit:>12} {tp:>4g} {domains[(circuit, tp)]:>8} "
              f"{spread(areas):>6.2f}% {spread(wires):>6.2f}% "
              f"{spread(tcps):>6.2f}%")
        worst = max(worst, spread(areas), spread(wires), spread(tcps))

    print(f"\nlargest engine-induced spread in any cell: {worst:.2f}%")
    print("(area spreads are ~0 by construction: every engine "
          "legalises into the same floorplan; wirelength and timing "
          "carry the engine signature)")


if __name__ == "__main__":
    main()
