#!/usr/bin/env python3
"""The paper's experiment on one circuit: sweep 0%..5% test points.

Reproduces the six-layout experiment of Section 4.1 on a scaled
benchmark and prints Tables 1-3 in the paper's layout.  This is the
same machinery the benchmark harness uses; run it directly to explore
other scales or circuits.

The six layouts are independent, so the sweep parallelises perfectly:
pass a job count to fan the levels out over worker processes, and a
cache directory to make re-runs resume instantly.  Results are
bit-identical at every job count.

Run:  python examples/tpi_sweep.py [circuit] [scale] [jobs] [cache_dir]
      circuit in {s38417, control_core, p26909}
"""

import sys
import time

from repro import api
from repro.core import format_table1, format_table2, format_table3


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "s38417"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05
    jobs = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    cache_dir = sys.argv[4] if len(sys.argv) > 4 else None

    print(f"Sweeping {name} at scale {scale}: six layouts "
          f"(0%..5% test points) with jobs={jobs} "
          f"cache={cache_dir or 'off'} ...")
    t0 = time.time()
    # The registry's per-circuit defaults (utilisation, scan chains)
    # are the paper's; tp_percents defaults to its 0..5 % ladder.
    result = api.sweep(name, scale=scale, jobs=jobs, cache_dir=cache_dir)
    cached = sorted(p for p, r in result.runs.items() if r.from_cache)
    if cached:
        print("served from cache: " + ", ".join(f"{p:g}%" for p in cached))
    print(f"done in {time.time() - t0:.0f} s\n")

    print("Table 1: Impact of TPI on test data")
    print(format_table1(result.table1_rows()))
    print("\nTable 2: Impact of TPI on silicon area")
    print(format_table2(result.table2_rows()))
    print("\nTable 3: Impact of TPI on timing")
    print(format_table3(result.table3_rows()))


if __name__ == "__main__":
    main()
