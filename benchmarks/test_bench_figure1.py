"""Bench: paper Figure 1 — the transparent scan flip-flop.

Prints the TSFF's behavioural table in all four operating modes
(application / scan shift / scan capture / scan flush) and verifies the
library cell realises exactly that behaviour.  The benchmark times the
compiled pair-code evaluation of the TSFF bypass function (good and
faulty machine in one call, here both fed the same values) — the
operation PODEM's implication repeats for every node it re-evaluates.
"""

from __future__ import annotations

import itertools

from conftest import write_artifact
from repro.atpg.threeval import compile_pair, decode, encode, pair
from repro.library import STATE_PIN, cmos130
from repro.tpi import ALL_MODES, mode_table, tsff_output


def test_figure1(out_dir, benchmark):
    lib = cmos130()
    tsff = lib["TSFF_X1"]

    lines = ["TSFF operating modes (paper Fig. 1): Q per (D, TI, state)"]
    table = mode_table()
    for mode in ALL_MODES:
        rows = table[mode.name]
        lines.append(
            f"  {mode.name:<13} TE={mode.te} TR={mode.tr}  " + "  ".join(
                f"{key}->{value}" for key, value in sorted(rows.items())
            )
        )
    # Timing facts the paper highlights.
    mux = lib["MUX2_X1"].arc("A", "Z").delay.lookup(40.0, 10.0).value
    passthrough = tsff.arc("D", "Q").delay.lookup(40.0, 10.0).value
    lines.append(
        f"  application-mode D->Q delay: {passthrough:.0f} ps "
        f"(>= two mux delays, 2 x {mux:.0f} ps)"
    )
    text = "\n".join(lines)
    write_artifact(out_dir, "figure1_tsff.txt", text)
    print(text)

    # Library-vs-reference equivalence over all 32 input combinations.
    pins = ["D", "TI", "TE", "TR", STATE_PIN]
    index = {p: i for i, p in enumerate(pins)}
    fn = compile_pair(tsff.sequential.bypass, index)
    cases = list(itertools.product((0, 1), repeat=5))

    def evaluate_all():
        out = []
        for d, ti, te, tr, state in cases:
            values = [pair(code, code) for code in map(
                encode, (d, ti, te, tr, state))]
            out.append(decode(fn(values) & 3))
        return out

    got = benchmark(evaluate_all)
    want = [tsff_output(d, ti, te, tr, s)
            for d, ti, te, tr, s in cases]
    assert got == want
    assert passthrough >= 1.5 * mux
