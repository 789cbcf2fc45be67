"""Integration tests for the ATPG engine (compaction, recovery,
coverage)."""

import pytest

from repro.atpg import (
    AtpgConfig,
    BitSimulator,
    FaultSimulator,
    FaultStatus,
    build_fault_list,
    run_atpg,
)
from repro.atpg.compaction import pack_block, reverse_order_compaction
from repro.netlist import extract_comb_view
from repro.scan import insert_scan


@pytest.fixture(scope="module")
def atpg_result():
    from repro.circuits import s38417_like
    from repro.library import cmos130
    c = s38417_like(scale=0.025)
    insert_scan(c, cmos130(), max_chain_length=50)
    config = AtpgConfig(seed=11, backtrack_limit=48)
    return c, run_atpg(c, config=config)


def test_reasonable_coverage(atpg_result):
    _, res = atpg_result
    assert res.fault_coverage > 0.87
    assert res.fault_efficiency >= res.fault_coverage
    assert res.n_patterns > 10


def test_final_set_covers_all_detected_faults(atpg_result):
    """Re-simulating the final test set re-detects every DETECTED fault."""
    c, res = atpg_result
    view = extract_comb_view(c, "test")
    sim = BitSimulator(view)
    fsim = FaultSimulator(sim)
    flist = res.fault_list
    must_detect = {
        rep for rep in flist.classes()
        if flist.status[rep] is FaultStatus.DETECTED
        and fsim.in_view(rep)
    }
    remaining = set(must_detect)
    width = sim.width
    for start in range(0, len(res.patterns), width):
        block = res.patterns[start:start + width]
        words = pack_block(res.input_nets, block)
        remaining -= set(fsim.run_block(words, remaining))
        if not remaining:
            break
    assert not remaining, f"{len(remaining)} detected faults not covered"


def test_static_compaction_preserves_coverage(atpg_result):
    c, res = atpg_result
    view = extract_comb_view(c, "test")
    fsim = FaultSimulator(BitSimulator(view))
    flist = res.fault_list
    targets = [
        rep for rep in flist.classes()
        if flist.status[rep] is FaultStatus.DETECTED
    ]
    compacted = reverse_order_compaction(fsim, list(res.patterns), targets)
    assert len(compacted) <= len(res.patterns)
    # Idempotent-ish: compacting again cannot grow the set.
    again = reverse_order_compaction(fsim, compacted, targets)
    assert len(again) <= len(compacted)


def test_deterministic_runs(atpg_result):
    from repro.circuits import s38417_like
    from repro.library import cmos130
    results = []
    for _ in range(2):
        c = s38417_like(scale=0.015)
        insert_scan(c, cmos130(), max_chain_length=50)
        res = run_atpg(c, config=AtpgConfig(
            seed=5, backtrack_limit=24, max_deterministic=120,
        ))
        results.append((res.n_patterns, res.fault_coverage, res.patterns))
    assert results[0] == results[1]


def test_random_phase_mode():
    """The opt-in LBIST-style random phase also reaches good coverage."""
    from repro.circuits import s38417_like
    from repro.library import cmos130
    c = s38417_like(scale=0.02)
    insert_scan(c, cmos130(), max_chain_length=50)
    res = run_atpg(c, config=AtpgConfig(
        seed=2, random_blocks=48, backtrack_limit=24,
        max_deterministic=100,
    ))
    assert res.random_patterns_kept > 0
    assert res.fault_coverage > 0.75


def test_scan_path_faults_pre_credited(atpg_result):
    c, res = atpg_result
    flist = res.fault_list
    assert flist.count(FaultStatus.SCAN_TESTED) > 0
    # TE/TI/CLK pin faults never stay UNDETECTED.
    for fault in flist.faults:
        if fault.sink is None:
            continue
        inst, pin = fault.sink
        if pin in ("TE", "TI", "CLK") and inst in c.instances:
            if c.instances[inst].is_sequential:
                assert flist.status[fault] is not FaultStatus.UNDETECTED


def test_no_podem_setup_without_targets(monkeypatch):
    """A random-only run (no PODEM targets) builds no SCOAP, COP or
    PODEM engine."""
    from repro.atpg import engine
    from repro.circuits import s38417_like
    from repro.library import cmos130

    def refuse(*args, **kwargs):
        raise AssertionError("PODEM set-up ran with nothing to target")

    for name in ("compute_scoap", "compute_cop", "PodemEngine"):
        monkeypatch.setattr(engine, name, refuse)
    c = s38417_like(scale=0.015)
    insert_scan(c, cmos130(), max_chain_length=50)
    res = run_atpg(c, config=AtpgConfig(
        seed=3, random_blocks=4, max_deterministic=0))
    assert res.random_patterns_kept > 0
    assert res.deterministic_patterns == res.aborted == res.redundant == 0
