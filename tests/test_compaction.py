"""Static test-set compaction and pattern-block packing.

Crafted circuits check what compaction keeps.  Two references keep the
code the block helpers replaced, compared with ``==``:
:func:`reference_compaction` is the per-bit crediting loop of
reverse-order compaction, and :func:`reference_transpose` the full
64-pattern transpose the random ATPG phases used before they built only
the kept patterns.
"""

import random
from typing import Dict, List

import pytest

from repro.atpg import (
    AtpgConfig,
    BitSimulator,
    Fault,
    FaultSimulator,
    build_fault_list,
    run_atpg,
)
from repro.atpg import engine
from repro.atpg.compaction import (
    pack_block,
    reverse_order_compaction,
    unpack_block,
)
from repro.circuits import s38417_like
from repro.netlist import Circuit, extract_comb_view
from repro.scan import insert_scan


def reference_compaction(fsim: FaultSimulator, patterns: List[int],
                         targets: List[Fault]) -> List[int]:
    """Reverse-order compaction with the per-bit crediting loop.

    Each detection word is walked bit by bit over the whole width; a
    block's padding bits (past its last pattern) are never credited.
    """
    width = fsim.sim.width
    inputs = fsim.sim.view.input_nets
    remaining = {f for f in targets if fsim.in_view(f)}
    keep: List[int] = []

    reversed_patterns = list(reversed(patterns))
    for start in range(0, len(reversed_patterns), width):
        block = reversed_patterns[start:start + width]
        if not remaining:
            break
        words = pack_block(inputs, block)
        detections = fsim.run_block(words, remaining)
        per_bit: Dict[int, List[Fault]] = {}
        for fault, word in detections.items():
            bit = 0
            while word:
                if word & 1:
                    per_bit.setdefault(bit, []).append(fault)
                word >>= 1
                bit += 1
        for bit, pattern in enumerate(block):
            new = [
                f for f in per_bit.get(bit, ()) if f in remaining
            ]
            if new:
                keep.append(pattern)
                remaining.difference_update(new)
    keep.reverse()
    return keep


def reference_transpose(inputs: List[str], words: Dict[str, int],
                        count: int) -> List[int]:
    """Transpose per-net block words into all ``count`` patterns."""
    patterns = [0] * count
    for j, net in enumerate(inputs):
        word = words[net]
        if not word:
            continue
        for i in range(count):
            if (word >> i) & 1:
                patterns[i] |= 1 << j
    return patterns


@pytest.fixture()
def two_and_gates(lib):
    """Two independent AND2 gates -> two outputs.

    Pattern (a=1,b=1,c=1,d=1) covers the hard sa0 faults of both gates
    at once; single-sided patterns cover only one — the minimal setting
    where reverse-order compaction provably helps.
    """
    c = Circuit("t")
    for name in ("a", "b", "cc", "d"):
        c.add_input(name)
    c.add_net("x")
    c.add_net("y")
    c.add_instance("g1", lib["AND2_X1"], {"A": "a", "B": "b", "Z": "x"})
    c.add_instance("g2", lib["AND2_X1"], {"A": "cc", "B": "d", "Z": "y"})
    c.add_output("px", "x")
    c.add_output("py", "y")
    return c


def _pattern(view, assignment):
    idx = {n: j for j, n in enumerate(view.input_nets)}
    p = 0
    for net, value in assignment.items():
        if value:
            p |= 1 << idx[net]
    return p


def test_reverse_order_keeps_late_dense_patterns(two_and_gates):
    c = two_and_gates
    view = extract_comb_view(c, "test")
    fsim = FaultSimulator(BitSimulator(view))
    targets = [Fault("x", None, 0), Fault("y", None, 0)]

    only_x = _pattern(view, {"a": 1, "b": 1})
    only_y = _pattern(view, {"cc": 1, "d": 1})
    both = _pattern(view, {"a": 1, "b": 1, "cc": 1, "d": 1})

    kept = reverse_order_compaction(fsim, [only_x, only_y, both], targets)
    assert kept == [both]

    # Without a dominating pattern, both survive.
    kept2 = reverse_order_compaction(fsim, [only_x, only_y], targets)
    assert sorted(kept2) == sorted([only_x, only_y])


def test_compaction_never_loses_coverage(two_and_gates):
    c = two_and_gates
    view = extract_comb_view(c, "test")
    fsim = FaultSimulator(BitSimulator(view))
    flist = build_fault_list(c, view)
    targets = [f for f in flist.targets() if fsim.in_view(f)]

    import random
    rng = random.Random(0)
    patterns = [rng.getrandbits(len(view.input_nets)) for _ in range(40)]

    def detected_by(pattern_set):
        remaining = set(targets)
        for start in range(0, len(pattern_set), 64):
            block = pattern_set[start:start + 64]
            words = pack_block(view.input_nets, block)
            remaining -= set(fsim.run_block(words, remaining))
        return set(targets) - remaining

    before = detected_by(patterns)
    kept = reverse_order_compaction(fsim, patterns, sorted(before, key=str))
    after = detected_by(kept)
    assert before == after
    assert len(kept) <= len(patterns)


def test_pack_block_limits(two_and_gates):
    view = extract_comb_view(two_and_gates, "test")
    words = pack_block(view.input_nets, [])
    assert all(w == 0 for w in words.values())


def test_padding_bits_credit_nothing(two_and_gates):
    """A one-pattern block: its 63 padding bits replay the all-zero
    pattern, which drives x low and so detects x stuck-at-1; only the
    real pattern (x high) may be credited, and it detects nothing."""
    view = extract_comb_view(two_and_gates, "test")
    fsim = FaultSimulator(BitSimulator(view))
    both = _pattern(view, {"a": 1, "b": 1, "cc": 1, "d": 1})
    target = [Fault("x", None, 1)]
    words = pack_block(view.input_nets, [both])
    assert fsim.run_block(words, target)[target[0]] == fsim.sim.mask - 1

    assert reference_compaction(fsim, [both], target) == []
    assert reverse_order_compaction(fsim, [both], target) == []
    # One more pattern that does detect it: the oldest block is short.
    zero = _pattern(view, {})
    patterns = [zero] + [both] * 64
    assert reverse_order_compaction(fsim, patterns, target) \
        == reference_compaction(fsim, patterns, target) == [zero]


def test_compaction_of_atpg_output_equals_reference(monkeypatch, lib):
    """Replay a real random-phase ATPG run's pre-compaction patterns
    (a count that is not a multiple of 64) through both crediting
    loops."""
    calls = []

    def spy(fsim, patterns, targets):
        kept = reverse_order_compaction(fsim, patterns, targets)
        calls.append((fsim, list(patterns), list(targets), kept))
        return kept

    monkeypatch.setattr(engine, "reverse_order_compaction", spy)
    circuit = s38417_like(scale=0.02)
    insert_scan(circuit, lib, max_chain_length=50)
    run_atpg(circuit, config=AtpgConfig(random_blocks=24,
                                        max_deterministic=0))
    (fsim, patterns, targets, kept), = calls
    assert len(patterns) > fsim.sim.width
    assert len(patterns) % fsim.sim.width
    assert kept == reference_compaction(fsim, patterns, targets)
    assert len(kept) < len(patterns)


@pytest.mark.parametrize("seed", range(4))
def test_kept_bit_transpose_equals_full_transpose(seed):
    rng = random.Random(seed)
    inputs = [f"n{j}" for j in range(rng.randint(1, 90))]
    words = {net: rng.getrandbits(64) for net in inputs}
    words[inputs[0]] = 0  # an all-zero word
    full = reference_transpose(inputs, words, 64)
    for bits in (0, 1, 1 << 63, (1 << 64) - 1, rng.getrandbits(64)):
        assert unpack_block(inputs, words, bits) \
            == [full[b] for b in range(64) if bits >> b & 1]
    assert unpack_block(inputs, pack_block(inputs, full), (1 << 64) - 1) \
        == full

