"""Tests for the compiled three-valued algebra."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.atpg.threeval import (
    MUX_TABLE,
    NOT_TABLE,
    ONE,
    X,
    XOR_TABLE,
    ZERO,
    compile_pair,
    decode,
    encode,
    eval3_encoded,
    pair,
)
from repro.library.logic import And, Mux, Not, Or, Var, Xor

VALUES = (X, ONE, ZERO)


def test_encode_decode_round_trip():
    assert decode(encode(None)) is None
    assert decode(encode(0)) == 0
    assert decode(encode(1)) == 1


def test_not_table():
    assert NOT_TABLE[X] == X
    assert NOT_TABLE[ONE] == ZERO
    assert NOT_TABLE[ZERO] == ONE


def test_and_or_bitwise_identities():
    """The bitwise AND/OR formulas match three-valued semantics."""
    def and3(a, b):
        return ((a & b & 1) | ((a | b) & 2))

    def or3(a, b):
        return (((a | b) & 1) | ((a & b) & 2))

    for a, b in itertools.product(VALUES, repeat=2):
        da, db = decode(a), decode(b)
        # Reference: None-propagating boolean logic.
        if da == 0 or db == 0:
            want_and = 0
        elif da is None or db is None:
            want_and = None
        else:
            want_and = 1
        if da == 1 or db == 1:
            want_or = 1
        elif da is None or db is None:
            want_or = None
        else:
            want_or = 0
        assert decode(and3(a, b)) == want_and, (da, db)
        assert decode(or3(a, b)) == want_or, (da, db)


def test_xor_and_mux_tables():
    for a, b in itertools.product(VALUES, repeat=2):
        da, db = decode(a), decode(b)
        want = None if (da is None or db is None) else da ^ db
        assert decode(XOR_TABLE[a * 3 + b]) == want
    for s, a, b in itertools.product(VALUES, repeat=3):
        ds, da, db = decode(s), decode(a), decode(b)
        if ds == 1:
            want = db
        elif ds == 0:
            want = da
        else:
            want = da if (da == db and da is not None) else None
        assert decode(MUX_TABLE[s * 9 + a * 3 + b]) == want


EXPRS = [
    (Not("A"), ["A"]),
    (And("A", "B", "C"), ["A", "B", "C"]),
    (Or(Xor("A", "B"), Not("C")), ["A", "B", "C"]),
    (Mux("S", Var("A"), Var("B")), ["S", "A", "B"]),
    (Not(Or(And("A", "B"), Var("C"))), ["A", "B", "C"]),
]


@pytest.mark.parametrize("expr,pins", EXPRS)
def test_compiled_matches_interpreted(expr, pins):
    """With both machines equal, a pair evaluation is the interpreted
    single-machine value in both lanes."""
    index = {p: i for i, p in enumerate(pins)}
    fn = compile_pair(expr, index)
    for combo in itertools.product(VALUES, repeat=len(pins)):
        via_fn = fn([pair(c, c) for c in combo])
        via_interp = eval3_encoded(expr, dict(zip(pins, combo)))
        assert via_fn == pair(via_interp, via_interp)


@pytest.mark.parametrize("expr,pins", EXPRS)
def test_pair_compiled_evaluates_both_machines(expr, pins):
    """One pair evaluation equals two single-machine evaluations, also
    with any one pin stuck in the faulty machine only."""
    index = {p: i for i, p in enumerate(pins)}
    stuck_cases = [(None, X)] + [(p, v) for p in pins for v in (ONE, ZERO)]
    for stuck_pin, stuck in stuck_cases:
        fn = compile_pair(expr, index, stuck_pin, stuck)
        for good in itertools.product(VALUES, repeat=len(pins)):
            for faulty in itertools.product(VALUES, repeat=len(pins)):
                forced = dict(zip(pins, faulty))
                if stuck_pin is not None:
                    forced[stuck_pin] = stuck
                want = pair(eval3_encoded(expr, dict(zip(pins, good))),
                            eval3_encoded(expr, forced))
                assert fn([pair(g, f) for g, f in zip(good, faulty)]) == want


@given(st.lists(st.sampled_from(VALUES), min_size=6, max_size=6))
def test_compiled_never_produces_invalid_codes(vals):
    expr = Or(And("A", "B"), Not("C"))
    fn = compile_pair(expr, {"A": 0, "B": 1, "C": 2})
    code = fn([pair(g, f) for g, f in zip(vals[:3], vals[3:])])
    assert code & 3 in VALUES and code >> 2 in VALUES
