"""Tests for the logic-expression trees (eval2 / eval_prob), and for
the three-valued algebra PODEM runs on them (``threeval.eval3_encoded``,
the reference its compiled evaluators are checked against)."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.atpg.threeval import X, decode, encode, eval3_encoded
from repro.library.logic import (
    And,
    Const,
    Mux,
    Not,
    Or,
    Var,
    Xor,
    exhaustive_truth_table,
)

TWO_IN = ["A", "B"]
THREE_IN = ["S", "A", "B"]


def _eval2_bits(expr, pins, assignment):
    env = {p: assignment[p] for p in pins}
    return expr.eval2(env) & 1


def _eval3_known(expr, pins, assignment):
    return decode(eval3_encoded(
        expr, {p: encode(assignment[p]) for p in pins}))


CASES = [
    (Not("A"), ["A"]),
    (And("A", "B"), TWO_IN),
    (Or("A", "B"), TWO_IN),
    (Xor("A", "B"), TWO_IN),
    (Mux("S", Var("A"), Var("B")), THREE_IN),
    (Not(And("A", "B")), TWO_IN),
    (Not(Or(And("A", "B"), Var("C"))), ["A", "B", "C"]),
    (And("A", "B", "C", "D"), ["A", "B", "C", "D"]),
    (Or(Xor("A", "B"), Not("C")), ["A", "B", "C"]),
]


@pytest.mark.parametrize("expr,pins", CASES)
def test_eval3_matches_eval2_on_known_inputs(expr, pins):
    for bits in itertools.product((0, 1), repeat=len(pins)):
        assignment = dict(zip(pins, bits))
        v2 = _eval2_bits(expr, pins, assignment)
        v3 = _eval3_known(expr, pins, assignment)
        assert v3 == v2, f"{expr!r} at {assignment}"


@pytest.mark.parametrize("expr,pins", CASES)
def test_eval3_x_never_contradicts_completions(expr, pins):
    """A known eval3_encoded output must hold under every completion
    of the Xs."""
    for known_mask in range(1 << len(pins)):
        env3 = {}
        known_pins = []
        for i, p in enumerate(pins):
            if (known_mask >> i) & 1:
                known_pins.append(p)
            else:
                env3[p] = X
        for bits in itertools.product((0, 1), repeat=len(known_pins)):
            for p, b in zip(known_pins, bits):
                env3[p] = encode(b)
            claimed = decode(eval3_encoded(expr, env3))
            if claimed is None:
                continue  # X output: nothing to check
            unknown = [p for p in pins if p not in known_pins]
            for completion in itertools.product((0, 1), repeat=len(unknown)):
                full = dict(zip(known_pins, bits))
                full.update(dict(zip(unknown, completion)))
                assert _eval2_bits(expr, pins, full) == claimed


@pytest.mark.parametrize("expr,pins", CASES)
def test_eval_prob_matches_enumeration(expr, pins):
    """Independent-input probability equals exhaustive enumeration."""
    table = exhaustive_truth_table(expr, pins)
    exact = sum(table) / len(table)
    est = expr.eval_prob({p: 0.5 for p in pins})
    assert est == pytest.approx(exact, abs=1e-12)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_bit_parallel_and_matches_scalar(a, b):
    expr = Not(And("A", "B"))
    word = expr.eval2({"A": a, "B": b})
    mask = (1 << 64) - 1
    assert word & mask == (~(a & b)) & mask


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_eval_prob_stays_in_unit_interval(pa, pb, ps):
    expr = Mux("S", Xor("A", "B"), Not(And("A", "B")))
    p = expr.eval_prob({"A": pa, "B": pb, "S": ps})
    assert -1e-9 <= p <= 1.0 + 1e-9


def test_const_nodes():
    one = Const(1)
    zero = Const(0)
    assert one.eval_prob({}) == 1.0
    assert zero.eval_prob({}) == 0.0
    with pytest.raises(ValueError):
        Const(2)


def test_support_order_and_uniqueness():
    expr = Or(And("A", "B"), Xor("A", "C"))
    assert expr.support() == ["A", "B", "C"]


def test_nary_gate_requires_two_operands():
    with pytest.raises(ValueError):
        And("A")


def test_truth_table_rejects_wide_functions():
    pins = [f"p{i}" for i in range(17)]
    with pytest.raises(ValueError):
        exhaustive_truth_table(And(*pins), pins)
