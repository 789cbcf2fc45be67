"""Compiled three-valued (0/1/X) node evaluation.

PODEM spends nearly all of its time re-implying node values, so the
three-valued algebra is compiled per node into flat Python expressions
over an encoded value array instead of walking expression trees.

Encoding: ``X = 0``, ``ONE = 1``, ``ZERO = 2``.  With this encoding AND
and OR reduce to two bitwise operations::

    AND(x, y) = ((x & y) & 1) | ((x | y) & 2)
    OR(x, y)  = ((x | y) & 1) | ((x & y) & 2)

(one-bits AND together, zero-bits OR together, and vice versa), while
NOT, XOR and MUX use small lookup tables.

PODEM carries a good and a faulty machine.  Compiled evaluators run on
*pair codes*, which pack both codes into one value, the good machine
in bits 0-1 and the faulty machine in bits 2-3, so that one call
serves both: the AND/OR identities hold lane by lane with the masks
widened to ``0b0101`` and ``0b1010``, and the NOT/XOR/MUX tables are
lifted to radix 16.  A single machine is the pair ``pair(c, c)`` read
back with ``& 3``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.library.logic import And, Const, LogicExpr, Mux, Not, Or, Var, Xor

#: Encoded three-valued constants.
X, ONE, ZERO = 0, 1, 2

#: NOT lookup: X -> X, 1 -> 0, 0 -> 1.
NOT_TABLE = (X, ZERO, ONE)

#: XOR lookup indexed by ``a * 3 + b``.
XOR_TABLE = (
    X, X, X,        # a = X
    X, ZERO, ONE,   # a = 1
    X, ONE, ZERO,   # a = 0
)

#: MUX lookup indexed by ``s * 9 + a * 3 + b`` (s=1 selects b).
MUX_TABLE = tuple(
    (
        b if s == ONE
        else a if s == ZERO
        else (a if (a == b and a != X) else X)
    )
    for s in (X, ONE, ZERO)
    for a in (X, ONE, ZERO)
    for b in (X, ONE, ZERO)
)

#: Pair codes of a known 1 and a known 0 in both machines.
PAIR_ONE, PAIR_ZERO = ONE * 5, ZERO * 5


def pair(good: int, faulty: int) -> int:
    """The pair code of a good- and a faulty-machine code."""
    return good | faulty << 2


def _lift(fn: Callable[..., int], arity: int) -> tuple:
    """A three-valued table lifted to pair codes, indexed in radix 16."""
    table = []
    for index in range(16 ** arity):
        codes = [index >> 4 * k & 15 for k in reversed(range(arity))]
        good = [code & 3 for code in codes]
        faulty = [code >> 2 for code in codes]
        if 3 in good or 3 in faulty:
            table.append(X)  # not a pair code
        else:
            table.append(pair(fn(*good), fn(*faulty)))
    return tuple(table)


PAIR_NOT_TABLE = _lift(lambda a: NOT_TABLE[a], 1)
PAIR_XOR_TABLE = _lift(lambda a, b: XOR_TABLE[a * 3 + b], 2)
PAIR_MUX_TABLE = _lift(lambda s, a, b: MUX_TABLE[s * 9 + a * 3 + b], 3)


def encode(value: Optional[int]) -> int:
    """Encode a Python-level value (0/1/None) into the 3-valued code."""
    if value is None:
        return X
    return ONE if value else ZERO


def decode(code: int) -> Optional[int]:
    """Decode a 3-valued code into 0/1/None."""
    if code == X:
        return None
    return 1 if code == ONE else 0


def render3(expr: LogicExpr, pin_code: Dict[str, str]) -> str:
    """Render an expression into pair-code Python source.

    Args:
        expr: Expression tree.
        pin_code: Source snippet per pin producing a pair code.
            Table names ``_NT``/``_XT``/``_MT`` (the ``PAIR_*`` tables)
            must be in scope.
    """
    if isinstance(expr, Var):
        return pin_code[expr.pin]
    if isinstance(expr, Const):
        return str(PAIR_ONE if expr.value else PAIR_ZERO)
    if isinstance(expr, Not):
        return f"_NT[{render3(expr.arg, pin_code)}]"
    if isinstance(expr, (And, Or)):
        is_and = isinstance(expr, And)
        acc = render3(expr.args[0], pin_code)
        for arg in expr.args[1:]:
            nxt = render3(arg, pin_code)
            if is_and:
                acc = (f"((({acc})&({nxt})&{PAIR_ONE})"
                       f"|((({acc})|({nxt}))&{PAIR_ZERO}))")
            else:
                acc = (f"(((({acc})|({nxt}))&{PAIR_ONE})"
                       f"|((({acc})&({nxt}))&{PAIR_ZERO}))")
        return acc
    if isinstance(expr, Xor):
        a = render3(expr.a, pin_code)
        b = render3(expr.b, pin_code)
        return f"_XT[({a})*16+({b})]"
    if isinstance(expr, Mux):
        s = render3(expr.sel, pin_code)
        a = render3(expr.a, pin_code)
        b = render3(expr.b, pin_code)
        return f"_MT[({s})*256+({a})*16+({b})]"
    raise TypeError(f"unsupported expression node {type(expr).__name__}")


def compile_pair(expr: LogicExpr, pin_index: Dict[str, int],
                 stuck_pin: Optional[str] = None, stuck: int = X,
                 ) -> Callable[[Sequence[int]], int]:
    """Compile a node function into ``fn(pairs) -> pair code``.

    One call evaluates the good and the faulty machine.

    Args:
        expr: The node's logic function.
        pin_index: Net-array index per input pin.
        stuck_pin: A pin whose faulty-machine value is held at the
            code ``stuck`` (a stuck-at fault on that input pin); its
            good-machine value still comes from the array.

    The And/Or folding duplicates operand snippets, which is fine for
    the shallow trees of standard cells but would blow up on deep
    expressions — bind intermediate values first if that ever changes.
    """
    pin_code = {pin: f"v[{idx}]" for pin, idx in pin_index.items()}
    if stuck_pin is not None:
        pin_code[stuck_pin] = f"(v[{pin_index[stuck_pin]}]&3|{stuck << 2})"
    src = f"lambda v, _NT=_NT, _XT=_XT, _MT=_MT: {render3(expr, pin_code)}"
    return eval(  # noqa: S307 - source built from trusted trees
        src, {"_NT": PAIR_NOT_TABLE, "_XT": PAIR_XOR_TABLE,
              "_MT": PAIR_MUX_TABLE},
    )


def eval3_encoded(expr: LogicExpr, pin_values: Dict[str, int]) -> int:
    """Interpretively evaluate with encoded pin values (slow path)."""
    if isinstance(expr, Var):
        return pin_values[expr.pin]
    if isinstance(expr, Const):
        return ONE if expr.value else ZERO
    if isinstance(expr, Not):
        return NOT_TABLE[eval3_encoded(expr.arg, pin_values)]
    if isinstance(expr, And):
        acc = eval3_encoded(expr.args[0], pin_values)
        for arg in expr.args[1:]:
            nxt = eval3_encoded(arg, pin_values)
            acc = ((acc & nxt & 1) | ((acc | nxt) & 2))
        return acc
    if isinstance(expr, Or):
        acc = eval3_encoded(expr.args[0], pin_values)
        for arg in expr.args[1:]:
            nxt = eval3_encoded(arg, pin_values)
            acc = (((acc | nxt) & 1) | ((acc & nxt) & 2))
        return acc
    if isinstance(expr, Xor):
        a = eval3_encoded(expr.a, pin_values)
        b = eval3_encoded(expr.b, pin_values)
        return XOR_TABLE[a * 3 + b]
    if isinstance(expr, Mux):
        s = eval3_encoded(expr.sel, pin_values)
        a = eval3_encoded(expr.a, pin_values)
        b = eval3_encoded(expr.b, pin_values)
        return MUX_TABLE[s * 9 + a * 3 + b]
    raise TypeError(f"unsupported expression node {type(expr).__name__}")
