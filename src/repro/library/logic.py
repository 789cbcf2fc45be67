"""Logic-function trees for library cells.

Every combinational cell carries a :class:`LogicExpr` per output pin.
The same tree drives every evaluator of a cell:

* :meth:`LogicExpr.eval2` — bit-parallel two-valued evaluation on
  integer words, one bit per pattern: Python ``int`` words in the logic
  and fault simulators, numpy ``uint64`` arrays in
  :func:`exhaustive_truth_table`.
* :meth:`LogicExpr.eval_prob` — signal-probability propagation under the
  COP independence assumption (testability analysis).
* Three-valued (0/1/X) evaluation for PODEM lives in
  :mod:`repro.atpg.threeval`, which compiles the tree per node
  (:func:`~repro.atpg.threeval.compile_pair`) and keeps the interpretive
  reference :func:`~repro.atpg.threeval.eval3_encoded`.

Keeping one canonical function tree guarantees the simulator, the ATPG
engine and the testability measures never disagree about a cell.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

Word = np.ndarray  # or a Python int: one bit per pattern


def _full(template: Word, value: int) -> Word:
    """All-zeros / all-ones word shaped like ``template``."""
    fill = np.uint64(0xFFFFFFFFFFFFFFFF) if value else np.uint64(0)
    return np.full_like(template, fill)


class LogicExpr:
    """Base class of logic-function tree nodes."""

    def eval2(self, env: Dict[str, Word]) -> Word:
        """Two-valued bit-parallel evaluation; ``env`` maps pin -> word."""
        raise NotImplementedError

    def eval_prob(self, env: Dict[str, float]) -> float:
        """P(output = 1) assuming independent inputs (COP model)."""
        raise NotImplementedError

    def support(self) -> List[str]:
        """Input pin names referenced by the expression, in order."""
        seen: List[str] = []
        self._collect_support(seen)
        return seen

    def _collect_support(self, acc: List[str]) -> None:
        raise NotImplementedError


class Var(LogicExpr):
    """A reference to an input pin."""

    def __init__(self, pin: str):
        self.pin = pin

    def eval2(self, env: Dict[str, Word]) -> Word:
        return env[self.pin]

    def eval_prob(self, env: Dict[str, float]) -> float:
        return env[self.pin]

    def _collect_support(self, acc: List[str]) -> None:
        if self.pin not in acc:
            acc.append(self.pin)

    def __repr__(self) -> str:
        return self.pin


class Not(LogicExpr):
    """Logical inversion."""

    def __init__(self, arg: Union[LogicExpr, str]):
        self.arg = Var(arg) if isinstance(arg, str) else arg

    def eval2(self, env: Dict[str, Word]) -> Word:
        return ~self.arg.eval2(env)

    def eval_prob(self, env: Dict[str, float]) -> float:
        return 1.0 - self.arg.eval_prob(env)

    def _collect_support(self, acc: List[str]) -> None:
        self.arg._collect_support(acc)

    def __repr__(self) -> str:
        return f"!({self.arg!r})"


class _NaryExpr(LogicExpr):
    """Shared machinery for AND/OR over two or more operands."""

    def __init__(self, *args: Union[LogicExpr, str]):
        if len(args) < 2:
            raise ValueError("n-ary gate needs at least two operands")
        self.args = [Var(a) if isinstance(a, str) else a for a in args]

    def _collect_support(self, acc: List[str]) -> None:
        for arg in self.args:
            arg._collect_support(acc)


class And(_NaryExpr):
    """Logical AND of two or more operands."""

    def eval2(self, env: Dict[str, Word]) -> Word:
        out = self.args[0].eval2(env)
        for arg in self.args[1:]:
            out = out & arg.eval2(env)
        return out

    def eval_prob(self, env: Dict[str, float]) -> float:
        p = 1.0
        for arg in self.args:
            p *= arg.eval_prob(env)
        return p

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.args)) + ")"


class Or(_NaryExpr):
    """Logical OR of two or more operands."""

    def eval2(self, env: Dict[str, Word]) -> Word:
        out = self.args[0].eval2(env)
        for arg in self.args[1:]:
            out = out | arg.eval2(env)
        return out

    def eval_prob(self, env: Dict[str, float]) -> float:
        q = 1.0
        for arg in self.args:
            q *= 1.0 - arg.eval_prob(env)
        return 1.0 - q

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.args)) + ")"


class Xor(LogicExpr):
    """Two-input exclusive OR."""

    def __init__(self, a: Union[LogicExpr, str], b: Union[LogicExpr, str]):
        self.a = Var(a) if isinstance(a, str) else a
        self.b = Var(b) if isinstance(b, str) else b

    def eval2(self, env: Dict[str, Word]) -> Word:
        return self.a.eval2(env) ^ self.b.eval2(env)

    def eval_prob(self, env: Dict[str, float]) -> float:
        pa = self.a.eval_prob(env)
        pb = self.b.eval_prob(env)
        return pa * (1.0 - pb) + pb * (1.0 - pa)

    def _collect_support(self, acc: List[str]) -> None:
        self.a._collect_support(acc)
        self.b._collect_support(acc)

    def __repr__(self) -> str:
        return f"({self.a!r} ^ {self.b!r})"


class Mux(LogicExpr):
    """Two-way multiplexer: output = ``b`` when ``sel`` is 1, else ``a``."""

    def __init__(
        self,
        sel: Union[LogicExpr, str],
        a: Union[LogicExpr, str],
        b: Union[LogicExpr, str],
    ):
        self.sel = Var(sel) if isinstance(sel, str) else sel
        self.a = Var(a) if isinstance(a, str) else a
        self.b = Var(b) if isinstance(b, str) else b

    def eval2(self, env: Dict[str, Word]) -> Word:
        s = self.sel.eval2(env)
        return (self.a.eval2(env) & ~s) | (self.b.eval2(env) & s)

    def eval_prob(self, env: Dict[str, float]) -> float:
        ps = self.sel.eval_prob(env)
        return (1.0 - ps) * self.a.eval_prob(env) + ps * self.b.eval_prob(env)

    def _collect_support(self, acc: List[str]) -> None:
        self.sel._collect_support(acc)
        self.a._collect_support(acc)
        self.b._collect_support(acc)

    def __repr__(self) -> str:
        return f"mux({self.sel!r} ? {self.b!r} : {self.a!r})"


class Const(LogicExpr):
    """Constant 0 or 1 (tie cells)."""

    def __init__(self, value: int):
        if value not in (0, 1):
            raise ValueError("constant must be 0 or 1")
        self.value = value

    def eval2(self, env: Dict[str, Word]) -> Word:
        template = next(iter(env.values())) if env else np.zeros(1, np.uint64)
        return _full(template, self.value)

    def eval_prob(self, env: Dict[str, float]) -> float:
        return float(self.value)

    def _collect_support(self, acc: List[str]) -> None:
        pass

    def __repr__(self) -> str:
        return str(self.value)


def exhaustive_truth_table(expr: LogicExpr, pins: Sequence[str]) -> List[int]:
    """Exhaustive 2-valued truth table of ``expr`` over ``pins``.

    Returns a list of 0/1 output values indexed by the input minterm
    (pin 0 is the least-significant bit).  Used by tests and by SCOAP
    controllability computation for arbitrary cell functions.
    """
    n = len(pins)
    if n > 16:
        raise ValueError("truth table limited to 16 inputs")
    rows = 1 << n
    env = {}
    for bit, pin in enumerate(pins):
        bits = np.array(
            [(row >> bit) & 1 for row in range(rows)], dtype=np.uint64
        )
        env[pin] = bits  # one pattern per word LSB; mask below
    out = expr.eval2(env)
    return [int(v & np.uint64(1)) for v in out]
