"""Bit-parallel two-valued logic simulation of a combinational view.

The good machine is *compiled*: the whole levelised netlist is rendered
to one Python function evaluating every node with plain integer bitwise
operations, so a single call simulates ``width`` patterns through the
entire circuit.  Patterns are packed one-per-bit into Python integers,
which support arbitrary widths — 64 by default, matching classic PPSFP.

Per-node evaluators are also exposed, each reading the value list
directly; the fault simulator runs them in place on a copy of the good
values to sensitise paths and propagate stem flips.  Their source is
compiled once per cell function, not once per node: each node binds
its net indices and the width mask to that function's compiled factory.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Dict, List, Sequence

from repro.library.logic import And, Const, LogicExpr, Mux, Not, Or, Var, Xor
from repro.netlist.levelize import CombNode, CombView


def render_expr(expr: LogicExpr, pin_code: Dict[str, str],
                mask_name: str = "m") -> str:
    """Render an expression tree to Python bitwise source code.

    Args:
        expr: Expression to render.
        pin_code: Source snippet per input pin (e.g. ``{"A": "v[3]"}``).
        mask_name: Name of the width mask variable in scope; inversions
            are masked to keep values canonical non-negative integers.
    """
    if isinstance(expr, Var):
        return pin_code[expr.pin]
    if isinstance(expr, Const):
        return mask_name if expr.value else "0"
    if isinstance(expr, Not):
        return f"(~{render_expr(expr.arg, pin_code, mask_name)} & {mask_name})"
    if isinstance(expr, And):
        return "(" + " & ".join(
            render_expr(a, pin_code, mask_name) for a in expr.args
        ) + ")"
    if isinstance(expr, Or):
        return "(" + " | ".join(
            render_expr(a, pin_code, mask_name) for a in expr.args
        ) + ")"
    if isinstance(expr, Xor):
        a = render_expr(expr.a, pin_code, mask_name)
        b = render_expr(expr.b, pin_code, mask_name)
        return f"({a} ^ {b})"
    if isinstance(expr, Mux):
        s = render_expr(expr.sel, pin_code, mask_name)
        a = render_expr(expr.a, pin_code, mask_name)
        b = render_expr(expr.b, pin_code, mask_name)
        return f"(({a} & ~{s}) | ({b} & {s}))"
    raise TypeError(f"unsupported expression node {type(expr).__name__}")


@functools.lru_cache(maxsize=None)
def _evaluator_factory(template: str, arity: int
                       ) -> Callable[..., Callable[[List[int]], int]]:
    """Compile one cell function into a factory of node evaluators.

    Args:
        template: The function rendered by :func:`render_expr`, reading
            its pins as ``v[i0]``, ``v[i1]``, ... and its mask as ``m``.
        arity: Number of pin parameters ``i0`` .. ``i{arity-1}``.

    Returns:
        ``bind(m, i0, i1, ...) -> fn(v) -> word``.  The cache is keyed
        by the source text alone, so it holds one entry per distinct
        cell function however many views and libraries a process builds.
    """
    params = ", ".join(["m"] + [f"i{k}" for k in range(arity)])
    namespace: Dict[str, object] = {}
    exec(f"def _bind({params}):\n"  # noqa: S102 - trusted source
         f"    return lambda v: {template}\n", namespace)
    return namespace["_bind"]  # type: ignore[return-value]


class BitSimulator:
    """Compiled bit-parallel simulator for one combinational view.

    Args:
        view: The combinational view to simulate.
        width: Patterns per simulation call (bits per word).
    """

    def __init__(self, view: CombView, width: int = 64):
        self.view = view
        self.width = width
        self.mask = (1 << width) - 1

        # Net index space: inputs, constants, then node outputs.
        self.net_index: Dict[str, int] = {}
        for net in view.input_nets:
            self.net_index[net] = len(self.net_index)
        for net in view.constants:
            if net not in self.net_index:
                self.net_index[net] = len(self.net_index)
        for node in view.nodes:
            if node.out_net not in self.net_index:
                self.net_index[node.out_net] = len(self.net_index)

        self.n_nets = len(self.net_index)
        self._const_words = {
            self.net_index[net]: (self.mask if val else 0)
            for net, val in view.constants.items()
        }
        self._good_fn = self._compile_good()
        self.node_fns: List[Callable[[List[int]], int]] = [
            self._compile_node(node) for node in view.nodes
        ]

    # ------------------------------------------------------------------
    def _compile_good(self) -> Callable[[List[int]], None]:
        """Compile the whole view into one in-place evaluation function."""
        lines = ["def _sim(v, m):"]
        if not self.view.nodes:
            lines.append("    pass")
        for node in self.view.nodes:
            pin_code = {
                pin: f"v[{self.net_index[net]}]"
                for pin, net in node.pin_nets.items()
            }
            out = self.net_index[node.out_net]
            lines.append(
                f"    v[{out}] = {render_expr(node.expr, pin_code)}"
            )
        namespace: Dict[str, object] = {}
        exec("\n".join(lines), namespace)  # noqa: S102 - trusted source
        return namespace["_sim"]  # type: ignore[return-value]

    def _compile_node(self, node: CombNode) -> Callable[[List[int]], int]:
        """Bind one node's evaluator ``fn(v) -> word``.

        ``v`` is a value list indexed like :meth:`run`'s result; the
        word is the node's output, masked to the width.  The cell
        function's factory is compiled once (:func:`_evaluator_factory`)
        and bound here to this node's net indices.
        """
        nets = list(node.pin_nets.values())
        template = render_expr(node.expr, {
            pin: f"v[i{k}]" for k, pin in enumerate(node.pin_nets)
        })
        bind = _evaluator_factory(template, len(nets))
        return bind(self.mask, *(self.net_index[net] for net in nets))

    # ------------------------------------------------------------------
    def run(self, input_words: Dict[str, int]) -> List[int]:
        """Simulate one block of patterns.

        Args:
            input_words: Word per controllable input net; missing inputs
                default to 0.

        Returns:
            Word per net, indexed by :attr:`net_index`.
        """
        values = [0] * self.n_nets
        for idx, word in self._const_words.items():
            values[idx] = word
        for net, word in input_words.items():
            values[self.net_index[net]] = word & self.mask
        self._good_fn(values, self.mask)
        return values

    def random_block(self, rng: random.Random) -> Dict[str, int]:
        """Draw one block of uniform random patterns."""
        return {
            net: rng.getrandbits(self.width)
            for net in self.view.input_nets
        }

    def patterns_to_words(
        self, patterns: Sequence[Dict[str, int]],
        offset: int = 0,
    ) -> Dict[str, int]:
        """Pack per-pattern bit assignments into block words.

        Args:
            patterns: Up to ``width`` pattern dictionaries mapping input
                net to 0/1 (missing inputs are 0).
            offset: Bit position of the first pattern in the words.
        """
        if offset + len(patterns) > self.width:
            raise ValueError("too many patterns for one block")
        words: Dict[str, int] = {net: 0 for net in self.view.input_nets}
        for bit, pattern in enumerate(patterns):
            for net, value in pattern.items():
                if value:
                    words[net] |= 1 << (bit + offset)
        return words
