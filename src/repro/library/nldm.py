"""Non-linear delay model (NLDM) lookup tables.

Cell delay and output slew are functions of input slew and output load,
stored as 2-D tables exactly as in Liberty files.  Values inside the
table range are bilinearly interpolated; values outside are linearly
extrapolated from the nearest table edge — and flagged, because the
paper (Section 4.4) calls cells evaluated by extrapolation *slow nodes*
and warns their numbers are less accurate.

STA looks tables up once or twice per timing arc, so a table holds
plain Python floats and computes its intrinsic delay once, when built.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class LookupResult:
    """Result of one NLDM table lookup.

    Attributes:
        value: Interpolated (or extrapolated) table value, in ps.
        extrapolated: True when (slew, load) fell outside the table
            range, i.e. the evaluated cell is a *slow node*.
    """

    value: float
    extrapolated: bool


class NLDMTable:
    """A 2-D lookup table indexed by input slew (ps) and load (fF).

    The indices and values are held as tuples of Python floats: a
    lookup is a handful of scalar operations, which Python floats do
    faster than numpy scalars, with the same IEEE-754 results.

    Args:
        slews: Strictly increasing input-slew index, in ps, at least
            two points.
        loads: Strictly increasing output-load index, in fF, at least
            two points.
        values: Table values in ps, one row of ``len(loads)`` values
            per slew.

    Raises:
        ValueError: When an index is not a strictly increasing sequence
            of at least two numbers, or the values do not form a
            ``len(slews)`` x ``len(loads)`` grid.
    """

    def __init__(
        self,
        slews: Sequence[float],
        loads: Sequence[float],
        values: Sequence[Sequence[float]],
    ):
        self.slews = _index(slews)
        self.loads = _index(loads)
        try:
            self.values = tuple(tuple(float(v) for v in row)
                                for row in values)
        except TypeError:
            raise ValueError("table values must be a 2-D grid") from None
        if (len(self.values) != len(self.slews)
                or any(len(row) != len(self.loads) for row in self.values)):
            raise ValueError(
                f"values grid of row lengths "
                f"{[len(row) for row in self.values]} does not match "
                f"indices ({len(self.slews)}, {len(self.loads)})"
            )
        self._intrinsic_ps = self.lookup(0.0, 0.0).value

    @classmethod
    def linear(
        cls,
        intrinsic_ps: float,
        ps_per_ff: float,
        ps_per_ps_slew: float,
        slews: Sequence[float] = (5.0, 50.0, 250.0, 1100.0),
        loads: Sequence[float] = (1.0, 10.0, 40.0, 170.0),
    ) -> "NLDMTable":
        """Build a table from a first-order delay model.

        ``delay = intrinsic + ps_per_ff * load + ps_per_ps_slew * slew``
        sampled on the given index grid, with a mild quadratic bend on
        the largest loads so interpolation is exercised realistically.
        """
        s = np.asarray(slews, dtype=float)
        c = np.asarray(loads, dtype=float)
        grid = (
            intrinsic_ps
            + ps_per_ff * c[None, :]
            + ps_per_ps_slew * s[:, None]
            + 0.002 * ps_per_ff * c[None, :] ** 1.5
        )
        return cls(s.tolist(), c.tolist(), grid.tolist())

    @property
    def max_slew(self) -> float:
        """Largest input slew covered by the table, in ps."""
        return self.slews[-1]

    @property
    def max_load(self) -> float:
        """Largest output load covered by the table, in fF."""
        return self.loads[-1]

    def lookup(self, slew_ps: float, load_ff: float) -> LookupResult:
        """Interpolate the table at ``(slew_ps, load_ff)``.

        Bilinear interpolation inside the grid; linear extrapolation
        (slope of the outermost segment) outside, with the result
        flagged as extrapolated.
        """
        slews, loads = self.slews, self.loads
        extrapolated = (
            slew_ps < slews[0]
            or slew_ps > slews[-1]
            or load_ff < loads[0]
            or load_ff > loads[-1]
        )
        i, ws = self._bracket(slews, slew_ps)
        j, wl = self._bracket(loads, load_ff)
        lo, hi = self.values[i], self.values[i + 1]
        value = (
            lo[j] * (1 - ws) * (1 - wl)
            + hi[j] * ws * (1 - wl)
            + lo[j + 1] * (1 - ws) * wl
            + hi[j + 1] * ws * wl
        )
        return LookupResult(value=float(value), extrapolated=bool(extrapolated))

    @staticmethod
    def _bracket(index: Tuple[float, ...], x: float) -> Tuple[int, float]:
        """Segment number and fractional position of ``x`` in ``index``.

        The fraction is not clamped, which makes the bilinear formula
        extrapolate linearly outside the grid.
        """
        i = max(0, min(bisect_left(index, x) - 1, len(index) - 2))
        return i, (x - index[i]) / (index[i + 1] - index[i])

    def intrinsic_ps(self) -> float:
        """Delay at near-zero slew and no load (paper's T_intrinsic).

        The table extrapolated to ``slew = 0, load = 0``, matching the
        paper's definition of intrinsic delay ("input signal with
        near-zero slew ... without load on the cell output").  It is
        looked up once, when the table is built.
        """
        return self._intrinsic_ps


def _index(points: Sequence[float]) -> Tuple[float, ...]:
    """A validated table index as a tuple of Python floats."""
    try:
        index = tuple(float(p) for p in points)
    except TypeError:
        raise ValueError("table indices must be one-dimensional") from None
    if len(index) < 2:
        raise ValueError(
            f"a table index needs at least two points, got {len(index)}"
        )
    if any(b <= a for a, b in zip(index, index[1:])):
        raise ValueError("table indices must be strictly increasing")
    return index
