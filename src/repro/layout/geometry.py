"""Basic planar geometry shared by the layout engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

Point = Tuple[float, float]


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle (um).

    Attributes:
        x0: Left edge.
        y0: Bottom edge.
        x1: Right edge.
        y1: Top edge.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        """Horizontal extent."""
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        """Vertical extent."""
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        """Area in um^2."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Centre point."""
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def contains(self, point: Point) -> bool:
        """True when ``point`` lies inside or on the boundary."""
        x, y = point
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


def manhattan(a: Point, b: Point) -> float:
    """Manhattan distance between two points."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def hpwl(points) -> float:
    """Half-perimeter wirelength of a point set (standard net estimate)."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if not xs:
        return 0.0
    return (max(xs) - min(xs)) + (max(ys) - min(ys))
