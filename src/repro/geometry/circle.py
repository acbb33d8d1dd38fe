"""Circles and the classic two/three-point circumscribed-circle constructions.

Theorem 3 of the paper (Elzinga & Hearn) states that a minimum covering
circle is determined by at most three boundary points; Procedure findOSKEC
therefore enumerates circles through two and three objects.  This module
provides those constructions along with containment predicates that use a
small epsilon slack so that boundary points count as enclosed (closed-disc
semantics, which the proofs assume).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import GeometryError
from .point import Point, dist, dist_sq, midpoint

__all__ = ["Circle", "circle_from_two", "circle_from_three", "EPS"]

#: Absolute slack used in all containment / comparison predicates.  The
#: datasets live in UTM metres at city scale (~1e5), for which 1e-7 relative
#: corresponds to ~1e-2 m; we use an absolute epsilon well below any
#: inter-object distance that matters.
EPS = 1e-9


@dataclass(frozen=True, slots=True)
class Circle:
    """A circle given by centre and radius.

    The paper reasons in terms of circle *diameters* (``ø``); the
    :attr:`diameter` property mirrors that notation.
    """

    cx: float
    cy: float
    r: float

    @property
    def center(self) -> Point:
        return Point(self.cx, self.cy)

    @property
    def diameter(self) -> float:
        return 2.0 * self.r

    def contains(self, p: Sequence[float], eps: float = EPS) -> bool:
        """Closed-disc containment with ``eps`` slack on the radius."""
        return dist(self.center, p) <= self.r + eps

    def contains_many(self, coords: np.ndarray, eps: float = EPS) -> np.ndarray:
        """Vectorised closed-disc containment over an ``(n, 2)`` array."""
        dx = coords[:, 0] - self.cx
        dy = coords[:, 1] - self.cy
        limit = (self.r + eps) * (self.r + eps)
        return dx * dx + dy * dy <= limit

    def on_boundary(self, p: Sequence[float], eps: float = 1e-6) -> bool:
        """True when ``p`` lies on the circle boundary within ``eps``."""
        return abs(dist(self.center, p) - self.r) <= eps

    def scaled(self, factor: float) -> "Circle":
        """Concentric circle with the radius scaled by ``factor``."""
        return Circle(self.cx, self.cy, self.r * factor)


def circle_from_two(a: Sequence[float], b: Sequence[float]) -> Circle:
    """The circle having segment ``ab`` as a diameter (Theorem 3, 2-point case)."""
    m = midpoint(a, b)
    return Circle(m.x, m.y, dist(a, b) / 2.0)


def circle_from_three(
    a: Sequence[float], b: Sequence[float], c: Sequence[float]
) -> Circle:
    """Circumscribed circle of triangle ``abc``.

    Raises :class:`GeometryError` when the points are (numerically)
    collinear, in which case no finite circumcircle exists and callers fall
    back to the best two-point circle.
    """
    # Relative to ``a``: squared norms of absolute coordinates cancel
    # catastrophically when two of the points nearly coincide.
    ax, ay = a[0], a[1]
    bx, by = b[0] - ax, b[1] - ay
    cx, cy = c[0] - ax, c[1] - ay
    d = 2.0 * (bx * cy - by * cx)
    if abs(d) < 1e-12:
        raise GeometryError("collinear points have no circumcircle")
    b_sq = bx * bx + by * by
    c_sq = cx * cx + cy * cy
    ux = ax + (cy * b_sq - by * c_sq) / d
    uy = ay + (bx * c_sq - cx * b_sq) / d
    r = math.sqrt(dist_sq((ux, uy), a))
    return Circle(ux, uy, r)
