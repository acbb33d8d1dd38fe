"""Minimum covering circle (smallest enclosing circle).

The paper's Definition 4 and Theorems 3–4 rest on the classic minimum
covering circle problem (Elzinga & Hearn 1972; Megiddo 1982).  We implement
Welzl's move-to-front algorithm, which runs in expected linear time, plus a
quadratic reference implementation used by the tests to cross-check it.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from ..exceptions import GeometryError
from .circle import EPS, Circle, circle_from_three, circle_from_two
from .point import dist

__all__ = ["minimum_covering_circle", "minimum_covering_circle_naive"]

#: Seed of the per-call shuffle.  Welzl's algorithm needs a random
#: permutation for its expected-linear bound; seeding a fresh generator on
#: every call makes the circle a pure function of the input points, so
#: concurrent callers (query threads, shard fan-out, the cache's writer
#: thread) cannot perturb one another's shuffle sequence.
_SHUFFLE_SEED = 0x5EED


def minimum_covering_circle(points: Iterable[Sequence[float]]) -> Circle:
    """Smallest circle enclosing ``points`` (Welzl's algorithm, iterative MTF).

    Returns a zero-radius circle for a single point.  Raises ``ValueError``
    on empty input.
    """
    pts = [(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("minimum covering circle of an empty point set")
    # Deduplicate: repeated points are common in geo data (same POI coords)
    # and inflate the recursion for no benefit.
    pts = list(dict.fromkeys(pts))
    if len(pts) == 1:
        return Circle(pts[0][0], pts[0][1], 0.0)
    random.Random(_SHUFFLE_SEED).shuffle(pts)

    circle: Optional[Circle] = None
    for i, p in enumerate(pts):
        if circle is not None and circle.contains(p):
            continue
        circle = _mcc_with_one_boundary(pts[: i + 1], p)
    assert circle is not None
    return circle


def _mcc_with_one_boundary(pts: Sequence[tuple], p: tuple) -> Circle:
    """Smallest circle over ``pts`` with ``p`` known to be on the boundary."""
    circle = Circle(p[0], p[1], 0.0)
    for i, q in enumerate(pts):
        if circle.contains(q):
            continue
        if circle.r == 0.0:
            circle = circle_from_two(p, q)
        else:
            circle = _mcc_with_two_boundary(pts[: i + 1], p, q)
    return circle


def _mcc_with_two_boundary(pts: Sequence[tuple], p: tuple, q: tuple) -> Circle:
    """Smallest circle over ``pts`` with ``p`` and ``q`` on the boundary."""
    circ = circle_from_two(p, q)
    left: Optional[Circle] = None
    right: Optional[Circle] = None

    px, py = p
    qx, qy = q
    for r_pt in pts:
        if circ.contains(r_pt):
            continue
        cross = (qx - px) * (r_pt[1] - py) - (qy - py) * (r_pt[0] - px)
        try:
            c = circle_from_three(p, q, r_pt)
        except GeometryError:
            continue
        if cross > 0.0:
            if left is None or _center_side(p, q, c) > _center_side(p, q, left):
                left = c
        elif cross < 0.0:
            if right is None or _center_side(p, q, c) < _center_side(p, q, right):
                right = c

    if left is None and right is None:
        return circ
    if left is None:
        assert right is not None
        return right
    if right is None:
        return left
    return left if left.r <= right.r else right


def _center_side(p: tuple, q: tuple, c: Circle) -> float:
    """Signed side of circle centre ``c`` relative to directed line ``pq``."""
    return (q[0] - p[0]) * (c.cy - p[1]) - (q[1] - p[1]) * (c.cx - p[0])


def minimum_covering_circle_naive(points: Iterable[Sequence[float]]) -> Circle:
    """O(n^4) reference: try all 2- and 3-point circles, keep the smallest
    that encloses everything.  Only used for cross-checking in tests."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("minimum covering circle of an empty point set")
    pts = list(dict.fromkeys(pts))
    if len(pts) == 1:
        return Circle(pts[0][0], pts[0][1], 0.0)

    best: Optional[Circle] = None
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            candidate = circle_from_two(pts[i], pts[j])
            best = _keep_if_enclosing(candidate, pts, best)
            for k in range(j + 1, n):
                try:
                    candidate = circle_from_three(pts[i], pts[j], pts[k])
                except GeometryError:
                    continue
                best = _keep_if_enclosing(candidate, pts, best)
    if best is None:  # all points identical after float coercion
        return Circle(pts[0][0], pts[0][1], 0.0)
    return best


def _keep_if_enclosing(
    candidate: Circle, pts: Sequence[tuple], best: Optional[Circle]
) -> Optional[Circle]:
    if best is not None and candidate.r >= best.r:
        return best
    # Slightly looser epsilon: the naive constructor compounds more float
    # error than Welzl's incremental one.
    if all(dist(candidate.center, p) <= candidate.r + 1e-7 for p in pts):
        return candidate
    return best
