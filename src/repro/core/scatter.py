"""Scatter-gather mCK over spatially sharded data: one tiling, one merge.

A :class:`Tiling` assigns every point to one region, and each region's
shard returns a :class:`~repro.core.engine.ShardAnswer`: its own best
group and its relevant rows.  Only a group spanning two regions can beat
the best shard diameter ``d_ub``.  Every member of such a group lies
within ``d_ub`` of a member owned by another region, and so within
``d_ub`` of an inner region edge (the *boundary strip*,
:meth:`Tiling.strip`).  :func:`scatter_merge` solves those rows once with
the same algorithm, or every row when no shard is feasible, which keeps
EXACT exact and GKG and the SKEC family within their ratio bounds.  The
shard router and the distributed coordinator both answer this way.
"""

from __future__ import annotations

import math
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from ..exceptions import AlgorithmTimeout, InfeasibleQueryError
from .common import QUALITY_PARTIAL, QUALITY_RANK, Instrumentation, instrumentation_span
from .engine import ShardAnswer, run_query
from .objects import Dataset
from .query import MCKQuery, QueryRows, compile_query
from .result import Group

__all__ = ["Merged", "Region", "Tiling", "scatter_merge"]


class Region(NamedTuple):
    """Half-open rectangle ``[x1, x2) x [y1, y2)``; the extent's east and
    north edges belong to the regions ending there."""

    x1: float
    y1: float
    x2: float
    y2: float


class Tiling:
    """Disjoint regions, indexed by shard id, tiling ``[x1, x2] x [y1, y2]``."""

    def __init__(self, x1: float, y1: float, x2: float, y2: float, regions: List[Region]):
        self.x1, self.y1, self.x2, self.y2 = x1, y1, x2, y2
        self.regions = regions

    @classmethod
    def grid(cls, xs: Sequence[float], ys: Sequence[float], n: int) -> "Tiling":
        """The row-major ``floor(sqrt(n))``-square grid over the points."""
        x1, x2 = float(np.min(xs)), float(np.max(xs))
        y1, y2 = float(np.min(ys)), float(np.max(ys))
        x2, y2 = max(x2, x1 + 1e-9), max(y2, y1 + 1e-9)
        cells = max(1, math.isqrt(int(n)))
        xe = [x1 + i * ((x2 - x1) / cells) for i in range(cells)] + [x2]
        ye = [y1 + i * ((y2 - y1) / cells) for i in range(cells)] + [y2]
        regions = [
            Region(xe[cx], ye[cy], xe[cx + 1], ye[cy + 1])
            for cy in range(cells)
            for cx in range(cells)
        ]
        return cls(x1, y1, x2, y2, regions)

    def route(self, x: float, y: float) -> int:
        """The index of the region owning a point (clamped into the extent)."""
        return int(self.owners(np.array([[x, y]], dtype=np.float64))[0])

    def owners(self, coords: np.ndarray) -> np.ndarray:
        """The index of the region owning each row (clamped into the extent)."""
        x1, y1, x2, y2 = np.array(self.regions, dtype=np.float64).T
        x, y = self._clamp(coords)
        in_x = (x1 <= x) & ((x < x2) | (x == x2) & (x2 == self.x2))
        in_y = (y1 <= y) & ((y < y2) | (y == y2) & (y2 == self.y2))
        return np.argmax(in_x & in_y, axis=1)

    def strip(self, coords: np.ndarray, width: float) -> np.ndarray:
        """Which rows lie within ``width`` of the line of an inner side.

        An inner side is a region side off the extent.  A group narrower
        than ``width`` spanning two regions lies in the strip: each member
        is that close to one in another region, and the segment between
        their clamped points (clamping never lengthens it) leaves the
        member's region through an inner side.
        """
        reach = width * (1.0 + 1e-9) + 1e-12
        x, y = self._clamp(coords)
        # One read of the regions: a split swaps the whole list.
        sides = np.array(self.regions, dtype=np.float64)
        near = np.zeros(len(coords), dtype=bool)
        for column, edges, lo, hi in (
            (x, sides[:, [0, 2]], self.x1, self.x2),
            (y, sides[:, [1, 3]], self.y1, self.y2),
        ):
            lines = np.unique(edges[(lo < edges) & (edges < hi)])
            if len(lines):
                near |= np.abs(column - lines).min(axis=1) <= reach
        return near

    def _clamp(self, coords: np.ndarray):
        """Clamped ``(n, 1)`` x and y columns."""
        x = np.clip(coords[:, 0], self.x1, self.x2)[:, None]
        return x, np.clip(coords[:, 1], self.y1, self.y2)[:, None]


class Merged(NamedTuple):
    """The merged answer and what the strip cost."""

    group: Group
    #: Distinct rows in the boundary strip, solved or not.
    strip_objects: int
    strip_seconds: float
    #: A shard was left out or the strip solve ran out of time.
    partial: bool
    #: Trace of the ``scatter.strip`` span, when it recorded.
    trace_id: Optional[str]


def _merge_key(group: Group) -> Tuple[float, Tuple[int, ...]]:
    """Deterministic cross-shard total order: diameter, then oids."""
    return (group.diameter, tuple(sorted(group.object_ids)))


def scatter_merge(
    keywords: Sequence[str],
    algorithm: str,
    answers: Sequence[ShardAnswer],
    tiling: Tiling,
    epsilon: float,
    timeout: Optional[float],
    degrade_on_timeout: bool = False,
    instrumentation: Optional[Instrumentation] = None,
    left_out: int = 0,
) -> Merged:
    """Merge shard answers for canonical ``algorithm`` over ``tiling``.

    The strip is solved under ``timeout`` in one ``scatter.strip`` span,
    and skipped when its rows, or those of them near a row of another
    region, cannot cover the query.  The merged quality is the weakest of
    the answers and the strip, or ``partial`` when ``left_out`` shards did
    not answer or the strip solve timed out.  Raises
    :class:`~repro.exceptions.InfeasibleQueryError` when all rows together
    miss a keyword, and the strip's timeout when no shard is feasible.
    """
    query = MCKQuery(keywords)
    full = (1 << query.m) - 1
    groups = [a.group for a in answers if a.group is not None]
    best = min(groups, key=_merge_key, default=None)
    if best is not None and best.diameter == 0.0:
        rows = QueryRows.empty()  # nothing beats a group at one point
    else:
        shipped = zip(QueryRows.empty(), *(a.rows for a in answers))
        rows = QueryRows(*(np.concatenate(column) for column in shipped))
        if best is None:
            covered = _covered(rows.masks)
            missing = [t for i, t in enumerate(query.keywords) if not covered >> i & 1]
            if missing:
                raise InfeasibleQueryError(missing)
        else:
            near = tiling.strip(rows.coords, best.diameter)
            rows = QueryRows(*(column[near] for column in rows))
        # A row two shards return during a split cutover counts once.
        _, first = np.unique(rows.oids, return_index=True)
        rows = QueryRows(*(column[first] for column in rows))
    strip_objects = len(rows.oids)

    timed_out = False
    started = time.perf_counter()
    with instrumentation_span(
        instrumentation, "scatter.strip", algorithm=algorithm, objects=strip_objects
    ) as span:
        if best is not None and _covered(rows.masks) == full:
            near = _straddling(rows.coords, tiling.owners(rows.coords), best.diameter)
            rows = QueryRows(*(column[near] for column in rows))
        solvable = _covered(rows.masks) == full
        span.set_attribute("solved", solvable)
        if solvable:
            strip = _strip_dataset(query.keywords, rows)
            try:
                groups.append(run_query(
                    lambda kw: compile_query(strip, kw), query.keywords, algorithm,
                    epsilon, timeout, None, degrade_on_timeout, False, "strip",
                ))
            except AlgorithmTimeout:
                if best is None:
                    raise
                timed_out = True
    strip_seconds = time.perf_counter() - started

    best = min(groups, key=_merge_key)
    best.quality = min(groups, key=lambda g: QUALITY_RANK.get(g.quality or "", 0)).quality
    partial = timed_out or left_out > 0
    if partial:
        best.quality = QUALITY_PARTIAL
        best.stats["degraded"] = 1.0
    best.stats["strip_objects"] = float(strip_objects)
    return Merged(best, strip_objects, strip_seconds, partial, getattr(span, "trace_id", None))


def _straddling(coords: np.ndarray, owners: np.ndarray, width: float) -> np.ndarray:
    """Which rows have a row of another region within ``width``.

    Every member of a group narrower than ``width`` that spans two regions
    does; the relation is symmetric, so one pass keeps them all.
    """
    near = np.zeros(len(owners), dtype=bool)
    reach = width * (1.0 + 1e-9) + 1e-12
    for region in np.unique(owners):
        mine = owners == region
        if not mine.all():
            dist, _ = cKDTree(coords[~mine]).query(coords[mine], distance_upper_bound=reach)
            near[mine] = dist <= reach
    return near


def _covered(masks: np.ndarray) -> int:
    return int(np.bitwise_or.reduce(masks, initial=masks.dtype.type(0)))


def _strip_dataset(terms: Sequence[str], rows: QueryRows) -> Dataset:
    """A sealed store of the rows, each holding the query terms of its mask."""
    return Dataset.seal(
        (oid, x, y, [t for i, t in enumerate(terms) if mask >> i & 1])
        for oid, (x, y), mask in zip(*(column.tolist() for column in rows))
    )
