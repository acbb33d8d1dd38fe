"""Algorithm SKEC — exact smallest keywords enclosing circle (paper §4.2).

By Corollary 1, SKECq is determined by two or three objects of O' on its
boundary.  For each pole ``o`` (Algorithm 1), Procedure findOSKEC
enumerates candidate circles through ``o`` and one or two further objects,
keeps the smallest one enclosing a group that covers the query, and the
best circle over all poles is SKECq.  The enclosed group answers the mCK
query with ratio 2/√3 (Theorem 5).

Worst-case O(|O'| n^3); the paper's and our experiments both show it is
practical only for small m (Figure 9).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..exceptions import GeometryError
from ..geometry.circle import Circle, circle_from_three, circle_from_two
from .common import QUALITY_APPROX, QUALITY_EXACT, Deadline
from .gkg import gkg
from .query import QueryContext
from .result import Group

__all__ = ["skec", "find_oskec"]


def skec(ctx: QueryContext, deadline: Optional[Deadline] = None) -> Group:
    """Run SKEC: exact SKECq, 2/√3-approximate mCK answer."""
    deadline = deadline or Deadline.unlimited("SKEC")
    with deadline.span(
        "skec.plan",
        m=ctx.m,
        poles=len(ctx.relevant_ids),
    ):
        pass

    with deadline.span("gkg.run"):
        greedy = gkg(ctx, deadline)
    current = _mcc_of_rows(ctx, _rows_of(ctx, greedy))

    single = _single_object_answer(ctx)
    if single is not None:
        return single

    # Ascending coverage radius: promising poles first (see SKECa).
    import numpy as np

    pole_order = np.argsort(ctx.cover_radii, kind="stable")
    for pole in (int(p) for p in pole_order):
        deadline.check()
        deadline.count("poles_scanned")
        with deadline.span("skec.pole", pole=pole):
            current = find_oskec(ctx, pole, current, deadline)

    rows = _enclosed_rows(ctx, current)
    group = Group.from_rows(ctx, rows, algorithm="SKEC", enclosing_circle=current)
    # SKECq is exact, so the enclosed group meets the Theorem-5 2/√3 bound.
    deadline.note_bound(QUALITY_APPROX, group.diameter)
    deadline.offer(ctx, rows, group.diameter)
    group.quality = QUALITY_APPROX
    return group


def find_oskec(
    ctx: QueryContext,
    pole_row: int,
    current: Circle,
    deadline: Optional[Deadline] = None,
) -> Circle:
    """Procedure findOSKEC: improve ``current`` with circles through the pole.

    Enumerates the two-object circles (pole + oj as a diameter) and
    three-object circumcircles (pole + oj + om), processing second objects
    in ascending distance from the pole so the search can stop as soon as
    distances exceed the current best diameter.
    """
    deadline = deadline or Deadline.unlimited("SKEC")
    px, py = ctx.location_of_row(pole_row)
    pole = (px, py)

    if ctx.hopeless(current.diameter, pole_row):
        # The whole search space around this pole cannot cover the query.
        return current
    # Each pole is probed once at the current best diameter; a bounded
    # cache (bit-identical prefix of the full sort) skips the full
    # O(n log n) per-pole build.
    cache = ctx.pole_cache_bounded(pole_row, current.diameter)
    k = cache.prefix_length(current.diameter)
    if k == 0 or cache.prefix_union[k] != ctx.full_mask:
        return current

    # Candidates sorted by distance to the pole, excluding the pole itself.
    coords = ctx.coords
    olist: List[Tuple[float, int]] = [
        (float(cache.dists[i]), int(cache.rows[i]))
        for i in range(k)
        if int(cache.rows[i]) != pole_row
    ]

    for j, (dist_j, oj) in enumerate(olist):
        deadline.check()
        if dist_j > current.diameter:
            break
        oj_pt = (coords[oj, 0], coords[oj, 1])

        # Two-object case: segment pole-oj is the circle diameter.
        deadline.count("candidate_circles")
        candidate = circle_from_two(pole, oj_pt)
        current = _try_candidate(ctx, candidate, current, deadline)

        # Three-object case: om strictly closer to the pole than oj.
        for dist_m, om in olist[:j]:
            if dist_m >= dist_j:
                break
            om_pt = (coords[om, 0], coords[om, 1])
            if math.hypot(om_pt[0] - oj_pt[0], om_pt[1] - oj_pt[1]) >= current.diameter:
                continue
            try:
                candidate = circle_from_three(pole, oj_pt, om_pt)
            except GeometryError:
                continue
            deadline.count("candidate_circles")
            current = _try_candidate(ctx, candidate, current, deadline)
    return current


def _try_candidate(
    ctx: QueryContext,
    candidate: Circle,
    current: Circle,
    deadline: Optional[Deadline] = None,
) -> Circle:
    """Adopt ``candidate`` when it is smaller and encloses a covering group."""
    if candidate.diameter >= current.diameter:
        return current
    rows = ctx.rows_within(candidate.cx, candidate.cy, candidate.r)
    if len(rows) and ctx.covers(rows):
        if deadline is not None:
            # Feasible enclosed group, diameter ≤ the candidate circle's.
            deadline.offer(ctx, [int(r) for r in rows], candidate.diameter)
        return candidate
    return current


def _single_object_answer(ctx: QueryContext) -> Optional[Group]:
    """An object covering all query keywords alone is an optimal answer."""
    full = ctx.full_mask
    for row, mask in enumerate(ctx.masks):
        if mask == full:
            x, y = ctx.location_of_row(row)
            group = Group.from_rows(
                ctx,
                [row],
                algorithm="SKEC",
                enclosing_circle=Circle(x, y, 0.0),
            )
            group.quality = QUALITY_EXACT
            return group
    return None


def _rows_of(ctx: QueryContext, group: Group) -> List[int]:
    return [ctx.row_of(oid) for oid in group.object_ids]


def _mcc_of_rows(ctx: QueryContext, rows) -> Circle:
    from ..geometry.mcc import minimum_covering_circle

    return minimum_covering_circle(ctx.coords[r] for r in rows)


def _enclosed_rows(ctx: QueryContext, circle: Circle) -> List[int]:
    rows = ctx.rows_within(circle.cx, circle.cy, circle.r)
    return [int(r) for r in rows]
