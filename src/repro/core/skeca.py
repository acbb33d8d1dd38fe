"""Algorithm SKECa — approximate SKECq by per-object binary search (§4.3).

Property 1 makes the predicate "does an o-across keywords enclosing circle
of diameter D exist?" monotone in D, so the smallest such diameter can be
binary-searched with Procedure circleScan as the oracle.  Procedure
findAppOSKEC runs that search around one pole; Algorithm SKECa runs it
around every relevant object, threading the best circle found so far as
the upper bound.

With the error tolerance α = ε·δ(G_gkg)/2 the returned group answers the
mCK query within 2/√3 + ε (Theorem 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geometry.circle import Circle
from ..geometry.mcc import minimum_covering_circle
from .circlescan import circle_scan
from .common import QUALITY_APPROX, QUALITY_EXACT, Deadline
from .gkg import gkg
from .query import QueryContext
from .result import Group

__all__ = ["skeca", "find_app_oskec", "DEFAULT_EPSILON"]

#: The paper's default after the Figure-7 tuning study.
DEFAULT_EPSILON = 0.01


@dataclass
class _FoundCircle:
    """A successful circleScan outcome around one pole."""

    pole_row: int
    diameter: float
    theta: float
    rows: List[int]

    def circle(self, ctx: QueryContext) -> Circle:
        px, py = ctx.location_of_row(self.pole_row)
        r = self.diameter / 2.0
        return Circle(px + r * math.cos(self.theta), py + r * math.sin(self.theta), r)


def skeca(
    ctx: QueryContext,
    epsilon: float = DEFAULT_EPSILON,
    deadline: Optional[Deadline] = None,
) -> Group:
    """Run SKECa; ratio 2/√3 + ε."""
    deadline = deadline or Deadline.unlimited("SKECa")
    with deadline.span(
        "skeca.plan",
        m=ctx.m,
        epsilon=epsilon,
        poles=len(ctx.relevant_ids),
    ):
        pass
    with deadline.span("gkg.run"):
        greedy = gkg(ctx, deadline)

    single = _single_object_answer(ctx, "SKECa")
    if single is not None:
        return single

    alpha = epsilon * greedy.diameter / 2.0
    search_lb = greedy.diameter / 2.0
    gkg_rows = [ctx.row_of(oid) for oid in greedy.object_ids]
    current_circle = minimum_covering_circle(ctx.coords[r] for r in gkg_rows)
    current_rows = gkg_rows
    current_ub = current_circle.diameter
    binary_steps = 0

    # Poles are visited in natural O' order, as in the paper's Algorithm 1:
    # SKECa's weakness — a loose upper bound when early poles yield large
    # circles — is part of what Figure 7 measures, so no reordering here.
    # Every pole's precheck reads the exact coverage radii, computed once.
    ctx.cover_radii  # noqa: B018
    for pole in range(len(ctx.relevant_ids)):
        deadline.check()
        with deadline.span("skeca.pole", pole=pole):
            found, steps = find_app_oskec(
                ctx, pole, search_lb, current_ub, alpha, deadline
            )
        binary_steps += steps
        if found is not None and found.diameter < current_ub:
            current_ub = found.diameter
            current_circle = found.circle(ctx)
            current_rows = found.rows

    group = Group.from_rows(
        ctx, current_rows, algorithm="SKECa", enclosing_circle=current_circle
    )
    group.stats["binary_steps"] = float(binary_steps)
    group.stats["alpha"] = alpha
    # The converged search certifies the Theorem-6 ratio for this group.
    deadline.note_bound(QUALITY_APPROX, group.diameter)
    deadline.offer(ctx, current_rows, group.diameter)
    group.quality = QUALITY_APPROX
    return group


def find_app_oskec(
    ctx: QueryContext,
    pole_row: int,
    search_lb: float,
    current_ub: float,
    alpha: float,
    deadline: Optional[Deadline] = None,
) -> Tuple[Optional[_FoundCircle], int]:
    """Procedure findAppOSKEC: binary search for SKECo around one pole.

    Returns ``(found, steps)``; ``found`` is ``None`` when no o-across
    circle beats the incoming upper bound (Property 1 line 3 of the
    procedure), otherwise the best circle located within tolerance α.
    """
    deadline = deadline or Deadline.unlimited("SKECa")
    deadline.count("circle_scans")
    with deadline.span("circlescan", pole=pole_row):
        hit = circle_scan(ctx, pole_row, current_ub)
    if hit is None:
        return None, 1

    rows, theta = hit
    best = _FoundCircle(pole_row, current_ub, theta, rows)
    # Enclosed group feasible with diameter ≤ the circle diameter: a valid
    # (conservatively bounded) anytime incumbent.
    deadline.offer(ctx, rows, current_ub)
    ub = current_ub
    lb = max(search_lb, 0.0)
    steps = 1
    while ub - lb > alpha:
        deadline.check()
        diam = (ub + lb) / 2.0
        steps += 1
        deadline.count("binary_steps")
        deadline.count("circle_scans")
        with deadline.span("skeca.binary_step", diameter=diam):
            with deadline.span("circlescan", pole=pole_row):
                hit = circle_scan(ctx, pole_row, diam)
        if hit is not None:
            ub = diam
            best = _FoundCircle(pole_row, diam, hit[1], hit[0])
            deadline.offer(ctx, hit[0], diam)
        else:
            lb = diam
    return best, steps


def _single_object_answer(ctx: QueryContext, algorithm: str) -> Optional[Group]:
    """The first O' row covering every query keyword alone, as a group."""
    full = ctx.full_mask
    if ctx.m <= 64:
        hits = np.flatnonzero(ctx.masks_np == np.uint64(full))
        if not hits.size:
            return None
        row = int(hits[0])
    else:
        row = next((r for r, mask in enumerate(ctx.masks) if mask == full), None)
        if row is None:
            return None
    x, y = ctx.location_of_row(row)
    group = Group.from_rows(
        ctx, [row], algorithm=algorithm, enclosing_circle=Circle(x, y, 0.0)
    )
    group.quality = QUALITY_EXACT
    return group
