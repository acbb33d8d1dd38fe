"""Algorithm SKECa+ — global binary search for SKECq (paper §4.4, Alg. 2).

SKECa performs a full binary search around every pole; when early poles
yield large circles the upper bound stays loose for the rest.  SKECa+
instead binary-searches the diameter of SKECq itself: one probe diameter is
tried against *all* poles, stopping at the first pole where a circle is
found (the diameter is then an upper bound for SKECq) and recording, per
pole, the largest diameter known to fail (``maxInvalidRange``) so later
probes skip hopeless poles via Property 1.

The output circle and group are the same as SKECa's; EXACT additionally
consumes the ``max_invalid_range`` array for its Lemma-3 pruning, so the
full state is exposed through :func:`skeca_plus_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..geometry.circle import Circle
from ..geometry.mcc import minimum_covering_circle
from .circlescan import first_cover
from .common import QUALITY_APPROX, SQRT3_FACTOR, Deadline
from .gkg import gkg
from .query import QueryContext
from .result import Group
from .skeca import DEFAULT_EPSILON, _single_object_answer

__all__ = ["skeca_plus", "skeca_plus_state", "SkecaPlusState"]


@dataclass
class SkecaPlusState:
    """Full outcome of Algorithm 2, consumed by EXACT (Algorithm 3)."""

    group: Group
    gkg_group: Group
    alpha: float
    #: Per-O'-row largest diameter for which circleScan failed (0.0 when
    #: the pole was never probed unsuccessfully).
    max_invalid_range: List[float] = field(default_factory=list)
    binary_steps: int = 0
    scans: int = 0


def skeca_plus(
    ctx: QueryContext,
    epsilon: float = DEFAULT_EPSILON,
    deadline: Optional[Deadline] = None,
) -> Group:
    """Run SKECa+; ratio 2/√3 + ε."""
    return skeca_plus_state(ctx, epsilon, deadline).group


def skeca_plus_state(
    ctx: QueryContext,
    epsilon: float = DEFAULT_EPSILON,
    deadline: Optional[Deadline] = None,
) -> SkecaPlusState:
    """Run SKECa+ and return the group plus the internal pruning state."""
    deadline = deadline or Deadline.unlimited("SKECa+")
    with deadline.span(
        "skecaplus.plan",
        m=ctx.m,
        epsilon=epsilon,
        poles=len(ctx.relevant_ids),
    ):
        pass
    with deadline.span("gkg.run"):
        greedy = gkg(ctx, deadline)
    n_relevant = len(ctx.relevant_ids)

    single = _single_object_answer(ctx, "SKECa+")
    if single is not None:
        return SkecaPlusState(
            group=single,
            gkg_group=greedy,
            alpha=epsilon * greedy.diameter / 2.0,
            max_invalid_range=[0.0] * n_relevant,
        )

    alpha = epsilon * greedy.diameter / 2.0
    gkg_rows = [ctx.row_of(oid) for oid in greedy.object_ids]
    current_circle = minimum_covering_circle(ctx.coords[r] for r in gkg_rows)
    current_rows = gkg_rows

    search_ub = current_circle.diameter
    search_lb = greedy.diameter / 2.0
    max_invalid = np.zeros(n_relevant, dtype=np.float64)
    probe_bound = _bound_probes(ctx, search_ub)

    # Probe poles in ascending coverage-radius order: poles that can host a
    # small keywords enclosing circle come first, so successful probes break
    # early, and the searchsorted prefix skips every pole whose surrounding
    # objects cannot cover the query at the probe diameter at all.  No probe
    # here, nor EXACT's candidate diameter, exceeds the probe radius, so
    # radii past it are never read (+inf, sorted last).  The bound is this
    # search's own: a search sharing the context may tighten
    # ``ctx.probe_radius`` meanwhile.
    radii = ctx.cover_radii_within(probe_bound)
    pole_order = np.argsort(radii, kind="stable")
    sorted_radii = radii[pole_order]

    # Warm-up: fully binary-search the single most promising pole (smallest
    # coverage radius).  Its o-across SKEC is an upper bound on SKECq, so
    # the global search starts with a near-tight range and failing probes —
    # the expensive case, each sweeping every eligible pole — become rare.
    from .skeca import find_app_oskec

    steps = 0
    scans = 0
    last_success_pole = -1
    if len(pole_order) > 0:
        warm_pole = int(pole_order[0])
        with deadline.span("skecaplus.warmup", pole=warm_pole):
            warm, warm_steps = find_app_oskec(
                ctx, warm_pole, search_lb, search_ub, alpha, deadline
            )
        steps += warm_steps
        scans += warm_steps
        if warm is not None:
            # Any successful warm probe makes this pole the last-success
            # pole; previously a probe matching search_ub exactly was
            # discarded and the first binary step lost its fast path.
            last_success_pole = warm_pole
            if warm.diameter < search_ub:
                search_ub = warm.diameter
                current_rows = warm.rows
                current_circle = warm.circle(ctx)
    while search_ub - search_lb > alpha:
        deadline.check()
        _bound_probes(ctx, search_ub)
        diam = (search_ub + search_lb) / 2.0
        steps += 1
        deadline.count("binary_steps")
        found_result = False
        eligible = int(np.searchsorted(sorted_radii, diam * (1.0 + 1e-12), side="right"))
        with deadline.span(
            "skecaplus.binary_step", diameter=diam, eligible_poles=eligible
        ) as step_span:
            found, visited = _probe_step(
                ctx, pole_order[:eligible], last_success_pole, diam, max_invalid, deadline
            )
            scans += visited
            if found is not None:
                pole, (rows, theta) = found
                search_ub = diam
                current_rows = rows
                current_circle = _circle_at(ctx, pole, diam, theta)
                deadline.offer(ctx, rows, diam)
                found_result = True
                last_success_pole = pole
            step_span.set_attribute("found", found_result)
        if not found_result:
            search_lb = diam

    group = Group.from_rows(
        ctx, current_rows, algorithm="SKECa+", enclosing_circle=current_circle
    )
    group.stats["binary_steps"] = float(steps)
    group.stats["circle_scans"] = float(scans)
    group.stats["alpha"] = alpha
    # Converged: the Theorem-6 certificate holds for this group, and for
    # any smaller incumbent EXACT finds while refining it.
    deadline.note_bound(QUALITY_APPROX, group.diameter)
    deadline.offer(ctx, current_rows, group.diameter)
    group.quality = QUALITY_APPROX
    return SkecaPlusState(
        group=group,
        gkg_group=greedy,
        alpha=alpha,
        max_invalid_range=max_invalid.tolist(),
        binary_steps=steps,
        scans=scans,
    )


def _bound_probes(ctx: QueryContext, search_ub: float) -> float:
    """Build pole views no wider than the rest of the search can probe.

    No later probe exceeds ``search_ub``, nor does EXACT's candidate
    diameter (2/√3 of a group this search encloses), so a pole first
    probed now has its view built once at that width, whatever its later
    probes; the slack absorbs the MCC's rounding.  Returns that width.
    """
    width = SQRT3_FACTOR * search_ub * (1.0 + 1e-9)
    ctx.probe_radius = width
    return width


def _probe_step(ctx, poles, lead, diam, max_invalid, deadline):
    """Sweep one binary step's poles at ``diam``; the first with a cover wins.

    ``lead`` (the last-success pole, or -1) is swept alone first: it
    usually hosts the next success too (the probe shrank only a little),
    and then nothing else is swept.  The other eligible ``poles`` follow in
    batches.  A pole where a larger diameter already failed is skipped
    (Property 1 rules out every smaller one).  Only the poles the
    pole-by-pole loop would reach before its first hit are counted, or
    marked failed in ``max_invalid``.

    Returns ``(found, visited)``: ``found`` is ``(pole, (rows, theta))`` or
    None, ``visited`` the number of poles swept.
    """
    skipped = visited = 0
    found = None
    with deadline.span("circlescan", diameter=diam) as scan_span:
        if lead >= 0:
            if diam <= max_invalid[lead]:
                skipped = 1
            else:
                visited = 1
                hit = first_cover(ctx, (lead,), diam, deadline)[1]
                if hit is None:
                    max_invalid[lead] = diam
                else:
                    found = (lead, hit)
        if found is None and len(poles):
            rest = poles[poles != lead] if lead >= 0 else poles
            skip = diam <= max_invalid[rest]
            scan = rest[~skip]
            index, hit = first_cover(ctx, scan, diam, deadline) if len(scan) else (0, None)
            max_invalid[scan[:index]] = diam
            if hit is None:
                skipped += int(skip.sum())
                visited += index
            else:
                skipped += int(skip[: np.flatnonzero(~skip)[index]].sum())
                visited += index + 1
                found = (int(scan[index]), hit)
        scan_span.set_attribute("poles", visited)
    if skipped:
        deadline.count("property1_skips", skipped)
    if visited:
        deadline.count("circle_scans", visited)
    return found, visited


def _circle_at(ctx: QueryContext, pole_row: int, diameter: float, theta: float) -> Circle:
    px, py = ctx.location_of_row(pole_row)
    r = diameter / 2.0
    return Circle(px + r * math.cos(theta), py + r * math.sin(theta), r)
