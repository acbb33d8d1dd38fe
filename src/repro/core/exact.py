"""Algorithm EXACT — optimal mCK answers via bounded exhaustive search (§5).

Lemma 2 bounds the smallest circle enclosing the optimal group:
ø(MCC_Gopt) ≤ 2/√3 · ø(SKECq), and the SKECa+ result gives a certified
upper bound on ø(SKECq).  EXACT therefore:

1. runs SKECa+ (Algorithm 2) and sets
   ``diam = 2/√3 · ø(MCC_Gskeca)``;
2. skips poles whose ``maxInvalidRange`` already exceeds ``diam``
   (Lemma 3: they cannot lie on the boundary of MCC_Gopt);
3. around every surviving pole enumerates all candidate circles of
   diameter ``diam`` that pass through the pole and cover the query
   (Procedure circleScanSearch = the full rotation sweep), and
4. runs the branch-and-bound Procedure search() inside each candidate
   circle, with the paper's three pruning strategies.

The group with the smallest diameter over all searches is optimal.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.mcc import minimum_covering_circle
from .circlescan import sweep_batches
from .common import QUALITY_APPROX, QUALITY_EXACT, SQRT3_FACTOR, Deadline
from .query import QueryContext
from .result import Group
from .skeca import DEFAULT_EPSILON
from .skecaplus import SkecaPlusState, skeca_plus_state

__all__ = ["exact", "exact_from_state", "branch_and_bound_search"]


def exact(
    ctx: QueryContext,
    epsilon: float = DEFAULT_EPSILON,
    deadline: Optional[Deadline] = None,
) -> Group:
    """Run EXACT; returns the optimal group."""
    deadline = deadline or Deadline.unlimited("EXACT")
    with deadline.span(
        "exact.plan",
        m=ctx.m,
        epsilon=epsilon,
        poles=len(ctx.relevant_ids),
    ):
        pass
    with deadline.span("exact.skeca_plus_bound"):
        state = skeca_plus_state(ctx, epsilon, deadline)
    return exact_from_state(ctx, state, deadline)


def exact_from_state(
    ctx: QueryContext,
    state: SkecaPlusState,
    deadline: Optional[Deadline] = None,
) -> Group:
    """Run the exhaustive phase of EXACT given a completed SKECa+ state."""
    deadline = deadline or Deadline.unlimited("EXACT")
    skeca_group = state.group

    if len(skeca_group) == 1:
        # A single object covering all keywords is optimal (δ = 0).
        result = Group(
            object_ids=skeca_group.object_ids,
            diameter=0.0,
            algorithm="EXACT",
            enclosing_circle=skeca_group.enclosing_circle,
        )
        # Emit the search counters (as zeros) on this path too; the
        # experiment runner and bench aggregates read them from
        # every EXACT answer.
        result.stats["candidate_circles"] = 0.0
        result.stats["pruned_poles"] = 0.0
        result.quality = QUALITY_EXACT
        return result

    skeca_rows = [ctx.row_of(oid) for oid in skeca_group.object_ids]
    mcc = minimum_covering_circle(ctx.coords[r] for r in skeca_rows)
    diam = SQRT3_FACTOR * mcc.diameter

    # Seed the incumbent with the better of SKECa+ and GKG.
    best_rows = skeca_rows
    best_diameter = skeca_group.diameter
    if state.gkg_group.diameter < best_diameter:
        best_rows = [ctx.row_of(oid) for oid in state.gkg_group.object_ids]
        best_diameter = state.gkg_group.diameter
    # Anytime channel: the SKECa+ certificate covers the seed and every
    # smaller incumbent the branch-and-bound finds below it (a timeout
    # mid-enumeration then degrades to a 2/√3 + ε answer, not a failure).
    deadline.note_bound(QUALITY_APPROX, skeca_group.diameter)
    deadline.offer(ctx, best_rows, best_diameter)

    # Lemma 3: ø(SKECo) > 2/√3 · ø(MCC_Gskeca) means a pole cannot be on
    # the boundary of MCC_Gopt.  Together with the coverage-radius
    # precheck (which circleScan would apply pole by pole) it leaves the
    # poles that can actually host a candidate circle.
    max_inv = np.asarray(state.max_invalid_range, dtype=np.float64)
    lemma3 = max_inv >= diam
    pruned_poles = int(lemma3.sum())
    deadline.count("pruned_poles", pruned_poles)
    poles = np.flatnonzero(~(lemma3 | ctx.hopeless(diam)))
    searched = 0
    # Candidates of a batch of poles come from one segmented sweep; the
    # branch-and-bound then visits them pole by pole in the same order.
    for batch in sweep_batches(ctx, poles, diam):
        with deadline.span(
            "exact.candidate_enumeration", poles=len(batch.poles)
        ) as enum_span:
            per_pole = batch.candidates()
            enum_span.set_attribute("candidates", sum(map(len, per_pole)))
        for pole, candidates in zip(batch.poles, per_pole):
            deadline.check()
            for cand_rows in candidates:
                deadline.check()
                searched += 1
                deadline.count("candidate_circles")
                with deadline.span(
                    "exact.search", pole=pole, candidate_size=len(cand_rows)
                ):
                    best_rows, best_diameter = branch_and_bound_search(
                        ctx, pole, cand_rows, best_rows, best_diameter, deadline
                    )

    best_rows = _prune_redundant_rows(ctx, best_rows)
    group = Group.from_rows(ctx, best_rows, algorithm="EXACT")
    # Guard against float drift between the incremental diameter and the
    # recomputed one.
    group.diameter = min(group.diameter, best_diameter)
    group.stats["candidate_circles"] = float(searched)
    group.stats["pruned_poles"] = float(pruned_poles)
    group.quality = QUALITY_EXACT
    return group


def _prune_redundant_rows(ctx: QueryContext, rows: Sequence[int]) -> List[int]:
    """Drop members whose keywords the rest of the group already covers.

    The branch-and-bound incumbent is sometimes seeded by SKECa+'s enclosed
    set, which may carry redundant objects; an irredundant cover has at
    most one member per query keyword (≤ m members), and removing members
    never grows the diameter, so optimality is preserved.
    """
    kept = list(dict.fromkeys(int(r) for r in rows))
    full = ctx.full_mask
    # Try to drop later rows first so the pole-adjacent seed order survives.
    for row in sorted(kept, reverse=True):
        if len(kept) == 1:
            break
        union = 0
        for other in kept:
            if other != row:
                union |= ctx.masks[other]
        if union == full:
            kept.remove(row)
    return kept


def branch_and_bound_search(
    ctx: QueryContext,
    pole_row: int,
    candidate_rows: Sequence[int],
    best_rows: List[int],
    best_diameter: float,
    deadline: Optional[Deadline] = None,
) -> Tuple[List[int], float]:
    """Procedure search(): optimal group within one candidate circle.

    The pole is always part of the group (it lies on the boundary of the
    candidate circle, mirroring the object on the boundary of MCC_Gopt).
    Depth-first enumeration in increasing row order avoids duplicates
    (line 11 of the pseudocode); the three pruning strategies of §5.2 are
    applied at every expansion.
    """
    deadline = deadline or Deadline.unlimited("EXACT")
    rows = [r for r in candidate_rows if r != pole_row]
    if ctx.masks[pole_row] == ctx.full_mask:
        return [pole_row], 0.0
    if not rows:
        return best_rows, best_diameter

    # Local distance matrix over pole + candidates.
    local = [pole_row] + list(rows)
    pts = ctx.coords[np.asarray(local, dtype=np.intp)]
    delta = pts[:, None, :] - pts[None, :, :]
    dist = np.hypot(delta[:, :, 0], delta[:, :, 1])

    masks = [ctx.masks[r] for r in local]
    full = ctx.full_mask
    n = len(local)

    # Suffix union masks: what keywords the candidates from index i onward
    # can still contribute (Pruning Strategy 3 in O(1) per check).
    suffix_mask = [0] * (n + 1)
    for i in range(n - 1, 0, -1):
        suffix_mask[i] = suffix_mask[i + 1] | masks[i]

    best = {
        "rows": list(best_rows),
        "diameter": best_diameter,
        # Deepest recursion reached: how close the pruning strategies let
        # the enumeration get to a full m-way expansion.
        "max_depth": 0,
    }

    def recurse(selected: List[int], covered: int, diameter: float, start: int) -> None:
        deadline.check()
        if len(selected) > best["max_depth"]:
            best["max_depth"] = len(selected)
        if covered == full:
            if diameter < best["diameter"]:
                best["diameter"] = diameter
                best["rows"] = [local[i] for i in selected]
                deadline.offer(ctx, best["rows"], diameter)
            return
        # Pruning Strategy 3: remaining candidates cannot close the gap.
        if (covered | suffix_mask[start]) != full:
            return
        for idx in range(start, n):
            mask = masks[idx]
            # Pruning Strategy 2: must contribute a new keyword.
            if mask & ~covered == 0:
                continue
            # Pruning Strategy 1: diameter would already be too large.
            new_diameter = diameter
            too_far = False
            for s in selected:
                d = dist[s, idx]
                if d >= best["diameter"]:
                    too_far = True
                    break
                if d > new_diameter:
                    new_diameter = d
            if too_far:
                continue
            if (covered | mask | suffix_mask[idx + 1]) != full:
                # Even taking idx, the tail cannot cover the rest; since
                # suffix masks shrink with idx, later candidates fail too.
                break
            selected.append(idx)
            recurse(selected, covered | mask, new_diameter, idx + 1)
            selected.pop()

    recurse([0], masks[0], 0.0, 1)
    deadline.record_max("search_depth_max", best["max_depth"])
    return best["rows"], best["diameter"]
