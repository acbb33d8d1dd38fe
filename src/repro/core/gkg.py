"""Algorithm GKG — the Greedy Keyword Group 2-approximation (paper §3, Alg. 4).

For every object ``o`` containing the least frequent query keyword
``t_inf``, GKG assembles the feasible group ``G_o`` consisting of ``o``
plus, for each keyword ``t`` not yet covered, the object nearest to ``o``
containing ``t``.  The smallest-diameter ``G_o`` over all holders of
``t_inf`` is returned; Theorem 2 proves δ(G_gkg) ≤ 2 · δ(G_opt).

Two nearest-holder strategies are provided:

* ``"kdtree"`` (default) — per-keyword KD-trees, with all anchors batched
  into one vectorised query per keyword;
* ``"brtree"`` — best-first search on the virtual bR*-tree with bitmap
  pruning, the paper's original index primitive (§3 uses the same index
  for all methods; this path exercises it).

Both return groups satisfying the Theorem-2 bound; they may differ only in
tie-breaking among equidistant holders.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..exceptions import InfeasibleQueryError, QueryError
from .common import QUALITY_EXACT, QUALITY_GREEDY, QUALITY_PARTIAL, Deadline
from .query import QueryContext
from .result import Group

__all__ = ["gkg"]


def gkg(
    ctx: QueryContext,
    deadline: Optional[Deadline] = None,
    method: str = "kdtree",
) -> Group:
    """Run GKG on a compiled query; returns the greedy group."""
    deadline = deadline or Deadline.unlimited("GKG")
    anchor_rows = ctx.rows_with_bit(ctx.t_inf_bit)
    if not anchor_rows:
        raise InfeasibleQueryError([ctx.t_inf])
    deadline.count("anchors", len(anchor_rows))
    # Zero-duration "plan" marker: records the chosen strategy on the
    # trace so EXPLAIN can report it post-hoc.
    with deadline.span(
        "gkg.plan",
        method=method,
        m=ctx.m,
        anchors=len(anchor_rows),
    ):
        pass

    full = ctx.full_mask
    for anchor in anchor_rows:
        if ctx.masks[anchor] == full:
            # A single object covering everything is optimal (δ = 0).
            deadline.offer(ctx, [anchor], 0.0, quality=QUALITY_EXACT)
            group = Group.from_rows(ctx, [anchor], algorithm="GKG")
            group.quality = QUALITY_EXACT
            return group

    if method == "kdtree":
        best_rows = _best_group_kdtree(ctx, anchor_rows, deadline)
    elif method == "brtree":
        best_rows = _best_group_brtree(ctx, anchor_rows, deadline)
    elif method == "irtree":
        best_rows = _best_group_irtree(ctx, anchor_rows, deadline)
    else:
        raise QueryError(
            f"unknown GKG method {method!r}; use 'kdtree', 'brtree' or 'irtree'"
        )

    if best_rows is None:
        raise InfeasibleQueryError(ctx.query.keywords)
    group = Group.from_rows(ctx, best_rows, algorithm="GKG")
    group.stats["anchors"] = float(len(anchor_rows))
    # The greedy group is a certified 2-approximation only once every
    # t_inf anchor has been tried (Theorem 2); record the bound and
    # re-offer the finished group so a later timeout degrades to it.
    deadline.note_bound(QUALITY_GREEDY, group.diameter)
    deadline.offer(ctx, best_rows, group.diameter)
    group.quality = QUALITY_GREEDY
    return group


def _best_group_kdtree(
    ctx: QueryContext, anchor_rows: List[int], deadline: Deadline
) -> Optional[List[int]]:
    """Vectorised strategy: one batched KD-tree query per query keyword."""
    full = ctx.full_mask
    m = ctx.m
    anchors = np.asarray(anchor_rows, dtype=np.intp)
    anchor_pts = ctx.coords[anchors]

    # nearest_row[bit][i] = O' row of the holder of `bit` nearest anchor i.
    nearest_row: List[Optional[np.ndarray]] = [None] * m
    with deadline.span("gkg.knn_batch", anchors=len(anchor_rows)):
        for bit_pos in range(m):
            if all(ctx.masks[a] & (1 << bit_pos) for a in anchor_rows):
                continue  # every anchor already covers it; lookup never needed
            tree, holders = ctx.keyword_tree(bit_pos)
            _d, idx = tree.query(anchor_pts, k=1)
            nearest_row[bit_pos] = holders[idx]

    if ctx.m <= 64:
        return _assemble_groups_batched(ctx, anchors, nearest_row, deadline)

    best_rows: Optional[List[int]] = None
    best_diameter = float("inf")
    for i, anchor in enumerate(anchor_rows):
        deadline.check()
        with deadline.span("gkg.anchor_round", anchor=int(anchor)):
            covered = ctx.masks[anchor]
            group_rows = [anchor]
            missing = full & ~covered
            while missing:
                bit_pos = (missing & -missing).bit_length() - 1
                lookup = nearest_row[bit_pos]
                assert lookup is not None  # bit uncovered => lookup was built
                row = int(lookup[i])
                group_rows.append(row)
                covered |= ctx.masks[row]
                missing = full & ~covered
            diameter = ctx.group_diameter_rows(group_rows)
        if diameter < best_diameter:
            best_diameter = diameter
            best_rows = group_rows
            # Feasible but unrated until the anchor loop completes.
            deadline.offer(ctx, group_rows, diameter, quality=QUALITY_PARTIAL)
    return best_rows


def _assemble_groups_batched(
    ctx: QueryContext,
    anchors: np.ndarray,
    nearest_row: List[Optional[np.ndarray]],
    deadline: Deadline,
) -> List[int]:
    """Columnar anchor rounds: all G_o groups assembled simultaneously.

    Round ``r`` resolves, for every still-uncovered anchor at once, the
    lowest uncovered keyword bit and gathers that keyword's nearest
    holder — the same member sequence the per-anchor loop produces, so
    the winning group (first index of the minimum diameter, matching the
    scalar loop's strict-improvement rule) is identical.
    """
    m = ctx.m
    n_a = len(anchors)
    masks_np = ctx.masks_np
    fullv = np.uint64(ctx.full_mask)

    # One span for the whole batch — the columnar path runs every anchor
    # round simultaneously, so the per-anchor span collapses to a single
    # emission with the anchor count attached.
    with deadline.span("gkg.anchor_round", anchors=n_a):
        return _assemble_rounds(ctx, anchors, nearest_row, deadline)


def _assemble_rounds(
    ctx: QueryContext,
    anchors: np.ndarray,
    nearest_row: List[Optional[np.ndarray]],
    deadline: Deadline,
) -> List[int]:
    m = ctx.m
    n_a = len(anchors)
    masks_np = ctx.masks_np
    fullv = np.uint64(ctx.full_mask)

    covered = masks_np[anchors].copy()
    members = np.broadcast_to(anchors[:, None], (n_a, m + 1)).copy()
    counts = np.ones(n_a, dtype=np.intp)

    # One check up front (like the scalar loop's first iteration), none
    # inside the rounds: the whole assembly is <= m short vector passes,
    # and raising mid-assembly would time out before the first incumbent
    # offer — the degraded path expects GKG to leave an incumbent behind.
    deadline.check()
    for _round in range(m):
        active = np.flatnonzero(covered != fullv)
        if active.size == 0:
            break
        miss = (~covered[active]) & fullv
        low = miss & (np.uint64(0) - miss)
        # frexp on an exact power of two returns (0.5, k+1) — an exact
        # lowest-set-bit position without per-element Python.
        bitpos = np.frexp(low.astype(np.float64))[1] - 1
        picked = np.empty(active.size, dtype=np.intp)
        for bit in np.unique(bitpos):
            lookup = nearest_row[int(bit)]
            assert lookup is not None  # bit uncovered => lookup was built
            sel = bitpos == bit
            picked[sel] = lookup[active[sel]]
        members[active, counts[active]] = picked
        counts[active] += 1
        covered[active] |= masks_np[picked]

    # Padding repeats the anchor row, which never changes the pairwise max.
    pts = ctx.coords[members]
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    sq = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
    per_group = sq.reshape(n_a, -1).max(axis=1)
    best = int(np.argmin(per_group))

    best_rows = [int(r) for r in members[best, : counts[best]]]
    deadline.offer(
        ctx, best_rows, float(per_group[best]) ** 0.5, quality=QUALITY_PARTIAL
    )
    return best_rows


def _best_group_irtree(
    ctx: QueryContext, anchor_rows: List[int], deadline: Deadline
) -> Optional[List[int]]:
    """IR-tree strategy: per-node inverted-file descent per keyword."""
    full = ctx.full_mask
    tree = ctx.ir_tree()

    best_rows: Optional[List[int]] = None
    best_diameter = float("inf")
    for anchor in anchor_rows:
        deadline.check()
        with deadline.span("gkg.anchor_round", anchor=int(anchor)):
            ax, ay = ctx.location_of_row(anchor)
            covered = ctx.masks[anchor]
            group_rows = [anchor]
            missing = full & ~covered
            feasible = True
            while missing:
                bit_pos = (missing & -missing).bit_length() - 1
                entry = tree.nearest_with_term(ax, ay, bit_pos)
                if entry is None:
                    feasible = False
                    break
                row = ctx.row_of(entry.item)
                group_rows.append(row)
                covered |= ctx.masks[row]
                missing = full & ~covered
        if not feasible:
            continue
        diameter = ctx.group_diameter_rows(group_rows)
        if diameter < best_diameter:
            best_diameter = diameter
            best_rows = group_rows
            deadline.offer(ctx, group_rows, diameter, quality=QUALITY_PARTIAL)
    return best_rows


def _best_group_brtree(
    ctx: QueryContext, anchor_rows: List[int], deadline: Deadline
) -> Optional[List[int]]:
    """Index strategy: bitmap-pruned nearest search per uncovered keyword."""
    full = ctx.full_mask
    tree = ctx.virtual_tree.tree

    best_rows: Optional[List[int]] = None
    best_diameter = float("inf")
    for anchor in anchor_rows:
        deadline.check()
        with deadline.span("gkg.anchor_round", anchor=int(anchor)):
            ax, ay = ctx.location_of_row(anchor)
            covered = ctx.masks[anchor]
            group_rows = [anchor]
            missing = full & ~covered
            feasible = True
            while missing:
                bit = missing & -missing
                entry = tree.nearest_with_mask(ax, ay, bit)
                if entry is None:
                    feasible = False
                    break
                row = ctx.row_of(entry.item)
                group_rows.append(row)
                covered |= ctx.masks[row]
                missing = full & ~covered
        if not feasible:
            continue
        diameter = ctx.group_diameter_rows(group_rows)
        if diameter < best_diameter:
            best_diameter = diameter
            best_rows = group_rows
            deadline.offer(ctx, group_rows, diameter, quality=QUALITY_PARTIAL)
    return best_rows
