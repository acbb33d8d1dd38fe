"""Procedure circleScan and its exhaustive-search variant (paper §4.3.2, §5.1).

Given a pole object ``o`` and a diameter ``D``, a circle of diameter ``D``
whose boundary passes through ``o`` is rotated around ``o``.  An object at
distance ``d <= D`` from the pole is inside the rotating closed disc
exactly while the circle-centre polar angle lies within
``arccos(d / D)`` of the object's own polar angle (Figure 5 of the paper;
see :mod:`repro.geometry.sweep` for the derivation).  Maintaining a keyword
frequency table across the sorted enter/exit events answers, in O(n log n):

* :func:`circle_scan` — does *some* position enclose a group covering all
  query keywords?  (The binary-search oracle of SKECa / SKECa+.)
* :func:`circle_scan_candidates` — *every* distinct enclosed set that
  covers the query, maximal under inclusion.  (The candidate circles that
  Procedure circleScanSearch of EXACT exhaustively searches.)

**Segmented sweep.**  SKECa+ tries one probe diameter against many poles,
and EXACT enumerates candidates at one diameter around every surviving
pole.  Each sweeping area is small, so per-pole numpy dispatch would cost
more than the sweep itself.  :func:`sweep_batches` therefore groups poles,
in probe order and capped by a row budget, and each :class:`SweepBatch`
concatenates its poles' sweep views into segments and makes one numpy
pass: enter/exit angles, a per-segment stable sort (``lexsort`` on
segment, then angle), running per-keyword counts with each segment's base
subtracted, and each segment's covering events.  A batch keeps the
per-pole loop's semantics exactly:

* every event a segment emits, and their order, equal what that pole
  alone would emit, so rows, theta and candidates are bit-identical;
* the first pole in probe order with a cover wins, and only the poles up
  to and including it count as visited (the ``core.circlescan`` fault
  site fires for each, in order, once the batch has been swept);
* between batches :func:`first_cover` polls the deadline, and no batch
  holds more than :data:`ROW_BUDGET` rows unless one pole alone does.

:func:`circle_scan` and :func:`circle_scan_candidates` are one-segment
uses of the same pass.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..testing import faults as _faults
from .query import QueryContext

__all__ = [
    "circle_scan",
    "circle_scan_candidates",
    "first_cover",
    "sweep_batches",
    "SweepBatch",
]

_TWO_PI = 2.0 * math.pi

#: Sweep-view rows per segmented batch: enough poles to amortise numpy
#: dispatch, few enough that the ``(events, m)`` temporaries stay small and
#: a long scan polls its deadline between batches.
ROW_BUDGET = 4096

Hit = Tuple[List[int], float]


def _sweep_view(ctx: QueryContext, pole_row: int, diameter: float):
    """The pole's sweeping area as ``(rows, dists, phis)``, or None.

    Rows are sorted by distance (ties by row index) with their polar
    angles around the pole.  None when even the whole sweeping area cannot
    cover the query — the coverage-radius precheck (paper: "the checking
    on o is thus avoided") or the area's keyword union.  It reads a
    radius-bounded pole cache, a bit-identical prefix of the full distance
    sort.
    """
    if ctx.hopeless(diameter, pole_row):
        return None
    cache = ctx.pole_cache_bounded(pole_row, diameter)
    k = cache.prefix_length(diameter)
    if k == 0 or cache.prefix_union[k] != ctx.full_mask:
        return None
    return cache.rows[:k], cache.dists[:k], cache.phis[:k]


def sweep_batches(
    ctx: QueryContext, poles: Iterable[int], diameter: float
) -> Iterator["SweepBatch"]:
    """Group ``poles`` (kept in order) into batches of at most ROW_BUDGET rows.

    Views are built lazily, one batch ahead of the caller, so a caller that
    stops at a hit never builds the views of later batches.
    """
    batch: List[int] = []
    views: list = []
    rows = 0
    for pole in poles:
        pole = int(pole)
        view = _sweep_view(ctx, pole, diameter)
        size = 0 if view is None else len(view[0])
        if batch and rows + size > ROW_BUDGET:
            yield SweepBatch(ctx, batch, views, diameter)
            batch, views, rows = [], [], 0
        batch.append(pole)
        views.append(view)
        rows += size
    if batch:
        yield SweepBatch(ctx, batch, views, diameter)


def first_cover(
    ctx: QueryContext, poles: Sequence[int], diameter: float, deadline=None
) -> Tuple[int, Optional[Hit]]:
    """First pole in ``poles`` whose rotation at ``diameter`` covers the query.

    Returns ``(index, (rows, theta))`` for the winning pole, or
    ``(len(poles), None)``; ``poles[:index]`` are the poles that failed.
    ``deadline`` (if given) is polled between batches.
    """
    offset = 0
    for number, batch in enumerate(sweep_batches(ctx, poles, diameter)):
        if number and deadline is not None:
            deadline.check()
        index, hit = batch.first_cover()
        if hit is not None:
            return offset + index, hit
        offset += len(batch.poles)
    return offset, None


def circle_scan(ctx: QueryContext, pole_row: int, diameter: float) -> Optional[Hit]:
    """Find one o-across keywords enclosing circle of diameter ``diameter``.

    Returns ``(rows, theta)`` where ``rows`` are the O' rows enclosed at
    centre angle ``theta`` (radians around the pole) and together cover all
    query keywords, or ``None`` when no rotation position works — by
    Property 1 this also rules out every smaller diameter at this pole.
    """
    return first_cover(ctx, (pole_row,), diameter)[1]


def circle_scan_candidates(
    ctx: QueryContext, pole_row: int, diameter: float
) -> List[List[int]]:
    """All maximal enclosed sets covering the query over the full rotation.

    Unlike :func:`circle_scan`, the sweep continues past the first hit and
    snapshots the enclosed set at every event position where coverage
    holds.  Snapshots that are subsets of other snapshots are dropped: the
    exhaustive search over a superset subsumes the search over its subsets.
    """
    (batch,) = sweep_batches(ctx, (pole_row,), diameter)
    return batch.candidates()[0]


class SweepBatch:
    """Poles swept together at one diameter (see the module docstring).

    ``views[i]`` is pole ``poles[i]``'s sweep view, or None when its
    sweeping area cannot cover the query.
    """

    __slots__ = ("ctx", "poles", "views", "diameter")

    def __init__(self, ctx: QueryContext, poles: List[int], views: list, diameter: float):
        self.ctx = ctx
        self.poles = poles
        self.views = views
        self.diameter = diameter

    def _segments(self):
        """The covering views as one :class:`_Segments` pass (None when no
        view covers), plus each segment's index into ``poles``."""
        views = self.views
        if len(views) == 1:
            live = [] if views[0] is None else [0]
        else:
            live = [i for i, view in enumerate(views) if view is not None]
        if not live:
            return None, live
        return _Segments(self.ctx, [views[i] for i in live], self.diameter), live

    def first_cover(self) -> Tuple[int, Optional[Hit]]:
        """``(index, (rows, theta))`` of the first pole with a cover, or
        ``(len(poles), None)``."""
        segments, live = self._segments()
        index, hit = len(self.poles), None
        if segments is not None:
            seg, hit = segments.first_cover()
            if hit is not None:
                index = live[seg]
        if _faults.ACTIVE:
            # Chaos site, once per visited pole: tests arm a delay here to
            # model a stalled sweep.
            for pole in self.poles[: index + 1]:
                _faults.fire("core.circlescan", pole=pole, diameter=self.diameter)
        return index, hit

    def candidates(self) -> List[List[List[int]]]:
        """Per pole, its maximal covering enclosed sets (EXACT's candidates)."""
        out: List[List[List[int]]] = [[] for _ in self.poles]
        segments, live = self._segments()
        if segments is not None:
            for seg, snapshots in enumerate(segments.covering_snapshots()):
                out[live[seg]] = _maximal_sets(snapshots)
        return out


class _Segments:
    """One numpy pass over several poles' sweep views at one diameter.

    Positions index the concatenated view rows; segment ``s`` owns
    positions ``row_start[s]:row_start[s + 1]`` and sorted events
    ``ev_start[s]:ev_start[s + 1]``.  Enter events (kind 1) precede exit
    events (kind 0) on tied angles: the disc is closed, so at a tie both
    objects are enclosed, and an object at distance exactly ``D`` (a
    single-angle interval) is entered before it is exited.  A moving row
    whose interval wraps past angle 0, or starts exactly at 0, is inside
    at angle 0; an enter at exactly 0 is dropped, as it would be a no-op.
    """

    def __init__(self, ctx: QueryContext, views: list, diameter: float):
        n_seg = len(views)
        if n_seg == 1:
            rows, dists, phis = views[0]
            self.row_start = np.array((0, len(rows)))
        else:
            rows = np.concatenate([v[0] for v in views])
            dists = np.concatenate([v[1] for v in views])
            phis = np.concatenate([v[2] for v in views])
            self.row_start = np.zeros(n_seg + 1, dtype=np.intp)
            np.cumsum([len(v[0]) for v in views], out=self.row_start[1:])
        self.rows = rows

        # Rows essentially at the pole are inside at every rotation position.
        moving = dists > max(1e-12, 1e-15 * diameter)
        mpos = moving.nonzero()[0]
        beta = np.arccos(np.minimum(dists[mpos] / diameter, 1.0))
        phi = phis[mpos]
        enter = np.mod(phi - beta, _TWO_PI)
        exit_ = np.mod(phi + beta, _TWO_PI)
        at_zero = enter == 0.0
        inside = ~moving
        inside[mpos] = (enter > exit_) | at_zero
        self.inside = inside
        enter_pos = mpos
        if at_zero.any():
            enter_pos, enter = mpos[~at_zero], enter[~at_zero]

        # Unsorted events: every segment's enters, then every segment's
        # exits, so a stable sort on (segment, angle) keeps each segment's
        # enter-before-exit tie order — the same permutation as sorting
        # that segment alone.
        ev_pos = np.concatenate((enter_pos, mpos))
        angles = np.concatenate((enter, exit_))
        if n_seg == 1:
            order = angles.argsort(kind="stable")
            self.ev_pos = ev_pos.take(order)
            self.ev_seg = None
            self.ev_start = np.array((0, len(order)))
        else:
            seg_of_pos = np.repeat(np.arange(n_seg), np.diff(self.row_start))
            order = np.lexsort((angles, seg_of_pos.take(ev_pos)))
            self.ev_pos = ev_pos.take(order)
            self.ev_seg = seg_of_pos.take(self.ev_pos)
            self.ev_start = self.ev_seg.searchsorted(np.arange(n_seg + 1))
        self.angles = angles.take(order)
        self.is_enter = order < len(enter_pos)

        # Running per-keyword counts: one cumulative sum over all events,
        # rebased per segment to that segment's counts at angle 0.
        bits = ctx.bits_matrix.take(rows, axis=0).view(np.int8)
        inside_bits = bits * inside[:, None]
        counts0 = np.add.reduceat(inside_bits, self.row_start[:-1], axis=0, dtype=np.int32)
        self.covered0 = np.logical_and.reduce(counts0 > 0, axis=1)
        deltas = bits.take(self.ev_pos, axis=0)
        deltas = np.where(self.is_enter[:, None], deltas, -deltas)
        running = np.add.accumulate(deltas, axis=0, dtype=np.int32)
        if n_seg == 1:
            running += counts0[0]
        else:
            before = np.concatenate((np.zeros_like(counts0[:1]), running))
            running += (counts0 - before[self.ev_start[:-1]])[self.ev_seg]
        self.covered = np.logical_and.reduce(running > 0, axis=1)

    def first_cover(self) -> Tuple[int, Optional[Hit]]:
        """``(segment, (rows, theta))`` of the first segment with a cover."""
        n_seg = len(self.covered0)
        seg0 = int(self.covered0.argmax())
        if not self.covered0[seg0]:
            seg0 = n_seg
        seg1, i = n_seg, 0
        if len(self.covered):
            i = int(self.covered.argmax())
            if self.covered[i]:
                seg1 = 0 if self.ev_seg is None else int(self.ev_seg[i])
        if seg0 < n_seg and seg0 <= seg1:
            lo, hi = self.row_start[seg0], self.row_start[seg0 + 1]
            return seg0, (np.sort(self.rows[lo:hi][self.inside[lo:hi]]).tolist(), 0.0)
        if seg1 < n_seg:
            return seg1, (self._enclosed(seg1, i), float(self.angles[i]))
        return n_seg, None

    def covering_snapshots(self) -> List[set]:
        """Per segment, the enclosed sets at its locally maximal covering
        positions.

        A covering position followed by an enter is strictly contained in
        its successor, which stays covering, so only positions followed by
        an exit or the segment's end are materialised; the initial enclosed
        set is maximal only when the segment opens with an exit.
        """
        n_seg = len(self.covered0)
        ev_start = self.ev_start
        n_events = len(self.angles)
        closes = np.ones(n_events, dtype=bool)
        closes[:-1] = ~self.is_enter[1:]
        ends = ev_start[1:][ev_start[1:] > ev_start[:-1]] - 1
        closes[ends] = True
        snap = np.flatnonzero(self.covered & closes)
        snap_start = np.searchsorted(snap, ev_start)
        out: List[set] = []
        for seg in range(n_seg):
            snapshots: set = set()
            first = ev_start[seg]
            if self.covered0[seg] and (
                first == ev_start[seg + 1] or not self.is_enter[first]
            ):
                lo, hi = self.row_start[seg], self.row_start[seg + 1]
                snapshots.add(frozenset(self.rows[lo:hi][self.inside[lo:hi]].tolist()))
            for i in snap[snap_start[seg] : snap_start[seg + 1]].tolist():
                snapshots.add(frozenset(self._enclosed(seg, i)))
            out.append(snapshots)
        return out

    def _enclosed(self, seg: int, i: int) -> List[int]:
        """Ascending rows of segment ``seg`` enclosed right after sorted
        event ``i``.

        A row has at most one enter and one exit event, so it is enclosed
        exactly when its inside-at-0 flag differs from the parity of its
        events so far.
        """
        lo, hi = self.row_start[seg], self.row_start[seg + 1]
        seen = np.bincount(self.ev_pos[self.ev_start[seg] : i + 1] - lo, minlength=hi - lo)
        return np.sort(self.rows[lo:hi][(seen & 1) != self.inside[lo:hi]]).tolist()


def _maximal_sets(snapshots) -> List[List[int]]:
    """Drop snapshots strictly contained in another; return sorted lists.

    The candidate order feeds EXACT's branch-and-bound incumbent updates,
    so ties are broken deterministically (by content, not set-iteration
    order), so candidates come out the same however the poles were batched.
    """
    ordered = sorted(snapshots, key=lambda s: (-len(s), tuple(sorted(s))))
    maximal: List[frozenset] = []
    for candidate in ordered:
        if any(candidate <= kept for kept in maximal):
            continue
        maximal.append(candidate)
    return [sorted(s) for s in maximal]
