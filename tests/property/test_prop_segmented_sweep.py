"""Property tests: the segmented circleScan sweep against per-pole loops.

Points sit on a small integer grid, so coincident points, tied angles,
rows exactly at distance D and enter events at angle exactly 0 (a row at
distance D straight to the right of its pole) are all common.  The wide
variant queries more than 64 keywords, past the uint64 mask fast paths.

The reference is the original per-event Python walk of one pole over its
whole (unbounded) sweeping area, kept here as the oracle for event-level
rows and theta.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.circlescan as circlescan
from repro.core.circlescan import (
    _maximal_sets,
    circle_scan,
    circle_scan_candidates,
    first_cover,
    sweep_batches,
)
from repro.core.common import Deadline, Instrumentation
from repro.core.gkg import gkg
from repro.core.objects import Dataset
from repro.core.query import compile_query
from repro.core.skeca import DEFAULT_EPSILON, _single_object_answer, find_app_oskec
from repro.core.skecaplus import skeca_plus_state
from repro.geometry.mcc import minimum_covering_circle
from repro.testing import faults

NARROW = ["a", "b", "c", "d"]
WIDE = [f"w{i}" for i in range(66)]


@st.composite
def instance(draw, span=6, max_records=24):
    """``(records, query, wide)`` on an integer grid."""
    wide = draw(st.sampled_from([False, False, False, True]))
    vocab = WIDE if wide else NARROW
    cell = st.integers(0, span)
    if wide:
        keywords = st.lists(st.sampled_from(vocab), min_size=30, max_size=50, unique=True)
    else:
        keywords = st.lists(st.sampled_from(vocab), min_size=1, max_size=2, unique=True)
    records = draw(
        st.lists(st.tuples(cell, cell, keywords), min_size=3, max_size=max_records)
    )
    present = sorted({t for _x, _y, kws in records for t in kws})
    if wide:
        # Every wide keyword appears, so the query can use all 66.
        missing = [t for t in vocab if t not in present]
        if missing:
            records.append((3, 3, missing))
        query = list(vocab)
    else:
        if len(present) < 2:
            records.append((0, 0, [t for t in vocab if t not in present][:1]))
            present = sorted({t for _x, _y, kws in records for t in kws})
        query = present[: draw(st.integers(2, len(present)))]
    return [(float(x), float(y), kws) for x, y, kws in records], query, wide


@st.composite
def sweep_case(draw):
    records, query, wide = draw(instance())
    ctx = compile_query(Dataset.from_records(records), query)
    n = len(ctx.relevant_ids)
    poles = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40, unique=True))
    poles = draw(st.permutations(poles))
    # Half the time the diameter is exactly some pole-to-row distance.
    pole, row = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    exact_d = float(np.hypot(*(ctx.coords[row] - ctx.coords[pole])))
    diameter = draw(st.sampled_from([exact_d, 2.0 * exact_d]) | st.floats(0.5, 12.0))
    if diameter <= 0.0:
        diameter = 1.0
    budget = draw(st.sampled_from([1, 7, 40, circlescan.ROW_BUDGET]))
    return ctx, poles, diameter, budget


_TWO_PI = 2.0 * math.pi


def _reference_view(ctx, pole_row, diameter):
    """The pole's sweeping area ``(rows, dists)`` from the unbounded pole
    cache, or None when even the whole area cannot cover the query."""
    if ctx.hopeless(diameter, pole_row):
        return None
    cache = ctx.pole_cache(pole_row)
    k = cache.prefix_length(diameter)
    if k == 0 or cache.prefix_union[k] != ctx.full_mask:
        return None
    return cache.rows[:k], cache.dists[:k]


def _reference_events(ctx, pole_row, view, diameter):
    """Per-probe event construction: ``(inside_rows, angles, kinds,
    event_rows)`` sorted by angle with enters (kind 1) before exits (kind
    0) on ties.  It recomputes ``arctan2`` and keeps enter events at angle
    0 (the walk's in-set guard makes them no-ops).
    """
    rows, dists = view
    pole = ctx.coords[pole_row]

    moving = dists > max(1e-12, 1e-15 * diameter)
    always_rows = rows[~moving]
    mrows = rows[moving]
    if len(mrows) == 0:
        return [int(r) for r in always_rows], [], [], []

    pts = ctx.coords[mrows]
    delta_x = pts[:, 0] - pole[0]
    delta_y = pts[:, 1] - pole[1]
    ratio = np.minimum(dists[moving] / diameter, 1.0)
    beta = np.arccos(ratio)
    phi = np.arctan2(delta_y, delta_x)
    enter = np.mod(phi - beta, _TWO_PI)
    exit_ = np.mod(phi + beta, _TWO_PI)

    wraps = (enter > exit_) | (enter == 0.0)
    inside_rows = [int(r) for r in always_rows]
    inside_rows.extend(int(r) for r in mrows[wraps])

    angles = np.concatenate([enter, exit_])
    kinds = np.concatenate(
        [np.ones(len(mrows), dtype=np.int8), np.zeros(len(mrows), dtype=np.int8)]
    )
    event_rows = np.concatenate([mrows, mrows])
    order = np.lexsort((-kinds, angles))
    return inside_rows, angles[order], kinds[order], event_rows[order]


def _add_mask(mask, counts, covered):
    while mask:
        low = mask & -mask
        bit_pos = low.bit_length() - 1
        counts[bit_pos] += 1
        if counts[bit_pos] == 1:
            covered |= low
        mask ^= low
    return covered


def _remove_mask(mask, counts, covered):
    while mask:
        low = mask & -mask
        bit_pos = low.bit_length() - 1
        counts[bit_pos] -= 1
        if counts[bit_pos] == 0:
            covered &= ~low
        mask ^= low
    return covered


def _reference_circle_scan(ctx, pole_row, diameter):
    """The per-event walk around one pole: ``(rows, theta)`` of the first
    covering position, or None."""
    view = _reference_view(ctx, pole_row, diameter)
    if view is None:
        return None
    inside_rows, angles, kinds, event_rows = _reference_events(
        ctx, pole_row, view, diameter
    )
    masks = ctx.masks
    full = ctx.full_mask
    counts = [0] * full.bit_length()
    covered = 0
    inside = set(inside_rows)
    for r in inside:
        covered = _add_mask(masks[r], counts, covered)
    if covered == full:
        return sorted(inside), 0.0

    for i in range(len(angles)):
        r = int(event_rows[i])
        if kinds[i]:  # enter
            if r in inside:
                continue
            inside.add(r)
            covered = _add_mask(masks[r], counts, covered)
            if covered == full:
                return sorted(inside), float(angles[i])
        else:  # exit
            if r not in inside:
                continue
            inside.discard(r)
            covered = _remove_mask(masks[r], counts, covered)
    return None


def _reference_candidates(ctx, pole_row, diameter):
    """The full-rotation walk around one pole: its maximal covering sets."""
    view = _reference_view(ctx, pole_row, diameter)
    if view is None:
        return []
    inside_rows, angles, kinds, event_rows = _reference_events(
        ctx, pole_row, view, diameter
    )
    masks = ctx.masks
    full = ctx.full_mask
    counts = [0] * full.bit_length()
    covered = 0
    inside = set(inside_rows)
    for r in inside:
        covered = _add_mask(masks[r], counts, covered)

    snapshots = set()
    if covered == full:
        snapshots.add(frozenset(inside))
    for i in range(len(angles)):
        r = int(event_rows[i])
        if kinds[i]:
            if r in inside:
                continue
            inside.add(r)
            covered = _add_mask(masks[r], counts, covered)
        else:
            if r not in inside:
                continue
            inside.discard(r)
            covered = _remove_mask(masks[r], counts, covered)
        if covered == full:
            snapshots.add(frozenset(inside))
    return _maximal_sets(snapshots)


def _reference_first_hit(ctx, poles, diameter):
    """The per-pole loop: walk each pole, stop at a hit."""
    for index, pole in enumerate(poles):
        hit = _reference_circle_scan(ctx, pole, diameter)
        if hit is not None:
            return index, hit
    return len(poles), None


class TestSegmentedSweep:
    @given(sweep_case())
    @settings(max_examples=150, deadline=None)
    def test_first_cover_matches_per_pole_loop(self, case):
        ctx, poles, diameter, budget = case
        original = circlescan.ROW_BUDGET
        circlescan.ROW_BUDGET = budget
        try:
            got = first_cover(ctx, poles, diameter)
        finally:
            circlescan.ROW_BUDGET = original
        assert got == _reference_first_hit(ctx, poles, diameter)

    @given(sweep_case())
    @settings(max_examples=150, deadline=None)
    def test_batch_candidates_match_single_pole_sweeps(self, case):
        ctx, poles, diameter, budget = case
        original = circlescan.ROW_BUDGET
        circlescan.ROW_BUDGET = budget
        try:
            batched = [
                (pole, cands)
                for batch in sweep_batches(ctx, poles, diameter)
                for pole, cands in zip(batch.poles, batch.candidates())
            ]
        finally:
            circlescan.ROW_BUDGET = original
        assert [pole for pole, _ in batched] == list(poles)
        for pole, cands in batched:
            assert cands == circle_scan_candidates(ctx, pole, diameter)
            assert cands == _reference_candidates(ctx, pole, diameter)


def test_each_segment_starts_from_its_own_counts():
    # The first pole ("c") cannot cover: its "a", exactly D to the right
    # (so it enters at angle 0 and only ever exits), and its "b" sit on
    # opposite sides.  The second pole covers as soon as its "b" enters,
    # which only holds if its sweep ignores the first pole's net events.
    records = [
        (0.0, 0.0, ["c"]), (2.0, 0.0, ["a"]), (-1.0, 0.0, ["b"]),
        (20.0, 0.0, ["c"]), (21.0, 0.0, ["a"]), (20.0, 1.0, ["b"]),
    ]
    ctx = compile_query(Dataset.from_records(records), ["a", "b", "c"])
    poles = [ctx.row_of(0), ctx.row_of(3)]
    got = first_cover(ctx, poles, 2.0)
    assert got[0] == 1
    assert got == _reference_first_hit(ctx, poles, 2.0)


def _reference_skeca_plus(ctx, epsilon=DEFAULT_EPSILON):
    """Algorithm 2 probing one pole per circleScan, as the paper states it.

    Returns ``(max_invalid_range, binary_steps, scans, counters)``, or
    None when one object covers the query.
    """
    instr = Instrumentation()
    deadline = Deadline("SKECa+", None, instr)
    greedy = gkg(ctx, deadline)
    if _single_object_answer(ctx, "SKECa+") is not None:
        return None
    alpha = epsilon * greedy.diameter / 2.0
    rows = [ctx.row_of(oid) for oid in greedy.object_ids]
    ub = minimum_covering_circle(ctx.coords[r] for r in rows).diameter
    lb = greedy.diameter / 2.0
    max_invalid = [0.0] * len(ctx.relevant_ids)
    order = [int(p) for p in np.argsort(ctx.cover_radii, kind="stable")]
    sorted_radii = ctx.cover_radii[order]
    warm, steps = find_app_oskec(ctx, order[0], lb, ub, alpha, deadline)
    scans = steps
    last = -1
    if warm is not None:
        last = order[0]
        ub = min(ub, warm.diameter)
    while ub - lb > alpha:
        diam = (ub + lb) / 2.0
        steps += 1
        deadline.count("binary_steps")
        eligible = int(np.searchsorted(sorted_radii, diam * (1.0 + 1e-12), side="right"))
        found = False
        for pole in ([last] if last >= 0 else []) + [
            p for p in order[:eligible] if p != last
        ]:
            if diam <= max_invalid[pole]:
                deadline.count("property1_skips")
                continue
            scans += 1
            deadline.count("circle_scans")
            if circle_scan(ctx, pole, diam) is not None:
                ub, last, found = diam, pole, True
                break
            max_invalid[pole] = diam
        if not found:
            lb = diam
    return max_invalid, steps, scans, instr.counters


COUNTERS = ("circle_scans", "binary_steps", "property1_skips")


def _recording(fired):
    """Arm the circleScan fault site to record each visited (pole, diameter)."""
    return faults.injected(
        "core.circlescan",
        times=None,
        match=lambda pole, diameter: fired.append((pole, diameter)) or True,
    )


def _check_skeca_plus(records, query, budget):
    """SKECa+ at ``budget`` rows per batch agrees with the per-pole loop."""
    dataset = Dataset.from_records(records)
    expected_fired, fired = [], []
    with _recording(expected_fired):
        expected = _reference_skeca_plus(compile_query(dataset, query))
    instr = Instrumentation()
    original = circlescan.ROW_BUDGET
    circlescan.ROW_BUDGET = budget
    try:
        with _recording(fired):
            state = skeca_plus_state(
                compile_query(dataset, query), deadline=Deadline("SKECa+", None, instr)
            )
    finally:
        circlescan.ROW_BUDGET = original
    # The fault site fires once per visited pole, in probe order.
    assert fired == expected_fired
    if expected is None:
        return
    max_invalid, steps, scans, counters = expected
    assert state.max_invalid_range == max_invalid
    assert (state.binary_steps, state.scans) == (steps, scans)
    for name in COUNTERS:
        assert instr.counters.get(name) == counters.get(name), name


class TestSkecaPlusBatches:
    # Wider, denser grids make steps that fail at several poles before a
    # hit, so later, smaller probes skip those poles by Property 1.
    @given(instance(span=12, max_records=80), st.sampled_from([1, 7, 4096]))
    @settings(max_examples=80, deadline=None)
    def test_state_and_counters_match_pole_by_pole_search(self, inst, budget):
        records, query, _wide = inst
        _check_skeca_plus(records, query, budget)

    def test_hit_ahead_of_scanned_and_skipped_poles(self):
        # Each "a" with a "b" and a "c" on opposite sides is an early,
        # eligible pole that never hosts a cover; the triangle at the end
        # does.  Later steps hit at the lead pole with poles still queued
        # behind it in the batch, some of them skipped by Property 1.
        records = []
        for x in (0.0, 10.0):
            records += [(x, 0.0, ["a"]), (x + 1.0, 0.0, ["b"]), (x - 1.0, 0.0, ["c"])]
        records += [(20.0, 0.0, ["a"]), (21.9, 0.0, ["b"]), (20.95, 1.5, ["c"])]
        _check_skeca_plus(records, ["a", "b", "c"], circlescan.ROW_BUDGET)
