"""Tests for Procedure circleScan (rotating-circle coverage oracle)."""

import math

import pytest

from repro.core.circlescan import circle_scan, circle_scan_candidates
from repro.core.objects import Dataset
from repro.core.query import compile_query


def _ring_dataset():
    """Pole at origin; keyword holders placed at known angles/distances."""
    records = [
        (0.0, 0.0, ["p"]),            # 0 the pole keyword
        (1.0, 0.0, ["a"]),            # 1 east, d=1
        (0.0, 1.0, ["b"]),            # 2 north, d=1
        (-1.0, 0.0, ["a"]),           # 3 west, d=1
        (0.0, -1.0, ["b"]),           # 4 south, d=1
        (10.0, 10.0, ["a", "b"]),     # 5 far away
    ]
    return Dataset.from_records(records)


class TestSweepingArea:
    def test_contains_only_near_objects(self):
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a", "b"])
        pole = ctx.row_of(0)
        rows = set(int(r) for r in ctx.pole_cache_bounded(pole, 1.5).rows_within(1.5))
        oids = {ctx.relevant_ids[r] for r in rows}
        assert oids == {0, 1, 2, 3, 4}

    def test_closed_boundary(self):
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a"])
        pole = ctx.row_of(0)
        rows = ctx.pole_cache_bounded(pole, 1.0).rows_within(1.0)
        oids = {ctx.relevant_ids[int(r)] for r in rows}
        assert 1 in oids and 3 in oids


class TestCircleScan:
    def test_finds_adjacent_pair(self):
        # Objects 1 (east) and 2 (north) are both within a circle of
        # diameter sqrt(2) <= D through the pole; 'a' and 'b' get covered.
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a", "b"])
        pole = ctx.row_of(0)
        result = circle_scan(ctx, pole, 1.5)
        assert result is not None
        rows, theta = result
        assert ctx.covers(rows)

    def test_fails_when_diameter_too_small(self):
        # With D < 1 no keyword holder is even in the sweeping area.
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a", "b"])
        pole = ctx.row_of(0)
        assert circle_scan(ctx, pole, 0.5) is None

    def test_diameter_one_cannot_pair_orthogonal(self):
        # Pole = the east 'a' holder.  The nearest 'b' holders are sqrt(2)
        # away, outside a diameter-1 sweeping area, so the scan fails.
        ds = _ring_dataset()
        ctx = compile_query(ds, ["a", "b"])
        pole = ctx.row_of(1)
        assert circle_scan(ctx, pole, 1.0) is None

    def test_monotone_in_diameter(self):
        # Property 1: success at D implies success at any D' >= D.
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a", "b"])
        pole = ctx.row_of(0)
        smallest = None
        for d in [0.4, 0.8, 1.2, 1.6, 2.0, 3.0]:
            hit = circle_scan(ctx, pole, d)
            if smallest is None and hit is not None:
                smallest = d
            if smallest is not None:
                assert hit is not None, f"non-monotone at D={d}"

    def test_returned_circle_actually_encloses(self):
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a", "b"])
        pole = ctx.row_of(0)
        diameter = 1.6
        result = circle_scan(ctx, pole, diameter)
        assert result is not None
        rows, theta = result
        r = diameter / 2.0
        px, py = ctx.location_of_row(pole)
        cx, cy = px + r * math.cos(theta), py + r * math.sin(theta)
        for row in rows:
            x, y = ctx.location_of_row(row)
            assert math.hypot(x - cx, y - cy) <= r + 1e-6

    def test_pole_always_inside(self):
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a", "b"])
        pole = ctx.row_of(0)
        result = circle_scan(ctx, pole, 2.0)
        assert result is not None
        assert pole in result[0]


class TestCircleScanCandidates:
    def test_candidates_cover_query(self):
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a", "b"])
        pole = ctx.row_of(0)
        candidates = circle_scan_candidates(ctx, pole, 2.0)
        assert candidates
        for cand in candidates:
            assert ctx.covers(cand)

    def test_candidates_are_maximal(self):
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a", "b"])
        pole = ctx.row_of(0)
        candidates = [frozenset(c) for c in circle_scan_candidates(ctx, pole, 2.0)]
        for i, a in enumerate(candidates):
            for j, b in enumerate(candidates):
                if i != j:
                    assert not a < b, "non-maximal candidate survived"

    def test_no_candidates_when_scan_fails(self):
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a", "b"])
        pole = ctx.row_of(0)
        assert circle_scan_candidates(ctx, pole, 0.5) == []

    def test_contains_optimal_enclosed_set(self):
        # The pair {pole, east, north} is enclosed by some candidate when
        # the diameter is generous.
        ds = _ring_dataset()
        ctx = compile_query(ds, ["p", "a", "b"])
        pole = ctx.row_of(0)
        want = {pole, ctx.row_of(1), ctx.row_of(2)}
        candidates = [set(c) for c in circle_scan_candidates(ctx, pole, 2.5)]
        assert any(want <= c for c in candidates)


class TestDegenerateCases:
    def test_all_objects_at_pole(self):
        ds = Dataset.from_records(
            [(5, 5, ["a"]), (5, 5, ["b"]), (5, 5, ["c"])]
        )
        ctx = compile_query(ds, ["a", "b", "c"])
        result = circle_scan(ctx, 0, 0.001)
        assert result is not None
        rows, _theta = result
        assert ctx.covers(rows)

    def test_collinear_objects(self):
        ds = Dataset.from_records(
            [(0, 0, ["a"]), (1, 0, ["b"]), (2, 0, ["c"])]
        )
        ctx = compile_query(ds, ["a", "b", "c"])
        assert circle_scan(ctx, 0, 2.0) is not None
        assert circle_scan(ctx, 0, 1.0) is None
