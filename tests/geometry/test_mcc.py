"""Tests for the minimum covering circle (Welzl) against the naive solver."""

import math
import random
import threading

import pytest

from repro.geometry.circle import Circle
from repro.geometry.mcc import minimum_covering_circle, minimum_covering_circle_naive
from repro.geometry.point import dist


class TestBasics:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            minimum_covering_circle([])

    def test_single_point(self):
        c = minimum_covering_circle([(3, 4)])
        assert (c.cx, c.cy, c.r) == (3, 4, 0.0)

    def test_two_points(self):
        c = minimum_covering_circle([(0, 0), (2, 0)])
        assert (c.cx, c.cy) == pytest.approx((1.0, 0.0))
        assert c.r == pytest.approx(1.0)

    def test_duplicated_points(self):
        c = minimum_covering_circle([(1, 1)] * 5 + [(3, 1)] * 3)
        assert c.r == pytest.approx(1.0)

    def test_equilateral_triangle(self):
        # Circumradius of a unit equilateral triangle is 1/sqrt(3).
        pts = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
        c = minimum_covering_circle(pts)
        assert c.r == pytest.approx(1 / math.sqrt(3))

    def test_obtuse_triangle_uses_two_points(self):
        # For an obtuse triangle, the MCC is determined by the longest side.
        pts = [(0, 0), (10, 0), (5, 0.1)]
        c = minimum_covering_circle(pts)
        assert c.r == pytest.approx(5.0, abs=1e-6)

    def test_square(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
        c = minimum_covering_circle(pts)
        assert (c.cx, c.cy) == pytest.approx((1.0, 1.0))
        assert c.r == pytest.approx(math.sqrt(2))


def _check_is_mcc(points, circle: Circle):
    # (1) encloses everything;
    for p in points:
        assert dist(circle.center, p) <= circle.r + 1e-7
    # (2) at least two points on the boundary (unless degenerate).
    distinct = set(points)
    if len(distinct) >= 2:
        on_boundary = sum(
            1 for p in distinct if abs(dist(circle.center, p) - circle.r) < 1e-6
        )
        assert on_boundary >= 2


class TestAgainstNaive:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_sets_match_naive(self, seed):
        rng = random.Random(seed)
        pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(rng.randint(3, 14))]
        fast = minimum_covering_circle(pts)
        slow = minimum_covering_circle_naive(pts)
        assert fast.r == pytest.approx(slow.r, rel=1e-7, abs=1e-7)
        _check_is_mcc(pts, fast)

    def test_collinear_points(self):
        pts = [(float(i), 2.0 * i) for i in range(7)]
        fast = minimum_covering_circle(pts)
        slow = minimum_covering_circle_naive(pts)
        assert fast.r == pytest.approx(slow.r, rel=1e-9)

    def test_points_on_circle(self):
        # All points exactly on a known circle: MCC radius equals it.
        pts = [
            (5 + 3 * math.cos(t), -2 + 3 * math.sin(t))
            for t in [0.1, 0.9, 2.0, 3.0, 4.4, 5.5]
        ]
        c = minimum_covering_circle(pts)
        assert c.r == pytest.approx(3.0, rel=1e-9)
        assert (c.cx, c.cy) == pytest.approx((5.0, -2.0), abs=1e-7)

    def test_deterministic_across_calls(self):
        pts = [(1, 1), (4, 5), (-2, 3), (0, -6), (7, 2)]
        c1 = minimum_covering_circle(pts)
        c2 = minimum_covering_circle(list(reversed(pts)))
        assert c1.r == pytest.approx(c2.r, rel=1e-12)


class TestPureFunction:
    """The circle depends on the input points alone: not on the calls
    that ran before, nor on threads computing circles at the same time."""

    SETS = [
        [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(25)]
        for rng in [random.Random(17)]
        for _ in range(16)
    ]

    def test_same_points_same_circle_whatever_ran_before(self):
        first = [minimum_covering_circle(pts) for pts in self.SETS]
        rng = random.Random(3)
        for _ in range(50):  # unrelated calls in between
            minimum_covering_circle(
                [(rng.uniform(0, 9), rng.uniform(0, 9)) for _ in range(rng.randint(2, 30))]
            )
        again = [minimum_covering_circle(pts) for pts in reversed(self.SETS)][::-1]
        assert again == first

    def test_same_circles_from_eight_threads_at_once(self):
        want = [minimum_covering_circle(pts) for pts in self.SETS]
        got = [None] * 8
        start = threading.Barrier(8)

        def work(slot):
            start.wait()
            rounds = [
                [minimum_covering_circle(pts) for pts in self.SETS] for _ in range(20)
            ]
            got[slot] = rounds

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert all(rounds == [want] * 20 for rounds in got)
