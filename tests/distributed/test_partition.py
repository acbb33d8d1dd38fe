"""Tests for the grid partitioner and the tiling's boundary strip."""

import math
import random

import numpy as np
import pytest

from repro.core.objects import Dataset
from repro.core.scatter import Region, Tiling
from repro.distributed.partition import GridPartitioner
from repro.exceptions import ExperimentError
from tests.conftest import make_random_dataset


@pytest.fixture
def ds():
    return make_random_dataset(1, n=120)


class TestGrid:
    def test_worker_count_square(self, ds):
        assert GridPartitioner(ds, 4).n_workers == 4
        assert GridPartitioner(ds, 9).n_workers == 9
        assert GridPartitioner(ds, 5).n_workers == 4  # floor(sqrt(5))^2

    def test_rejects_zero_workers(self, ds):
        with pytest.raises(ExperimentError):
            GridPartitioner(ds, 0)

    def test_rejects_empty_dataset(self):
        ds = Dataset(name="empty")
        ds.finalize()
        with pytest.raises(ExperimentError):
            GridPartitioner(ds, 4)


class TestCoreAssignment:
    def test_every_object_in_exactly_one_core(self, ds):
        parts = GridPartitioner(ds, 9).partitions()
        seen = []
        for p in parts:
            seen.extend(p.core_ids)
        assert sorted(seen) == list(range(len(ds)))

    def test_core_objects_inside_core_rect(self, ds):
        parts = GridPartitioner(ds, 4).partitions()
        for p in parts:
            x1, y1, x2, y2 = p.core
            for oid in p.core_ids:
                x, y = ds.location_of(oid)
                assert x1 - 1e-9 <= x <= x2 + 1e-9
                assert y1 - 1e-9 <= y <= y2 + 1e-9

    def test_zero_halo_no_replication(self, ds):
        parts = GridPartitioner(ds, 4).partitions()
        assert sum(len(p) for p in parts) == len(ds)


class TestStrip:
    def test_strip_holds_every_straddling_member(self):
        """A member of any group of diameter below the strip width that
        spans two regions lies in the strip — the merge's correctness
        condition — also for points outside the extent and after splits."""
        rng = random.Random(3)
        tiling = Tiling.grid([0.0, 100.0], [0.0, 100.0], 9)
        keep = Region(0.0, 0.0, 100.0 / 6, 100.0 / 3)
        tiling.regions[0] = keep
        tiling.regions.append(Region(100.0 / 6, 0.0, 100.0 / 3, 100.0 / 3))
        pts = np.array(
            [(rng.uniform(-5, 105), rng.uniform(-5, 105)) for _ in range(300)]
        )
        owner = [tiling.route(x, y) for x, y in pts]
        width = 12.0
        near = tiling.strip(pts, width)
        for i in range(len(pts)):
            for j in range(len(pts)):
                if owner[i] != owner[j] and math.dist(pts[i], pts[j]) < width:
                    assert near[i], (pts[i], pts[j])

    def test_strip_is_the_band_along_inner_edges(self):
        tiling = Tiling.grid([0.0, 100.0], [0.0, 100.0], 4)
        pts = np.array(
            [(49.0, 10.0), (10.0, 10.0), (10.0, 52.0), (0.0, 0.0), (100.0, 90.0),
             (50.0, 50.0), (-20.0, 49.5)]
        )
        assert tiling.strip(pts, 3.0).tolist() == [
            True, False, True, False, False, True, True,
        ]

    def test_wider_strip_holds_more(self, ds):
        tiling = GridPartitioner(ds, 9).tiling
        narrow = tiling.strip(ds.coords, 5.0)
        wide = tiling.strip(ds.coords, 20.0)
        assert wide.sum() > narrow.sum()
        assert not (narrow & ~wide).any()

    def test_single_region_has_no_strip(self):
        tiling = Tiling.grid([0.0, 100.0], [0.0, 100.0], 1)
        pts = np.array([(50.0, 50.0), (0.0, 0.0), (100.0, 100.0)])
        assert not tiling.strip(pts, 1e6).any()


class TestWorkerForBoundaries:
    """Point routing must agree with bulk partitioning everywhere --
    including points exactly on interior cell edges and extent corners
    (the shard router routes mutations through the same tiling and
    splits regions along these exact float boundaries)."""

    def _boundary_dataset(self):
        # Extent [0,100]^2 with a 2x2 grid: the interior edges sit at
        # exactly 50.0 on each axis.
        pts = [
            (0.0, 0.0), (100.0, 100.0),          # extent corners (min/max)
            (100.0, 0.0), (0.0, 100.0),          # the other corners
            (50.0, 50.0),                        # grid centre (both edges)
            (50.0, 0.0), (0.0, 50.0),            # interior edge endpoints
            (50.0, 100.0), (100.0, 50.0),
            (49.999999, 50.0), (50.000001, 50.0),  # straddling the edge
            (25.0, 75.0), (75.0, 25.0),          # cell interiors
        ]
        ds = Dataset(name="boundaries")
        for i, (x, y) in enumerate(pts):
            ds.add(x, y, ["t"])
        ds.finalize()
        return ds

    def test_point_routing_matches_bulk_partitioning(self):
        ds = self._boundary_dataset()
        grid = GridPartitioner(ds, 4)
        owner_by_bulk = {}
        for part in grid.partitions():
            for oid in part.core_ids:
                owner_by_bulk[oid] = part.worker_id
        assert len(owner_by_bulk) == len(ds)  # every object exactly once
        coords = ds.coords
        for oid in range(len(ds)):
            x, y = float(coords[oid, 0]), float(coords[oid, 1])
            assert grid.worker_for(x, y) == owner_by_bulk[oid], (oid, x, y)

    def test_interior_edges_belong_to_the_higher_cell(self):
        ds = self._boundary_dataset()
        grid = GridPartitioner(ds, 4)
        # x == 50 is the first column of the east cells, y == 50 the first
        # row of the north cells; the extent max edge clamps back inside.
        # Row-major cells: worker cy * 2 + cx owns cell (cx, cy).
        assert grid.worker_for(50.0, 0.0) == 1
        assert grid.worker_for(0.0, 50.0) == 2
        assert grid.worker_for(50.0, 50.0) == 3
        assert grid.worker_for(100.0, 100.0) == 3
        assert grid.worker_for(0.0, 0.0) == 0
        assert grid.worker_for(49.999999, 50.0) == 2

    def test_extent_corner_objects_round_trip_every_worker_count(self):
        ds = self._boundary_dataset()
        for n_workers in (1, 4, 9, 16):
            grid = GridPartitioner(ds, n_workers)
            owner_by_bulk = {}
            for part in grid.partitions():
                for oid in part.core_ids:
                    owner_by_bulk[oid] = part.worker_id
            coords = ds.coords
            for oid in range(len(ds)):
                x, y = float(coords[oid, 0]), float(coords[oid, 1])
                assert grid.worker_for(x, y) == owner_by_bulk[oid]
