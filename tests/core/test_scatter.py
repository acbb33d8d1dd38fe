"""scatter_merge: the one merge behind the shard router and the
distributed coordinator."""

import numpy as np
import pytest

from repro.core.engine import MCKEngine, ShardAnswer, run_shard_query
from repro.core.objects import Dataset
from repro.core.scatter import Region, Tiling, scatter_merge
from repro.exceptions import InfeasibleQueryError

#: Two regions split at x = 50 over the extent [0, 100]^2.
TILING = Tiling(
    0.0, 0.0, 100.0, 100.0,
    [Region(0.0, 0.0, 50.0, 100.0), Region(50.0, 0.0, 100.0, 100.0)],
)


def shard(records, algorithm="EXACT"):
    """A shard's answer to ``a b`` over ``(oid, x, y, keywords)`` records."""
    engine = MCKEngine(Dataset.seal(records))
    return run_shard_query(
        engine.context, engine.dataset, ["a", "b"], algorithm, 0.01, None,
        False, engine.kind,
    )


class TestScatterMerge:
    def test_straddler_at_the_edge_of_the_bound_is_found(self):
        # West's own best pair is 10 wide.  The straddling pair is 9.5
        # wide; its west member sits 6 from the edge, more than half the
        # bound away, and 9.5 from its only partner.
        west = shard([(0, 10.0, 10.0, ["a"]), (1, 10.0, 20.0, ["b"]),
                      (2, 44.0, 60.0, ["a"])])
        east = shard([(3, 53.5, 60.0, ["b"]), (4, 90.0, 90.0, ["c"])])
        merged = scatter_merge(["a", "b"], "EXACT", [west, east], TILING, 0.01, None)
        assert merged.group.object_ids == (2, 3)
        assert merged.group.diameter == pytest.approx(9.5)
        assert merged.group.quality == "exact"
        assert merged.strip_objects == 2

    def test_band_rows_without_a_partner_across_skip_the_solve(self):
        west = shard([(0, 10.0, 10.0, ["a"]), (1, 10.0, 20.0, ["b"]),
                      (2, 45.0, 60.0, ["a"])])
        east = shard([(3, 52.0, 90.0, ["b"])])  # 31 from oid 2
        merged = scatter_merge(["a", "b"], "EXACT", [west, east], TILING, 0.01, None)
        assert merged.group.object_ids == (0, 1)
        assert merged.strip_objects == 2  # both in the band, neither solved

    def test_rows_seen_twice_count_once(self):
        west = shard([(0, 48.0, 50.0, ["a"]), (1, 10.0, 10.0, ["b"])])
        east = shard([(2, 51.0, 50.0, ["b"])])
        copy = ShardAnswer(None, east.rows)  # a moved row, still in the source
        merged = scatter_merge(["a", "b"], "GKG", [west, east, copy], TILING, 0.01, None)
        assert merged.group.object_ids == (0, 2)
        assert merged.strip_objects == 3  # four rows shipped, oid 2 twice

    def test_infeasible_only_when_all_rows_miss_a_keyword(self):
        west = shard([(0, 10.0, 10.0, ["a"])])
        east = shard([(1, 90.0, 10.0, ["c"])])
        with pytest.raises(InfeasibleQueryError) as err:
            scatter_merge(["a", "b"], "EXACT", [west, east], TILING, 0.01, None)
        assert list(err.value.missing_keywords) == ["b"]
        assert west.group is None and east.group is None
        assert west.rows.oids.tolist() == [0]
        assert east.rows.oids.tolist() == []
        assert np.asarray(west.rows.masks).tolist() == [1]
