"""Tests for MCKQuery compilation and the QueryContext substrate."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.objects import Dataset
from repro.core.query import MCKQuery, compile_query
from repro.exceptions import DatasetError, InfeasibleQueryError, QueryError


@pytest.fixture
def ds():
    return Dataset.from_records(
        [
            (0, 0, ["a"]),       # 0
            (1, 0, ["b"]),       # 1
            (0, 1, ["c"]),       # 2
            (10, 10, ["a", "b"]),  # 3
            (11, 10, ["c"]),     # 4
            (50, 50, ["d"]),     # 5
        ]
    )


class TestMCKQuery:
    def test_dedupes_keywords_preserving_order(self):
        q = MCKQuery(["x", "y", "x", "z"])
        assert q.keywords == ("x", "y", "z")
        assert q.m == 3

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            MCKQuery([])

    def test_iterable(self):
        assert list(MCKQuery(["a", "b"])) == ["a", "b"]


class TestCompileQuery:
    def test_unknown_keyword_infeasible(self, ds):
        with pytest.raises(InfeasibleQueryError):
            compile_query(ds, ["a", "nope"])

    def test_relevant_set(self, ds):
        ctx = compile_query(ds, ["a", "b"])
        assert ctx.relevant_ids == [0, 1, 3]

    def test_masks_query_local(self, ds):
        ctx = compile_query(ds, ["b", "a"])
        # bit 0 = 'b', bit 1 = 'a'
        assert ctx.masks[ctx.row_of(1)] == 0b01
        assert ctx.masks[ctx.row_of(0)] == 0b10
        assert ctx.masks[ctx.row_of(3)] == 0b11

    def test_full_mask(self, ds):
        ctx = compile_query(ds, ["a", "b", "c"])
        assert ctx.full_mask == 0b111

    def test_t_inf_is_least_frequent(self, ds):
        # 'd' appears once, 'a' twice.
        ctx = compile_query(ds, ["a", "d"])
        assert ctx.t_inf == "d"
        assert ctx.t_inf_bit == 0b10

    def test_accepts_query_object(self, ds):
        ctx = compile_query(ds, MCKQuery(["a", "c"]))
        assert ctx.m == 2

    def test_unfinalized_dataset_is_an_error_not_infeasible(self):
        dataset = Dataset()
        dataset.add(1, 2, ["a"])
        with pytest.raises(DatasetError, match="not finalized"):
            compile_query(dataset, ["a"])
        dataset.finalize()
        assert compile_query(dataset, ["a"]).relevant_ids == [0]

    def test_masks_past_64_keywords(self):
        vocab = [f"w{i}" for i in range(70)]
        records = [(float(i), 0.0, vocab[i : i + 3]) for i in range(68)]
        ctx = compile_query(Dataset.from_records(records), vocab)
        assert ctx.virtual_tree.masks_np is None
        for row, oid in enumerate(ctx.relevant_ids):
            want = sum(1 << vocab.index(t) for t in records[oid][2])
            assert ctx.masks[row] == want and type(ctx.masks[row]) is int


class TestContextHelpers:
    def test_rows_with_bit(self, ds):
        ctx = compile_query(ds, ["a", "b"])
        a_rows = ctx.rows_with_bit(1)
        assert sorted(ctx.relevant_ids[r] for r in a_rows) == [0, 3]

    def test_rows_within(self, ds):
        ctx = compile_query(ds, ["a", "b", "c"])
        rows = ctx.rows_within(0.0, 0.0, 1.2)
        assert sorted(ctx.relevant_ids[r] for r in rows) == [0, 1, 2]

    def test_covers(self, ds):
        ctx = compile_query(ds, ["a", "b", "c"])
        r3, r4 = ctx.row_of(3), ctx.row_of(4)
        assert ctx.covers([r3, r4])
        assert not ctx.covers([r3])

    def test_group_diameter_rows(self, ds):
        ctx = compile_query(ds, ["a", "b", "c"])
        r0, r1, r2 = ctx.row_of(0), ctx.row_of(1), ctx.row_of(2)
        assert ctx.group_diameter_rows([r0]) == 0.0
        assert ctx.group_diameter_rows([r0, r1, r2]) == pytest.approx(2**0.5)

    def test_distances_from_row(self, ds):
        ctx = compile_query(ds, ["a", "b"])
        d = ctx.distances_from_row(ctx.row_of(0))
        assert d[ctx.row_of(0)] == 0.0
        assert d[ctx.row_of(1)] == pytest.approx(1.0)


class TestPoleCache:
    # Radius 100 covers the whole fixture, so each cache holds all of O'.
    def test_sorted_distances(self, ds):
        ctx = compile_query(ds, ["a", "b", "c"])
        cache = ctx.pole_cache_bounded(ctx.row_of(0), 100.0)
        assert list(cache.dists) == sorted(cache.dists)
        assert cache.dists[0] == 0.0  # the pole itself

    def test_prefix_union_monotone(self, ds):
        ctx = compile_query(ds, ["a", "b", "c"])
        cache = ctx.pole_cache_bounded(ctx.row_of(0), 100.0)
        acc = 0
        for i in range(1, len(cache.prefix_union)):
            assert int(cache.prefix_union[i]) & acc == acc
            acc = int(cache.prefix_union[i])

    def test_rows_within_closed(self, ds):
        ctx = compile_query(ds, ["a", "b"])
        cache = ctx.pole_cache_bounded(ctx.row_of(0), 100.0)
        rows = set(int(r) for r in cache.rows_within(1.0))
        assert ctx.row_of(1) in rows  # distance exactly 1

    def test_union_within_matches_bruteforce(self, ds):
        ctx = compile_query(ds, ["a", "b", "c"])
        pole = ctx.row_of(3)
        cache = ctx.pole_cache_bounded(pole, 100.0)
        for radius in (0.5, 1.5, 20.0, 100.0):
            expected = ctx.union_mask(ctx.rows_within(10.0, 10.0, radius))
            assert int(cache.union_within(radius)) == expected

    def test_cache_reused(self, ds):
        ctx = compile_query(ds, ["a", "b"])
        c1 = ctx.pole_cache_bounded(0, 100.0)
        c2 = ctx.pole_cache_bounded(0, 100.0)
        assert c1 is c2


class TestCoverRadii:
    def test_values_match_definition(self, ds):
        ctx = compile_query(ds, ["a", "b", "c"])
        radii = ctx.cover_radii
        coords = ctx.coords
        for row in range(len(ctx.relevant_ids)):
            expected = 0.0
            for bit_pos in range(ctx.m):
                bit = 1 << bit_pos
                nearest = min(
                    float(np.hypot(*(coords[r] - coords[row])))
                    for r, msk in enumerate(ctx.masks)
                    if msk & bit
                )
                expected = max(expected, nearest)
            assert radii[row] == pytest.approx(expected)

    def test_cached(self, ds):
        ctx = compile_query(ds, ["a", "b"])
        assert ctx.cover_radii is ctx.cover_radii

    def test_keyword_tree_holders(self, ds):
        ctx = compile_query(ds, ["a", "b"])
        _tree, holders = ctx.keyword_tree(0)  # bit 0 = 'a'
        assert sorted(ctx.relevant_ids[r] for r in holders) == [0, 3]


class TestImportCost:
    def test_kd_tree_module_loads_before_the_first_query(self):
        # The first SKECa+/GKG query must not pay for importing scipy.spatial.
        script = (
            "import sys\n"
            "from repro import Dataset, MCKEngine\n"
            "MCKEngine(Dataset.from_records([(0, 0, ['a']), (1, 1, ['b'])]))\n"
            "print('scipy.spatial' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "True"
