"""Sharded live store: routing, disjoint oid ranges, batch reassembly.

The sharded live store is :class:`ReplicatedShardRouter` without
replicas: one live primary per grid region.
"""

import pytest

from repro.exceptions import DatasetError, InfeasibleQueryError
from repro.replication import ReplicatedShardRouter

# Four spatial clusters, one per quadrant of a [0,100]^2 extent, so a
# 4-shard (2x2) grid puts each cluster in its own shard.
RECORDS = [
    (10.0, 10.0, ["shrine"]),
    (12.0, 10.0, ["shop"]),
    (90.0, 10.0, ["restaurant"]),
    (88.0, 12.0, ["shop"]),
    (10.0, 90.0, ["hotel"]),
    (90.0, 90.0, ["cafe"]),
    (0.0, 0.0, ["museum"]),
    (100.0, 100.0, ["bar"]),
]

STRIDE = 1 << 20  # small stride keeps test oids readable


def _store(records=RECORDS, **kwargs):
    return ReplicatedShardRouter(
        records, n_shards=4, replicas_per_shard=0, oid_stride=STRIDE, **kwargs
    )


def _sizes(store):
    return [store.shard_sizes()[gid] for gid in store.live_shard_ids()]


def _epochs(store):
    return [group.primary_engine.epoch for group in store.live_groups()]


@pytest.fixture()
def store():
    s = _store()
    yield s
    s.close()


class TestRouting:
    def test_bootstrap_objects_land_in_owner_shards(self, store):
        assert len(store) == len(RECORDS)
        assert sum(_sizes(store)) == len(RECORDS)
        for x, y, _kw in RECORDS:
            shard = store.route(x, y)
            assert shard in store.live_shard_ids()

    def test_insert_routes_by_location(self, store):
        sizes = _sizes(store)
        oid = store.insert(11.0, 11.0, ["temple"])
        shard = store.route(11.0, 11.0)
        assert store.shard_of(oid) == shard
        grown = _sizes(store)
        assert grown[shard] == sizes[shard] + 1
        assert sum(grown) == sum(sizes) + 1

    def test_oid_ranges_are_disjoint_per_shard(self, store):
        oids = [
            store.insert(x, y, ["probe"])
            for x, y in [(5.0, 5.0), (95.0, 5.0), (5.0, 95.0), (95.0, 95.0)]
        ]
        shards = [store.shard_of(oid) for oid in oids]
        assert len(set(shards)) == 4  # one insert per quadrant, per shard
        for oid in oids:
            assert store.shard_of(oid) == oid // STRIDE

    def test_delete_routes_to_owner(self, store):
        oid = store.insert(11.0, 11.0, ["temple"])
        store.delete(oid)
        with pytest.raises(DatasetError):
            store.shard_of(oid)
        with pytest.raises(DatasetError):
            store.delete(oid)

    def test_unknown_oid_raises(self, store):
        with pytest.raises(DatasetError):
            store.shard_of(10 * STRIDE + 7)


class TestBatch:
    def test_new_oids_come_back_in_insert_order(self, store):
        points = [(5.0, 5.0), (95.0, 95.0), (6.0, 6.0), (96.0, 5.0)]
        oids = store.apply_batch(
            inserts=[(x, y, ["probe"]) for x, y in points]
        )
        assert len(oids) == 4
        for oid, (x, y) in zip(oids, points):
            assert store.shard_of(oid) == store.route(x, y)

    def test_mixed_batch_updates_ownership(self, store):
        a = store.insert(5.0, 5.0, ["probe"])
        oids = store.apply_batch(
            inserts=[(95.0, 95.0, ["probe"])], deletes=[a]
        )
        assert len(oids) == 1
        with pytest.raises(DatasetError):
            store.shard_of(a)
        assert store.shard_of(oids[0]) == store.route(95.0, 95.0)

    def test_cross_shard_batch_touches_each_shard_once(self, store):
        before = _epochs(store)
        store.apply_batch(
            inserts=[(5.0, 5.0, ["probe"]), (6.0, 6.0, ["probe"]),
                     (95.0, 95.0, ["probe"])]
        )
        after = _epochs(store)
        bumps = [b - a for a, b in zip(before, after)]
        assert sorted(bumps) == [0, 0, 1, 1]  # two shards, one epoch each


class TestQuery:
    def test_single_shard_answer_is_exact(self, store):
        group = store.query(["shrine", "shop"], algorithm="EXACT")
        assert group.diameter == pytest.approx(2.0)

    def test_best_feasible_shard_wins(self, store):
        # "shop" exists in two shards; pair it with a keyword unique to
        # the north-west cluster and the tight pairing must win.
        store.insert(12.5, 10.5, ["restaurant"])
        group = store.query(["shop", "restaurant"], algorithm="EXACT")
        assert group.diameter < 3.0

    def test_infeasible_everywhere_raises(self, store):
        with pytest.raises(InfeasibleQueryError):
            store.query(["shrine", "unicorn"], algorithm="EXACT")

    def test_mutations_visible_to_queries(self, store):
        store.insert(10.5, 10.5, ["onsen"])
        group = store.query(["shrine", "onsen"], algorithm="EXACT")
        assert group.diameter < 1.5


class TestWalPerShard:
    def test_each_shard_recovers_its_own_wal(self, tmp_path, store):
        wal_dir = str(tmp_path)
        with _store(dir=wal_dir) as s:
            nw = s.insert(11.0, 11.0, ["temple"])
            se = s.insert(91.0, 11.0, ["temple"])
            total = len(s)
        with _store(dir=wal_dir) as s:
            assert len(s) == total
            # Recovered objects route back to their shards by oid range.
            assert s.shard_of(nw) == s.route(11.0, 11.0)
            assert s.shard_of(se) == s.route(91.0, 11.0)
            group = s.query(["shrine", "temple"], algorithm="EXACT")
            assert nw in group.object_ids


def test_empty_bootstrap_rejected():
    with pytest.raises(DatasetError):
        ReplicatedShardRouter([], n_shards=4, replicas_per_shard=0)


class TestDeterministicTieBreak:
    """Two shards holding equal-diameter feasible groups must not leave
    the winner to shard iteration order: the merge is (diameter, then
    lexicographic oids), so the same store answers identically no matter
    which shard produced its candidate first."""

    def _tied_store(self):
        # Identical-geometry pairs in the NW (shard 0) and SE (shard 1)
        # cells of the 2x2 grid: both cover {"tea", "soup"} at diameter
        # exactly 2.0.
        records = RECORDS + [
            (10.0, 10.0, ["tea"]),
            (12.0, 10.0, ["soup"]),
            (90.0, 10.0, ["tea"]),
            (88.0, 10.0, ["soup"]),
        ]
        return _store(records)

    def test_lowest_oid_group_wins_the_tie(self):
        with self._tied_store() as store:
            group = store.query(["tea", "soup"], algorithm="EXACT")
            assert group.diameter == pytest.approx(2.0)
            # Shard 0's oid range starts below shard 1's: the tie must
            # resolve to the lexicographically smaller oid tuple.
            assert all(oid < STRIDE for oid in group.object_ids)

    def test_answer_stable_across_repeated_queries(self):
        with self._tied_store() as store:
            first = store.query(["tea", "soup"], algorithm="EXACT")
            for _ in range(5):
                again = store.query(["tea", "soup"], algorithm="EXACT")
                assert again.object_ids == first.object_ids
                assert again.diameter == first.diameter

    def test_mutation_cannot_flip_an_equal_tie(self):
        # Inserting yet another equal-diameter pair in a *higher* shard
        # must not steal the answer from the lower-oid incumbent.
        with self._tied_store() as store:
            first = store.query(["tea", "soup"], algorithm="EXACT")
            store.insert(10.0, 90.0, ["tea"])
            store.insert(12.0, 90.0, ["soup"])
            again = store.query(["tea", "soup"], algorithm="EXACT")
            assert again.object_ids == first.object_ids
