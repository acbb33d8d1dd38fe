"""Properties of the sharded live store.

For ANY interleaving of inserts, deletes, splits and queries, and ANY
shard count, :class:`~repro.replication.router.ReplicatedShardRouter`
without replicas (the plain sharded live store) must behave like a plain
model plus its documented routing rules:

1. **Content equivalence** — the union of per-shard live sets equals a
   brute-force model of the surviving records.
2. **Routing invariants** — every oid lives in its birth shard's
   disjoint stride range ``[shard * stride, (shard + 1) * stride)`` or,
   once a split moved it, in the shard its override names; and the shard
   that holds a point is the one whose region owns it now.
3. **Query equivalence** — an EXACT query returns the *global*
   brute-force optimum, tagged ``exact``, wherever the shard boundaries
   fall: placements crowd the grid's inner edges so optimal groups
   straddle them.  Infeasibility fires iff the whole model cannot cover
   the keywords.
"""

from __future__ import annotations

import math
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleQueryError
from repro.replication import ReplicatedShardRouter

#: Bootstrap records fixing the grid extent (and seeding every corner so
#: partitioning has a non-degenerate extent for any shard count).
BOOT = [
    (0.0, 0.0, ["a"]),
    (20.0, 20.0, ["b"]),
    (20.0, 0.0, ["c"]),
    (0.0, 20.0, ["a", "c"]),
]

_keywords = st.lists(
    st.sampled_from("abcd"), min_size=1, max_size=2, unique=True
)

#: Anywhere in the extent, or close to x = 10 / y = 10: the 2x2 grid's
#: inner edges and the first split line of a one-cell store.
_coordinate = st.one_of(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=9.0, max_value=11.0, allow_nan=False),
)

_op = st.one_of(
    st.tuples(st.just("insert"), _coordinate, _coordinate, _keywords),
    st.tuples(
        st.just("insert"),
        st.floats(min_value=9.0, max_value=11.0, allow_nan=False),
        st.floats(min_value=9.0, max_value=11.0, allow_nan=False),
        _keywords,
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("split"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("query"), _keywords),
)


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _brute_best(objects, keywords):
    """Brute force: the min-diameter feasible group of <= m objects.

    Returns ``(diameter, sorted oids)`` or None when infeasible.
    ``objects`` is ``{oid: (x, y, frozenset(kws))}``.
    """
    keywords = list(dict.fromkeys(keywords))
    m = len(keywords)
    oids = sorted(objects)
    best = None
    for size in range(1, m + 1):
        for combo in combinations(oids, size):
            covered = set()
            for oid in combo:
                covered |= objects[oid][2]
            if not set(keywords) <= covered:
                continue
            pts = [objects[oid][:2] for oid in combo]
            diam = max(
                (_dist(p, q) for p, q in combinations(pts, 2)), default=0.0
            )
            key = (diam, tuple(combo))
            if best is None or key < best:
                best = key
    return best


#: Records crowding the inner edges of a 2x2 grid over BOOT's extent.
_near_edge = st.tuples(
    st.floats(min_value=7.0, max_value=13.0, allow_nan=False),
    st.floats(min_value=7.0, max_value=13.0, allow_nan=False),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=2, unique=True),
)


class TestStraddlingGroupsMatchGlobalOptimum:
    @settings(max_examples=80, deadline=None)
    @given(
        n_shards=st.sampled_from([2, 4, 5, 9]),
        records=st.lists(_near_edge, min_size=2, max_size=14),
        splits=st.lists(st.integers(min_value=0, max_value=50), max_size=2),
        queries=st.lists(
            st.lists(st.sampled_from("abc"), min_size=2, max_size=3, unique=True),
            min_size=1,
            max_size=3,
        ),
        algorithm=st.sampled_from(["EXACT", "SKECa+", "GKG"]),
    )
    def test_global_optimum_across_region_edges(
        self, n_shards, records, splits, queries, algorithm
    ):
        from repro.core.common import quality_ratio_bound

        store = ReplicatedShardRouter(
            BOOT + records, n_shards=n_shards, replicas_per_shard=0
        )
        try:
            for pick in splits:
                shards = store.live_shard_ids()
                store.split_shard(shards[pick % len(shards)])
            model = {}
            for group in store.live_groups():
                for oid, x, y, kws in group.primary_engine.dataset.records():
                    model[oid] = (x, y, frozenset(kws))
            for keywords in queries:
                want = _brute_best(model, keywords)
                if want is None:
                    try:
                        store.query(keywords, algorithm=algorithm)
                        assert False, "expected InfeasibleQueryError"
                    except InfeasibleQueryError:
                        continue
                got = store.query(keywords, algorithm=algorithm)
                bound = quality_ratio_bound(got.quality, 0.01)
                assert got.diameter >= want[0] - 1e-9
                assert got.diameter <= bound * want[0] + 1e-9, (got, want)
                if algorithm == "EXACT":
                    assert got.quality == "exact"
                    assert abs(got.diameter - want[0]) < 1e-9
        finally:
            store.close()


class TestShardedStoreMatchesBruteForceTwin:
    @settings(max_examples=100, deadline=None)
    @given(
        n_shards=st.integers(min_value=1, max_value=5),
        ops=st.lists(_op, max_size=20),
    )
    def test_any_interleaving_any_shard_count(self, n_shards, ops):
        store = ReplicatedShardRouter(
            BOOT,
            n_shards=n_shards,
            replicas_per_shard=0,
            engine_kwargs={"auto_compact": False},
        )
        #: The brute-force twin: oid -> (x, y, frozenset(keywords)).
        model = {}
        inserted = []  # oids in insert order, for delete targeting
        try:
            for group in store.live_groups():
                for oid, x, y, kws in group.primary_engine.dataset.records():
                    model[oid] = (x, y, frozenset(kws))
            for op in ops:
                if op[0] == "insert":
                    _, x, y, kws = op
                    oid = store.insert(x, y, kws)
                    model[oid] = (x, y, frozenset(kws))
                    inserted.append(oid)
                elif op[0] == "delete":
                    if not inserted:
                        continue
                    oid = inserted.pop(op[1] % len(inserted))
                    store.delete(oid)
                    del model[oid]
                elif op[0] == "split":
                    shards = store.live_shard_ids()
                    store.split_shard(shards[op[1] % len(shards)])
                else:
                    _, keywords = op
                    want = _brute_best(model, keywords)
                    if want is None:
                        try:
                            store.query(keywords, algorithm="EXACT")
                            assert False, "expected InfeasibleQueryError"
                        except InfeasibleQueryError:
                            continue
                    got = store.query(keywords, algorithm="EXACT")
                    assert abs(got.diameter - want[0]) < 1e-9, (got, want)
                    assert got.quality == "exact"
                    covered = set()
                    for oid in got.object_ids:
                        covered |= model[oid][2]
                    assert set(keywords) <= covered

            # Content equivalence + routing invariants at the end.
            live = {}
            for shard in store.live_shard_ids():
                engine = store.groups[shard].primary_engine
                for oid, x, y, kws in engine.dataset.records():
                    birth = oid // store.oid_stride
                    assert birth == shard or store._moved_owner[oid] == shard
                    assert store.shard_of(oid) == shard
                    assert store.route(x, y) == shard
                    live[oid] = (x, y, frozenset(kws))
            assert live == model
        finally:
            store.close()
