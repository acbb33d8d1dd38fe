"""Properties of the sharded live store.

For ANY interleaving of inserts, deletes and queries, and ANY shard
count, :class:`~repro.replication.router.ReplicatedShardRouter` without
replicas (the plain sharded live store) must behave like a plain model
plus its documented routing rules:

1. **Content equivalence** — the union of per-shard live sets equals a
   brute-force model of the surviving records.
2. **Routing invariants** — every oid lives inside its birth shard's
   disjoint stride range ``[shard * stride, (shard + 1) * stride)``, and
   the engine that holds it is the one owning the point's grid cell at
   bootstrap/insert time.
3. **Query equivalence** — an EXACT query returns exactly the best
   per-shard feasible group: its diameter equals the minimum over shards
   of the shard-local brute-force optimum (the store's documented
   semantics), ties broken by (diameter, sorted oids); infeasibility
   fires iff no shard can cover the keywords.
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

_op = st.one_of(
    st.tuples(
        st.just("insert"),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        _keywords,
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("query"), _keywords),
)


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _brute_best(objects, keywords):
    """Shard-local brute force: min-diameter feasible group of <= m objects.

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


class TestShardedStoreMatchesBruteForceTwin:
    @settings(max_examples=40, deadline=None)
    @given(
        n_shards=st.integers(min_value=1, max_value=5),
        ops=st.lists(_op, max_size=14),
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
                else:
                    _, keywords = op
                    by_shard = {}
                    for oid, rec in model.items():
                        by_shard.setdefault(oid // store.oid_stride, {})[
                            oid
                        ] = rec
                    bests = [
                        b
                        for b in (
                            _brute_best(objs, keywords)
                            for objs in by_shard.values()
                        )
                        if b is not None
                    ]
                    if not bests:
                        try:
                            store.query(keywords, algorithm="EXACT")
                            assert False, "expected InfeasibleQueryError"
                        except InfeasibleQueryError:
                            continue
                    want_diam, _want_oids = min(bests)
                    got = store.query(keywords, algorithm="EXACT")
                    assert abs(got.diameter - want_diam) < 1e-9
                    covered = set()
                    for oid in got.object_ids:
                        covered |= model[oid][2]
                    assert set(keywords) <= covered

            # Content equivalence + routing invariants at the end.
            live = {}
            for shard in store.live_shard_ids():
                engine = store.groups[shard].primary_engine
                lo = shard * store.oid_stride
                hi = (shard + 1) * store.oid_stride
                for oid, x, y, kws in engine.dataset.records():
                    assert lo <= oid < hi, (oid, shard)
                    assert store.shard_of(oid) == shard
                    live[oid] = (x, y, frozenset(kws))
            assert live == model
        finally:
            store.close()
