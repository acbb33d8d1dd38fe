"""ReplicatedShardRouter: scatter-gather, partial merges, live splits,
and the duck-typed serving surface."""

from __future__ import annotations

import random

import pytest

from repro.core.common import QUALITY_PARTIAL
from repro.exceptions import DatasetError, InfeasibleQueryError
from repro.live import LiveMCKEngine
from repro.replication import ReplicatedShardRouter

VOCAB = ["a", "b", "c", "d", "e"]


def _records(n=60, seed=1, extent=100.0):
    rng = random.Random(seed)
    recs = [
        (
            rng.uniform(0, extent),
            rng.uniform(0, extent),
            rng.sample(VOCAB, 2),
        )
        for _ in range(n)
    ]
    # Pin the extent corners so the grid covers the full square.
    recs.append((0.0, 0.0, ["a"]))
    recs.append((extent, extent, ["b"]))
    return recs


@pytest.fixture
def router():
    with ReplicatedShardRouter(
        _records(), n_shards=4, replicas_per_shard=1
    ) as r:
        yield r


class TestRouting:
    def test_points_route_to_disjoint_total_regions(self, router):
        rng = random.Random(7)
        for _ in range(200):
            x, y = rng.uniform(-10, 110), rng.uniform(-10, 110)
            gid = router.route(x, y)  # clamped, total
            assert router.groups[gid] is not None

    def test_insert_goes_to_owning_shard_and_delete_follows_oid(self, router):
        oid = router.insert(99.0, 99.0, ["e"])
        gid = router.shard_of(oid)
        assert gid == router.route(99.0, 99.0)
        router.delete(oid)
        with pytest.raises(DatasetError):
            router.shard_of(oid)

    def test_apply_batch_preserves_caller_order(self, router):
        oids = router.apply_batch(
            inserts=[(1.0, 1.0, ["a"]), (99.0, 99.0, ["b"]), (1.0, 99.0, ["c"])]
        )
        assert len(oids) == 3
        assert router.shard_of(oids[0]) == router.route(1.0, 1.0)
        assert router.shard_of(oids[1]) == router.route(99.0, 99.0)
        assert router.shard_of(oids[2]) == router.route(1.0, 99.0)


class TestScatterGather:
    def test_matches_single_engine_when_best_group_is_local(self):
        # A tight cluster inside one region: the optimal group is wholly
        # local to one shard, so scatter-gather must equal a single engine.
        recs = _records(40, seed=3)
        recs += [
            (10.0, 10.0, ["x"]),
            (10.5, 10.5, ["y"]),
            (11.0, 10.0, ["z"]),
        ]
        twin = LiveMCKEngine.from_records(recs)
        try:
            with ReplicatedShardRouter(recs, n_shards=4) as router:
                for algorithm in ["GKG", "SKECa+", "EXACT"]:
                    got = router.query(["x", "y", "z"], algorithm=algorithm)
                    want = twin.query(["x", "y", "z"], algorithm=algorithm)
                    assert got.diameter == pytest.approx(want.diameter)
                    assert sorted(got.object_ids) != []  # oids differ by stride
                    assert got.stats["shards_answered"] >= 1
        finally:
            twin.close()

    def test_merge_is_deterministic_across_runs(self, router):
        first = router.query(["a", "b"], algorithm="GKG")
        for _ in range(5):
            again = router.query(["a", "b"], algorithm="GKG")
            assert again.object_ids == first.object_ids
            assert again.diameter == first.diameter

    def test_all_shards_infeasible_raises_with_union_of_missing(self, router):
        with pytest.raises(InfeasibleQueryError) as err:
            router.query(["a", "nosuchword"], algorithm="GKG")
        assert "nosuchword" in err.value.missing_keywords

    def test_aggressive_deadline_degrades_to_partial(self, router):
        # The deadline is far too small for EXACT on every shard, but the
        # wait() harvest keeps whatever finished: the answer must come
        # back tagged partial instead of erroring (as long as any shard
        # answered) or raise AlgorithmTimeout (none answered) -- never a
        # crash, never a silent exact tag.
        from repro.exceptions import AlgorithmTimeout

        try:
            group = router.query(["a", "b"], algorithm="EXACT", timeout=1e-9)
        except AlgorithmTimeout:
            return
        assert group.quality == QUALITY_PARTIAL
        assert group.stats["shards_missed"] >= 1
        assert group.degraded

    def test_fanout_stats_present(self, router):
        group = router.query(["a", "b"], algorithm="GKG")
        assert group.stats["fanout_shards"] == 4.0
        assert group.stats["shards_answered"] >= 1.0

    def test_explain_reports_scatter_engine(self, router):
        group = router.query(["a", "b"], algorithm="GKG", explain=True)
        assert group.explain_report["execution"]["engine"] == "scatter"
        assert group.explain_report["outcome"]["status"] == "ok"

    def test_explain_without_instrumentation_reports_fanout(self, router):
        # No instrumentation passed: the router builds a private one, as
        # the engines do, so the report still carries counters and times.
        group = router.query(["a", "b"], algorithm="GKG", explain=True)
        report = group.explain_report
        counters = report["counters"]["other"]
        assert counters["fanout_shards"] == 4.0
        assert counters["fanout_answered"] == group.stats["shards_answered"]
        timings = report["timings"]
        assert timings["context_seconds"] == 0.0
        assert timings["algorithm_seconds"] > 0.0
        assert timings["total_seconds"] == timings["algorithm_seconds"]


class TestSplit:
    def test_split_preserves_answers_and_moves_objects(self):
        recs = _records(80, seed=5)
        with ReplicatedShardRouter(recs, n_shards=4) as router:
            sizes = router.shard_sizes()
            hot = max(sizes, key=lambda g: sizes[g])
            before = router.query(["a", "b"], algorithm="GKG")
            total = len(router)
            report = router.split_shard(hot)
            assert report.moved_objects > 0
            assert len(router) == total
            assert len(router.groups[hot]) == sizes[hot] - report.moved_objects
            after = router.query(["a", "b"], algorithm="GKG")
            assert after.object_ids == before.object_ids
            assert after.diameter == pytest.approx(before.diameter)

    def test_split_shard_keeps_mutations_routable(self):
        with ReplicatedShardRouter(_records(60, seed=6), n_shards=1) as router:
            report = router.split_shard(0)
            # A moved oid's delete reaches the new owner.
            moved_oid = next(iter(router._moved_owner))
            assert router.shard_of(moved_oid) == report.new_shard
            router.delete(moved_oid)
            # New inserts in the moved region land on the new shard.
            mid_x = (report.move_region.x1 + report.move_region.x2) / 2
            mid_y = (report.move_region.y1 + report.move_region.y2) / 2
            oid = router.insert(mid_x, mid_y, ["e"])
            assert router.shard_of(oid) == report.new_shard

    def test_maybe_split_honors_threshold(self):
        with ReplicatedShardRouter(
            _records(40, seed=7), n_shards=4, split_threshold=10 ** 6
        ) as router:
            assert router.maybe_split() is None

    def test_split_with_replicas_ships_to_new_group(self):
        with ReplicatedShardRouter(
            _records(60, seed=8), n_shards=1, replicas_per_shard=1
        ) as router:
            report = router.split_shard(0)
            router.sync_replicas()
            new_group = router.groups[report.new_shard]
            assert len(new_group.replicas[0].engine) == len(new_group)


class TestServingSurface:
    def test_router_view_spans_shards(self, router):
        view = router.dataset
        assert len(view) == len(router)
        oid = router.insert(50.0, 50.0, ["a", "e"])
        view = router.dataset
        assert view[oid].oid == oid
        assert oid in view
        assert view.get(10 ** 15) is None
        with pytest.raises(KeyError):
            view[10 ** 15]
        assert "e" in view.vocabulary
        assert view.vocabulary.frequency("a") >= 1
        assert not hasattr(view, "columns")

    def test_query_service_integration(self, router):
        from repro.serving import QueryService
        from repro.serving.stats import MetricsRegistry

        registry = MetricsRegistry()
        with QueryService(router, metrics=registry, max_workers=2) as service:
            result = service.query(["a", "b"], algorithm="GKG", explain=True)
            assert result.ok
            assert result.explain["execution"]["engine"] == "scatter"
            oids = service.submit_mutation(
                inserts=[(42.0, 42.0, ["a", "b"])]
            ).result()
            assert router.shard_of(oids[0]) == router.route(42.0, 42.0)
            rendered = registry.to_prometheus()
            assert 'mck_fanout_shards_total{outcome="answered"}' in rendered

    def test_query_service_repairs_cached_answers(self):
        from repro.serving import QueryService

        with ReplicatedShardRouter(
            _records(), n_shards=4, replicas_per_shard=0
        ) as router, QueryService(router, max_workers=2) as service:
            p = router.insert(60.0, 60.0, ["p"])
            q = router.insert(90.0, 90.0, ["q"])
            assert service.query(["p", "q"], "EXACT").group.object_ids == (p, q)
            near = service.insert(85.0, 85.0, ["p"])
            hit = service.query(["p", "q"], "EXACT")
            assert hit.stats.cache_hit
            assert hit.group.object_ids == tuple(sorted((near, q)))
            assert hit.group.diameter == pytest.approx(50 ** 0.5, rel=1e-12)
            both = service.insert(20.0, 20.0, ["p", "q"])
            hit = service.query(["p", "q"], "EXACT")
            assert hit.stats.cache_hit and hit.group.object_ids == (both,)
            assert service.cache.stats()["repaired"] == 2

    def test_mutation_listeners_fire_across_shards(self, router):
        events = []
        router.add_mutation_listener(
            lambda mutations: events.extend((m.op, m.oid) for m in mutations)
        )
        a = router.insert(1.0, 1.0, ["a"])
        b = router.insert(99.0, 99.0, ["b"])
        assert ("insert", a) in events and ("insert", b) in events
        router.remove_mutation_listener(events.append)  # unknown: no-op

    def test_lag_metrics_published(self):
        from repro.serving.stats import MetricsRegistry

        registry = MetricsRegistry()
        with ReplicatedShardRouter(
            _records(30, seed=9),
            n_shards=2,
            replicas_per_shard=1,
            metrics=registry,
        ) as router:
            router.insert(1.0, 1.0, ["a"])
            router.sync_replicas()
            rendered = registry.to_prometheus()
            assert 'mck_replication_lag_records{replica="0",shard="0"}' in rendered
            assert 'mck_replication_lag_seconds{replica="0",shard="0"}' in rendered
            assert "mck_shard_objects" in rendered


def test_router_counters_repeat_across_runs():
    """Two runs of one 4-shard router over the same 110 SKECa+ queries
    report identical search counters: each shard's concurrent fan-out
    computes its covering circles independently of the others."""
    from repro.datasets.queries import generate_queries
    from repro.datasets.synthetic import make_ny_like

    dataset = make_ny_like(scale=0.05)
    records = [(o.x, o.y, sorted(o.keywords)) for o in dataset]
    queries, seen, seed = [], set(), 0
    while len(queries) < 110:
        for query in generate_queries(dataset, 3, 40, seed=seed):
            if frozenset(query.keywords) not in seen and len(queries) < 110:
                seen.add(frozenset(query.keywords))
                queries.append(list(query.keywords))
        seed += 1
    with ReplicatedShardRouter(records, n_shards=4, replicas_per_shard=0) as router:
        runs = [
            [
                (g.object_ids, g.stats.get("binary_steps"), g.stats.get("circle_scans"))
                for g in (router.query(q, "SKECa+") for q in queries)
            ]
            for _ in range(2)
        ]
    assert sum(steps or 0 for _ids, steps, _scans in runs[0]) > 0
    assert runs[0] == runs[1]
