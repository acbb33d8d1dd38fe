"""QueryService over a live engine: mutations through admission control
and cache revalidation after each write."""

import pytest

from repro import Dataset, MCKEngine
from repro.live import LiveMCKEngine
from repro.serving import QueryService

RECORDS = [
    (10.0, 10.0, ["shrine"]),
    (11.0, 10.5, ["shop"]),
    (10.5, 11.0, ["restaurant"]),
    (11.2, 11.2, ["hotel"]),
    (50.0, 50.0, ["shrine"]),
    (52.0, 50.0, ["shop"]),
]


@pytest.fixture()
def service():
    engine = LiveMCKEngine.from_records(RECORDS)
    with QueryService(engine, max_workers=2) as svc:
        yield svc
    engine.close()


class TestMutationPath:
    def test_insert_returns_oid_and_is_queryable(self, service):
        oid = service.insert(10.4, 10.4, ["cafe"])
        assert oid == len(RECORDS)
        result = service.query(["shrine", "cafe"], algorithm="EXACT")
        assert oid in result.group.object_ids

    def test_delete_through_admission(self, service):
        service.delete(1)
        result = service.query(["shrine", "shop"], algorithm="EXACT")
        assert 1 not in result.group.object_ids

    def test_submit_mutation_batch(self, service):
        future = service.submit_mutation(
            inserts=[(1.0, 1.0, ["a"]), (2.0, 2.0, ["b"])], deletes=[0]
        )
        oids = future.result(timeout=30)
        assert len(oids) == 2
        assert service.engine.dataset.get(0) is None

    def test_static_engine_rejects_mutations(self):
        engine = MCKEngine(Dataset.from_records(RECORDS, name="static"))
        with QueryService(engine, max_workers=1) as svc:
            with pytest.raises(TypeError):
                svc.insert(0.0, 0.0, ["x"])
            with pytest.raises(TypeError):
                svc.delete(0)

    def test_live_engine_incompatible_with_process_pool(self):
        engine = LiveMCKEngine.from_records(RECORDS)
        with pytest.raises(ValueError):
            QueryService(engine, process_algorithms=("EXACT",))
        engine.close()


def _fresh_exact(records, keywords):
    """A fresh engine's EXACT answer over ``records``."""
    with LiveMCKEngine.from_records(records) as fresh:
        return fresh.query(keywords, algorithm="EXACT")


class TestInvalidation:
    """A write drops a cached answer only when it could change it, and
    repairs one its insert beats.

    The cached ``[shrine, shop]`` answer is objects 0 and 1, diameter
    ~1.118.  A shop at (10.2, 10.2) sits 0.28 from shrine 0 and forms a
    smaller group, which replaces the answer; a shop at (30, 30) is ~28
    from every shrine and cannot.
    """

    NEAR_SHOP = (10.2, 10.2, ["shop"])
    FAR_SHOP = (30.0, 30.0, ["shop"])

    def test_mutation_invalidates_only_touching_keywords(self, service):
        service.query(["shrine", "shop"])
        service.query(["restaurant"])
        assert service.query(["shrine", "shop"]).stats.cache_hit
        assert service.query(["restaurant"]).stats.cache_hit
        near = service.insert(*self.NEAR_SHOP)
        repaired = service.query(["shrine", "shop"])
        assert repaired.stats.cache_hit
        fresh = _fresh_exact(RECORDS + [self.NEAR_SHOP], ["shrine", "shop"])
        assert repaired.group.object_ids == fresh.object_ids == (0, near)
        assert repaired.group.diameter == pytest.approx(fresh.diameter, rel=1e-12)
        service.delete(near)  # a member of the repaired answer
        assert not service.query(["shrine", "shop"]).stats.cache_hit
        assert service.query(["restaurant"]).stats.cache_hit

    def test_far_insert_keeps_entry_equal_to_fresh_answer(self, service):
        service.query(["shrine", "shop"], algorithm="EXACT")
        service.insert(*self.FAR_SHOP)
        kept = service.query(["shrine", "shop"], algorithm="EXACT")
        assert kept.stats.cache_hit
        fresh = LiveMCKEngine.from_records(RECORDS + [self.FAR_SHOP]).query(
            ["shrine", "shop"], algorithm="EXACT"
        )
        assert kept.group.object_ids == fresh.object_ids
        assert kept.group.diameter == fresh.diameter
        assert service.cache.stats()["revalidated"] == 1

    def test_delete_also_invalidates(self, service):
        service.query(["shrine", "shop"])
        service.delete(1)  # the shop in the cached answer
        assert not service.query(["shrine", "shop"]).stats.cache_hit

    def test_delete_of_non_member_keeps_entry(self, service):
        service.query(["shrine", "shop"])
        service.delete(5)  # a shop holder outside the cached answer
        assert service.query(["shrine", "shop"]).stats.cache_hit

    def test_generations_bumped_per_touched_keyword(self, service):
        service.insert(1.0, 1.0, ["cafe", "bar"])
        assert service.generations.generation("cafe") == 1
        assert service.generations.generation("bar") == 1
        assert service.generations.generation("shrine") == 0

    def test_invalidation_counter_reaches_metrics(self, service):
        service.query(["shrine", "shop"])
        service.delete(1)  # the shop in the cached answer
        service.query(["shrine", "shop"])  # misses: the write dropped it
        rendered = service.metrics.to_prometheus()
        assert "mck_cache_invalidations_total 1" in rendered
        service.insert(*self.FAR_SHOP)
        assert service.query(["shrine", "shop"]).stats.cache_hit
        near = service.insert(*self.NEAR_SHOP)
        repaired = service.query(["shrine", "shop"])
        assert repaired.stats.cache_hit
        assert repaired.group.object_ids == (0, near)
        rendered = service.metrics.to_prometheus()
        assert "mck_cache_invalidations_total 1" in rendered
        assert "mck_cache_revalidated_total 1" in rendered
        assert "mck_cache_repaired_total 1" in rendered
        assert service.cache.stats()["repaired"] == 1

    def test_conservation_identity_holds(self, service):
        for _ in range(3):
            service.query(["shrine", "shop"])
            service.query(["restaurant"])
            service.insert(*self.FAR_SHOP)
            service.insert(*self.NEAR_SHOP)
        st = service.cache.stats()
        assert st["invalidations"] >= 2
        assert st["revalidated"] >= 2
        assert st["inserts"] == (
            st["size"] + st["evictions"] + st["expirations"]
            + st["invalidations"]
        ), st


class TestLiveMetrics:
    def test_epoch_and_delta_gauges_published(self, service):
        service.insert(1.0, 1.0, ["x"])
        service.insert(2.0, 2.0, ["y"])
        rendered = service.metrics.to_prometheus()
        assert 'mck_live_epoch{shard="0"} 2' in rendered
        assert 'mck_delta_size{shard="0"} 2' in rendered

    def test_wal_counter_absent_without_wal(self, service):
        service.insert(1.0, 1.0, ["x"])
        rendered = service.metrics.to_prometheus()
        assert 'mck_wal_records_total{op="insert",shard="0"}' not in rendered

    def test_wal_counter_with_wal(self, tmp_path):
        engine = LiveMCKEngine.from_records(
            RECORDS, wal_path=str(tmp_path / "svc.wal")
        )
        with QueryService(engine, max_workers=1) as svc:
            svc.insert(1.0, 1.0, ["x"])
            svc.delete(0)
            rendered = svc.metrics.to_prometheus()
            assert 'mck_wal_records_total{op="insert",shard="0"} 1' in rendered
            assert 'mck_wal_records_total{op="delete",shard="0"} 1' in rendered
        engine.close()
