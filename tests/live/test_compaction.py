"""Compactor: triggers, answer preservation, racing writers, faults."""

import threading

import numpy as np
import pytest

from repro.index.columns import ColumnarStore
from repro.live import LiveMCKEngine
from repro.testing import faults

RECORDS = [
    (0.0, 0.0, ["shrine"]),
    (1.0, 1.0, ["shop"]),
    (2.0, 0.5, ["restaurant"]),
    (40.0, 40.0, ["hotel"]),
]


def _engine(**kwargs):
    kwargs.setdefault("auto_compact", False)
    return LiveMCKEngine.from_records(RECORDS, **kwargs)


class TestTriggers:
    def test_threshold_trigger(self):
        with _engine(compact_threshold=3, compact_ratio=0.0) as engine:
            comp = engine.compactor
            engine.insert(5.0, 5.0, ["a"])
            engine.insert(6.0, 6.0, ["a"])
            assert not comp.should_compact(engine.snapshot())
            engine.insert(7.0, 7.0, ["a"])
            assert comp.should_compact(engine.snapshot())

    def test_ratio_trigger_respects_min_delta_floor(self):
        with _engine(compact_threshold=1000, compact_ratio=0.5) as engine:
            comp = engine.compactor
            comp.min_delta = 3
            engine.insert(5.0, 5.0, ["a"])
            engine.insert(6.0, 6.0, ["a"])
            # 2 >= 0.5 * 4 but below the min_delta floor.
            assert not comp.should_compact(engine.snapshot())
            engine.insert(7.0, 7.0, ["a"])
            assert comp.should_compact(engine.snapshot())

    def test_empty_delta_never_compacts(self):
        with _engine() as engine:
            assert not engine.compactor.should_compact(engine.snapshot())
            assert engine.compact() is False  # force on empty is still a no-op

    def test_auto_compaction_fires_inline(self):
        engine = LiveMCKEngine.from_records(
            RECORDS, compact_threshold=2, compact_ratio=0.0, auto_compact=True
        )
        engine.insert(5.0, 5.0, ["a"])
        assert engine.delta_size == 1
        engine.insert(6.0, 6.0, ["a"])  # hits the threshold post-publish
        assert engine.delta_size == 0
        assert engine.compactor.compactions == 1
        engine.close()


class TestFolding:
    def test_answers_preserved_and_delta_drops(self):
        with _engine() as engine:
            engine.insert(0.5, 0.5, ["cafe"])
            engine.delete(1)
            before = engine.query(["shrine", "cafe"], algorithm="EXACT")
            assert engine.compact() is True
            assert engine.delta_size == 0
            after = engine.query(["shrine", "cafe"], algorithm="EXACT")
            assert sorted(after.object_ids) == sorted(before.object_ids)
            assert after.diameter == pytest.approx(before.diameter)
            # The folded base owns the objects now.
            assert 4 in engine.snapshot().base
            assert 1 not in engine.snapshot().base

    def test_compaction_publishes_one_epoch(self):
        with _engine() as engine:
            engine.insert(5.0, 5.0, ["a"])
            epoch = engine.epoch
            engine.compact()
            assert engine.epoch == epoch + 1

    def test_pinned_reader_survives_compaction(self):
        with _engine() as engine:
            engine.insert(5.0, 5.0, ["a"])
            with engine.pin() as snapshot:
                engine.compact()
                # The pinned pre-compaction snapshot still answers.
                assert snapshot.view().get(4) is not None
                assert snapshot.delta.size == 1
            assert engine.snapshot().delta.is_empty()

    def test_oid_allocation_survives_compaction(self):
        with _engine() as engine:
            a = engine.insert(5.0, 5.0, ["a"])
            engine.compact()
            b = engine.insert(6.0, 6.0, ["a"])
            assert b == a + 1


    def test_new_base_is_handed_its_columns(self):
        """The compacted base's store is folded from the old one, equal to
        what the lazy build would produce (delta-only terms included)."""
        with _engine() as engine:
            engine.insert(5.0, 5.0, ["cafe", "shop"])
            engine.insert(6.0, 1.0, ["bar"])
            engine.delete(1)
            assert engine.compact()
            base = engine.snapshot().base
            installed = base.columns
            want = ColumnarStore.from_rows(
                (obj.oid, obj.x, obj.y, base.term_ids_of(obj.oid)) for obj in base
            )
            for name in ("oids", "xs", "ys", "term_indptr", "term_ids"):
                assert np.array_equal(getattr(installed, name), getattr(want, name))


class TestConcurrentMutation:
    def test_mutations_during_seal_survive_as_residual(self):
        """A write landing while the compactor seals is rebased, not lost."""
        with _engine() as engine:
            engine.insert(5.0, 5.0, ["cafe"])
            started = threading.Event()
            # The fault site fires after the compactor snapshots but before
            # it seals; a delay there holds the seal open long enough for
            # the main thread to publish more mutations.
            fault = faults.arm(
                "serving.live.compaction", delay=0.3, times=1
            )
            try:
                def run():
                    started.set()
                    engine.compact()

                thread = threading.Thread(target=run)
                thread.start()
                started.wait(5)
                mid_oid = engine.insert(6.0, 6.0, ["bar"])
                engine.delete(1)
                thread.join(timeout=30)
            finally:
                faults.disarm(fault)
            assert engine.compactor.compactions == 1
            view = engine.dataset
            assert view.get(mid_oid) is not None, "mid-compaction insert lost"
            assert view.get(1) is None, "mid-compaction delete resurrected"
            assert view.get(4) is not None  # pre-compaction insert folded


class TestFaultInjection:
    def test_injected_failure_aborts_and_store_serves_on(self):
        with _engine() as engine:
            engine.insert(0.5, 0.5, ["cafe"])
            with faults.injected(
                "serving.live.compaction",
                error=IndexError("injected"), times=1,
            ):
                assert engine.compact() is False
            assert engine.compactor.failures == 1
            assert engine.delta_size == 1  # nothing was folded
            group = engine.query(["shrine", "cafe"], algorithm="EXACT")
            assert 4 in group.object_ids
            # The next, disarmed attempt succeeds.
            assert engine.compact() is True
            assert engine.delta_size == 0

    def test_failure_counters_reach_metrics(self):
        from repro.serving.stats import MetricsRegistry
        metrics = MetricsRegistry()
        engine = LiveMCKEngine.from_records(
            RECORDS, auto_compact=False, metrics=metrics
        )
        engine.insert(0.5, 0.5, ["cafe"])
        with faults.injected(
            "serving.live.compaction", error=IndexError("injected"), times=1
        ):
            engine.compact()
        engine.compact()
        rendered = metrics.to_prometheus()
        assert 'mck_compactions_total{outcome="failed",shard="0"} 1' in rendered
        assert 'mck_compactions_total{outcome="ok",shard="0"} 1' in rendered
        engine.close()


class TestBackgroundThread:
    def test_background_compactor_folds_eventually(self):
        engine = LiveMCKEngine.from_records(
            RECORDS,
            compact_threshold=3,
            compact_ratio=0.0,
            auto_compact=True,
            background_compaction=True,
        )
        try:
            for i in range(5):
                engine.insert(float(i), float(i), ["a"])
            deadline = threading.Event()
            for _ in range(100):
                if engine.compactor.compactions >= 1:
                    break
                deadline.wait(0.05)
            assert engine.compactor.compactions >= 1
            assert engine.delta_size < 5
        finally:
            engine.close()

    def test_stop_is_idempotent(self):
        engine = LiveMCKEngine.from_records(
            RECORDS, background_compaction=True
        )
        engine.close()
        engine.compactor.stop()  # second stop is a no-op
        assert engine.compactor._thread is None
