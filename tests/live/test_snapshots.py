"""Epoch manager: atomic publish, reader pins, drain-then-retire."""

from repro.core.objects import Dataset
from repro.live.delta import DeltaOverlay
from repro.live.snapshots import EpochManager, Snapshot


def _manager(on_retire=None):
    base = Dataset.seal([(0, 0.0, 0.0, ["a"])], name="snap-test")
    return EpochManager(Snapshot(0, base, DeltaOverlay()), on_retire=on_retire), base


class TestPublish:
    def test_epochs_are_monotone(self):
        mgr, base = _manager()
        assert mgr.epoch == 0
        s1 = mgr.publish(base, DeltaOverlay())
        s2 = mgr.publish(base, DeltaOverlay())
        assert (s1.epoch, s2.epoch) == (1, 2)
        assert mgr.current() is s2

    def test_unpinned_supersede_retires_immediately(self):
        mgr, base = _manager()
        mgr.publish(base, DeltaOverlay())
        assert mgr.retired_epochs() == [0]

    def test_current_epoch_never_retires_on_unpin(self):
        mgr, _base = _manager()
        guard = mgr.pin()
        guard.release()
        assert mgr.retired_epochs() == []


class TestPins:
    def test_pin_holds_snapshot_across_publish(self):
        mgr, base = _manager()
        with mgr.pin() as snapshot:
            mgr.publish(base, DeltaOverlay())
            assert snapshot.epoch == 0
            assert mgr.epoch == 1
            assert mgr.pinned_epochs() == [0]
            assert mgr.retired_epochs() == []
        assert mgr.pinned_epochs() == []
        assert mgr.retired_epochs() == [0]

    def test_refcount_drains_before_retirement(self):
        mgr, base = _manager()
        g1, g2 = mgr.pin(), mgr.pin()
        mgr.publish(base, DeltaOverlay())
        g1.release()
        assert mgr.retired_epochs() == []  # g2 still holds epoch 0
        g2.release()
        assert mgr.retired_epochs() == [0]

    def test_release_is_idempotent(self):
        mgr, base = _manager()
        guard = mgr.pin()
        mgr.pin()  # second, independently held pin
        mgr.publish(base, DeltaOverlay())
        guard.release()
        guard.release()  # must not double-decrement the other pin
        assert mgr.retired_epochs() == []

    def test_on_retire_callback_receives_snapshot(self):
        retired = []
        mgr, base = _manager(on_retire=retired.append)
        guard = mgr.pin()
        mgr.publish(base, DeltaOverlay())
        assert retired == []
        guard.release()
        assert [s.epoch for s in retired] == [0]

    def test_interleaved_pins_retire_in_drain_order(self):
        mgr, base = _manager()
        g0 = mgr.pin()                      # pins epoch 0
        mgr.publish(base, DeltaOverlay())
        g1 = mgr.pin()                      # pins epoch 1
        mgr.publish(base, DeltaOverlay())
        g1.release()
        assert mgr.retired_epochs() == [1]  # epoch 0 still pinned
        g0.release()
        assert mgr.retired_epochs() == [1, 0]


class TestSnapshotView:
    def test_view_is_cached(self):
        mgr, _base = _manager()
        snapshot = mgr.current()
        assert snapshot.view() is snapshot.view()

    def test_view_name_carries_epoch(self):
        mgr, base = _manager()
        mgr.publish(base, DeltaOverlay())
        assert mgr.current().view().name.endswith("@e1")


class TestWalSeqWatermark:
    def test_publish_carries_explicit_watermark(self):
        mgr, base = _manager()
        snap = mgr.publish(base, DeltaOverlay(), wal_seq=7)
        assert snap.wal_seq == 7

    def test_compaction_publish_inherits_watermark(self):
        # A publish that reorganises data without new mutations (rebased
        # compaction) passes wal_seq=None and must inherit, not reset.
        mgr, base = _manager()
        mgr.publish(base, DeltaOverlay(), wal_seq=9)
        snap = mgr.publish(base, DeltaOverlay())
        assert snap.wal_seq == 9


class TestPinsAcrossCheckpoint:
    """Reader pins held across a full checkpoint cycle still drain-retire."""

    def test_pinned_epoch_survives_checkpoint_and_retires_on_release(
        self, tmp_path
    ):
        from repro.live import LiveMCKEngine

        with LiveMCKEngine.open(
            str(tmp_path), wal_sync_every=1, compact_threshold=1000
        ) as eng:
            for i in range(6):
                eng.insert(float(i), float(i), ["kw", f"t{i % 2}"])
            guard = eng.pin()
            pinned = guard.snapshot
            pinned_state = sorted(
                oid for oid, *_rest in pinned.view().records()
            )

            # Compaction + segment write + manifest + WAL truncation all
            # land while the reader still holds its epoch.
            assert eng.checkpoint() is True
            assert eng.epoch > pinned.epoch
            assert pinned.epoch in eng._epochs.pinned_epochs()
            assert pinned.epoch not in eng._epochs.retired_epochs()
            # The pinned view is untouched by the checkpoint.
            assert (
                sorted(oid for oid, *_r in pinned.view().records())
                == pinned_state
            )
            # A query through the guard's snapshot still answers.
            assert eng.query(["kw"], algorithm="GKG").object_ids

            guard.release()
            assert pinned.epoch in eng._epochs.retired_epochs()
            assert pinned.epoch not in eng._epochs.pinned_epochs()

    def test_pin_held_across_crashing_checkpoint(self, tmp_path):
        import pytest

        from repro.live import LiveMCKEngine
        from repro.testing import faults
        from repro.testing.faults import SimulatedCrash

        with LiveMCKEngine.open(
            str(tmp_path), wal_sync_every=1, compact_threshold=1000
        ) as eng:
            for i in range(4):
                eng.insert(float(i), float(i), ["kw"])
            guard = eng.pin()
            with faults.injected(
                "live.checkpoint.manifest_rename", error=SimulatedCrash
            ):
                with pytest.raises(SimulatedCrash):
                    eng.checkpoint()
            # The reader's epoch is intact after the aborted checkpoint
            # (the compaction itself published before the crash).
            assert guard.snapshot.epoch in eng._epochs.pinned_epochs()
            guard.release()
            assert guard.snapshot.epoch in eng._epochs.retired_epochs()
