"""ReplicationGroup: shipping, durability, failover, fencing, bootstrap."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import FencedWriteError, ReplicationError
from repro.live import LiveMCKEngine
from repro.replication import ReplicationGroup, read_epoch_entries
from repro.replication.fencing import wal_name

SEED = [
    (0, 0.0, 0.0, ["a"]),
    (1, 5.0, 5.0, ["b"]),
    (2, 10.0, 0.0, ["c", "a"]),
    (3, 0.0, 10.0, ["b", "c"]),
]

ALGORITHMS = ["GKG", "SKEC", "SKECa", "SKECa+", "EXACT"]


def _twin_from(group: ReplicationGroup) -> LiveMCKEngine:
    """A single-engine twin holding the group's current live set."""
    records = [
        (x, y, kw) for _oid, x, y, kw in group.primary_engine.dataset.records()
    ]
    return LiveMCKEngine.from_records(records)


class TestShipping:
    def test_replicas_catch_up_and_lag_goes_to_zero(self, tmp_path):
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=2) as group:
            group.insert(1.0, 1.0, ["d"])
            group.insert(2.0, 2.0, ["e"])
            group.delete(0)
            assert group.sync_replicas() == 2 * 3
            for _rid, records, seconds in group.lag_watermarks():
                assert records == 0
                assert seconds == 0.0
            for replica in group.replicas:
                assert len(replica.engine) == len(group)
                assert replica.applied_seq == group.acked_seq

    def test_replica_answers_match_primary(self, tmp_path):
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=1) as group:
            group.insert(3.0, 3.0, ["a", "b"])
            group.sync_replicas()
            replica = group.replicas[0]
            for algorithm in ALGORITHMS:
                p = group.primary_engine.query(["a", "b"], algorithm=algorithm)
                r = replica.engine.query(["a", "b"], algorithm=algorithm)
                assert p.object_ids == r.object_ids
                assert p.diameter == pytest.approx(r.diameter)

    def test_seed_records_reach_replicas_via_bootstrap(self, tmp_path):
        # Seed records never hit the WAL; replicas must see them anyway.
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=1) as group:
            assert len(group.replicas[0].engine) == len(SEED)


class TestDurability:
    def test_acked_write_survives_abandon(self, tmp_path):
        group = ReplicationGroup(
            SEED, dir=str(tmp_path), n_replicas=0, wal_sync_every=0
        )
        oid = group.insert(7.0, 7.0, ["d"])  # acked => flushed
        group.crash_primary()  # SIGKILL: no final group commit
        group.close()
        with ReplicationGroup([], dir=str(tmp_path), n_replicas=0) as again:
            assert oid in again.primary_engine.dataset
            assert len(again) == len(SEED) + 1

    def test_reopen_after_checkpoint_and_truncation(self, tmp_path):
        group = ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=0)
        for i in range(8):
            group.insert(float(i), float(i), ["d"])
        group.checkpoint_bootstrap()
        group.insert(99.0, 99.0, ["e"])
        group.checkpoint_bootstrap()  # second segment; truncates the log
        group.close()
        with ReplicationGroup([], dir=str(tmp_path), n_replicas=1) as again:
            assert len(again) == len(SEED) + 9
            again.sync_replicas()
            assert len(again.replicas[0].engine) == len(again)


class TestFailover:
    def test_promote_elects_most_caught_up_replica(self, tmp_path):
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=2) as group:
            group.insert(1.0, 1.0, ["d"])
            group.sync_replicas()
            group.crash_primary()
            epoch = group.promote()
            assert epoch == 2
            assert not group.primary_dead()
            assert len(group) == len(SEED) + 1
            # Redundancy was backfilled.
            assert len(group.replicas) == 2

    def test_apply_after_crash_promotes_automatically(self, tmp_path):
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=1) as group:
            group.insert(1.0, 1.0, ["d"])
            group.sync_replicas()
            group.crash_primary()
            oid = group.insert(2.0, 2.0, ["e"])  # one retry, not an error
            assert group.epoch == 2
            assert oid in group.primary_engine.dataset

    def test_post_failover_answers_match_never_crashed_twin(self, tmp_path):
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=1) as group:
            group.insert(3.0, 4.0, ["a", "c"])
            group.sync_replicas()
            group.crash_primary()
            group.insert(6.0, 6.0, ["b", "d"])  # auto-failover write
            twin = _twin_from(group)
            try:
                for algorithm in ALGORITHMS:
                    for keywords in (["a", "b"], ["a", "b", "c"], ["b", "d"]):
                        got = group.primary_engine.query(
                            keywords, algorithm=algorithm
                        )
                        want = twin.query(keywords, algorithm=algorithm)
                        assert got.diameter == pytest.approx(want.diameter), (
                            algorithm,
                            keywords,
                        )
            finally:
                twin.close()

    def test_unsynced_tail_is_drained_into_promoted_replica(self, tmp_path):
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=1) as group:
            oid = group.insert(1.0, 1.0, ["d"])
            # Deliberately do NOT sync: the replica lags behind the kill.
            group.crash_primary()
            group.promote()
            assert oid in group.primary_engine.dataset

    def test_promote_without_replicas_raises(self, tmp_path):
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=0) as group:
            with pytest.raises(ReplicationError):
                group.promote()


class TestFencing:
    def test_stale_handle_is_rejected(self, tmp_path):
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=1) as group:
            zombie = group.primary_handle()
            group.sync_replicas()
            group.promote()  # proactive failover: old primary still alive
            with pytest.raises(FencedWriteError):
                zombie.insert(9.0, 9.0, ["z"])
            assert group.fenced_writes == 1

    def test_zombie_appends_are_durably_excluded(self, tmp_path):
        from repro.live.wal import WriteAheadLog

        group = ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=1)
        group.insert(1.0, 1.0, ["d"])
        group.sync_replicas()
        group.promote()
        n_after_failover = len(group)
        # The zombie writes straight to its old epoch WAL, bypassing the
        # group (simulating a partitioned process that never heard about
        # the promotion).  Its record's seq falls beyond the branch cap.
        zombie_wal = WriteAheadLog(str(tmp_path / wal_name(1)), sync_every=1)
        zombie_wal.append_insert(12345, 50.0, 50.0, ["zombie"])
        zombie_wal.close()
        group.close()
        with ReplicationGroup([], dir=str(tmp_path), n_replicas=1) as again:
            assert 12345 not in again.primary_engine.dataset
            assert len(again) == n_after_failover
            again.sync_replicas()
            assert 12345 not in again.replicas[0].engine.dataset

    def test_epoch_history_grows_on_disk(self, tmp_path):
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=1) as group:
            group.insert(1.0, 1.0, ["d"])
            group.sync_replicas()
            group.promote()
            entries = read_epoch_entries(str(tmp_path))
            assert [e.epoch for e in entries] == [1, 2]
            assert entries[1].start_after == 1
            assert os.path.exists(str(tmp_path / wal_name(2)))


class TestGapRecovery:
    def test_lagging_replica_rebootstraps_after_truncation(self, tmp_path):
        with ReplicationGroup(SEED, dir=str(tmp_path), n_replicas=1) as group:
            replica = group.replicas[0]
            for i in range(6):
                group.insert(float(i), float(i), ["d"])
            # Two checkpoints truncate the shipped log past the replica's
            # cursor (it never polled).
            group.checkpoint_bootstrap()
            for i in range(6):
                group.insert(float(i), 20.0 + i, ["e"])
            group.checkpoint_bootstrap()
            assert replica.applied_seq == 0
            group.sync_replicas()  # gap -> rebootstrap -> retail, not an error
            assert replica.rebootstraps == 1
            assert len(replica.engine) == len(group)
            assert replica.applied_seq == group.acked_seq
