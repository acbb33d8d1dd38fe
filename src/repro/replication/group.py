"""One shard's replication group: a fenced primary plus N read replicas.

Layout of a group directory (everything a follower needs is on disk, so
the protocol works across processes as well as threads)::

    EPOCH               fencing history (see repro.replication.fencing)
    wal-e0001.log       epoch 1's WAL  (the shipped mutation stream)
    wal-e0002.log       epoch 2's WAL  (after the first failover)
    bootstrap/          a PR 9 CheckpointManager dir: MANIFEST +
                        segments/seg-*.seg — cold replicas load the
                        newest verifiable segment instead of replaying
                        the log from seq 1

**Write path**: all mutations go through a :class:`PrimaryHandle` bound
to a fencing epoch.  The group checks the handle's epoch (and,
periodically, the on-disk ``EPOCH`` file, which covers multi-process
deployments), applies on the primary engine, and **flushes the WAL
before acknowledging** — an acked mutation survives any kill.  A handle
from a superseded epoch raises
:class:`~repro.exceptions.FencedWriteError`; records a zombie still
manages to append beyond its epoch's branch point are excluded durably
by every replayer (the fencing file caps each epoch's seq interval).

**Failover**: :meth:`promote` picks the most caught-up replica, drains
the remaining shipped log into it, branches a new fencing epoch at that
watermark, and attaches a fresh epoch WAL to the promoted engine.  A
replacement replica is respawned with the capped exponential backoff the
distributed coordinator uses for crashed workers.  :meth:`apply_batch`
performs this automatically when it finds the primary dead, so a
mid-workload kill costs the writer one retry, not an error.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.objects import Dataset
from ..exceptions import (
    DatasetError,
    FencedWriteError,
    ReplicationError,
    ReplicationGap,
    WALError,
)
from ..live.checkpoint import CheckpointManager
from ..live.engine import LiveMCKEngine, MutationListener
from ..live.wal import WalRecord, read_wal
from .fencing import (
    EpochEntry,
    read_epoch_entries,
    wal_name,
    write_epoch_entries,
)
from .replica import BOOTSTRAP_DIR, ReadReplica

__all__ = ["PrimaryHandle", "ReplicationGroup"]

logger = logging.getLogger("repro.replication.group")


class PrimaryHandle:
    """A write capability bound to one fencing epoch.

    Holding a handle does not make its owner the primary — the *group*
    decides that.  A zombie that kept an old handle across a failover
    gets :class:`~repro.exceptions.FencedWriteError` on every write.
    """

    __slots__ = ("_group", "engine", "epoch")

    def __init__(self, group: "ReplicationGroup", engine: LiveMCKEngine,
                 epoch: int):
        self._group = group
        self.engine = engine
        self.epoch = int(epoch)

    def apply_batch(
        self,
        inserts: Sequence[Tuple[float, float, Iterable[str]]] = (),
        deletes: Sequence[int] = (),
    ) -> List[int]:
        return self._group._apply(self, inserts=inserts, deletes=deletes)

    def insert(self, x: float, y: float, keywords: Iterable[str]) -> int:
        return self.apply_batch(inserts=[(x, y, keywords)])[0]

    def delete(self, oid: int) -> None:
        self.apply_batch(deletes=[oid])


class ReplicationGroup:
    """WAL-shipped primary/replica set for one shard of the store."""

    def __init__(
        self,
        records: Sequence[Tuple[int, float, float, Iterable[str]]],
        dir: str,
        n_replicas: int = 1,
        name: str = "group",
        shard_label: str = "0",
        metrics=None,
        oid_start: int = 0,
        wal_sync_every: int = 1,
        fence_check_every: int = 16,
        respawn_backoff: float = 0.01,
        backoff_cap: float = 0.5,
        max_respawn_retries: int = 3,
        engine_kwargs: Optional[dict] = None,
    ):
        self.dir = os.path.abspath(dir)
        os.makedirs(self.dir, exist_ok=True)
        self.name = name
        self.shard_label = str(shard_label)
        self.metrics = metrics
        self.oid_start = int(oid_start)
        self._wal_sync_every = int(wal_sync_every)
        self._fence_check_every = max(0, int(fence_check_every))
        self._fence_checks = 0
        self._respawn_backoff = float(respawn_backoff)
        self._backoff_cap = float(backoff_cap)
        self._max_respawn_retries = int(max_respawn_retries)
        self._engine_kwargs = dict(engine_kwargs or {})
        self._listeners: List[MutationListener] = []
        self._lock = threading.RLock()
        self._closed = False
        self._bootstrap = CheckpointManager(
            os.path.join(self.dir, BOOTSTRAP_DIR)
        )

        self._entries = read_epoch_entries(self.dir)
        fresh = not self._entries
        if fresh:
            self._entries = [EpochEntry(1, wal_name(1), 0)]
            write_epoch_entries(self.dir, self._entries)
            base = Dataset.seal(records, name=f"{name}-p")
            engine = self._make_engine(base, self._bootstrap.recovered_next_oid)
            engine.attach_wal(
                os.path.join(self.dir, self._entries[-1].wal),
                sync_every=self._wal_sync_every,
                start_seq=0,
            )
            if len(base):
                # The seed records never hit the WAL; persist them as the
                # first bootstrap segment (covering seq 0) or replicas
                # could only ever see the post-seed mutation stream.
                self._bootstrap.checkpoint(
                    base, 0, wal=None, next_oid=engine._next_oid
                )
        else:
            # Reopen: newest verifiable bootstrap segment + every epoch
            # file's fenced interval reconstructs the primary exactly.
            loaded, covered, _tail, _report = self._bootstrap.recover()
            base = (
                loaded
                if loaded is not None
                else Dataset.from_records((), name=f"{name}-p")
            )
            engine = self._make_engine(base, self._bootstrap.recovered_next_oid)
            tail = self._records_between(covered, None)
            if tail:
                engine.apply_replicated(tail)
            last_seq = tail[-1].seq if tail else covered
            engine.attach_wal(
                os.path.join(self.dir, self._entries[-1].wal),
                sync_every=self._wal_sync_every,
                start_seq=max(last_seq, self._entries[-1].start_after),
            )
        self._epoch = self._entries[-1].epoch
        self._handle = PrimaryHandle(self, engine, self._epoch)
        self._acked_seq = engine.wal.last_seq if engine.wal else 0
        self.failovers = 0
        self.fenced_writes = 0
        self.replicas: List[ReadReplica] = []
        for i in range(max(0, int(n_replicas))):
            self.replicas.append(self._spawn_replica(i))

    def _make_engine(self, base: Dataset, floor_oid: int) -> LiveMCKEngine:
        return LiveMCKEngine(
            base,
            metrics=self.metrics,
            shard_label=self.shard_label,
            oid_start=max(self.oid_start, floor_oid),
            **self._engine_kwargs,
        )

    def _spawn_replica(self, replica_id: int) -> ReadReplica:
        last_err: Optional[Exception] = None
        for attempt in range(self._max_respawn_retries + 1):
            if attempt:
                time.sleep(
                    min(
                        self._backoff_cap,
                        self._respawn_backoff * (2 ** (attempt - 1)),
                    )
                )
            try:
                replica = ReadReplica(
                    self.dir,
                    replica_id,
                    name=f"{self.name}-r{replica_id}",
                    shard_label=self.shard_label,
                    engine_kwargs=self._engine_kwargs,
                )
                self._sync_one(replica)
                return replica
            except (OSError, ReplicationError) as err:
                last_err = err
                logger.warning(
                    "shard %s: replica %d spawn attempt %d failed: %s",
                    self.shard_label, replica_id, attempt, err,
                )
        raise ReplicationError(
            f"shard {self.shard_label}: could not spawn replica "
            f"{replica_id}: {last_err}"
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def epoch(self) -> int:
        """The current fencing epoch (not the engine's snapshot epoch)."""
        return self._epoch

    @property
    def acked_seq(self) -> int:
        """Highest WAL seq the group has durably acknowledged."""
        return self._acked_seq

    @property
    def primary_engine(self) -> LiveMCKEngine:
        return self._handle.engine

    def primary_handle(self) -> PrimaryHandle:
        """The current epoch's write capability (kept by zombies at their
        peril — see :class:`PrimaryHandle`)."""
        return self._handle

    def primary_dead(self) -> bool:
        return self._handle.engine._closed

    def __len__(self) -> int:
        return len(self._handle.engine)

    # ------------------------------------------------------------------ #
    # Write path (fenced, flush-before-ack, auto-failover)
    # ------------------------------------------------------------------ #

    def apply_batch(
        self,
        inserts: Sequence[Tuple[float, float, Iterable[str]]] = (),
        deletes: Sequence[int] = (),
    ) -> List[int]:
        return self._apply(self._handle, inserts=inserts, deletes=deletes)

    def insert(self, x: float, y: float, keywords: Iterable[str]) -> int:
        return self.apply_batch(inserts=[(x, y, keywords)])[0]

    def delete(self, oid: int) -> None:
        self.apply_batch(deletes=[oid])

    def apply_records(self, records: Sequence[WalRecord]) -> int:
        """Apply shipped records (oids preserved) through the fenced
        primary, re-logged into this group's own stream — the shard-split
        catch-up primitive."""
        return self._apply(self._handle, records=list(records))

    def _apply(
        self,
        handle: PrimaryHandle,
        inserts: Sequence = (),
        deletes: Sequence = (),
        records: Optional[List[WalRecord]] = None,
    ):
        with self._lock:
            for attempt in range(2):
                self._fence(handle)
                engine = handle.engine
                try:
                    if records is not None:
                        result = engine.apply_replicated(records, log=True)
                    else:
                        result = engine.apply_batch(
                            inserts=inserts, deletes=deletes
                        )
                    # Flush-before-ack: a mutation this method returns
                    # for survives any subsequent kill of the primary.
                    engine.flush()
                    if engine.wal is not None:
                        self._acked_seq = engine.wal.last_seq
                    return result
                except (DatasetError, WALError):
                    if (
                        attempt == 0
                        and handle is self._handle
                        and engine._closed
                        and self.replicas
                    ):
                        # Dead primary mid-workload: promote a caught-up
                        # replica and retry once on the new epoch.
                        self.promote()
                        handle = self._handle
                        continue
                    raise
            raise ReplicationError(
                f"shard {self.shard_label}: apply failed after failover"
            )

    def _fence(self, handle: PrimaryHandle) -> None:
        if handle.epoch != self._epoch:
            self._reject_fenced(handle)
        if self._fence_check_every:
            self._fence_checks += 1
            if self._fence_checks % self._fence_check_every == 0:
                entries = read_epoch_entries(self.dir)
                if entries and entries[-1].epoch != handle.epoch:
                    # Someone else (another process) promoted past us.
                    self._reject_fenced(handle)

    def _reject_fenced(self, handle: PrimaryHandle) -> None:
        self.fenced_writes += 1
        if self.metrics is not None:
            self.metrics.fenced_writes_counter.inc(shard=self.shard_label)
        raise FencedWriteError(self.shard_label, handle.epoch, self._epoch)

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def read_engine(
        self, prefer: str = "auto", lag_bound: int = 64
    ) -> LiveMCKEngine:
        """The engine a read should hit.

        ``primary`` always reads the primary; ``replica`` always reads
        the least-lagged replica; ``auto`` (default) offloads to a
        replica only when its lag is within ``lag_bound`` records of the
        acked watermark, otherwise falls back to the primary.
        """
        if prefer == "primary" or not self.replicas:
            return self._handle.engine
        lagged = sorted(
            (r.lag(self._acked_seq)[0], r.replica_id, r)
            for r in self.replicas
        )
        records, _rid, best = lagged[0]
        if prefer == "replica" or records <= lag_bound:
            return best.engine
        return self._handle.engine

    # ------------------------------------------------------------------ #
    # Shipping
    # ------------------------------------------------------------------ #

    def sync_replicas(self) -> int:
        """Drain the shipped log into every replica; returns records applied.

        A replica that hits a :class:`~repro.exceptions.ReplicationGap`
        (the primary truncated past it) re-bootstraps from the newest
        checkpoint segment and retries — counted, never fatal.
        """
        total = 0
        for replica in self.replicas:
            total += self._sync_one(replica)
        self.publish_lag_metrics()
        return total

    def _sync_one(self, replica: ReadReplica) -> int:
        try:
            return replica.poll()
        except ReplicationGap as err:
            logger.info(
                "shard %s: replica %d re-bootstrapping: %s",
                self.shard_label, replica.replica_id, err,
            )
            if self.metrics is not None:
                self.metrics.replica_rebootstraps_counter.inc(
                    shard=self.shard_label
                )
            replica.rebootstrap()
            return replica.poll()

    def publish_lag_metrics(self) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        for replica in self.replicas:
            records, seconds = replica.lag(self._acked_seq)
            labels = {
                "shard": self.shard_label,
                "replica": str(replica.replica_id),
            }
            metrics.replication_lag_records_gauge.set(float(records), **labels)
            metrics.replication_lag_seconds_gauge.set(seconds, **labels)
        metrics.shard_objects_gauge.set(
            float(len(self)), shard=self.shard_label
        )

    def lag_watermarks(self) -> List[Tuple[int, int, float]]:
        """Per-replica ``(replica_id, lag_records, lag_seconds)``."""
        return [
            (r.replica_id, *r.lag(self._acked_seq)) for r in self.replicas
        ]

    def checkpoint_bootstrap(self, truncate: bool = True) -> int:
        """Persist the primary's state as a fresh bootstrap segment.

        Returns the covered seq.  With ``truncate=True`` the shipped log
        is trimmed through the *older* retained segment's watermark (the
        PR 9 corruption budget), which is exactly what forces a replica
        that lagged past the trim point to re-bootstrap.
        """
        engine = self._handle.engine
        engine.flush()
        with engine.pin() as snap:
            covered = snap.wal_seq
            retained = self._bootstrap._retained()
            if retained and int(retained[-1]["wal_seq"]) >= covered:
                return covered  # newest segment already covers this state
            base = snap.view().seal(f"{self.name}-boot")
        self._bootstrap.checkpoint(
            base, covered, wal=None, next_oid=engine._next_oid
        )
        if truncate:
            retained = self._bootstrap._retained()
            if len(retained) >= 2:
                self._truncate_shipped_log(int(retained[0]["wal_seq"]))
        return covered

    def _truncate_shipped_log(self, safe_seq: int) -> None:
        engine = self._handle.engine
        if engine.wal is not None and safe_seq > self._entries[-1].start_after:
            with engine._write_lock:
                engine.wal.truncate_through(safe_seq)
        # Old-epoch files wholly covered by the checkpoint are dead weight.
        for i, entry in enumerate(self._entries[:-1]):
            cap = self._entries[i + 1].start_after
            if cap <= safe_seq:
                try:
                    os.unlink(os.path.join(self.dir, entry.wal))
                except OSError:
                    pass

    def read_records_since(
        self, seq: int, upto: Optional[int] = None
    ) -> List[WalRecord]:
        """Shipped records with ``seq < record.seq <= upto``, fenced.

        Reads the epoch files directly (used by shard splitting and by
        promotion to drain a dead primary's log); each epoch contributes
        only its fenced interval, so zombie appends never leak out.
        """
        return self._records_between(int(seq), upto)

    def _records_between(
        self, after: int, upto: Optional[int]
    ) -> List[WalRecord]:
        out: List[WalRecord] = []
        for i, entry in enumerate(self._entries):
            cap = (
                self._entries[i + 1].start_after
                if i + 1 < len(self._entries)
                else None
            )
            if cap is not None and cap <= after:
                continue
            records, _bytes, _torn = read_wal(
                os.path.join(self.dir, entry.wal)
            )
            for record in records:
                if record.seq <= after:
                    continue
                if cap is not None and record.seq > cap:
                    break
                if upto is not None and record.seq > upto:
                    return out
                out.append(record)
        return out

    # ------------------------------------------------------------------ #
    # Failure injection / failover
    # ------------------------------------------------------------------ #

    def crash_primary(self) -> None:
        """Kill the primary like a SIGKILL (no final WAL group-commit)."""
        self._handle.engine.abandon()

    def promote(self) -> int:
        """Fail over to the most caught-up replica; returns the new epoch.

        Safe against a *live* old primary too (proactive failover): the
        old engine is crash-stopped first, so its handle is fenced both
        in memory (epoch bump) and durably (the new epoch entry caps the
        old WAL's authoritative interval at the branch point).
        """
        with self._lock:
            if not self.replicas:
                raise ReplicationError(
                    f"shard {self.shard_label}: no replica to promote"
                )
            old = self._handle
            if not old.engine._closed:
                old.engine.abandon()
            # Elect the most advanced replica and drain the remainder of
            # the dead primary's shipped log into it.
            best = max(self.replicas, key=lambda r: r.applied_seq)
            self._sync_one(best)
            branch = best.applied_seq
            new_epoch = self._epoch + 1
            entry = EpochEntry(new_epoch, wal_name(new_epoch), branch)
            self._entries = self._entries + [entry]
            write_epoch_entries(self.dir, self._entries)

            engine = best.engine
            assert engine is not None
            engine.metrics = self.metrics
            engine.shard_label = self.shard_label
            engine.attach_wal(
                os.path.join(self.dir, entry.wal),
                sync_every=self._wal_sync_every,
                start_seq=branch,
            )
            for listener in self._listeners:
                engine.add_mutation_listener(listener)
            self.replicas.remove(best)
            self._epoch = new_epoch
            self._handle = PrimaryHandle(self, engine, new_epoch)
            self._acked_seq = branch
            self.failovers += 1
            if self.metrics is not None:
                self.metrics.failovers_counter.inc(shard=self.shard_label)
                engine._publish_metrics()
            logger.info(
                "shard %s: promoted replica %d at seq %d (epoch %d)",
                self.shard_label, best.replica_id, branch, new_epoch,
            )
            # Backfill the lost redundancy with a fresh follower.
            next_id = (
                max((r.replica_id for r in self.replicas), default=-1) + 1
            )
            try:
                self.replicas.append(self._spawn_replica(next_id))
            except ReplicationError as err:
                # Degraded but serving: the group runs without the spare
                # until the next successful spawn.
                logger.warning(
                    "shard %s: running without replacement replica: %s",
                    self.shard_label, err,
                )
            return new_epoch

    # ------------------------------------------------------------------ #
    # Listeners / lifecycle
    # ------------------------------------------------------------------ #

    def add_mutation_listener(self, listener: MutationListener) -> None:
        self._listeners.append(listener)
        self._handle.engine.add_mutation_listener(listener)

    def remove_mutation_listener(self, listener: MutationListener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass
        self._handle.engine.remove_mutation_listener(listener)

    def flush(self) -> None:
        if not self._handle.engine._closed:
            self._handle.engine.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if not self._handle.engine._closed:
            self._handle.engine.close()
        for replica in self.replicas:
            replica.close()

    def __enter__(self) -> "ReplicationGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
