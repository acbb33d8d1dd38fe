"""A read replica: bootstrap from a checkpoint segment, then tail the log.

:class:`ReadReplica` maintains its own :class:`~repro.live.engine
.LiveMCKEngine` (no WAL — it applies a *shipped* stream) and a cursor
``applied_seq`` into the group's global sequence space:

* :meth:`bootstrap` loads the newest verifiable checkpoint segment from
  the group's ``bootstrap/`` directory (the PR 9
  :class:`~repro.live.checkpoint.CheckpointManager` layout, reused
  verbatim) and adopts its covered seq — a cold replica never replays
  the full history when a segment exists;
* :meth:`poll` walks the fencing history
  (:mod:`repro.replication.fencing`), tails the epoch file owning
  ``applied_seq + 1``, applies fresh records via
  :meth:`~repro.live.engine.LiveMCKEngine.apply_replicated`, and crosses
  epoch boundaries at their branch caps — records a zombie primary
  appended beyond its epoch's cap are never applied;
* a needed sequence number missing from the shipped log (primary
  truncated past us) raises :class:`~repro.exceptions.ReplicationGap`;
  the owner re-bootstraps the replica from the newest segment instead of
  failing the group.

Lag is a two-part watermark: ``lag_records`` against the primary's acked
seq, and ``lag_seconds`` — how long the replica has *continuously* been
behind (0 whenever it draws level).
"""

from __future__ import annotations

import os
import time
from typing import List, Optional

from ..core.objects import Dataset
from ..exceptions import ReplicationGap
from ..live.checkpoint import CheckpointManager
from ..live.engine import LiveMCKEngine
from .fencing import EpochEntry, read_epoch_entries
from .tailer import WalTailer

__all__ = ["ReadReplica"]

BOOTSTRAP_DIR = "bootstrap"


class ReadReplica:
    """One tailing follower of a replication group's shipped WAL."""

    def __init__(
        self,
        group_dir: str,
        replica_id: int,
        name: str = "replica",
        shard_label: str = "0",
        engine_kwargs: Optional[dict] = None,
    ):
        self.group_dir = group_dir
        self.replica_id = int(replica_id)
        self.name = name
        self.shard_label = str(shard_label)
        self._engine_kwargs = dict(engine_kwargs or {})
        self.engine: Optional[LiveMCKEngine] = None
        self.applied_seq = 0
        self.records_applied = 0
        self.rebootstraps = 0
        self._tailer: Optional[WalTailer] = None
        self._behind_since: Optional[float] = None
        self._closed = False
        self.bootstrap()

    # ------------------------------------------------------------------ #
    # Bootstrap / re-bootstrap
    # ------------------------------------------------------------------ #

    def bootstrap(self) -> None:
        """(Re)build the local engine from the newest bootstrap segment.

        Falls back to an empty base when no segment is loadable (a fresh
        group, or every retained segment corrupt) — the subsequent tail
        then replays the whole shipped log, which is slower but correct.
        """
        manager = CheckpointManager(os.path.join(self.group_dir, BOOTSTRAP_DIR))
        base, covered_seq, _tail, _report = manager.recover()
        if base is None:
            base = Dataset.from_records((), name=f"{self.name}-empty")
            covered_seq = 0
        old = self.engine
        self.engine = LiveMCKEngine(
            base,
            oid_start=manager.recovered_next_oid,
            shard_label=self.shard_label,
            **self._engine_kwargs,
        )
        self.applied_seq = covered_seq
        self._tailer = None
        self._behind_since = None
        if old is not None:
            old.close()

    def rebootstrap(self) -> None:
        """Gap recovery: count it and rebuild from the newest segment."""
        self.rebootstraps += 1
        self.bootstrap()

    # ------------------------------------------------------------------ #
    # Tailing
    # ------------------------------------------------------------------ #

    def poll(self) -> int:
        """Apply every currently shipped record past ``applied_seq``.

        Returns the number of records applied.  Raises
        :class:`~repro.exceptions.ReplicationGap` when the shipped log no
        longer contains ``applied_seq + 1`` — the caller decides whether
        to :meth:`rebootstrap`.
        """
        if self._closed or self.engine is None:
            return 0
        applied_total = 0
        while True:
            entries = read_epoch_entries(self.group_dir)
            if not entries:
                return applied_total
            entry, cap = self._locate(entries)
            path = os.path.join(self.group_dir, entry.wal)
            if self._tailer is None or self._tailer.path != path:
                self._tailer = WalTailer(path)
            progressed = False
            while True:
                records = self._tailer.poll()
                if not records:
                    break
                fresh = [
                    r
                    for r in records
                    if r.seq > self.applied_seq
                    and (cap is None or r.seq <= cap)
                ]
                if not fresh:
                    continue
                if fresh[0].seq != self.applied_seq + 1:
                    raise ReplicationGap(
                        self.applied_seq + 1,
                        detail=f"{entry.wal} resumes at seq {fresh[0].seq}",
                    )
                self.engine.apply_replicated(fresh)
                self.applied_seq = fresh[-1].seq
                self.records_applied += len(fresh)
                applied_total += len(fresh)
                progressed = True
            if cap is not None and self.applied_seq >= cap:
                # This epoch is exhausted; continue into the next file.
                self._tailer = None
                continue
            if not progressed or cap is None:
                return applied_total

    def _locate(self, entries: List[EpochEntry]):
        """The epoch entry owning ``applied_seq + 1`` and its seq cap."""
        need = self.applied_seq + 1
        for i, entry in enumerate(entries):
            cap = (
                entries[i + 1].start_after if i + 1 < len(entries) else None
            )
            if entry.start_after < need and (cap is None or need <= cap):
                return entry, cap
        # ``need`` predates the oldest retained epoch: the prefix we
        # would have to replay no longer exists as a shipped log.
        raise ReplicationGap(
            need,
            detail=f"oldest retained epoch starts after "
            f"{entries[0].start_after}",
        )

    # ------------------------------------------------------------------ #
    # Lag watermark
    # ------------------------------------------------------------------ #

    def lag(self, primary_seq: int) -> "tuple[int, float]":
        """``(records, seconds)`` behind the primary's acked watermark."""
        records = max(0, int(primary_seq) - self.applied_seq)
        now = time.monotonic()
        if records == 0:
            self._behind_since = None
            return 0, 0.0
        if self._behind_since is None:
            self._behind_since = now
        return records, now - self._behind_since

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.engine is not None:
            self.engine.close()
