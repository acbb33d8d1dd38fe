"""Epoch-based snapshot management for the live store.

A :class:`Snapshot` is an immutable ``(epoch, base, delta)`` triple with
its lazily built merged :class:`~repro.live.delta.LiveView`.  The
:class:`EpochManager` swaps the current snapshot atomically (writers
publish a *new* snapshot; nothing already published is ever mutated) and
tracks per-epoch reader pins:

* readers :meth:`~EpochManager.pin` the current epoch for the duration of
  one query — they keep seeing exactly the version they started on, no
  matter how many mutations or compactions land meanwhile;
* writers never wait for readers — publish is a pointer swap under a
  short lock;
* a superseded epoch is *retired* once its reader count drains to zero,
  at which point ``on_retire`` callbacks fire (metrics, and the hook that
  lets tests assert old versions do not linger).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from ..core.objects import Dataset
from .delta import DeltaOverlay, LiveView

__all__ = ["Snapshot", "EpochManager"]


class Snapshot:
    """One immutable published version of the store."""

    __slots__ = ("epoch", "base", "delta", "wal_seq", "_view", "_view_lock")

    def __init__(
        self,
        epoch: int,
        base: Dataset,
        delta: DeltaOverlay,
        wal_seq: int = 0,
    ):
        self.epoch = epoch
        self.base = base
        self.delta = delta
        #: Highest WAL sequence reflected in this snapshot's merged view
        #: (0 when the engine has no WAL).  Checkpointing uses it as the
        #: durable watermark: a segment sealed from this snapshot covers
        #: exactly the log prefix through ``wal_seq``.
        self.wal_seq = wal_seq
        self._view: Optional[LiveView] = None
        self._view_lock = threading.Lock()

    def view(self) -> LiveView:
        """The merged dataset-shaped view (built once, cached)."""
        with self._view_lock:
            if self._view is None:
                self._view = LiveView(
                    self.base, self.delta, name=f"{self.base.name}@e{self.epoch}"
                )
            return self._view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot(epoch={self.epoch}, base={len(self.base)}, "
            f"delta={self.delta.size})"
        )


class _PinGuard:
    """Context manager handed to readers; unpins exactly once."""

    __slots__ = ("_manager", "_snapshot", "_done")

    def __init__(self, manager: "EpochManager", snapshot: Snapshot):
        self._manager = manager
        self._snapshot = snapshot
        self._done = False

    @property
    def snapshot(self) -> Snapshot:
        return self._snapshot

    def __enter__(self) -> Snapshot:
        return self._snapshot

    def __exit__(self, *exc) -> None:
        self.release()

    def release(self) -> None:
        if not self._done:
            self._done = True
            self._manager._unpin(self._snapshot.epoch)


class EpochManager:
    """Atomic snapshot swap + reader pinning + epoch retirement."""

    def __init__(
        self,
        initial: Snapshot,
        on_retire: Optional[Callable[[Snapshot], None]] = None,
    ):
        self._lock = threading.Lock()
        self._current = initial
        self._pins: Dict[int, int] = {}
        self._superseded: Dict[int, Snapshot] = {}
        self._on_retire = on_retire
        self._retired_epochs: List[int] = []

    # ------------------------------------------------------------------ #

    def current(self) -> Snapshot:
        """The latest published snapshot (unpinned peek)."""
        return self._current

    @property
    def epoch(self) -> int:
        return self._current.epoch

    def pin(self) -> _PinGuard:
        """Pin the current epoch; use as a context manager around a read."""
        with self._lock:
            snapshot = self._current
            self._pins[snapshot.epoch] = self._pins.get(snapshot.epoch, 0) + 1
        return _PinGuard(self, snapshot)

    def publish(
        self,
        base: Dataset,
        delta: DeltaOverlay,
        wal_seq: Optional[int] = None,
    ) -> Snapshot:
        """Swap in a new version; returns the published snapshot.

        ``wal_seq`` defaults to the superseded snapshot's watermark — the
        right value for publishes that reorganise existing data without
        adding mutations (compaction).
        """
        to_retire: List[Snapshot] = []
        with self._lock:
            old = self._current
            new = Snapshot(
                old.epoch + 1,
                base,
                delta,
                wal_seq=old.wal_seq if wal_seq is None else int(wal_seq),
            )
            self._current = new
            if self._pins.get(old.epoch, 0) > 0:
                self._superseded[old.epoch] = old
            else:
                to_retire.append(old)
        for snapshot in to_retire:
            self._retire(snapshot)
        return new

    def pinned_epochs(self) -> List[int]:
        with self._lock:
            return sorted(e for e, n in self._pins.items() if n > 0)

    def retired_epochs(self) -> List[int]:
        """Epochs fully drained and retired (oldest first)."""
        with self._lock:
            return list(self._retired_epochs)

    # ------------------------------------------------------------------ #

    def _unpin(self, epoch: int) -> None:
        to_retire: Optional[Snapshot] = None
        with self._lock:
            remaining = self._pins.get(epoch, 0) - 1
            if remaining > 0:
                self._pins[epoch] = remaining
            else:
                self._pins.pop(epoch, None)
                # Retire only once superseded: the current epoch stays
                # resident however often its reader count hits zero.
                to_retire = self._superseded.pop(epoch, None)
        if to_retire is not None:
            self._retire(to_retire)

    def _retire(self, snapshot: Snapshot) -> None:
        with self._lock:
            self._retired_epochs.append(snapshot.epoch)
        if self._on_retire is not None:
            self._on_retire(snapshot)
