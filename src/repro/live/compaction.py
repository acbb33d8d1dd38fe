"""Background compaction: fold a grown delta back into a sealed base.

The delta overlay keeps every mutation since the last seal; reads pay a
linear scan over it, so an unbounded delta slowly erodes query latency.
The :class:`Compactor` watches the delta's absolute size and its ratio
to the base and, past either threshold, seals a fresh
:class:`~repro.core.objects.Dataset` (columns, postings, vocabulary and
— lazily — the bR*-tree) from a *snapshot* of the merged view:

1. take the current snapshot (no locks held while sealing — writers keep
   publishing new epochs during the rebuild);
2. seal the snapshot's live rows off-thread with
   :meth:`~repro.live.delta.LiveView.seal`: the old base's columns minus
   tombstoned rows plus the delta's add rows, term ids renumbered, all in
   numpy;
3. under the engine's write lock, :meth:`~repro.live.delta.DeltaOverlay.
   rebase` whatever delta accumulated *meanwhile* onto the new base and
   publish — readers atomically switch to the compacted version.

Failures (including the ``serving.live.compaction`` fault-injection
site) abort the attempt and leave the store serving the uncompacted —
but perfectly valid — snapshot; the next mutation re-arms the trigger.
"""

from __future__ import annotations

import logging
import threading
from typing import TYPE_CHECKING, Optional

from ..observability.tracer import span
from ..testing import faults
from .snapshots import Snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import LiveMCKEngine

__all__ = ["Compactor"]

logger = logging.getLogger("repro.live.compaction")


class Compactor:
    """Size/ratio-triggered delta folding for one live engine."""

    def __init__(
        self,
        engine: "LiveMCKEngine",
        threshold: int = 512,
        ratio: float = 0.25,
        enabled: bool = True,
        min_delta: int = 8,
    ):
        self._engine = engine
        self.threshold = max(1, int(threshold))
        self.ratio = float(ratio)
        self.enabled = enabled
        #: Floor below which ratio-triggering is ignored (a 2-object base
        #: with 1 add would otherwise compact on every mutation).
        self.min_delta = max(1, int(min_delta))
        self.compactions = 0
        self.failures = 0
        self._compact_lock = threading.Lock()
        self._wakeup = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Triggering
    # ------------------------------------------------------------------ #

    def should_compact(self, snapshot: Snapshot) -> bool:
        delta_size = snapshot.delta.size
        if delta_size == 0:
            return False
        if delta_size >= self.threshold:
            return True
        if self.ratio > 0 and delta_size >= self.min_delta:
            return delta_size >= self.ratio * max(1, len(snapshot.base))
        return False

    def notify(self) -> None:
        """Called by the engine after each mutation batch."""
        if not self.enabled:
            return
        if self._thread is not None:
            self._wakeup.set()
        elif self.should_compact(self._engine.snapshot()):
            self.compact_now()

    # ------------------------------------------------------------------ #
    # Compaction proper
    # ------------------------------------------------------------------ #

    def compact_now(self, force: bool = False) -> bool:
        """Run one compaction if warranted; True when a new base published.

        Thread-safe; concurrent callers serialise on an internal lock, so
        at most one rebuild is in flight per engine.
        """
        with self._compact_lock:
            snapshot = self._engine.snapshot()
            if snapshot.delta.is_empty():
                return False
            if not force and not self.should_compact(snapshot):
                return False
            metrics = self._engine.metrics
            try:
                faults.fire(
                    "serving.live.compaction",
                    epoch=snapshot.epoch,
                    delta_size=snapshot.delta.size,
                )
                with span(
                    "live.compact",
                    epoch=snapshot.epoch,
                    delta_size=snapshot.delta.size,
                    base_size=len(snapshot.base),
                ):
                    new_base = snapshot.view().seal(snapshot.base.name)
                    # Swap under the write lock: mutations that landed
                    # while we sealed survive as the rebased residual.
                    with self._engine._write_lock:
                        current = self._engine._epochs.current()
                        residual = current.delta.rebase(new_base)
                        self._engine._epochs.publish(new_base, residual)
                        self._engine._publish_metrics()
            except Exception as err:  # noqa: BLE001 - serve on, log, count
                self.failures += 1
                if metrics is not None:
                    metrics.compactions_counter.inc(
                        outcome="failed", shard=self._engine.shard_label
                    )
                logger.warning("compaction failed (epoch %d): %s",
                               snapshot.epoch, err)
                return False
            self.compactions += 1
            if metrics is not None:
                metrics.compactions_counter.inc(
                    outcome="ok", shard=self._engine.shard_label
                )
            # Outside the try/except: sealing already succeeded and the
            # compacted epoch is published, so a checkpoint that cannot be
            # persisted is a durability hiccup (counted by the engine),
            # not a failed compaction.  ``new_base`` reflects the WAL
            # exactly through the sealed snapshot's watermark.
            self._engine._checkpoint_after_compaction(snapshot, new_base)
            return True

    # ------------------------------------------------------------------ #
    # Background thread
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Run the compactor on its own thread, woken by mutations."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="mck-compactor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        self._wakeup.set()
        thread.join(timeout)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wakeup.wait()
            self._wakeup.clear()
            if self._stop.is_set():
                return
            if self.enabled and self.should_compact(self._engine.snapshot()):
                self.compact_now()
