"""Live updates: a mutable, versioned object store for mCK serving.

The paper's indexes (and both baselines' — Zhang et al.'s bR*-tree,
Long et al.'s Dia-CoSKQ) are built once over a static database.  This
package layers *mutability* on top of that build-once substrate without
ever blocking readers:

* :mod:`repro.live.wal` — an append-only write-ahead log (JSON lines
  with CRC32, replayed on open, fsync batching) making mutations durable;
* :mod:`repro.live.delta` — a small immutable delta overlay (adds +
  tombstones + its own inverted keyword map) merged over the last sealed
  base, plus the merged dataset/index views readers consume;
* :mod:`repro.live.snapshots` — epoch-based versioning: immutable
  ``(base, delta)`` snapshots swapped atomically copy-on-write; readers
  pin the epoch they started on, retired epochs drain by reader count;
* :mod:`repro.live.compaction` — a background compactor that reseals the
  delta into a fresh base off-thread and publishes a new epoch;
* :mod:`repro.live.checkpoint` — crash-safe checkpoints: sealed bases
  persisted as CRC-checksummed segments with an atomic manifest, so a
  restart is a segment load plus short WAL tail replay;
* :mod:`repro.live.engine` — :class:`LiveMCKEngine`, answering over
  the mutable store through the same query pipeline as
  :class:`repro.core.engine.MCKEngine`.

Sharding the live store is :class:`repro.replication.ReplicatedShardRouter`
(``replicas_per_shard=0`` for plain routed shards without replicas).
"""

from .checkpoint import CheckpointManager, RecoveryReport, read_manifest
from .compaction import Compactor
from .delta import DeltaOverlay, LiveIndex, LiveView
from .engine import LiveMCKEngine, Mutation
from .snapshots import EpochManager, Snapshot
from .wal import WalRecord, WriteAheadLog, read_wal

__all__ = [
    "CheckpointManager",
    "Compactor",
    "DeltaOverlay",
    "EpochManager",
    "LiveIndex",
    "LiveMCKEngine",
    "LiveView",
    "Mutation",
    "RecoveryReport",
    "Snapshot",
    "WalRecord",
    "WriteAheadLog",
    "read_manifest",
    "read_wal",
]
