"""A mutable, versioned mCK engine: reads never block on writers.

:class:`LiveMCKEngine` mirrors :class:`~repro.core.engine.MCKEngine`'s
``query()`` contract but serves it from an epoch-pinned snapshot of a
``(sealed base, delta overlay)`` pair:

* **writes** (:meth:`insert` / :meth:`delete` / :meth:`apply_batch`) go
  through an optional write-ahead log, build a new immutable delta by
  copy-on-write and publish a new epoch — a pointer swap, never an
  in-place index mutation;
* **reads** pin the epoch they start on, so a query in flight keeps a
  consistent view while any number of mutations and compactions land;
* a :class:`~repro.live.compaction.Compactor` folds a grown delta back
  into a fresh sealed base off the write path.

Durability model: with ``wal_path=`` the sealed base handed to the
constructor plus a full WAL replay reproduces the exact live object set.
With ``data_dir=`` the engine additionally *checkpoints*: a compaction
that seals a new base also persists it as a CRC-checksummed segment with
an atomic manifest (see :mod:`repro.live.checkpoint`), and truncates the
covered WAL prefix — so a restart is segment load + short tail replay
instead of full replay + index rebuild.  A corrupt or torn segment
degrades recovery (older checkpoint, then full replay of whatever WAL
exists) rather than refusing to start.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from typing import (
    Callable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.common import Instrumentation
from ..core.engine import ShardAnswer, run_query, run_shard_query
from ..core.objects import Dataset, GeoObject
from ..core.query import MCKQuery, QueryContext, compile_query
from ..core.result import Group
from ..core.skeca import DEFAULT_EPSILON
from ..exceptions import DatasetError
from ..observability.tracer import span
from .checkpoint import CheckpointManager, RecoveryReport
from .compaction import Compactor
from .delta import DeltaOverlay, HolderScan, LiveView
from .snapshots import EpochManager, Snapshot
from .wal import WalRecord, WriteAheadLog

__all__ = ["LiveMCKEngine", "Mutation"]

logger = logging.getLogger("repro.live.engine")


class Mutation(NamedTuple):
    """One object a published write inserted or deleted."""

    op: str  # "insert" or "delete"
    oid: int
    keywords: Tuple[str, ...]  # sorted
    x: float
    y: float


#: ``listener(mutations)`` — fired once per published write, after it is
#: visible, with every object that write inserted or deleted.
MutationListener = Callable[[Tuple[Mutation, ...]], None]


class LiveMCKEngine:
    """Versioned mutable store answering mCK queries without read locks.

    Example
    -------
    >>> engine = LiveMCKEngine.from_records(
    ...     [(0.0, 0.0, ["hotel"]), (1.0, 1.0, ["shop"])]
    ... )
    >>> oid = engine.insert(0.5, 0.5, ["cafe"])
    >>> group = engine.query(["hotel", "cafe"], algorithm="EXACT")
    >>> sorted(group.object_ids) == sorted([0, oid])
    True
    """

    #: Engine flavour (see :attr:`repro.core.engine.MCKEngine.kind`).
    kind = "live"

    def __init__(
        self,
        base: Dataset,
        wal_path: Optional[str] = None,
        wal_sync_every: int = 64,
        data_dir: Optional[str] = None,
        compact_threshold: int = 512,
        compact_ratio: float = 0.25,
        auto_compact: bool = True,
        background_compaction: bool = False,
        metrics=None,
        context_cache_size: int = 16,
        oid_start: int = 0,
        shard_label: str = "0",
        wal_start_seq: int = 0,
    ):
        if wal_path is not None and data_dir is not None:
            raise DatasetError(
                "pass wal_path (bare WAL) or data_dir (checkpointed), not both"
            )
        self.metrics = metrics
        #: ``shard=`` label under which this engine publishes its metric
        #: families; a sharded deployment gives each member its own so
        #: hot shards are tellable apart on one registry.
        self.shard_label = str(shard_label)
        self._write_lock = threading.RLock()
        self._listeners: List[MutationListener] = []
        self._contexts: "OrderedDict[Tuple[int, Tuple[str, ...]], QueryContext]" = (
            OrderedDict()
        )
        self._context_lock = threading.Lock()
        self._context_cache_size = max(0, context_cache_size)
        self._closed = False

        self.checkpointer: Optional[CheckpointManager] = None
        self.recovery_report: Optional[RecoveryReport] = None
        self._recovery_metrics_pushed = False

        delta: Optional[DeltaOverlay] = None
        covered_seq = 0
        tail: Sequence[WalRecord] = ()
        if data_dir is not None:
            self.checkpointer = CheckpointManager(data_dir)
            recovered_base, covered_seq, tail, report = (
                self.checkpointer.recover()
            )
            self.recovery_report = report
            if recovered_base is not None:
                # The checkpoint supersedes the caller's seed base: it IS
                # that base (or a descendant) as of the covered WAL seq.
                base = recovered_base
            wal_path = self.checkpointer.wal_path

        self.name = base.name
        # ``oid_start`` lets a sharded deployment give each shard its own
        # disjoint oid range; new oids never dip below it.
        next_oid = max(base.max_oid() + 1, int(oid_start))
        if self.checkpointer is not None:
            # A compacted base forgets deleted oids; the manifest's
            # high-water mark keeps the allocator from re-issuing them.
            next_oid = max(next_oid, self.checkpointer.recovered_next_oid)

        self.wal: Optional[WriteAheadLog] = None
        if wal_path is not None:
            # ``wal_start_seq`` matters only in bare-WAL mode: a log file
            # opened mid-stream (a post-failover epoch file) must continue
            # the shipped sequence, not restart at 1.
            self.wal = WriteAheadLog(
                wal_path,
                sync_every=wal_sync_every,
                start_seq=max(covered_seq, int(wal_start_seq)),
            )
            replayable = tail if self.checkpointer is not None else (
                self.wal.recovered
            )
            if replayable:
                report = self.recovery_report
                if report is not None:
                    report.state = "replaying_wal"
                with span("live.replay", records=len(replayable)):
                    delta, next_oid = self._fold_tail(
                        base, replayable, next_oid
                    )
        if self.recovery_report is not None:
            self.recovery_report.state = "complete"
        if delta is None:
            delta = DeltaOverlay(vocab=base.vocabulary)

        self._next_oid = next_oid
        self._epochs = EpochManager(
            Snapshot(
                0, base, delta, wal_seq=self.wal.last_seq if self.wal else 0
            )
        )
        self.compactor = Compactor(
            self,
            threshold=compact_threshold,
            ratio=compact_ratio,
            enabled=auto_compact,
        )
        if background_compaction:
            self.compactor.start()
        if (
            self.checkpointer is not None
            and self.recovery_report is not None
            and self.recovery_report.source == "initial"
            and len(base) > 0
        ):
            # First boot over a non-empty seed base: the seed exists only
            # in memory until a compaction checkpoints it.  Persist it now
            # (covering seq 0 — the WAL tail replays on top) so "initial
            # records + data_dir" is durable from the first open.
            self._persist_checkpoint(base, 0)
        self._publish_metrics()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_records(
        cls,
        records: Iterable[Tuple[float, float, Iterable[str]]],
        name: str = "live",
        **kwargs,
    ) -> "LiveMCKEngine":
        """Open over ``(x, y, keywords)`` records with dense initial oids."""
        return cls(Dataset.from_records(records, name=name), **kwargs)

    @classmethod
    def from_dataset(cls, dataset: Dataset, **kwargs) -> "LiveMCKEngine":
        """Open over an existing static :class:`Dataset` as the sealed base."""
        dataset.finalize()
        return cls(dataset, **kwargs)

    @classmethod
    def open(
        cls, data_dir: str, name: str = "live", **kwargs
    ) -> "LiveMCKEngine":
        """Open (or create) a checkpointed store rooted at ``data_dir``.

        The canonical durable entry point: an empty seed base, with the
        real state recovered from the newest verifiable checkpoint segment
        plus the WAL tail.  A fresh directory yields an empty store.
        """
        return cls(Dataset.from_records((), name=name), data_dir=data_dir, **kwargs)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def epoch(self) -> int:
        return self._epochs.epoch

    @property
    def delta_size(self) -> int:
        return self._epochs.current().delta.size

    @property
    def dataset(self) -> LiveView:
        """The current snapshot's merged dataset-shaped view.

        Gives the serving layer (cost estimation, feasibility probes) the
        same surface a static engine's ``.dataset`` offers.  For a
        *consistent* read spanning several calls, pin a snapshot instead.
        """
        return self._epochs.current().view()

    def __len__(self) -> int:
        return len(self.dataset)

    def pin(self):
        """Pin the current epoch; context manager yielding the snapshot."""
        return self._epochs.pin()

    def snapshot(self) -> Snapshot:
        return self._epochs.current()

    def add_mutation_listener(self, listener: MutationListener) -> None:
        """Register ``listener(mutations)`` fired post-publish, once per write.

        Listeners run after the new epoch is visible, so a reader racing a
        notification can at worst see *fresher* data than the notification
        describes — never staler (the invalidation layer relies on this).
        """
        self._listeners.append(listener)

    def remove_mutation_listener(self, listener: MutationListener) -> None:
        """Detach a previously registered listener (idempotent).

        One shared engine can outlive many :class:`~repro.serving.service
        .QueryService` lifecycles; a service that never detaches leaks its
        listener — and through it the service's closed cache — for the
        engine's whole lifetime.  Unknown listeners are ignored so a
        double-close stays a no-op.
        """
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def insert(self, x: float, y: float, keywords: Iterable[str]) -> int:
        """Insert one object; returns its stable oid."""
        oids = self.apply_batch(inserts=[(x, y, keywords)])
        return oids[0]

    def delete(self, oid: int) -> None:
        """Delete a live object (raises ``DatasetError`` if not live)."""
        self.apply_batch(deletes=[oid])

    def apply_batch(
        self,
        inserts: Sequence[Tuple[float, float, Iterable[str]]] = (),
        deletes: Sequence[int] = (),
    ) -> List[int]:
        """Apply one atomic mutation batch; returns new oids in order.

        The whole batch lands in a single published epoch: readers see
        either none of it or all of it.
        """
        if not inserts and not deletes:
            return []
        self._check_open()
        with self._write_lock, span(
            "live.apply", inserts=len(inserts), deletes=len(deletes)
        ):
            current = self._epochs.current()
            view = current.view()

            new_objects: List[GeoObject] = []
            for x, y, keywords in inserts:
                kw = frozenset(str(k) for k in keywords)
                if not kw:
                    raise DatasetError("objects must carry at least one keyword")
                oid = self._next_oid
                self._next_oid += 1
                new_objects.append(GeoObject(oid, float(x), float(y), kw))

            gone: List[GeoObject] = []
            for oid in deletes:
                oid = int(oid)
                victim = view.get(oid)
                if victim is None:
                    raise DatasetError(f"cannot delete oid {oid}: not live")
                gone.append(victim)
            victims = [(o.oid, tuple(sorted(o.keywords))) for o in gone]

            if self.wal is not None:
                for obj in new_objects:
                    self.wal.append_insert(
                        obj.oid, obj.x, obj.y, sorted(obj.keywords)
                    )
                for oid, _ in victims:
                    self.wal.append_delete(oid)

            delta = current.delta.with_batch(inserts=new_objects, deletes=victims)
            self._epochs.publish(
                current.base,
                delta,
                wal_seq=self.wal.last_seq if self.wal is not None else None,
            )
            self._publish_metrics(
                wal_inserts=len(new_objects) if self.wal is not None else 0,
                wal_deletes=len(victims) if self.wal is not None else 0,
            )

        # Outside the write lock: listeners (cache revalidation) and the
        # compactor must never extend the writer critical section.
        self._notify(
            [_mutation("insert", obj) for obj in new_objects]
            + [_mutation("delete", obj) for obj in gone]
        )
        self.compactor.notify()
        return [obj.oid for obj in new_objects]

    def apply_replicated(
        self, records: Sequence[WalRecord], log: bool = False
    ) -> int:
        """Apply shipped WAL records *at their recorded oids*; returns count.

        The replication-side counterpart of :meth:`apply_batch`: a read
        replica (or a shard-split destination) replays another engine's
        mutation stream, so oids must be preserved rather than allocated.
        Records are folded into as few published epochs as possible — a
        flush boundary is forced only when a record touches an oid already
        touched earlier in the same call (insert-after-delete of the same
        oid cannot share one overlay batch).

        With ``log=True`` the records are re-logged into *this* engine's
        WAL under fresh local sequence numbers (a split destination owns
        its own durable stream); replicas pass ``log=False`` and track the
        source stream position themselves.  A record contradicting the
        live view (insert of a live oid, delete of a dead one) raises
        :class:`~repro.exceptions.DatasetError` — the caller's stream
        position is corrupt and it should re-bootstrap, not limp on.
        """
        records = list(records)
        if not records:
            return 0
        self._check_open()
        notifications: List[Mutation] = []
        with self._write_lock, span(
            "live.apply_replicated", records=len(records), log=log
        ):
            pending: List[WalRecord] = []
            touched: set = set()

            def _flush_pending() -> None:
                if not pending:
                    return
                current = self._epochs.current()
                view = current.view()
                new_objects: List[GeoObject] = []
                gone: List[GeoObject] = []
                for record in pending:
                    if record.op == "insert":
                        if view.get(record.oid) is not None:
                            raise DatasetError(
                                f"replicated insert of oid {record.oid} "
                                "collides with a live object"
                            )
                        obj = GeoObject(
                            record.oid,
                            float(record.x),
                            float(record.y),
                            frozenset(record.keywords),
                        )
                        new_objects.append(obj)
                        self._next_oid = max(self._next_oid, record.oid + 1)
                    else:
                        victim = view.get(record.oid)
                        if victim is None:
                            raise DatasetError(
                                f"replicated delete of oid {record.oid}: "
                                "not live"
                            )
                        gone.append(victim)
                victims = [(o.oid, tuple(sorted(o.keywords))) for o in gone]
                if log and self.wal is not None:
                    for obj in new_objects:
                        self.wal.append_insert(
                            obj.oid, obj.x, obj.y, sorted(obj.keywords)
                        )
                    for oid, _ in victims:
                        self.wal.append_delete(oid)
                delta = current.delta.with_batch(
                    inserts=new_objects, deletes=victims
                )
                if log and self.wal is not None:
                    watermark = self.wal.last_seq
                else:
                    # Track the *source* stream: the snapshot watermark is
                    # how far this replica has applied, which failover uses
                    # as the branch point.
                    watermark = pending[-1].seq
                self._epochs.publish(current.base, delta, wal_seq=watermark)
                self._publish_metrics(
                    wal_inserts=(
                        len(new_objects) if log and self.wal is not None else 0
                    ),
                    wal_deletes=(
                        len(victims) if log and self.wal is not None else 0
                    ),
                )
                notifications.extend(_mutation("insert", o) for o in new_objects)
                notifications.extend(_mutation("delete", o) for o in gone)
                pending.clear()
                touched.clear()

            for record in records:
                if record.op not in ("insert", "delete"):
                    raise DatasetError(
                        f"replicated record has unknown op {record.op!r}"
                    )
                if record.oid in touched:
                    _flush_pending()
                pending.append(record)
                touched.add(record.oid)
            _flush_pending()

        self._notify(notifications)
        self.compactor.notify()
        return len(records)

    def compact(self) -> bool:
        """Force a synchronous compaction; True if one ran."""
        return self.compactor.compact_now(force=True)

    # ------------------------------------------------------------------ #
    # Checkpointing (data_dir mode only)
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> bool:
        """Force a durable checkpoint of the current state; True if taken.

        With a pending delta the delta is compacted first (the compaction
        hook persists the freshly sealed base); with an empty delta the
        current base is persisted directly unless the newest on-disk
        checkpoint already covers this snapshot's WAL watermark.
        """
        if self.checkpointer is None:
            return False
        self._check_open()
        if self.delta_size:
            before = self.checkpointer.checkpoints_taken
            self.compactor.compact_now(force=True)
            # The compaction may succeed while its checkpoint fails
            # (counted, non-fatal); report what actually got durable.
            return self.checkpointer.checkpoints_taken > before
        snapshot = self.snapshot()
        retained = self.checkpointer._retained()
        if retained and int(retained[-1]["wal_seq"]) >= snapshot.wal_seq:
            return False  # nothing new since the last checkpoint
        return self._persist_checkpoint(snapshot.base, snapshot.wal_seq)

    def _checkpoint_after_compaction(
        self, sealed: Snapshot, new_base: Dataset
    ) -> None:
        """Persist the base a compaction just sealed (data_dir mode).

        ``sealed`` is the snapshot the compaction folded: the new base
        reflects the WAL exactly through ``sealed.wal_seq`` (residual
        delta mutations carry higher seqs and stay in the log tail).
        Called by the compactor *outside* its failure accounting — a
        checkpoint that cannot be written must not look like a failed
        compaction.
        """
        if self.checkpointer is None:
            return
        self._persist_checkpoint(new_base, sealed.wal_seq)

    def _fold_tail(
        self, base: Dataset, records: Sequence[WalRecord], next_oid: int
    ) -> Tuple[DeltaOverlay, int]:
        """Fold recovered WAL records over ``base`` at startup.

        Strict replay first — a collision means the log and the base
        disagree, which a bare-WAL engine treats as the configuration
        error it is.  A *checkpointed* engine must start anyway (the
        mismatch is typically a segment/WAL pairing damaged by the very
        crash we are recovering from), so it falls back to lenient replay
        that skips contradictory records, counting and reporting them.
        """
        try:
            return _replay(base, records, next_oid)
        except DatasetError as err:
            if self.checkpointer is None:
                raise
            report = self.recovery_report
            if report is not None:
                report.failure_reasons.append(f"strict replay failed: {err}")
            logger.warning(
                "recovery: strict WAL replay failed (%s); "
                "replaying leniently",
                err,
            )
            return _replay_lenient(base, records, next_oid)

    def _persist_checkpoint(self, base: Dataset, covered_seq: int) -> bool:
        """Run the checkpoint protocol for ``base``; count, never raise.

        The segment + manifest write runs without the write lock (it can
        take a while and only reads the immutable base); the WAL rotation
        takes the write lock so it cannot race an appending mutation.
        :class:`~repro.testing.faults.SimulatedCrash` is deliberately NOT
        caught — a simulated kill must unwind like a real one.
        """
        if self.checkpointer is None:
            return False
        try:
            if self.wal is not None:
                self.wal.flush()
            manifest = self.checkpointer.checkpoint(
                base, covered_seq, wal=None, next_oid=self._next_oid
            )
            kept = manifest["checkpoints"]
            if self.wal is not None and len(kept) >= 2:
                # Truncate only through the *older* retained checkpoint —
                # the newest segment's covering records must survive as
                # its corruption fallback (see repro.live.checkpoint).
                safe_seq = int(kept[0]["wal_seq"])
                with self._write_lock:
                    self.wal.truncate_through(safe_seq)
        except Exception as err:  # noqa: BLE001 - serve on, log, count
            self.checkpointer.checkpoint_failures += 1
            if self.metrics is not None:
                self.metrics.checkpoints_counter.inc(outcome="failed")
            logger.warning(
                "checkpoint failed (covered_seq %d): %s", covered_seq, err
            )
            return False
        if self.metrics is not None:
            self.metrics.checkpoints_counter.inc(outcome="ok")
        return True

    # ------------------------------------------------------------------ #
    # Query (MCKEngine's pipeline against a pinned snapshot)
    # ------------------------------------------------------------------ #

    def query(
        self,
        keywords: Sequence[str],
        algorithm: str = "SKECa+",
        epsilon: float = DEFAULT_EPSILON,
        timeout: Optional[float] = None,
        instrumentation: Optional[Instrumentation] = None,
        degrade_on_timeout: bool = False,
        explain: bool = False,
    ) -> Group:
        """Answer one mCK query on a pinned snapshot.

        Same contract as :meth:`repro.core.engine.MCKEngine.query`; the
        answering epoch and overlay size are recorded in
        ``group.stats["epoch"]`` / ``group.stats["delta_size"]``, and
        ``explain=True`` attaches ``group.explain_report`` labelled with
        the live engine kind.
        """
        with self._epochs.pin() as snapshot:
            return run_query(
                lambda kw: self._context(snapshot, kw),
                keywords,
                algorithm,
                epsilon,
                timeout,
                instrumentation,
                degrade_on_timeout,
                explain,
                self.kind,
                **self._snapshot_attrs(snapshot),
            )

    def shard_answer(
        self, keywords, algorithm, epsilon, timeout, degrade_on_timeout
    ) -> ShardAnswer:
        """:func:`~repro.core.engine.run_shard_query` on one pinned snapshot."""
        with self._epochs.pin() as snapshot:
            return run_shard_query(
                lambda kw: self._context(snapshot, kw), snapshot.view(), keywords,
                algorithm, epsilon, timeout, degrade_on_timeout, self.kind,
                **self._snapshot_attrs(snapshot),
            )

    @staticmethod
    def _snapshot_attrs(snapshot: Snapshot) -> dict:
        """:func:`~repro.core.engine.run_query` keywords for a pinned snapshot."""
        stats = {"epoch": float(snapshot.epoch), "delta_size": float(snapshot.delta.size)}
        return {
            "stats": stats,
            "compile_attrs": lambda ctx: snapshot.view().compile_stats(ctx.query.keywords),
            "epoch": snapshot.epoch,
        }

    def nearest_holders(
        self, points, terms: Sequence[str], within, gather, anchors
    ) -> HolderScan:
        """One batched holder scan of the current snapshot, tagged with its
        epoch (see :meth:`LiveView.nearest_holders`)."""
        snapshot = self._epochs.current()
        return snapshot.view().nearest_holders(
            points, terms, within, gather, anchors
        )._replace(epoch=snapshot.epoch)

    def _context(
        self, snapshot: Snapshot, keywords: Sequence[str]
    ) -> QueryContext:
        """Per-(epoch, keywords) compiled-context LRU.

        Keyed by epoch so a context never outlives its snapshot's
        consistency: after any mutation the key misses and the context is
        rebuilt against the new view.  Contexts of superseded epochs can
        never hit again, so an insert drops them and their dead views.
        """
        query = keywords if isinstance(keywords, MCKQuery) else MCKQuery(keywords)
        key = (snapshot.epoch, query.keywords)
        with self._context_lock:
            ctx = self._contexts.get(key)
            if ctx is not None:
                self._contexts.move_to_end(key)
                return ctx
        ctx = compile_query(snapshot.view(), query)
        if self._context_cache_size:
            with self._context_lock:
                self._contexts[key] = ctx
                current = self.epoch
                for stale in [k for k in self._contexts if k[0] < current]:
                    del self._contexts[stale]
                while len(self._contexts) > self._context_cache_size:
                    self._contexts.popitem(last=False)
        return ctx

    # ------------------------------------------------------------------ #
    # Lifecycle / internals
    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Force the WAL's group-commit boundary (no-op without a WAL)."""
        if self.wal is not None:
            self.wal.flush()

    def attach_wal(
        self, path: str, sync_every: int = 64, start_seq: int = 0
    ) -> None:
        """Adopt a (typically fresh) WAL file as this engine's durable log.

        The promotion primitive: a read replica runs without a WAL of its
        own — it applies a shipped stream — until failover makes it the
        primary, at which point it must start logging into the new fencing
        epoch's file.  ``start_seq`` anchors the continued sequence (the
        branch point the promotion chose); any WAL already attached is
        closed first.
        """
        with self._write_lock:
            self._check_open()
            if self.wal is not None:
                self.wal.close()
            self.wal = WriteAheadLog(
                path, sync_every=sync_every, start_seq=start_seq
            )

    def abandon(self) -> None:
        """Crash-stop the engine: no flush, no final WAL fsync.

        The counterpart of :meth:`close` for failure injection — after
        this the engine refuses all work exactly as a killed process
        would, and whatever the WAL had not yet group-committed is left
        to the mercy of the page cache (see
        :meth:`repro.live.wal.WriteAheadLog.abandon`).
        """
        if self._closed:
            return
        self._closed = True
        self.compactor.stop()
        if self.wal is not None:
            self.wal.abandon()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.compactor.stop()
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "LiveMCKEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DatasetError(f"live engine {self.name!r} is closed")

    def _notify(self, mutations: List[Mutation]) -> None:
        # Snapshot: a listener detaching itself (service close racing a
        # mutation) must not skip or double-fire its neighbours.
        batch = tuple(mutations)
        for listener in list(self._listeners):
            listener(batch)

    def _publish_metrics(self, wal_inserts: int = 0, wal_deletes: int = 0) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        current = self._epochs.current()
        shard = self.shard_label
        metrics.live_epoch_gauge.set(float(current.epoch), shard=shard)
        metrics.delta_size_gauge.set(float(current.delta.size), shard=shard)
        if wal_inserts:
            metrics.wal_records_counter.inc(
                wal_inserts, op="insert", shard=shard
            )
        if wal_deletes:
            metrics.wal_records_counter.inc(
                wal_deletes, op="delete", shard=shard
            )
        report = self.recovery_report
        if (
            report is not None
            and report.complete
            and not self._recovery_metrics_pushed
        ):
            # The engine is usually built before the serving layer wires
            # ``metrics`` onto it, so recovery numbers are published
            # lazily from the first metric push that sees both.
            self._recovery_metrics_pushed = True
            metrics.recovery_seconds_gauge.set(report.seconds)
            metrics.recovery_replayed_gauge.set(
                float(report.wal_records_replayed)
            )
            if report.segment_failures:
                metrics.segment_crc_failures_counter.inc(
                    report.segment_failures
                )


def _mutation(op: str, obj: GeoObject) -> Mutation:
    return Mutation(op, obj.oid, tuple(sorted(obj.keywords)), obj.x, obj.y)


def _replay(
    base: Dataset, records: Sequence[WalRecord], next_oid: int
) -> Tuple[DeltaOverlay, int]:
    """Fold recovered WAL records into one overlay over ``base``.

    Replays sequentially into plain dicts (a per-record copy-on-write
    rebuild would be quadratic), then builds the overlay in one pass.
    """
    adds = {}
    tombstones = set()
    for record in records:
        if record.op == "insert":
            if record.oid in base or record.oid in adds or record.oid in tombstones:
                raise DatasetError(
                    f"WAL replay: insert of oid {record.oid} collides with a "
                    "live or previously mutated object"
                )
            adds[record.oid] = GeoObject(
                record.oid, record.x, record.y, frozenset(record.keywords)
            )
            next_oid = max(next_oid, record.oid + 1)
        else:
            was_add = adds.pop(record.oid, None)
            if was_add is None and record.oid not in base:
                raise DatasetError(
                    f"WAL replay: delete of oid {record.oid} which was never live"
                )
            if was_add is None:
                # Tombstone only needed for base victims; a deleted WAL add
                # simply vanishes (it was never sealed anywhere).
                tombstones.add(record.oid)
            next_oid = max(next_oid, record.oid + 1)
    return DeltaOverlay.from_state(adds, tombstones, base), next_oid


def _replay_lenient(
    base: Dataset, records: Sequence[WalRecord], next_oid: int
) -> Tuple[DeltaOverlay, int]:
    """Degraded-mode replay: skip contradictory records instead of raising.

    Used only when recovering a checkpointed store whose segment and WAL
    disagree (see :meth:`LiveMCKEngine._fold_tail`).  An insert colliding
    with a live oid and a delete of a never-live oid are both dropped —
    the segment, which passed full CRC verification, wins.
    """
    adds = {}
    tombstones = set()
    skipped = 0
    for record in records:
        next_oid = max(next_oid, record.oid + 1)
        if record.op == "insert":
            if record.oid in base or record.oid in adds or record.oid in tombstones:
                skipped += 1
                continue
            adds[record.oid] = GeoObject(
                record.oid, record.x, record.y, frozenset(record.keywords)
            )
        else:
            was_add = adds.pop(record.oid, None)
            if was_add is not None:
                continue
            if record.oid not in base:
                skipped += 1
                continue
            tombstones.add(record.oid)
    if skipped:
        logger.warning(
            "recovery: lenient replay skipped %d contradictory record(s)",
            skipped,
        )
    return DeltaOverlay.from_state(adds, tombstones, base), next_oid
