"""Scatter-gather fan-out and live rebalancing over replication groups.

:class:`ReplicatedShardRouter` is the scale-out face of the live stack:
it tiles the bootstrap extent with the same
:class:`~repro.core.scatter.Tiling` grid the distributed layer uses, runs one
:class:`~repro.replication.group.ReplicationGroup` per region, and
duck-types a :class:`~repro.live.engine.LiveMCKEngine` closely enough
that :class:`~repro.serving.service.QueryService` and the HTTP tier
serve it unchanged.

**Queries** fan out to every shard concurrently (each shard picks its
read engine by replica lag).  Each shard returns its own answer and the
relevant rows it answered on, and
:func:`~repro.core.scatter.scatter_merge` solves the boundary strip the
shard answers cannot see, so the answer is globally what its quality tag
says: the best shard diameter only upper-bounds the optimum, and a group
straddling a region edge can beat it.  A shard that misses the caller's
deadline does not fail the query: the merged answer is tagged
``partial`` (the weakest rung of the PR 3 quality ladder) with
``stats["shards_missed"]`` saying what was left out.

**Rebalancing**: :meth:`split_shard` migrates half of a hot region into
a brand-new group without blocking readers — bootstrap the new group
from a pinned snapshot of the moving half, catch up via fenced WAL tail
reads, then take the (writer-only) routing lock for the final tail and
the routing swap.  Readers racing the cutover may briefly see a moved
object in both groups; the merge counts it once.

Mutation routing after splits: an oid's birth group is ``oid //
oid_stride``; migrated oids carry an explicit override entry.  Regions
are half-open rectangles sharing exact float boundaries, so routing
stays total and disjoint through any number of splits.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.common import Instrumentation
from ..core.engine import attach_explain, canonical_algorithm
from ..core.result import Group
from ..core.scatter import Region, Tiling, scatter_merge
from ..core.skeca import DEFAULT_EPSILON
from ..exceptions import (
    AlgorithmTimeout,
    DatasetError,
    InfeasibleQueryError,
)
from ..live.delta import HolderScan
from ..live.engine import MutationListener
from ..observability.tracer import Tracer, get_tracer
from .group import ReplicationGroup

__all__ = [
    "DEFAULT_OID_STRIDE",
    "ReplicatedShardRouter",
    "RouterView",
    "SplitReport",
]

#: Default per-shard oid range width (~10^12 objects per shard).
DEFAULT_OID_STRIDE = 1 << 40


@dataclass
class SplitReport:
    """What one live shard split did."""

    source: int
    new_shard: int
    moved_objects: int
    catch_up_records: int
    cutover_records: int
    seconds: float
    keep_region: Region
    move_region: Region

    def as_dict(self) -> Dict:
        return {
            "source": self.source,
            "new_shard": self.new_shard,
            "moved_objects": self.moved_objects,
            "catch_up_records": self.catch_up_records,
            "cutover_records": self.cutover_records,
            "seconds": self.seconds,
        }


class _RouterVocabulary:
    """Aggregated vocabulary surface for admission cost estimation."""

    def __init__(self, views):
        self._views = views

    def __contains__(self, term: str) -> bool:
        return any(term in view.vocabulary for view in self._views)

    def frequency(self, term: str) -> int:
        total = 0
        for view in self._views:
            if term in view.vocabulary:
                total += int(view.vocabulary.frequency(term))
        return total


class RouterView:
    """Dataset-shaped read surface spanning every shard's current view.

    Enough for the serving layer's feasibility probes, cost estimation
    and object-detail lookups; it deliberately does *not* offer the
    columnar compile surface (a cross-shard query context would defeat
    the point of sharding — fan out instead).
    """

    def __init__(self, router: "ReplicatedShardRouter"):
        self.name = router.name
        self._views = [
            group.primary_engine.dataset for group in router.live_groups()
        ]

    def __len__(self) -> int:
        return sum(len(view) for view in self._views)

    def get(self, oid: int):
        for view in self._views:
            obj = view.get(oid)
            if obj is not None:
                return obj
        return None

    def __getitem__(self, oid: int):
        obj = self.get(oid)
        if obj is None:
            raise KeyError(oid)
        return obj

    def __contains__(self, oid: int) -> bool:
        return self.get(oid) is not None

    def __iter__(self):
        for view in self._views:
            yield from view

    def live_oids(self) -> List[int]:
        out: List[int] = []
        for view in self._views:
            out.extend(view.live_oids())
        return out

    @property
    def vocabulary(self) -> _RouterVocabulary:
        return _RouterVocabulary(self._views)


class ReplicatedShardRouter:
    """Fan queries across replicated shards; split the ones that run hot.

    With ``replicas_per_shard=0`` it is the plain sharded live store: one
    primary :class:`~repro.live.engine.LiveMCKEngine` per grid region,
    routed mutations, disjoint oid ranges and the same deterministic merge.
    """

    #: Engine flavour (see :attr:`repro.core.engine.MCKEngine.kind`).
    #: The router opens no ``engine.query`` span of its own; each shard
    #: engine records one per fanned-out call.
    kind = "scatter"

    def __init__(
        self,
        records: Sequence[Tuple[float, float, Iterable[str]]],
        n_shards: int = 4,
        replicas_per_shard: int = 1,
        dir: Optional[str] = None,
        name: str = "router",
        metrics=None,
        oid_stride: int = DEFAULT_OID_STRIDE,
        read_preference: str = "auto",
        replica_lag_bound: int = 64,
        split_threshold: Optional[int] = None,
        replication_interval: Optional[float] = None,
        wal_sync_every: int = 1,
        fanout_workers: Optional[int] = None,
        engine_kwargs: Optional[dict] = None,
    ):
        records = list(records)
        if not records:
            raise DatasetError(
                "the shard router needs bootstrap records to fix the "
                "partitioning extent"
            )
        self.name = name
        self.oid_stride = int(oid_stride)
        self.replicas_per_shard = max(0, int(replicas_per_shard))
        self.read_preference = read_preference
        self.replica_lag_bound = int(replica_lag_bound)
        self.split_threshold = split_threshold
        self._wal_sync_every = int(wal_sync_every)
        self._engine_kwargs = dict(engine_kwargs or {})
        self._metrics = metrics
        self._listeners: List[MutationListener] = []
        self._mutate_lock = threading.RLock()
        self._closed = False

        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="mck-router-")
            dir = self._tmpdir.name
        self.dir = os.path.abspath(dir)

        xy = np.array([(x, y) for x, y, _kw in records], dtype=np.float64)
        self._tiling = Tiling.grid(xy[:, 0], xy[:, 1], n_shards)
        n_groups = len(self._tiling.regions)

        grouped: Dict[int, List[Tuple[int, float, float, Iterable[str]]]] = {
            gid: [] for gid in range(n_groups)
        }
        for (x, y, kw), gid in zip(records, self._tiling.owners(xy).tolist()):
            oid = gid * self.oid_stride + len(grouped[gid])
            grouped[gid].append((oid, float(x), float(y), kw))

        self.groups = [self._make_group(gid, grouped[gid]) for gid in range(n_groups)]
        #: Migrated oids (split survivors) -> owning group id; everything
        #: else is owned by its birth group ``oid // oid_stride``.
        self._moved_owner: Dict[int, int] = {}

        width = fanout_workers or min(32, 4 + 4 * n_groups)
        self._executor = ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="mck-scatter"
        )
        self._sync_stop = threading.Event()
        self._sync_thread: Optional[threading.Thread] = None
        if replication_interval is not None:
            self.start_replication(replication_interval)

    def _make_group(
        self, gid: int, records: Sequence[Tuple[int, float, float, Iterable[str]]]
    ) -> ReplicationGroup:
        return ReplicationGroup(
            records,
            dir=os.path.join(self.dir, f"shard-{gid:03d}"),
            n_replicas=self.replicas_per_shard,
            name=f"{self.name}-s{gid}",
            shard_label=str(gid),
            metrics=self._metrics,
            oid_start=gid * self.oid_stride,
            wal_sync_every=self._wal_sync_every,
            engine_kwargs=self._engine_kwargs,
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def live_groups(self) -> List[ReplicationGroup]:
        return list(self.groups)

    def live_shard_ids(self) -> List[int]:
        return list(range(len(self.groups)))

    def route(self, x: float, y: float) -> int:
        """The shard id owning a point (clamped into the extent)."""
        return self._tiling.route(x, y)

    def shard_of(self, oid: int) -> int:
        """The shard owning a live oid (birth stride or split override)."""
        gid = self._moved_owner.get(oid)
        if gid is None:
            gid = int(oid) // self.oid_stride
        if gid < len(self.groups) and oid in self.groups[gid].primary_engine.dataset:
            return gid
        raise DatasetError(f"oid {oid} is not live in any shard")

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #

    def insert(self, x: float, y: float, keywords: Iterable[str]) -> int:
        return self.apply_batch(inserts=[(x, y, keywords)])[0]

    def delete(self, oid: int) -> None:
        self.apply_batch(deletes=[oid])

    def apply_batch(
        self,
        inserts: Sequence[Tuple[float, float, Iterable[str]]] = (),
        deletes: Sequence[int] = (),
    ) -> List[int]:
        """Route a mixed batch; atomic per shard, not across shards."""
        with self._mutate_lock:
            by_shard_ins: Dict[int, List] = {}
            order: List[int] = []
            for x, y, kw in inserts:
                gid = self.route(x, y)
                by_shard_ins.setdefault(gid, []).append((x, y, kw))
                order.append(gid)
            by_shard_del: Dict[int, List[int]] = {}
            for oid in deletes:
                by_shard_del.setdefault(self.shard_of(oid), []).append(oid)

            produced: Dict[int, List[int]] = {}
            for gid in sorted(set(by_shard_ins) | set(by_shard_del)):
                produced[gid] = self.groups[gid].apply_batch(
                    inserts=by_shard_ins.get(gid, ()),
                    deletes=by_shard_del.get(gid, ()),
                )
                for oid in by_shard_del.get(gid, ()):
                    self._moved_owner.pop(oid, None)
            cursors = {gid: 0 for gid in produced}
            out: List[int] = []
            for gid in order:
                out.append(produced[gid][cursors[gid]])
                cursors[gid] += 1
            return out

    # ------------------------------------------------------------------ #
    # Scatter-gather query
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
        """Fan out, merge over the boundary strip, degrade to ``partial``.

        Same signature as the live engine's ``query`` so the serving
        layer cannot tell the difference.  A shard that cannot answer
        within the budget is *left out* of the merge and the answer is
        tagged ``partial`` instead of erroring — as long as the shards
        that did answer cover the query.
        """
        canonical = canonical_algorithm(algorithm)
        if explain and instrumentation is None:
            # A tracer of its own, so EXPLAIN shows the strip solve's span.
            instrumentation = Instrumentation(get_tracer() or Tracer())
        started = time.perf_counter()
        groups = self.live_groups()
        args = (keywords, canonical, epsilon, timeout, degrade_on_timeout)
        futures = [self._executor.submit(self._query_shard, g, *args) for g in groups]
        done, not_done = wait(futures, timeout=timeout)

        outcomes = [future.result() for future in done]
        answers = [o for o in outcomes if not isinstance(o, Exception)]
        errors = [o for o in outcomes if isinstance(o, Exception)]
        failed = [e for e in errors if not isinstance(e, AlgorithmTimeout)]
        # Shards past the deadline, or out of time inside it.
        missed = len(not_done) + len(errors) - len(failed)
        for future in not_done:
            future.cancel()
        answered = sum(a.group is not None for a in answers)
        infeasible = len(answers) - answered

        metrics = self._metrics
        if metrics is not None:
            for outcome, n in (
                ("answered", answered),
                ("missed", missed),
                ("infeasible", infeasible),
                ("failed", len(failed)),
            ):
                if n:
                    metrics.fanout_counter.inc(float(n), outcome=outcome)
        if instrumentation is not None:
            instrumentation.count("fanout_shards", len(groups))
            instrumentation.count("fanout_answered", answered)
            if missed:
                instrumentation.count("fanout_missed", missed)

        left_out = missed + len(failed)
        remaining = None
        if timeout is not None:
            remaining = max(0.0, timeout - (time.perf_counter() - started))
        try:
            merged = scatter_merge(
                keywords, canonical, answers, self._tiling, epsilon,
                remaining, degrade_on_timeout, instrumentation, left_out,
            )
        except InfeasibleQueryError:
            # Rows of a left-out shard might have covered the query.
            if not left_out:
                raise
            if failed and not missed:
                raise failed[0] from None
            raise AlgorithmTimeout(canonical, timeout or 0.0) from None

        best = merged.group
        best.algorithm = canonical
        best.stats["fanout_shards"] = float(len(groups))
        best.stats["shards_answered"] = float(answered)
        best.stats["shards_infeasible"] = float(infeasible)
        best.stats["shards_missed"] = float(left_out)
        if merged.partial:
            if metrics is not None:
                metrics.partial_merge_counter.inc()
            if instrumentation is not None:
                instrumentation.count("degraded")
        elapsed = time.perf_counter() - started
        best.elapsed_seconds = elapsed
        if instrumentation is not None:
            # Shards compile their own contexts inside the fan-out window.
            instrumentation.timings["context_seconds"] = 0.0
            instrumentation.timings["algorithm_seconds"] = elapsed
            instrumentation.merge_group_stats(best.stats)
        if explain:
            attach_explain(
                best, keywords, canonical, epsilon, timeout,
                instrumentation, self.kind, elapsed,
                instrumentation.tracer or get_tracer(), merged.trace_id,
            )
        return best

    def _query_shard(self, group, *args):
        """The shard's answer, or the error it raised."""
        try:
            return group.read_engine(prefer=self.read_preference).shard_answer(*args)
        except Exception as err:  # noqa: BLE001 - isolate shard failures
            return err

    # ------------------------------------------------------------------ #
    # Replication pump
    # ------------------------------------------------------------------ #

    def sync_replicas(self) -> int:
        """One shipping round across every group; returns records applied."""
        total = 0
        for group in self.live_groups():
            total += group.sync_replicas()
        return total

    def start_replication(self, interval: float = 0.05) -> None:
        """Tail all replicas on a background thread every ``interval`` s."""
        if self._sync_thread is not None:
            return
        self._sync_stop.clear()

        def _pump() -> None:
            while not self._sync_stop.wait(interval):
                try:
                    self.sync_replicas()
                except Exception:  # noqa: BLE001 - pump must survive
                    pass

        self._sync_thread = threading.Thread(
            target=_pump, name="mck-replication", daemon=True
        )
        self._sync_thread.start()

    def stop_replication(self) -> None:
        thread = self._sync_thread
        if thread is None:
            return
        self._sync_stop.set()
        thread.join(5.0)
        self._sync_thread = None

    # ------------------------------------------------------------------ #
    # Rebalancing
    # ------------------------------------------------------------------ #

    def shard_sizes(self) -> Dict[int, int]:
        return {
            gid: len(group)
            for gid, group in enumerate(self.groups)
            if group is not None
        }

    def hot_shard(self) -> Optional[int]:
        """The largest shard past ``split_threshold``, or None."""
        if self.split_threshold is None:
            return None
        sizes = self.shard_sizes()
        gid = max(sizes, key=lambda g: (sizes[g], -g))
        return gid if sizes[gid] > self.split_threshold else None

    def maybe_split(self) -> Optional[SplitReport]:
        """Split the hot shard when the per-shard gauges say there is one."""
        gid = self.hot_shard()
        if gid is None:
            return None
        return self.split_shard(gid)

    def split_shard(
        self, gid: int, catch_up_batch: int = 64
    ) -> SplitReport:
        """Migrate half of shard ``gid`` into a new group, live.

        Phases (readers are never blocked; writers only for phase 4):

        1. *pin* — snapshot the source primary at WAL watermark W; the
           moving half is every snapshot object in the half-region.
        2. *bootstrap* — build the new group from the moving records
           (oids preserved via
           :meth:`~repro.live.engine.LiveMCKEngine.apply_replicated`).
        3. *catch up* — repeatedly drain source WAL records past W that
           concern the moving half into the new group until the tail is
           short.
        4. *cutover* — under the router's mutation lock: final tail,
           routing swap (shrink source region, add the new one), owner
           overrides for migrated oids, and deletion of the moved
           objects from the source (a logged mutation its replicas
           follow like any other).
        """
        started = time.perf_counter()
        source = self.groups[gid]
        region = self._tiling.regions[gid]
        if region.x2 - region.x1 >= region.y2 - region.y1:
            mid = region.x1 + (region.x2 - region.x1) / 2.0
            keep, move, axis = region._replace(x2=mid), region._replace(x1=mid), 0
        else:
            mid = region.y1 + (region.y2 - region.y1) / 2.0
            keep, move, axis = region._replace(y2=mid), region._replace(y1=mid), 1

        def moving(x: float, y: float) -> bool:
            return (x, y)[axis] >= mid

        metrics = self._metrics
        try:
            engine = source.primary_engine
            engine.flush()
            with engine.pin() as snap:
                watermark = snap.wal_seq
                seed = [
                    (oid, x, y, kw)
                    for oid, x, y, kw in snap.view().records()
                    if moving(x, y)
                ]
            new_gid = len(self.groups)
            new_group = self._make_group(new_gid, seed)
            for listener in self._listeners:
                new_group.add_mutation_listener(listener)
            moved = {oid for oid, _x, _y, _kw in seed}

            def relevant(records):
                picked = []
                for record in records:
                    if record.op == "insert" and moving(record.x, record.y):
                        picked.append(record)
                        moved.add(record.oid)
                    elif record.op == "delete" and record.oid in moved:
                        picked.append(record)
                        moved.discard(record.oid)
                return picked

            caught_up = 0
            seq = watermark
            while True:
                tail = source.read_records_since(seq)
                if tail:
                    picked = relevant(tail)
                    if picked:
                        new_group.apply_records(picked)
                        caught_up += len(picked)
                    seq = tail[-1].seq
                if len(tail) < catch_up_batch:
                    break

            with self._mutate_lock:
                source.flush()
                tail = source.read_records_since(seq)
                picked = relevant(tail)
                if picked:
                    new_group.apply_records(picked)
                cutover = len(picked)
                # Routing swap first: new mutations for the moving half
                # go to the new group from this point on.  One assignment,
                # so a merging reader sees the old tiling or the new one.
                regions = list(self._tiling.regions)
                regions[gid] = keep
                self._tiling.regions = regions + [move]
                self.groups.append(new_group)
                for oid in moved:
                    self._moved_owner[oid] = new_gid
                # Finally evict the migrated objects from the source —
                # an ordinary logged mutation its replicas replay.
                source_view = source.primary_engine.dataset
                evict = [oid for oid in sorted(moved) if oid in source_view]
                if evict:
                    source.apply_batch(deletes=evict)
        except Exception:
            if metrics is not None:
                metrics.shard_splits_counter.inc(outcome="failed")
            raise
        seconds = time.perf_counter() - started
        if metrics is not None:
            metrics.shard_splits_counter.inc(outcome="ok")
            new_group.publish_lag_metrics()
            source.publish_lag_metrics()
        return SplitReport(
            source=gid,
            new_shard=new_gid,
            moved_objects=len(moved),
            catch_up_records=caught_up,
            cutover_records=cutover,
            seconds=seconds,
            keep_region=keep,
            move_region=move,
        )

    # ------------------------------------------------------------------ #
    # Live-engine duck-typing for the serving layer
    # ------------------------------------------------------------------ #

    @property
    def metrics(self):
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        for group in self.live_groups():
            group.metrics = registry
            group.primary_engine.metrics = registry

    def _publish_metrics(self) -> None:
        for group in self.live_groups():
            if not group.primary_dead():
                group.primary_engine._publish_metrics()
            group.publish_lag_metrics()

    @property
    def dataset(self) -> RouterView:
        return RouterView(self)

    @property
    def epoch(self) -> int:
        """Max engine epoch across shards (monotonic per mutation)."""
        return max(
            (g.primary_engine.epoch for g in self.live_groups()), default=0
        )

    def nearest_holders(
        self, points, terms: Sequence[str], within, gather, anchors
    ) -> HolderScan:
        """One batched holder scan per shard primary, merged: the nearest
        holder over every shard, every shard's holders in reach (see
        :meth:`~repro.live.delta.LiveView.nearest_holders`)."""
        scans = [
            group.primary_engine.nearest_holders(points, terms, within, gather, anchors)
            for group in self.live_groups()
        ]
        if not scans:
            return HolderScan.nothing(len(terms), len(anchors))
        return HolderScan.merge(scans)

    def add_mutation_listener(self, listener: MutationListener) -> None:
        self._listeners.append(listener)
        for group in self.live_groups():
            group.add_mutation_listener(listener)

    def remove_mutation_listener(self, listener: MutationListener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass
        for group in self.live_groups():
            group.remove_mutation_listener(listener)

    def __len__(self) -> int:
        return sum(len(group) for group in self.live_groups())

    def flush(self) -> None:
        for group in self.live_groups():
            group.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.stop_replication()
        self._executor.shutdown(wait=False)
        for group in self.live_groups():
            group.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "ReplicatedShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
