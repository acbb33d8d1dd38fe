"""Per-query statistics and aggregate metrics for the serving layer.

Every answered query yields one :class:`QueryStats` record: where the time
went (context compile vs. algorithm), whether the result came from the
cache, and the algorithm's search/pruning counters (circleScan
invocations, candidate circles, Lemma-3 pole prunes, ...) as reported
through :class:`~repro.core.common.Instrumentation`.

A :class:`MetricsRegistry` folds those records into two parallel views:

* per-algorithm aggregates (exact latency mean/p50/p95 over the retained
  samples, counter sums) — the JSON document the experiment harness, the
  benchmark suite and the ``mck bench`` subcommand all dump;
* histogram / counter / gauge *families*
  (:mod:`repro.observability.metrics`) with fixed log-scale buckets and
  ``algorithm`` / ``cache`` labels — constant memory regardless of query
  volume, and renderable as Prometheus text exposition via
  :meth:`MetricsRegistry.to_prometheus`.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..observability.exporters import render_prometheus
from ..observability.metrics import Counter, Gauge, Histogram

__all__ = ["QueryStats", "MetricsRegistry"]


@dataclass
class QueryStats:
    """Everything measured while answering one mCK query."""

    keywords: Tuple[str, ...]
    algorithm: str
    epsilon: float
    #: Seconds compiling (or fetching the cached) query context.
    context_seconds: float = 0.0
    #: Seconds inside the algorithm proper.
    algorithm_seconds: float = 0.0
    #: End-to-end seconds as observed by the service (includes cache probe).
    total_seconds: float = 0.0
    cache_hit: bool = False
    success: bool = True
    #: True when admission control rejected the request (it never ran; a
    #: rejected record is not folded into latency aggregates).
    rejected: bool = False
    #: True when the answer is a degraded (anytime) incumbent returned on
    #: an expired deadline or a pool fallback, not a completed run.
    degraded: bool = False
    #: Certified quality tag of the answer (``exact`` / ``approx_2sqrt3``
    #: / ``greedy_2x`` / ``partial``), or ``""`` when untagged.
    quality: str = ""
    diameter: float = math.nan
    group_size: int = 0
    #: Correlation id of the serving request that produced this record.
    correlation_id: str = ""
    #: Trace id of the request's span tree (``""`` untraced); carried as
    #: the histogram exemplar so a latency bucket links back to the
    #: flight recorder's retained trace.
    trace_id: str = ""
    #: Search/pruning counters: ``circle_scans``, ``binary_steps``,
    #: ``candidate_circles``, ``pruned_poles``, ``property1_skips``, ...
    counters: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "keywords": list(self.keywords),
            "algorithm": self.algorithm,
            "epsilon": self.epsilon,
            "context_seconds": self.context_seconds,
            "algorithm_seconds": self.algorithm_seconds,
            "total_seconds": self.total_seconds,
            "cache_hit": self.cache_hit,
            "success": self.success,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "quality": self.quality,
            "diameter": None if math.isnan(self.diameter) else self.diameter,
            "group_size": self.group_size,
            "correlation_id": self.correlation_id,
            "trace_id": self.trace_id,
            "counters": dict(self.counters),
        }


class _AlgorithmAggregate:
    """Latency and counter totals for one algorithm (lock held by caller)."""

    __slots__ = ("queries", "failures", "cache_hits", "degraded", "latencies",
                 "context_seconds", "algorithm_seconds", "counters")

    def __init__(self) -> None:
        self.queries = 0
        self.failures = 0
        self.cache_hits = 0
        self.degraded = 0
        self.latencies: List[float] = []
        self.context_seconds = 0.0
        self.algorithm_seconds = 0.0
        self.counters: Dict[str, float] = {}

    def add(self, stats: QueryStats) -> None:
        self.queries += 1
        if not stats.success:
            self.failures += 1
        if stats.degraded:
            self.degraded += 1
        if stats.cache_hit:
            self.cache_hits += 1
        else:
            # Latency aggregates describe real algorithm executions; cache
            # hits would drag every percentile toward ~0 and hide the
            # algorithm's true cost.
            self.latencies.append(stats.total_seconds)
            self.context_seconds += stats.context_seconds
            self.algorithm_seconds += stats.algorithm_seconds
            for name, value in stats.counters.items():
                self.counters[name] = self.counters.get(name, 0.0) + value

    def as_dict(self) -> dict:
        from ..experiments.metrics import percentile

        executed = len(self.latencies)

        def _maybe(value: float) -> Optional[float]:
            # A cache-hit-only run has zero executed samples; every latency
            # statistic is then explicitly None (never NaN, never 0/0).
            if executed == 0 or value != value:
                return None
            return value

        return {
            "queries": self.queries,
            "executed": executed,
            "cache_hits": self.cache_hits,
            "failures": self.failures,
            "degraded": self.degraded,
            "latency_seconds": {
                "samples": executed,
                "mean": _maybe(sum(self.latencies) / executed) if executed else None,
                "p50": _maybe(percentile(self.latencies, 50.0)),
                "p95": _maybe(percentile(self.latencies, 95.0)),
                "total": sum(self.latencies),
            },
            "context_seconds_total": self.context_seconds,
            "algorithm_seconds_total": self.algorithm_seconds,
            "counters": dict(self.counters),
        }


class MetricsRegistry:
    """Thread-safe aggregate of :class:`QueryStats` plus metric families."""

    _default: Optional["MetricsRegistry"] = None
    _default_lock = threading.Lock()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_algorithm: Dict[str, _AlgorithmAggregate] = {}
        self._cache: Dict[str, int] = {}
        self._records = 0
        # Built-in metric families; custom ones join via histogram()/
        # counter()/gauge().
        self._families: Dict[str, object] = {}
        self.latency_histogram = self.histogram(
            "mck_query_latency_seconds",
            help="End-to-end query latency by algorithm and cache outcome.",
            label_names=("algorithm", "cache"),
        )
        self.algorithm_histogram = self.histogram(
            "mck_algorithm_seconds",
            help="Seconds inside the algorithm proper (cache misses only).",
            label_names=("algorithm",),
        )
        self.queries_counter = self.counter(
            "mck_queries_total",
            help="Served queries by algorithm, cache outcome and success.",
            label_names=("algorithm", "cache", "success"),
        )
        self.work_counter = self.counter(
            "mck_algorithm_work_total",
            help="Algorithm search/pruning work counters (circle_scans, ...).",
            label_names=("algorithm", "counter"),
        )
        self.cache_gauge = self.gauge(
            "mck_result_cache",
            help="Result-cache counters from the latest snapshot.",
            label_names=("stat",),
        )
        self.degraded_counter = self.counter(
            "mck_degraded_total",
            help="Degraded (anytime incumbent / fallback) answers served.",
            label_names=("algorithm", "quality"),
        )
        self.pool_retry_counter = self.counter(
            "mck_pool_retries_total",
            help="EXACT process-pool submissions retried after a pool failure.",
            label_names=("algorithm",),
        )
        self.pool_fallback_counter = self.counter(
            "mck_pool_fallbacks_total",
            help="Queries answered by the in-process fallback after the "
            "pool retry budget was exhausted or the breaker was open.",
            label_names=("algorithm",),
        )
        self.circuit_transition_counter = self.counter(
            "mck_circuit_transitions_total",
            help="Process-pool circuit-breaker state transitions.",
            label_names=("state",),
        )
        self.circuit_open_gauge = self.gauge(
            "mck_circuit_open",
            help="1 while the process-pool circuit breaker is open.",
        )
        self.admission_rejected_counter = self.counter(
            "mck_admission_rejected_total",
            help="Requests rejected or shed by admission control, by reason "
            "(capacity, shed_oldest, deadline_unmeetable, "
            "worker_backpressure, shutdown).",
            label_names=("reason",),
        )
        self.inline_hits_counter = self.counter(
            "mck_inline_hits_total",
            help="Cache hits answered on the submitting thread, before "
            "admission control (admission counts only what executes).",
            label_names=("algorithm",),
        )
        self.queue_depth_gauge = self.gauge(
            "mck_queue_depth",
            help="Requests waiting in a bounded queue (admission queue or a "
            "distributed worker's task queue).",
            label_names=("queue",),
        )
        self.inflight_gauge = self.gauge(
            "mck_inflight",
            help="Requests currently executing, by queue.",
            label_names=("queue",),
        )
        self.concurrency_limit_gauge = self.gauge(
            "mck_concurrency_limit",
            help="Current adaptive concurrency limit in cost-weighted units.",
        )
        self.live_epoch_gauge = self.gauge(
            "mck_live_epoch",
            help="Currently published epoch of the live store, per shard.",
            label_names=("shard",),
        )
        self.delta_size_gauge = self.gauge(
            "mck_delta_size",
            help="Mutations (adds + tombstones) in the current delta "
            "overlay, per shard.",
            label_names=("shard",),
        )
        self.compactions_counter = self.counter(
            "mck_compactions_total",
            help="Delta-into-base compactions, by outcome (ok, failed) "
            "and shard.",
            label_names=("outcome", "shard"),
        )
        self.cache_invalidation_counter = self.counter(
            "mck_cache_invalidations_total",
            help="Cached results dropped because a write could change them "
            "(or went stale behind one).",
        )
        self.cache_revalidated_counter = self.counter(
            "mck_cache_revalidated_total",
            help="Cached results a write touched but provably could not "
            "change, kept and re-stamped.",
        )
        self.cache_repaired_counter = self.counter(
            "mck_cache_repaired_total",
            help="Cached results a write's inserts beat, replaced by the "
            "smaller group holding an insert and re-stamped.",
        )
        self.wal_records_counter = self.counter(
            "mck_wal_records_total",
            help="Records appended to the write-ahead log, by op and shard.",
            label_names=("op", "shard"),
        )
        self.checkpoints_counter = self.counter(
            "mck_checkpoints_total",
            help="Checkpoint attempts (segment + manifest + WAL truncate), "
            "by outcome (ok, failed).",
            label_names=("outcome",),
        )
        self.recovery_seconds_gauge = self.gauge(
            "mck_recovery_seconds",
            help="Wall-clock seconds the last restart spent recovering "
            "(manifest read + segment load + WAL tail replay).",
        )
        self.recovery_replayed_gauge = self.gauge(
            "mck_recovery_wal_records_replayed",
            help="WAL records replayed by the last recovery; bounded by the "
            "checkpoint cadence, not by total log history.",
        )
        self.segment_crc_failures_counter = self.counter(
            "mck_segment_crc_failures_total",
            help="Checkpoint segments or manifests that failed verification "
            "at recovery and were skipped (recovery degraded gracefully).",
        )
        # -- scale-out / replication families (see repro.replication) -- #
        self.replication_lag_records_gauge = self.gauge(
            "mck_replication_lag_records",
            help="WAL records the replica has not yet applied "
            "(primary last acked seq minus replica applied seq).",
            label_names=("shard", "replica"),
        )
        self.replication_lag_seconds_gauge = self.gauge(
            "mck_replication_lag_seconds",
            help="Seconds the replica has continuously been behind the "
            "primary's acked watermark (0 when caught up).",
            label_names=("shard", "replica"),
        )
        self.replica_applied_counter = self.counter(
            "mck_replica_applied_total",
            help="Shipped WAL records applied by each read replica.",
            label_names=("shard", "replica"),
        )
        self.replica_rebootstraps_counter = self.counter(
            "mck_replica_rebootstraps_total",
            help="Replicas that fell behind a truncated log and rebuilt "
            "themselves from the newest bootstrap checkpoint segment.",
            label_names=("shard",),
        )
        self.failovers_counter = self.counter(
            "mck_failovers_total",
            help="Replica promotions after a shard primary died.",
            label_names=("shard",),
        )
        self.fenced_writes_counter = self.counter(
            "mck_fenced_writes_total",
            help="Writes rejected because they arrived through a primary "
            "handle from a superseded fencing epoch (zombie primary).",
            label_names=("shard",),
        )
        self.fanout_counter = self.counter(
            "mck_fanout_shards_total",
            help="Per-shard outcomes of scatter-gather query fan-out "
            "(answered, missed, infeasible, failed).",
            label_names=("outcome",),
        )
        self.partial_merge_counter = self.counter(
            "mck_partial_merges_total",
            help="Scatter-gather answers tagged `partial` because at "
            "least one shard missed the deadline or failed.",
        )
        self.shard_splits_counter = self.counter(
            "mck_shard_splits_total",
            help="Live shard splits, by outcome (ok, failed).",
            label_names=("outcome",),
        )
        self.shard_objects_gauge = self.gauge(
            "mck_shard_objects",
            help="Live objects per shard (hot-shard detection input).",
            label_names=("shard",),
        )

    @classmethod
    def default(cls) -> "MetricsRegistry":
        """The process-wide registry used when no explicit one is wired."""
        with cls._default_lock:
            if cls._default is None:
                cls._default = cls()
            return cls._default

    # ------------------------------------------------------------------ #
    # Metric-family accessors (create on first use, return existing after)
    # ------------------------------------------------------------------ #

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._family(
            name, lambda: Histogram(name, help, label_names, buckets), Histogram
        )

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        return self._family(name, lambda: Counter(name, help, label_names), Counter)

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        return self._family(name, lambda: Gauge(name, help, label_names), Gauge)

    def _family(self, name: str, factory, expected_type):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = factory()
            elif not isinstance(family, expected_type):
                raise ValueError(
                    f"metric {name!r} already registered as {type(family).__name__}"
                )
            return family

    def metric_families(self) -> List[object]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------ #

    def record(self, stats: QueryStats) -> None:
        with self._lock:
            self._records += 1
            agg = self._by_algorithm.get(stats.algorithm)
            if agg is None:
                agg = self._by_algorithm[stats.algorithm] = _AlgorithmAggregate()
            agg.add(stats)
        # Family updates take each family's own lock; done outside ours so
        # the registry lock stays small and un-nested.
        cache_label = "hit" if stats.cache_hit else "miss"
        self.latency_histogram.observe(
            stats.total_seconds,
            exemplar={"trace_id": stats.trace_id} if stats.trace_id else None,
            algorithm=stats.algorithm,
            cache=cache_label,
        )
        self.queries_counter.inc(
            1.0,
            algorithm=stats.algorithm,
            cache=cache_label,
            success="true" if stats.success else "false",
        )
        if stats.degraded:
            self.degraded_counter.inc(
                1.0,
                algorithm=stats.algorithm,
                quality=stats.quality or "unrated",
            )
        if not stats.cache_hit:
            self.algorithm_histogram.observe(
                stats.algorithm_seconds, algorithm=stats.algorithm
            )
            for name, value in stats.counters.items():
                self.work_counter.inc(
                    value, algorithm=stats.algorithm, counter=name
                )

    def service_time_p95(self, algorithm: Optional[str] = None) -> Optional[float]:
        """Observed p95 *execution* latency in seconds, or ``None`` cold.

        Reads the ``mck_query_latency_seconds`` histogram's cache-miss
        series (cache hits are not service time).  With ``algorithm`` the
        answer is that algorithm's p95; without, a sample-count-weighted
        average over every algorithm's p95 — the admission layer's
        deadline-aware shed policy uses this as its service-time estimate.
        """
        hist = self.latency_histogram
        if algorithm is not None:
            return hist.percentile(95.0, algorithm=algorithm, cache="miss")
        total = 0
        acc = 0.0
        for key in hist.label_sets():
            labels = dict(zip(hist.label_names, key))
            if labels.get("cache") != "miss":
                continue
            count = hist.count(**labels)
            p95 = hist.percentile(95.0, **labels)
            if count and p95 is not None:
                total += count
                acc += p95 * count
        return acc / total if total else None

    def record_cache(self, counters: Dict[str, int]) -> None:
        """Fold in (overwrite) the result cache's counter snapshot."""
        with self._lock:
            self._cache.update(counters)
        for name, value in counters.items():
            self.cache_gauge.set(float(value), stat=name)

    @property
    def total_queries(self) -> int:
        with self._lock:
            return self._records

    def as_dict(self) -> dict:
        histograms = {
            family.name: family.snapshot()
            for family in self.metric_families()
            if isinstance(family, Histogram)
        }
        with self._lock:
            return {
                "queries_total": self._records,
                "cache": dict(self._cache),
                "algorithms": {
                    name: agg.as_dict()
                    for name, agg in sorted(self._by_algorithm.items())
                },
                "histograms": histograms,
            }

    def to_json(self, indent: int = 2) -> str:
        # allow_nan=False: a NaN anywhere in the dump is a bug (the
        # aggregation must emit None for undefined statistics).
        return json.dumps(
            self.as_dict(), indent=indent, sort_keys=True, allow_nan=False
        )

    def to_prometheus(self, exemplars: bool = False) -> str:
        """Render every metric family as Prometheus text exposition.

        ``exemplars=True`` adds OpenMetrics exemplar suffixes (trace ids)
        to histogram buckets; the default stays parseable by classic
        Prometheus text parsers.
        """
        return render_prometheus(self.metric_families(), exemplars=exemplars)

    def reset(self) -> None:
        with self._lock:
            self._by_algorithm.clear()
            self._cache.clear()
            self._records = 0
            self._families.clear()
        self.__init__()
