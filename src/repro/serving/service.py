"""Batched, cached, instrumented mCK query serving.

:class:`QueryService` wraps one :class:`~repro.core.engine.MCKEngine` and
answers *streams* of queries instead of one call at a time:

* ``query_many()`` executes a batch concurrently on a thread pool (the
  algorithms release no GIL but spend much of their time in numpy, so
  threads already overlap usefully) and returns results in input order;
* an optional :class:`~concurrent.futures.ProcessPoolExecutor` offloads
  chosen algorithms — typically EXACT, whose branch-and-bound is
  CPU-bound pure Python — to worker processes
  (``process_algorithms=("EXACT",)``);
* identical in-flight queries are coalesced (single-flight) and finished
  answers are kept in an LRU+TTL :class:`~repro.serving.cache.ResultCache`
  keyed by ``(frozenset(keywords), algorithm, epsilon)``;
* every request probes that cache once, on the submitting thread: a hit
  is answered there with an already-resolved future, and only misses
  enter admission control and the worker threads;
* every answer carries a :class:`~repro.serving.stats.QueryStats` record
  and feeds a :class:`~repro.serving.stats.MetricsRegistry`.

Observability: every request gets a correlation id (propagated into
process-pool workers and structured log events), and when a
:class:`~repro.observability.tracer.Tracer` is attached — explicitly via
the ``tracer`` parameter or globally via
:func:`repro.observability.tracer.set_tracer` — each request emits a
``serve.request`` root span with a ``serve.cache_probe`` child; an
admitted miss adds ``serve.queue`` / ``serve.admission`` /
``serve.execute`` / ``serve.cache_store`` children, plus whatever spans
the algorithm itself records through its
:class:`~repro.core.common.Deadline`.

Failures the mCK model itself defines — infeasible queries, algorithm
timeouts — surface as failed :class:`ServedResult` entries rather than
poisoning the whole batch; programming errors still propagate.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from dataclasses import dataclass
from threading import Lock, local as thread_local
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..core.common import Instrumentation
from ..core.engine import MCKEngine, canonical_algorithm
from ..core.objects import Dataset
from ..core.result import Group
from ..core.skeca import DEFAULT_EPSILON
from ..exceptions import (
    AlgorithmTimeout,
    InvalidRequestError,
    QueryRejected,
    ReproError,
)
from ..live.engine import Mutation
from ..observability import tracer as _tracing
from ..observability.explain import build_explain, collect_trace_spans
from ..observability.flight import FlightRecorder
from ..observability.logging import correlation_scope, get_logger
from ..testing import faults as _faults
from .admission import (
    REJECT_NEWEST,
    AdaptiveConcurrencyLimiter,
    AdmissionController,
    estimate_cost,
)
from .breaker import OPEN, CircuitBreaker
from .cache import KeywordGenerations, ResultCache, judge_answers, make_cache_key
from .stats import MetricsRegistry, QueryStats

__all__ = ["QueryRequest", "ServedResult", "QueryService"]

_log = get_logger("serving")


@dataclass(frozen=True)
class QueryRequest:
    """One mCK query plus its execution parameters.

    Validated at construction: a bare string is treated as a single
    keyword (never split into characters), the keyword tuple must be
    non-empty with non-empty terms, ``epsilon`` must be a positive finite
    number and ``timeout`` (when given) positive.  Violations raise
    :class:`~repro.exceptions.InvalidRequestError` here, not deep inside
    the engine.
    """

    keywords: Tuple[str, ...]
    algorithm: str = "SKECa+"
    epsilon: float = DEFAULT_EPSILON
    timeout: Optional[float] = None

    def __post_init__(self):
        raw = self.keywords
        if isinstance(raw, str):
            # tuple("hotel") would yield ('h','o','t','e','l'); a bare
            # string can only sensibly mean one keyword.
            raw = (raw,)
        keywords = tuple(str(k) for k in raw)
        if not keywords:
            raise InvalidRequestError("a query needs at least one keyword")
        if any(not k for k in keywords):
            raise InvalidRequestError(
                f"query keywords must be non-empty strings, got {keywords!r}"
            )
        object.__setattr__(self, "keywords", keywords)
        eps = self.epsilon
        if not isinstance(eps, (int, float)) or isinstance(eps, bool) \
                or not math.isfinite(eps) or eps <= 0:
            raise InvalidRequestError(
                f"epsilon must be a positive finite number, got {eps!r}"
            )
        if self.timeout is not None and not self.timeout > 0:
            raise InvalidRequestError(
                f"timeout must be positive (or None), got {self.timeout!r}"
            )

    @classmethod
    def coerce(
        cls,
        item: Union["QueryRequest", str, Sequence[str]],
        algorithm: str = "SKECa+",
        epsilon: float = DEFAULT_EPSILON,
        timeout: Optional[float] = None,
    ) -> "QueryRequest":
        """Accept a ready request, a bare keyword, or a keyword sequence."""
        if isinstance(item, QueryRequest):
            return item
        keywords = (item,) if isinstance(item, str) else tuple(item)
        return cls(
            keywords=keywords,
            algorithm=algorithm,
            epsilon=epsilon,
            timeout=timeout,
        )


@dataclass
class ServedResult:
    """The service's answer to one request."""

    request: QueryRequest
    group: Optional[Group]
    stats: QueryStats
    #: Human-readable failure reason (``None`` on success).
    error: Optional[str] = None
    #: Per-query EXPLAIN report (``submit(..., explain=True)`` only);
    #: the dict built by :func:`repro.observability.explain.build_explain`.
    explain: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.group is not None

    @property
    def degraded(self) -> bool:
        """True when the answer is an anytime incumbent / fallback."""
        return self.stats.degraded

    @property
    def rejected(self) -> bool:
        """True when admission control refused the request (never ran)."""
        return self.stats.rejected

    @property
    def correlation_id(self) -> str:
        return self.stats.correlation_id


# --------------------------------------------------------------------- #
# Process-pool plumbing.  Workers rebuild the engine once per process
# (the initializer runs before any task) and return plain picklable
# tuples — custom exceptions with multi-arg constructors do not survive
# a round-trip through the result queue.
#
# Counters cross the boundary as *deltas against a pre-query snapshot*
# rather than raw totals: a pool worker is reused for many queries, so
# shipping an instrumentation's absolute counters would double-count any
# state that outlives one call.  Spans cross as plain dicts (``drain``)
# and are re-ingested into the parent's tracer.
# --------------------------------------------------------------------- #

_WORKER_ENGINE: Optional[MCKEngine] = None
_WORKER_TRACER: Optional[_tracing.Tracer] = None


def _process_worker_init(dataset: Dataset) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = MCKEngine(dataset)


def _process_worker_query(
    keywords: Tuple[str, ...],
    algorithm: str,
    epsilon: float,
    timeout: Optional[float],
    correlation_id: str = "",
    trace_id: Optional[str] = None,
    degrade: bool = False,
):
    assert _WORKER_ENGINE is not None, "process pool initializer did not run"
    global _WORKER_TRACER
    instr = Instrumentation()
    if trace_id is not None:
        if _WORKER_TRACER is None:
            _WORKER_TRACER = _tracing.Tracer()
        _WORKER_TRACER.reset()
        _WORKER_TRACER.set_trace_id(trace_id)
        instr.tracer = _WORKER_TRACER
    before = instr.snapshot()
    # Index spans (``index.*``) open on the process-global tracer, so the
    # worker's tracer is installed there for the call, then restored.
    previous = _tracing.set_tracer(instr.tracer) if instr.tracer is not None else None
    with correlation_scope(correlation_id or None):
        try:
            group = _WORKER_ENGINE.query(
                keywords,
                algorithm,
                epsilon,
                timeout,
                instrumentation=instr,
                degrade_on_timeout=degrade,
            )
            kind, payload = ("degraded" if group.degraded else "ok"), group
        except AlgorithmTimeout as err:
            kind, payload = "timeout", str(err)
        except ReproError as err:
            kind, payload = "error", str(err)
        finally:
            if instr.tracer is not None:
                _tracing.set_tracer(previous)
    spans = _WORKER_TRACER.drain() if instr.tracer is not None else []
    return (kind, payload, instr.deltas_since(before), dict(instr.timings), spans)


class _Probe(NamedTuple):
    """One request's counted result-cache lookup, taken before admission.

    A miss carries it into the admitted :meth:`QueryService._serve`:
    ``key`` and ``stamp`` for the fill, the interval for the
    ``serve.cache_probe`` span.
    """

    key: tuple
    stamp: int
    group: Optional[Group]
    started_ns: int
    ended_ns: int


class QueryService:
    """Serve batches of mCK queries over one dataset.

    Parameters
    ----------
    source:
        A finalized :class:`~repro.core.objects.Dataset`, an existing
        :class:`~repro.core.engine.MCKEngine`, or a
        :class:`~repro.live.engine.LiveMCKEngine`.  With a live engine
        the service additionally accepts mutations (:meth:`insert` /
        :meth:`delete` / :meth:`submit_mutation`), wires the engine's
        mutation stream into cache revalidation, and
        forbids ``process_algorithms`` (pool workers would hold a frozen
        dataset copy).  The engine's ``kind`` attribute (``"sealed"``,
        ``"live"`` or ``"scatter"``) tells the service which it holds.
    max_workers:
        Thread-pool width for ``query_many``/``submit`` (default:
        ``min(8, cpu_count)``).
    cache_size / cache_ttl:
        Result-cache capacity and optional per-entry time-to-live in
        seconds; ``cache_size=0`` disables caching (and single-flight
        coalescing) entirely.
    process_algorithms:
        Algorithms to execute on a :class:`ProcessPoolExecutor` whose
        workers each hold their own engine, instead of the thread pool
        (names are canonicalized); ``("EXACT",)`` offloads only the
        exponential EXACT search.  Worker start-up re-indexes the
        dataset.  The HTTP serving tier passes every algorithm it serves
        so CPU-bound hot loops run off the GIL; the pool-failure retry
        budget, circuit breaker and in-process SKECa+ fallback apply to
        all of them.  Mutually exclusive with a live engine (pool
        workers hold a frozen dataset copy).
    admission_capacity:
        Bound on the admission queue (requests accepted but not yet
        executing).  When the queue is full the ``shed_policy`` decides
        who gets a :class:`~repro.exceptions.QueryRejected`; ``None``
        disables the bound entirely.  See :mod:`repro.serving.admission`.
    shed_policy:
        ``reject-newest`` (default), ``reject-oldest`` or
        ``deadline-aware`` (sheds requests whose remaining deadline is
        unmeetable given the observed p95 service time and queue depth).
    limiter:
        Optional :class:`~repro.serving.admission.AdaptiveConcurrencyLimiter`
        governing cost-weighted inflight work (AIMD on latency); a
        default sized from ``max_workers`` is built when omitted.
    strict_timeouts:
        When False (default) a query whose deadline expires returns the
        algorithm's best feasible incumbent as a *degraded* answer
        (``group.degraded`` / ``stats.degraded`` true, ``quality`` tagged)
        instead of failing.  Set True for the paper's strict §6.2.3
        fail-hard semantics: timeouts surface as failed results.
    pool_retries / pool_retry_backoff / pool_backoff_cap:
        Retry budget for EXACT process-pool submissions that die (broken
        pool, dead worker, torn pipe).  Each retry recreates the pool and
        waits ``min(cap, backoff * 2**attempt)`` seconds first.  When the
        budget is exhausted the query falls back to an in-process SKECa+
        answer marked degraded (or fails, under ``strict_timeouts``).
    breaker_threshold / breaker_cooldown:
        Circuit breaker over those pool failures: after ``threshold``
        consecutive failures the pool is not retried at all for
        ``cooldown`` seconds — queries degrade immediately.
    metrics:
        A shared :class:`MetricsRegistry`; defaults to a private one.
    tracer:
        Optional :class:`~repro.observability.tracer.Tracer`.  When
        omitted, the process-global tracer (if any) is used; when neither
        exists, tracing costs nothing.
    """

    def __init__(
        self,
        source: Union[Dataset, MCKEngine],
        *,
        max_workers: Optional[int] = None,
        admission_capacity: Optional[int] = 1024,
        shed_policy: str = REJECT_NEWEST,
        limiter: Optional[AdaptiveConcurrencyLimiter] = None,
        cache_size: int = 1024,
        cache_ttl: Optional[float] = None,
        process_algorithms: Optional[Sequence[str]] = None,
        process_workers: Optional[int] = None,
        strict_timeouts: bool = False,
        pool_retries: int = 2,
        pool_retry_backoff: float = 0.05,
        pool_backoff_cap: float = 1.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[_tracing.Tracer] = None,
        flight: Optional[FlightRecorder] = None,
        slo=None,
        cache_clock=time.monotonic,
    ):
        if isinstance(source, Dataset):
            self.engine = MCKEngine(source)
        else:
            # Engines pass through: the sealed MCKEngine, the mutable
            # LiveMCKEngine or the scatter-gather ReplicatedShardRouter.
            self.engine = source
        #: Live and scatter engines take mutations; sealed ones do not.
        self._live = self.engine.kind != "sealed"
        #: Canonical algorithm names executed on the worker-process pool
        #: instead of in-process threads; the HTTP serving tier passes
        #: every algorithm so the CPU-bound hot loops run off the GIL.
        self._process_algorithms = frozenset(
            canonical_algorithm(a) for a in process_algorithms or ()
        )
        if self._live and self._process_algorithms:
            raise ValueError(
                "process-pool execution is not supported with a live engine: "
                "pool workers hold a frozen copy of the dataset and would "
                "silently miss every mutation"
            )
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Per-keyword generation counters: the staleness fallback behind
        #: write revalidation (live engines only).
        self.generations = KeywordGenerations() if self._live else None
        self.cache = ResultCache(
            max_size=cache_size,
            ttl_seconds=cache_ttl,
            clock=cache_clock,
            generations=self.generations,
            on_invalidate=(
                (lambda n: self.metrics.cache_invalidation_counter.inc(float(n)))
                if self._live
                else None
            ),
        )
        if self._live:
            self.engine.add_mutation_listener(self._on_mutation)
            if self.engine.metrics is None:
                self.engine.metrics = self.metrics
                # Re-push so engine-lifecycle metrics that predate the
                # wiring (recovery gauges, epoch/delta) appear at startup
                # rather than after the first mutation.
                self.engine._publish_metrics()
        self.tracer = tracer
        self._local = thread_local()
        #: Flight recorder for tail-based trace retention.  It needs a
        #: tracer to feed it spans: when neither an explicit nor a global
        #: tracer exists, the service grows a private one.
        self.flight = flight
        #: The tracer this service attached ``flight`` to (and therefore
        #: must detach from on close) — ``None`` when the recorder was
        #: already listening there (a sibling service attached first; the
        #: sink is theirs to remove).
        self._flight_tracer: Optional[_tracing.Tracer] = None
        if flight is not None:
            if self.tracer is None and _tracing.get_tracer() is None:
                self.tracer = _tracing.Tracer()
            sink_tracer = self._tracer()
            if not flight.is_attached(sink_tracer):
                self._flight_tracer = sink_tracer
            flight.attach(sink_tracer)
        #: SLO tracker (:class:`~repro.observability.slo.SLOTracker`);
        #: every finished request — including admission rejections — is
        #: classified against its objectives.  Bound to this service's
        #: metrics registry so the burn-rate gauges ride the existing
        #: Prometheus export.
        self.slo = slo
        if slo is not None and getattr(slo, "_burn_gauge", None) is None:
            slo.bind(self.metrics)
        self.strict_timeouts = strict_timeouts
        self.pool_retries = max(0, pool_retries)
        self.pool_retry_backoff = pool_retry_backoff
        self.pool_backoff_cap = pool_backoff_cap
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown_seconds=breaker_cooldown,
            on_transition=self._on_breaker_transition,
        )
        self.limiter = limiter if limiter is not None else AdaptiveConcurrencyLimiter(
            initial=4.0 * self.max_workers,
            max_limit=16.0 * self.max_workers,
        )
        self.admission = AdmissionController(
            max_workers=self.max_workers,
            capacity=admission_capacity,
            policy=shed_policy,
            limiter=self.limiter,
            service_time=self.metrics.service_time_p95,
            on_reject=self._on_admission_reject,
            on_depth=lambda depth: self.metrics.queue_depth_gauge.set(
                float(depth), queue="admission"
            ),
            on_inflight=lambda count, _cost: self.metrics.inflight_gauge.set(
                float(count), queue="admission"
            ),
            on_limit=self.metrics.concurrency_limit_gauge.set,
            thread_name_prefix="mck-serve",
        )
        self.metrics.concurrency_limit_gauge.set(self.limiter.limit)
        self._process_workers = process_workers
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._process_pool_lock = Lock()
        self._inflight: Dict[tuple, Future] = {}
        self._inflight_lock = Lock()
        #: Cache hits served on the caller's thread, never admitted.
        self._inline_hits = 0
        self._inline_hits_lock = Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def query(
        self,
        keywords: Sequence[str],
        algorithm: str = "SKECa+",
        epsilon: float = DEFAULT_EPSILON,
        timeout: Optional[float] = None,
        explain: bool = False,
    ) -> ServedResult:
        """Answer one query (a miss through admission control) and wait.

        Raises :class:`~repro.exceptions.QueryRejected` when admission
        control sheds the request (queue full, unmeetable deadline, or
        the service is closing).  ``explain=True`` attaches the per-query
        EXPLAIN report as ``result.explain``.
        """
        return self.submit(keywords, algorithm, epsilon, timeout, explain).result()

    def submit(
        self,
        keywords: Union[QueryRequest, Sequence[str]],
        algorithm: str = "SKECa+",
        epsilon: float = DEFAULT_EPSILON,
        timeout: Optional[float] = None,
        explain: bool = False,
    ) -> "Future[ServedResult]":
        """Submit one query; returns a future of its :class:`ServedResult`.

        A cache hit is served on the calling thread and its future is
        already resolved; a miss is queued through admission control.
        Raises :class:`~repro.exceptions.QueryRejected` immediately when
        the request is not admitted (reason ``shutdown`` after
        :meth:`close`, hits included); a request shed *after* admission
        resolves its future with the same exception.

        With ``explain=True`` the result carries an EXPLAIN report
        (``result.explain``): algorithm and kernel mode, cache and
        admission outcome, pruning counters, per-phase latency breakdown
        and the span tree — assembled even when no tracer is attached (an
        ephemeral per-request tracer fills in).
        """
        request = QueryRequest.coerce(keywords, algorithm, epsilon, timeout)
        return self._submit(request, explain)

    def query_many(
        self,
        requests: Iterable[Union[QueryRequest, Sequence[str]]],
        algorithm: str = "SKECa+",
        epsilon: float = DEFAULT_EPSILON,
        timeout: Optional[float] = None,
    ) -> List[ServedResult]:
        """Answer a batch concurrently; results come back in input order.

        Admission rejections do not poison the batch: a rejected request
        yields a failed :class:`ServedResult` with ``rejected`` true and
        the :class:`~repro.exceptions.QueryRejected` message as its
        ``error``, in its input-order slot.
        """
        coerced = [
            QueryRequest.coerce(item, algorithm, epsilon, timeout)
            for item in requests
        ]
        outcomes: List[Union[Future, QueryRejected]] = []
        for request in coerced:
            try:
                outcomes.append(self._submit(request))
            except QueryRejected as err:
                outcomes.append(err)
        results: List[ServedResult] = []
        for request, outcome in zip(coerced, outcomes):
            if isinstance(outcome, QueryRejected):
                results.append(self._rejected_result(request, outcome))
                continue
            try:
                results.append(outcome.result())
            except QueryRejected as err:
                results.append(self._rejected_result(request, err))
        return results

    # ------------------------------------------------------------------ #
    # Mutations (live engines only)
    # ------------------------------------------------------------------ #

    #: Admission-cost weight of one mutation batch.  Mutations are cheap
    #: cost-class work: a WAL append plus one copy-on-write delta step,
    #: orders of magnitude lighter than any query algorithm.
    MUTATION_COST = 0.25

    def submit_mutation(
        self,
        inserts: Sequence[Tuple[float, float, Iterable[str]]] = (),
        deletes: Sequence[int] = (),
    ) -> "Future[List[int]]":
        """Admit one atomic mutation batch; future yields the new oids.

        Mutations flow through the same :class:`AdmissionController` as
        queries, so overload protection (bounded queue, shedding,
        concurrency limiting) governs writers too — but with the cheap
        :attr:`MUTATION_COST` weight and their own ``MUTATION`` latency
        bucket, a write burst cannot be mistaken for slow queries.

        Raises :class:`~repro.exceptions.QueryRejected` when shed and
        ``TypeError`` when the underlying engine is not live.
        """
        self._require_live()
        return self.admission.submit(
            self.engine.apply_batch,
            list(inserts),
            list(deletes),
            cost=self.MUTATION_COST,
            key="MUTATION",
        )

    def insert(self, x: float, y: float, keywords: Iterable[str]) -> int:
        """Insert one object through admission control; returns its oid."""
        return self.submit_mutation(inserts=[(x, y, keywords)]).result()[0]

    def delete(self, oid: int) -> None:
        """Delete one live object through admission control."""
        self.submit_mutation(deletes=[oid]).result()

    def _require_live(self) -> None:
        if not self._live:
            raise TypeError(
                "mutations need a LiveMCKEngine source; this service wraps "
                "a static MCKEngine"
            )

    def _on_mutation(self, mutations: Tuple[Mutation, ...]) -> None:
        """Post-publish mutation hook: re-check the cached answers a write
        touched, keeping those it cannot change and repairing those its
        inserts beat (see :mod:`repro.serving.cache`).

        Runs after the new epoch is visible (the engine guarantees the
        ordering), so every answer is judged against data at least as new
        as the write, and a dropped entry's recomputation can only see the
        new data — never the old.
        """
        touched = {kw for m in mutations for kw in m.keywords}
        lookups = 0

        def judge(entries):
            nonlocal lookups
            try:
                verdicts, lookups = judge_answers(
                    entries, mutations, self.engine.nearest_holders
                )
            except Exception as err:  # noqa: BLE001 - the write already landed
                # Fail safe: drop what could not be judged, keep the writer.
                _log.warning(
                    "cache.revalidate_failed",
                    error=repr(err),
                    traceback=traceback.format_exc(),
                )
                verdicts = [False] * len(entries)
            return verdicts

        with self._span(
            "serve.cache_revalidate", mutations=len(mutations)
        ) as span:
            kept, repaired, dropped = self.cache.revalidate(touched, judge)
            span.set_attribute("kept", kept)
            span.set_attribute("repaired", repaired)
            span.set_attribute("dropped", dropped)
            span.set_attribute("lookups", lookups)
        if kept:
            self.metrics.cache_revalidated_counter.inc(float(kept))
        if repaired:
            self.metrics.cache_repaired_counter.inc(float(repaired))
        _log.debug(
            "live.mutation",
            mutations=len(mutations),
            keywords=sorted(touched),
            kept=kept,
            repaired=repaired,
            dropped=dropped,
        )

    def metrics_dict(self) -> dict:
        """Aggregate metrics including the cache's current counters."""
        self.metrics.record_cache(self.cache.stats())
        return self.metrics.as_dict()

    def admission_dict(self) -> dict:
        """Admission-control snapshot: conservation counters, depth, limit.

        ``inline_hits`` counts the cache hits served before admission, so
        ``submitted + inline_hits`` is every request that reached the
        service.
        """
        counters = self.admission.counters()
        counters["inline_hits"] = self._inline_hits
        counters["queue_depth"] = self.admission.queue_depth
        counters["inflight"] = self.admission.inflight
        counters["concurrency_limit"] = self.limiter.limit
        return counters

    def close(self) -> None:
        """Drain accepted work, reject queued work, release the pools.

        Idempotent: calling :meth:`close` again is a no-op.  Requests
        already executing complete and their futures resolve; requests
        still queued resolve with ``QueryRejected(reason="shutdown")``;
        later :meth:`submit` calls raise the same.

        Detaches everything this service hooked into shared objects: the
        mutation listener registered on a live engine (which would
        otherwise pin this service's cache alive for the engine's whole
        lifetime) and the flight recorder's span sink when this service
        attached it.  A shared engine or recorder is therefore safe to
        reuse across any number of service lifecycles.
        """
        if self._closed:
            return
        self._closed = True
        # Drain first: in-flight queries keep cache-revalidation coverage
        # until the last one resolves, only then is the listener removed.
        self.admission.close()
        if self._live:
            self.engine.remove_mutation_listener(self._on_mutation)
        if self.flight is not None and self._flight_tracer is not None:
            self.flight.detach(self._flight_tracer)
            self._flight_tracer = None
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _submit(
        self, request: QueryRequest, explain: bool = False
    ) -> "Future[ServedResult]":
        algorithm = canonical_algorithm(request.algorithm)
        probe = None
        # A closed service skips the probe: admission rejects with
        # ``shutdown`` below, hits included.
        if self.cache.max_size and not self._closed:
            started = time.perf_counter()
            probe = self._probe(request, algorithm)
            if probe.group is not None:
                return self._serve_inline(request, algorithm, probe, started, explain)
        try:
            future = self.admission.submit(
                self._serve,
                request,
                algorithm,
                probe,
                time.monotonic_ns(),
                explain,
                cost=self._estimate_cost(request, algorithm),
                timeout=request.timeout,
                key=algorithm,
            )
        except QueryRejected as err:
            # Rejected at the door (queue full, unmeetable deadline,
            # shutdown): the request never ran, so synthesize its trace.
            self._record_rejection(request, algorithm, err)
            raise
        # A request shed *after* admission (victim of reject-oldest /
        # deadline-aware policies, or flushed at close) resolves its
        # future with QueryRejected instead of raising here.
        future.add_done_callback(
            lambda fut: self._record_shed_future(request, algorithm, fut)
        )
        return future

    def _probe(self, request: QueryRequest, algorithm: str) -> _Probe:
        """The request's one counted cache lookup, on the caller's thread.

        The stamp is captured *before* the lookup, so before any queuing
        or execution: a mutation racing either bumps the live generation
        past it, and the filled entry is condemned on its next lookup
        instead of serving a possibly stale answer.
        """
        key = make_cache_key(request.keywords, algorithm, request.epsilon)
        started_ns = time.monotonic_ns()
        stamp = self.cache.probe_stamp(key)
        group = self.cache.get(key)
        return _Probe(key, stamp, group, started_ns, time.monotonic_ns())

    def _serve_inline(
        self,
        request: QueryRequest,
        algorithm: str,
        probe: _Probe,
        started: float,
        explain: bool,
    ) -> "Future[ServedResult]":
        """Serve a cache hit on the caller's thread, outside admission.

        A hit executes nothing, so it takes no queue slot, no worker
        hand-off and no limiter sample: admission's counters and the
        limiter's baselines describe executions only.
        """
        with self._inline_hits_lock:
            self._inline_hits += 1
        self.metrics.inline_hits_counter.inc(1.0, algorithm=algorithm)
        future: "Future[ServedResult]" = Future()
        try:
            result = self._serve(request, algorithm, probe, None, explain, started)
        except Exception as err:  # noqa: BLE001 - surfaces through the future
            future.set_exception(err)
        else:
            future.set_result(result)
        return future

    def _record_shed_future(
        self, request: QueryRequest, algorithm: str, fut: Future
    ) -> None:
        try:
            err = fut.exception()
        except BaseException:  # cancelled — nothing to record
            return
        if isinstance(err, QueryRejected):
            self._record_rejection(request, algorithm, err)

    def _record_rejection(
        self, request: QueryRequest, algorithm: str, err: QueryRejected
    ) -> None:
        """Observability for a shed request: SLO bad event + flight trace.

        A rejected request never executed, so it has no organic spans; a
        synthetic ``serve.rejected`` span (zero duration, reason attached)
        is written to the flight recorder so 100% of rejections remain
        debuggable.  The synthesized trace id is stashed on the exception
        (``err.trace_id``) for :meth:`_rejected_result` to surface.
        """
        stats = QueryStats(
            keywords=request.keywords,
            algorithm=algorithm,
            epsilon=request.epsilon,
            success=False,
            rejected=True,
        )
        if self.slo is not None:
            self.slo.record(stats)
        if self.flight is not None:
            span = FlightRecorder.synthetic_span(
                "serve.rejected",
                reason=getattr(err, "reason", "rejected"),
                algorithm=algorithm,
                m=len(request.keywords),
            )
            err.trace_id = span["trace_id"]
            self.flight.complete(
                span["trace_id"],
                rejected=True,
                algorithm=algorithm,
                error=str(err),
                extra_spans=[span],
            )

    def _estimate_cost(self, request: QueryRequest, algorithm: str) -> float:
        """Cost weight from algorithm, m, and keyword document frequency."""
        vocab = self.engine.dataset.vocabulary
        n_objects = max(1, len(self.engine.dataset))
        frequencies = [
            vocab.frequency(keyword)
            for keyword in request.keywords
            if keyword in vocab
        ]
        min_rel = min(frequencies) / n_objects if frequencies else 0.0
        return estimate_cost(algorithm, len(request.keywords), min_rel)

    def _rejected_result(
        self, request: QueryRequest, err: QueryRejected
    ) -> ServedResult:
        """A failed :class:`ServedResult` for a shed request.

        Rejected requests never executed, so they are *not* recorded into
        the latency aggregates (which would drag every percentile toward
        zero); the ``mck_admission_rejected_total`` counter already
        accounts for them.
        """
        stats = QueryStats(
            keywords=request.keywords,
            algorithm=canonical_algorithm(request.algorithm),
            epsilon=request.epsilon,
            success=False,
            rejected=True,
            trace_id=getattr(err, "trace_id", "") or "",
        )
        return ServedResult(
            request=request, group=None, stats=stats, error=str(err)
        )

    def _on_admission_reject(self, reason: str) -> None:
        self.metrics.admission_rejected_counter.inc(1.0, reason=reason)
        # debug, not warning: under overload this fires per rejection, and a
        # log storm is itself an overload amplifier — the counter is the signal.
        _log.debug("admission.rejected", reason=reason)

    def _on_breaker_transition(self, old_state: str, new_state: str) -> None:
        self.metrics.circuit_transition_counter.inc(1.0, state=new_state)
        self.metrics.circuit_open_gauge.set(1.0 if new_state == OPEN else 0.0)
        _log.warning("pool.circuit", old_state=old_state, new_state=new_state)

    def _tracer(self) -> Optional[_tracing.Tracer]:
        # The per-request ephemeral tracer (explain with no tracer wired)
        # wins: a request's spans must land where its EXPLAIN looks.
        ephemeral = getattr(self._local, "tracer", None)
        if ephemeral is not None:
            return ephemeral
        return self.tracer if self.tracer is not None else _tracing.get_tracer()

    def _record(self, stats: QueryStats) -> None:
        """Stamp the request's trace id, then feed metrics and SLO."""
        stats.trace_id = getattr(self._local, "trace_id", "") or ""
        self.metrics.record(stats)
        if self.slo is not None:
            self.slo.record(stats)

    def _span(self, name: str, **attributes):
        tracer = self._tracer()
        if tracer is None:
            return _tracing.NULL_SPAN
        return tracer.span(name, **attributes)

    def _serve(
        self,
        request: QueryRequest,
        algorithm: str,
        probe: Optional[_Probe],
        enqueued_ns: Optional[int] = None,
        explain: bool = False,
        started: Optional[float] = None,
    ) -> ServedResult:
        """Serve one request: an admitted one on a worker thread (queued
        at ``enqueued_ns``), or a cache hit inline on the caller's thread
        (``enqueued_ns`` None, ``started`` taken before its probe)."""
        if started is None:
            started = time.perf_counter()
        faults_before = _faults.total_triggered()
        ephemeral: Optional[_tracing.Tracer] = None
        if explain and self._tracer() is None:
            # EXPLAIN needs spans; with no tracer wired anywhere, give
            # this one request a private tracer (request execution —
            # including the inline engine run — stays on this thread).
            ephemeral = _tracing.Tracer()
            self._local.tracer = ephemeral
        try:
            with correlation_scope() as cid:
                with self._span(
                    "serve.request",
                    algorithm=request.algorithm,
                    m=len(request.keywords),
                    correlation_id=cid,
                ) as root:
                    trace_id = getattr(root, "trace_id", "") or ""
                    self._local.trace_id = trace_id
                    if enqueued_ns is None:
                        # An inline hit began at its probe, which ran
                        # before this span could exist.
                        if isinstance(root, _tracing.Span):
                            root.start_ns = probe.started_ns
                    else:
                        # The wait happened before this span existed; record it
                        # as two already-complete children: the raw queue wait
                        # and the admission view of it (policy, live depth,
                        # concurrency limit at dispatch).
                        tracer = self._tracer()
                        if tracer is not None:
                            now_ns = time.monotonic_ns()
                            tracer.record_complete(
                                "serve.queue", enqueued_ns, now_ns
                            )
                            tracer.record_complete(
                                "serve.admission",
                                enqueued_ns,
                                now_ns,
                                policy=self.admission.policy,
                                queue_depth=self.admission.queue_depth,
                                concurrency_limit=round(self.limiter.limit, 3),
                            )
                    result = self._serve_traced(
                        request, algorithm, probe, started, cid
                    )
                    root.set_attribute(
                        "cache", "hit" if result.stats.cache_hit else "miss"
                    )
                    if not result.ok:
                        root.set_attribute("error", result.error or "failed")
                # Root span closed: the full tree is in the tracer (and in
                # the flight recorder's pending buffer).  Decide retention
                # and assemble EXPLAIN now.
                fault_hits = _faults.total_triggered() - faults_before
                if self.flight is not None and trace_id:
                    self.flight.complete(
                        trace_id,
                        algorithm=result.stats.algorithm,
                        correlation_id=cid,
                        latency_seconds=result.stats.total_seconds,
                        cache_hit=result.stats.cache_hit,
                        degraded=result.stats.degraded,
                        error=result.error,
                        fault_hits=fault_hits,
                        quality=result.stats.quality,
                    )
                if explain:
                    result.explain = self._build_explain(
                        request, result, trace_id, cid, ephemeral
                    )
                _log.debug(
                    "query.served",
                    algorithm=result.stats.algorithm,
                    keywords=list(request.keywords),
                    cache_hit=result.stats.cache_hit,
                    success=result.stats.success,
                    total_seconds=result.stats.total_seconds,
                    error=result.error,
                )
            return result
        finally:
            self._local.trace_id = ""
            if ephemeral is not None:
                self._local.tracer = None

    def _build_explain(
        self,
        request: QueryRequest,
        result: ServedResult,
        trace_id: str,
        cid: str,
        ephemeral: Optional[_tracing.Tracer],
    ) -> dict:
        stats = result.stats
        if ephemeral is not None:
            spans = ephemeral.drain()  # private per-request tracer: all ours
        else:
            spans = collect_trace_spans(self._tracer(), trace_id)
            if not spans and self.flight is not None and trace_id:
                spans = self.flight.spans_for(trace_id)
        if stats.rejected:
            status = "rejected"
        elif not stats.success:
            status = "error"
        elif stats.degraded:
            status = "degraded"
        else:
            status = "ok"
        group = result.group
        return build_explain(
            keywords=request.keywords,
            algorithm=stats.algorithm,
            epsilon=request.epsilon,
            timeout=request.timeout,
            spans=spans,
            counters=stats.counters,
            timings={
                "context_seconds": stats.context_seconds,
                "algorithm_seconds": stats.algorithm_seconds,
                "total_seconds": stats.total_seconds,
            },
            engine_kind=self.engine.kind,
            status=status,
            quality=stats.quality,
            diameter=stats.diameter,
            group_size=stats.group_size,
            object_ids=group.object_ids if group is not None else (),
            error=result.error,
            cache_hit=stats.cache_hit,
            trace_id=trace_id,
            correlation_id=cid,
        )

    def _serve_traced(
        self,
        request: QueryRequest,
        algorithm: str,
        probe: Optional[_Probe],
        started: float,
        cid: str,
    ) -> ServedResult:
        if probe is None:
            group, stats, error = self._execute(request, algorithm, started, cid)
            self._record(stats)
            return ServedResult(request=request, group=group, stats=stats, error=error)
        tracer = self._tracer()
        if tracer is not None:
            tracer.record_complete(
                "serve.cache_probe",
                probe.started_ns,
                probe.ended_ns,
                hit=probe.group is not None,
            )
        if probe.group is not None:
            return self._finish_hit(request, algorithm, probe.group, started, cid)
        return self._serve_with_singleflight(request, algorithm, probe, started, cid)

    def _serve_with_singleflight(
        self,
        request: QueryRequest,
        algorithm: str,
        probe: _Probe,
        started: float,
        cid: str,
    ) -> ServedResult:
        key = probe.key
        # A leader that finished while this request queued filled the
        # entry after the probe missed: join its answer, as a follower
        # would, rather than execute the same query again.
        if key in self.cache:
            cached = self.cache.get(key)
            if cached is not None:
                return self._finish_join(request, algorithm, cached, None, started, cid)
        with self._inflight_lock:
            fut = self._inflight.get(key)
            if fut is None or fut.done():
                fut = Future()
                self._inflight[key] = fut
                leader = True
            else:
                leader = False

        if leader:
            try:
                group, stats, error = self._execute(request, algorithm, started, cid)
                # Degraded answers are never cached: they are worse than a
                # completed run and would keep being served after the
                # deadline pressure (or pool outage) has passed.
                if group is not None and not group.degraded:
                    with self._span("serve.cache_store"):
                        self.cache.put(key, group, stamp=probe.stamp)
                fut.set_result((group, error))
            except BaseException as err:  # pragma: no cover - defensive
                fut.set_exception(err)
                raise
            finally:
                with self._inflight_lock:
                    if self._inflight.get(key) is fut:
                        del self._inflight[key]
            self._record(stats)
            return ServedResult(
                request=request, group=group, stats=stats, error=error
            )

        # Follower: wait for the leader, then read its answer.  Re-probing
        # the cache keeps the hit counters truthful; when the leader failed
        # (nothing cached) the shared in-flight answer is used directly.
        with self._span("serve.coalesced_wait"):
            group, error = fut.result()
        if group is not None:
            cached = self.cache.get(key)
            if cached is not None:
                group = cached
        return self._finish_join(request, algorithm, group, error, started, cid)

    def _execute(
        self, request: QueryRequest, algorithm: str, started: float, cid: str
    ) -> Tuple[Optional[Group], QueryStats, Optional[str]]:
        """Run the algorithm (thread-local or process pool) and measure."""
        stats = QueryStats(
            keywords=request.keywords,
            algorithm=algorithm,
            epsilon=request.epsilon,
            correlation_id=cid,
        )
        with self._span("serve.execute", algorithm=algorithm):
            if algorithm in self._process_algorithms:
                outcome = self._run_in_process_pool(request, algorithm, cid)
            else:
                outcome = self._run_inline(request)
        kind, payload, counters, timings, worker_spans = outcome
        if worker_spans:
            tracer = self._tracer()
            if tracer is not None:
                tracer.ingest(worker_spans)
        stats.counters = {k: float(v) for k, v in counters.items()}
        stats.context_seconds = timings.get("context_seconds", 0.0)
        stats.algorithm_seconds = timings.get("algorithm_seconds", 0.0)
        stats.total_seconds = time.perf_counter() - started
        if kind in ("ok", "degraded"):
            group: Group = payload
            stats.diameter = group.diameter
            stats.group_size = len(group)
            stats.degraded = kind == "degraded"
            stats.quality = group.quality or ""
            if stats.degraded:
                _log.warning(
                    "query.degraded",
                    algorithm=algorithm,
                    keywords=list(request.keywords),
                    quality=stats.quality,
                    diameter=group.diameter,
                )
            return group, stats, None
        stats.success = False
        _log.warning(
            "query.failed",
            algorithm=algorithm,
            keywords=list(request.keywords),
            kind=kind,
            error=str(payload),
        )
        return None, stats, str(payload)

    def _run_inline(self, request: QueryRequest, algorithm: Optional[str] = None):
        instr = Instrumentation(tracer=self._tracer())
        try:
            group = self.engine.query(
                request.keywords,
                algorithm or request.algorithm,
                request.epsilon,
                request.timeout,
                instrumentation=instr,
                degrade_on_timeout=not self.strict_timeouts,
            )
            kind = "degraded" if group.degraded else "ok"
            return (kind, group, instr.counters, instr.timings, [])
        except AlgorithmTimeout as err:
            return ("timeout", str(err), instr.counters, instr.timings, [])
        except ReproError as err:
            return ("error", str(err), instr.counters, instr.timings, [])

    # Pool failures worth retrying: the executor broke (a worker died —
    # BrokenProcessPool), or the result pipe tore mid-read.
    _POOL_FAILURES = (BrokenExecutor, BrokenPipeError, EOFError, OSError)

    def _run_in_process_pool(self, request: QueryRequest, algorithm: str, cid: str):
        tracer = self._tracer()
        trace_id = tracer.current_trace_id() if tracer is not None else None
        attempt = 0
        while True:
            if not self.breaker.allow():
                return self._pool_fallback(
                    request, algorithm, "process pool circuit breaker is open"
                )
            try:
                # The fault site fires before the pool is (re)built so an
                # injected rejection never spawns real worker processes.
                _faults.fire(
                    "serving.pool.submit", algorithm=algorithm, attempt=attempt
                )
                pool = self._ensure_process_pool()
                outcome = pool.submit(
                    _process_worker_query,
                    request.keywords,
                    request.algorithm,
                    request.epsilon,
                    request.timeout,
                    cid,
                    trace_id,
                    not self.strict_timeouts,
                ).result()
            except self._POOL_FAILURES as err:
                self.breaker.record_failure()
                self._reset_process_pool()
                _log.warning(
                    "pool.failure",
                    algorithm=algorithm,
                    attempt=attempt,
                    error=str(err),
                )
                if attempt >= self.pool_retries:
                    return self._pool_fallback(
                        request,
                        algorithm,
                        f"process pool failed after {attempt + 1} attempts",
                    )
                self.metrics.pool_retry_counter.inc(1.0, algorithm=algorithm)
                backoff = min(
                    self.pool_backoff_cap,
                    self.pool_retry_backoff * (2.0 ** attempt),
                )
                if backoff > 0.0:
                    time.sleep(backoff)
                attempt += 1
                continue
            self.breaker.record_success()
            return outcome

    def _pool_fallback(self, request: QueryRequest, algorithm: str, reason: str):
        """Answer in-process with SKECa+ when the EXACT pool is unusable.

        The answer is feasible but only 2/√3+ε-certified, so it is always
        marked degraded; strict mode refuses the substitution and reports
        the pool failure instead.
        """
        self.metrics.pool_fallback_counter.inc(1.0, algorithm=algorithm)
        if self.strict_timeouts:
            return ("error", reason, {}, {}, [])
        _log.warning(
            "pool.fallback",
            algorithm=algorithm,
            keywords=list(request.keywords),
            reason=reason,
        )
        kind, payload, counters, timings, spans = self._run_inline(
            request, algorithm="SKECa+"
        )
        if kind in ("ok", "degraded"):
            group: Group = payload
            group.stats["degraded"] = 1.0
            group.stats["pool_fallback"] = 1.0
            return ("degraded", group, counters, timings, spans)
        return (kind, payload, counters, timings, spans)

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        with self._process_pool_lock:
            if self._process_pool is None:
                workers = self._process_workers or min(4, os.cpu_count() or 1)
                self._process_pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_process_worker_init,
                    initargs=(self.engine.dataset,),
                )
            return self._process_pool

    def _reset_process_pool(self) -> None:
        """Tear down a (possibly broken) pool; the next use rebuilds it."""
        with self._process_pool_lock:
            pool, self._process_pool = self._process_pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def _finish_hit(
        self,
        request: QueryRequest,
        algorithm: str,
        group: Group,
        started: float,
        cid: str,
    ) -> ServedResult:
        stats = QueryStats(
            keywords=request.keywords,
            algorithm=algorithm,
            epsilon=request.epsilon,
            total_seconds=time.perf_counter() - started,
            cache_hit=True,
            diameter=group.diameter,
            group_size=len(group),
            correlation_id=cid,
            quality=group.quality or "",
        )
        self._record(stats)
        return ServedResult(request=request, group=group, stats=stats)

    def _finish_join(
        self,
        request: QueryRequest,
        algorithm: str,
        group: Optional[Group],
        error: Optional[str],
        started: float,
        cid: str,
    ) -> ServedResult:
        stats = QueryStats(
            keywords=request.keywords,
            algorithm=algorithm,
            epsilon=request.epsilon,
            total_seconds=time.perf_counter() - started,
            cache_hit=group is not None,
            success=group is not None,
            correlation_id=cid,
            counters={"coalesced": 1.0},
        )
        if group is not None:
            stats.diameter = group.diameter
            stats.group_size = len(group)
            stats.degraded = group.degraded
            stats.quality = group.quality or ""
        self._record(stats)
        return ServedResult(request=request, group=group, stats=stats, error=error)
