"""Coordinator for the simulated distributed mCK setting (paper §8).

The paper closes with "it would be of interest to investigate the problem
of answering the mCK query in a distributed setting"; this module builds
that setting as a single-process simulation with explicit communication
accounting, so the protocol's behaviour (rounds, bytes, makespan,
speed-up) can be studied without a cluster.

Protocol: every worker, built once per engine on its grid cell, answers
the query on its cell; the coordinator then solves the boundary strip
once with the shard router's merge
(:func:`repro.core.scatter.scatter_merge`), so the answer is the global
optimum.  Accounting: the query out and each answer back, then, when the
best local diameter is positive, the bound out and the strip rows back,
charged per (x, y, keywords) record.  The simulated makespan is the
slowest worker plus the strip solve.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.engine import canonical_algorithm
from ..core.objects import Dataset
from ..core.result import Group
from ..core.scatter import scatter_merge
from ..exceptions import InfeasibleQueryError, QueryRejected, WorkerCrashed
from ..observability import tracer as _tracing
from ..observability.flight import FlightRecorder
from ..observability.logging import correlation_scope, get_logger
from ..observability.tracer import span as _trace_span
from ..serving.stats import MetricsRegistry
from .partition import GridPartitioner
from .worker import LocalAnswer, Worker

__all__ = ["DistributedMCKEngine", "DistributedResult"]

_log = get_logger("distributed.coordinator")

#: Charged bytes per shipped object record (two float64 + small keyword set).
_BYTES_PER_OBJECT = 48
#: Charged bytes per control/answer message.
_BYTES_PER_MESSAGE = 64


@dataclass
class DistributedResult:
    """Outcome of one distributed query with its cost accounting."""

    group: Group
    #: 1, or 2 when the coordinator collected a boundary strip.
    rounds: int
    messages: int
    bytes_shipped: int
    #: Simulated parallel wall-clock: the slowest worker plus the strip solve.
    makespan_seconds: float
    #: Total compute across all workers and the coordinator.
    total_compute_seconds: float
    #: Rows in the boundary strip the coordinator collected.
    strip_objects: int = 0
    #: One answer per worker that was not abandoned.
    worker_answers: List[LocalAnswer] = field(default_factory=list)
    #: Worker crashes observed.
    worker_crashes: int = 0
    #: Respawn-and-resubmit attempts that followed those crashes.
    worker_retries: int = 0


class DistributedMCKEngine:
    """Answer mCK queries over a dataset split across simulated workers."""

    def __init__(
        self,
        dataset: Dataset,
        n_workers: int = 4,
        epsilon: float = 0.01,
        max_worker_retries: int = 2,
        retry_backoff_seconds: float = 0.05,
        retry_backoff_cap: float = 1.0,
        sleep=time.sleep,
        metrics: Optional[MetricsRegistry] = None,
        worker_queue_capacity: Optional[int] = None,
        flight: Optional[FlightRecorder] = None,
    ):
        dataset.finalize()
        self.dataset = dataset
        self.partitioner = GridPartitioner(dataset, n_workers)
        self.epsilon = epsilon
        #: Respawn-and-resubmit budget per worker per query; a worker that
        #: exhausts it is abandoned and left out of the merge, whose answer
        #: is then tagged ``partial`` (the protocol degrades, it does not
        #: fail).
        self.max_worker_retries = max(0, max_worker_retries)
        self.retry_backoff_seconds = retry_backoff_seconds
        self.retry_backoff_cap = retry_backoff_cap
        self._sleep = sleep
        self.metrics = metrics if metrics is not None else MetricsRegistry.default()
        self._crash_counter = self.metrics.counter(
            "mck_worker_crashes_total",
            help="Distributed worker crashes observed by the coordinator.",
            label_names=("round",),
        )
        self._worker_retry_counter = self.metrics.counter(
            "mck_worker_retries_total",
            help="Worker respawn-and-resubmit attempts after a crash.",
            label_names=("round",),
        )
        #: Backpressure: max outstanding tasks a single worker will accept
        #: before the coordinator refuses further submissions with
        #: :class:`~repro.exceptions.QueryRejected` (reason
        #: ``worker_backpressure``).  ``None`` = unbounded (the seed
        #: behaviour).  Depth is tracked per worker id so respawned workers
        #: inherit the slot accounting of the shard they replaced.
        if worker_queue_capacity is not None and worker_queue_capacity < 1:
            raise ValueError(
                "worker_queue_capacity must be >= 1 or None, got "
                f"{worker_queue_capacity!r}"
            )
        self.worker_queue_capacity = worker_queue_capacity
        self._pending: Dict[int, int] = {}
        self._pending_lock = threading.Lock()
        self._workers = [
            Worker(p, dataset) for p in self.partitioner.partitions()
        ]
        #: Optional tail-latency flight recorder.  The coordinator spans go
        #: through the process-global tracer, so attach the recorder there;
        #: worker-crash rounds are retained as fault-hit traces.
        self.flight = flight
        self._flight_tracer: Optional[_tracing.Tracer] = None
        if flight is not None:
            tracer = _tracing.get_tracer()
            if tracer is not None:
                # Remember only attachments *we* made: a recorder shared
                # with sibling services may already be wired to this
                # tracer, and close() must not sever their sink.
                if not flight.is_attached(tracer):
                    self._flight_tracer = tracer
                flight.attach(tracer)

    def close(self) -> None:
        """Detach the flight-recorder sink this coordinator attached.

        Idempotent.  Without this, every short-lived coordinator sharing
        the process-global tracer leaks a span sink — the same lifecycle
        bug as a :class:`~repro.serving.QueryService` that never detaches
        its mutation listener.
        """
        if self.flight is not None and self._flight_tracer is not None:
            self.flight.detach(self._flight_tracer)
            self._flight_tracer = None

    def __enter__(self) -> "DistributedMCKEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def n_workers(self) -> int:
        return self.partitioner.n_workers

    # ------------------------------------------------------------------ #
    # Worker backpressure: bounded per-worker outstanding-task queues.
    # ------------------------------------------------------------------ #

    def pending_tasks(self, worker_id: int) -> int:
        """Outstanding (submitted, unanswered) tasks at ``worker_id``."""
        with self._pending_lock:
            return self._pending.get(worker_id, 0)

    def _acquire_worker_slot(self, worker_id: int, round_label: str) -> None:
        with self._pending_lock:
            depth = self._pending.get(worker_id, 0)
            cap = self.worker_queue_capacity
            if cap is not None and depth >= cap:
                self.metrics.admission_rejected_counter.inc(
                    1.0, reason="worker_backpressure"
                )
                _log.warning(
                    "dist.worker_backpressure",
                    worker_id=worker_id,
                    round=round_label,
                    depth=depth,
                    capacity=cap,
                )
                raise QueryRejected(
                    "worker_backpressure",
                    f"worker {worker_id} queue full "
                    f"({depth} pending >= capacity {cap})",
                )
            self._pending[worker_id] = depth + 1
            self.metrics.queue_depth_gauge.set(
                float(depth + 1), queue=f"worker-{worker_id}"
            )

    def _release_worker_slot(self, worker_id: int) -> None:
        with self._pending_lock:
            depth = max(0, self._pending.get(worker_id, 0) - 1)
            self._pending[worker_id] = depth
            self.metrics.queue_depth_gauge.set(
                float(depth), queue=f"worker-{worker_id}"
            )

    # ------------------------------------------------------------------ #

    def query(
        self, keywords: Sequence[str], algorithm: str = "EXACT"
    ) -> DistributedResult:
        """Answer on every worker, then merge over the boundary strip.

        With a flight recorder, the finished trace is handed to it; worker
        crashes count as fault hits, so crash-and-respawn queries are
        always retained, like injected faults in the serving path.
        """
        algorithm = canonical_algorithm(algorithm)
        started = time.perf_counter()
        with correlation_scope() as cid:
            result = None
            error: Optional[str] = None
            root = None
            try:
                with _trace_span(
                    "dist.query", workers=self.n_workers, m=len(list(keywords))
                ) as root:
                    result = self._query_traced(keywords, algorithm, cid)
            except Exception as err:  # noqa: BLE001 - recorded, then re-raised
                error = str(err) or type(err).__name__
                raise
            finally:
                trace_id = getattr(root, "trace_id", None)
                if self.flight is not None and trace_id:
                    self.flight.complete(
                        trace_id,
                        algorithm=algorithm,
                        correlation_id=cid,
                        latency_seconds=time.perf_counter() - started,
                        degraded=result is not None and result.group.degraded,
                        error=error,
                        fault_hits=result.worker_crashes if result else 0,
                    )
        return result

    def _query_traced(
        self, keywords: Sequence[str], algorithm: str, cid: str
    ) -> DistributedResult:
        n = len(self._workers)
        with _trace_span("dist.bound_round", algorithm=algorithm):
            answers, crashes, retries = self._gather(keywords, algorithm, cid)
        abandoned = n - len(answers)
        try:
            merged = scatter_merge(
                keywords, algorithm, answers, self.partitioner.tiling,
                self.epsilon, None, left_out=abandoned,
            )
        except InfeasibleQueryError:
            # The rows of an abandoned worker might have covered the query.
            if abandoned:
                detail = f"{abandoned} of {n} workers abandoned"
                raise WorkerCrashed(-1, detail) from None
            raise
        d_ub = min((a.diameter for a in answers), default=float("inf"))
        rounds = 1 if d_ub == 0.0 else 2
        messages = 2 * n * rounds
        times = [a.compute_seconds for a in answers]
        return DistributedResult(
            group=merged.group,
            rounds=rounds,
            messages=messages,
            bytes_shipped=messages * _BYTES_PER_MESSAGE
            + merged.strip_objects * _BYTES_PER_OBJECT,
            makespan_seconds=max(times, default=0.0) + merged.strip_seconds,
            total_compute_seconds=sum(times) + merged.strip_seconds,
            strip_objects=merged.strip_objects,
            worker_answers=answers,
            worker_crashes=crashes,
            worker_retries=retries,
        )

    # ------------------------------------------------------------------ #

    #: Failures treated as a dead worker rather than a query error.
    _WORKER_FAILURES = (WorkerCrashed, BrokenPipeError, EOFError)

    def _gather(self, keywords: Sequence[str], algorithm: str, cid: str):
        """Collect every worker's answer, respawning crashed workers.

        A crash (dead process, torn pipe) is retried up to
        ``max_worker_retries`` times with capped exponential backoff; each
        retry rebuilds the worker from its partition (the simulated
        equivalent of restarting the process on its shard) and resubmits.
        A worker that keeps dying is abandoned and contributes no answer;
        the merge runs over the survivors, so the query still completes.

        Returns ``(answers, crashes, retries)``; respawned workers replace
        the dead ones for later queries.  Metrics and logs label the round
        ``bound``: the workers' answers bound the merge.
        """
        round_label = "bound"
        answers: List[LocalAnswer] = []
        crashes = 0
        retries = 0
        for i, worker in enumerate(self._workers):
            attempt = 0
            while True:
                try:
                    self._acquire_worker_slot(worker.worker_id, round_label)
                    try:
                        answer = worker.answer(
                            keywords, algorithm, self.epsilon, correlation_id=cid
                        )
                        answers.append(answer)
                    finally:
                        self._release_worker_slot(worker.worker_id)
                    break
                except self._WORKER_FAILURES as err:
                    crashes += 1
                    self._crash_counter.inc(1.0, round=round_label)
                    _log.warning(
                        "dist.worker_crashed",
                        worker_id=worker.worker_id,
                        round=round_label,
                        attempt=attempt,
                        error=str(err),
                    )
                    if attempt >= self.max_worker_retries:
                        _log.warning(
                            "dist.worker_abandoned",
                            worker_id=worker.worker_id,
                            round=round_label,
                            attempts=attempt + 1,
                        )
                        break
                    backoff = min(
                        self.retry_backoff_cap,
                        self.retry_backoff_seconds * (2.0 ** attempt),
                    )
                    if backoff > 0.0:
                        self._sleep(backoff)
                    worker = self._workers[i] = Worker(worker.partition, self.dataset)
                    retries += 1
                    self._worker_retry_counter.inc(1.0, round=round_label)
                    attempt += 1
        return answers, crashes, retries
