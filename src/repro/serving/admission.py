"""Overload protection: bounded admission, load shedding, adaptive limits.

The ROADMAP's target is a service under heavy traffic; a service without
admission control does not *degrade* under overload, it *collapses* —
every queued request eventually misses its deadline, and the queue itself
costs memory and scheduling work.  This module makes overload a first-
class, observable state with three cooperating mechanisms:

:class:`AdmissionController`
    A bounded FIFO admission queue in front of a fixed-size worker-thread
    pool.  When the queue is full a pluggable *shedding policy* decides
    who pays: the newcomer (``reject-newest``), the oldest queued request
    (``reject-oldest``), or whichever queued request provably cannot meet
    its deadline anyway (``deadline-aware``).  Every rejection is a typed
    :class:`~repro.exceptions.QueryRejected` (429-style) — cheap,
    predictable, and catchable — never an unbounded wait.

:class:`AdaptiveConcurrencyLimiter`
    An AIMD limiter (in the style of Netflix's concurrency-limits) that
    governs how much *work* may be in flight, in cost-weighted units
    rather than a fixed thread count.  Execution latencies are compared
    against a per-key baseline: while latency stays near the baseline the
    limit creeps up additively; when latency degrades the limit backs off
    multiplicatively, shrinking the inflight window until the system
    recovers.

:func:`estimate_cost`
    A per-query cost weight from the algorithm, the number of keywords m,
    and the query keywords' document frequencies.  EXACT's branch-and-
    bound is NP-hard in m (cf. the exponential baselines in the related
    nearest-keyword-set literature), so one EXACT query is charged like
    several GKG queries and cannot silently starve them.

Fault injection: every submission passes the ``serving.admission.capacity``
site (see :mod:`repro.testing.faults`); arming a
:class:`~repro.exceptions.QueryRejected` there simulates a full queue
without generating real load.

Observability: the controller reports queue depth, inflight work, the
live concurrency limit and every rejection through injectable callbacks;
:class:`~repro.serving.stats.MetricsRegistry` wires them to the
``mck_queue_depth`` / ``mck_inflight`` / ``mck_concurrency_limit`` gauges
and the ``mck_admission_rejected_total{reason=...}`` counter.  See
``docs/overload.md`` for the tuning guide.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Deque, Dict, Optional, Tuple

from ..exceptions import QueryRejected
from ..observability.logging import get_logger
from ..testing import faults as _faults

__all__ = [
    "REJECT_NEWEST",
    "REJECT_OLDEST",
    "DEADLINE_AWARE",
    "SHED_POLICIES",
    "estimate_cost",
    "AdaptiveConcurrencyLimiter",
    "AdmissionController",
]

_log = get_logger("serving.admission")

REJECT_NEWEST = "reject-newest"
REJECT_OLDEST = "reject-oldest"
DEADLINE_AWARE = "deadline-aware"
#: The shedding policies :class:`AdmissionController` accepts.
SHED_POLICIES = (REJECT_NEWEST, REJECT_OLDEST, DEADLINE_AWARE)


# --------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------- #

#: Relative base cost per algorithm, GKG = 1.  The approximation family
#: costs a small constant factor more (binary search over circleScan
#: sweeps); EXACT's branch-and-bound dominates everything.
_ALGORITHM_COST = {
    "GKG": 1.0,
    "SKEC": 3.0,
    "SKECa": 2.0,
    "SKECa+": 2.0,
    "EXACT": 8.0,
}

#: Cap on a single query's weight so one pathological request cannot
#: permanently exceed the concurrency limit (it would still run alone
#: via the inflight==0 guarantee, but bounding keeps estimates sane).
MAX_COST = 64.0


def estimate_cost(
    algorithm: str, m: int, min_keyword_frequency: float = 0.0
) -> float:
    """Estimated relative cost of one query, in GKG-sized units.

    Parameters
    ----------
    algorithm:
        Canonical algorithm name (``GKG`` ... ``EXACT``).
    m:
        Number of query keywords.  The approximation algorithms scale
        mildly with m; EXACT's search space grows exponentially.
    min_keyword_frequency:
        Document frequency of the *least frequent* query keyword as a
        fraction of the dataset (0..1).  The paper's algorithms anchor
        their search on the rarest keyword's objects, so a query whose
        rarest keyword is still ubiquitous scans far more candidates.
    """
    base = _ALGORITHM_COST.get(algorithm, 2.0)
    if algorithm == "EXACT":
        # NP-hard in m: each extra keyword multiplies the subset search.
        m_factor = 1.5 ** max(0, m - 2)
    else:
        m_factor = 1.0 + 0.25 * max(0, m - 2)
    rel = min(1.0, max(0.0, min_keyword_frequency))
    freq_factor = 1.0 + 9.0 * rel
    return min(MAX_COST, base * m_factor * freq_factor)


# --------------------------------------------------------------------- #
# Adaptive concurrency
# --------------------------------------------------------------------- #


class AdaptiveConcurrencyLimiter:
    """AIMD concurrency limit driven by latency-vs-baseline.

    The limit is a float in *cost units* (see :func:`estimate_cost`), not
    a thread count: the worker pool bounds parallelism, the limiter bounds
    admitted work.  Each completed execution reports its latency under a
    ``key`` (the serving layer uses the algorithm name); the limiter keeps
    one latency baseline per key, so a slow EXACT completing next to fast
    GKGs is compared against *EXACT's* baseline, not a global mush.

    * sample ≤ ``tolerance`` × baseline → additive increase
      (``limit += increase / limit``, the classic one-per-window ramp);
    * sample >  ``tolerance`` × baseline → multiplicative decrease
      (``limit *= backoff``).

    The baseline is a drifting minimum: it rises by ``baseline_drift`` per
    sample and snaps down to any faster observation, so it tracks the
    uncongested service time without being poisoned by overload samples.
    """

    def __init__(
        self,
        initial: float = 16.0,
        min_limit: float = 1.0,
        max_limit: float = 128.0,
        tolerance: float = 2.0,
        increase: float = 1.0,
        backoff: float = 0.75,
        baseline_drift: float = 0.05,
        on_change: Optional[Callable[[float], None]] = None,
    ):
        if not min_limit <= initial <= max_limit:
            raise ValueError("need min_limit <= initial <= max_limit")
        if not 0.0 < backoff < 1.0:
            raise ValueError("backoff must be in (0, 1)")
        if tolerance < 1.0:
            raise ValueError("tolerance must be >= 1")
        self.min_limit = float(min_limit)
        self.max_limit = float(max_limit)
        self.initial = float(initial)
        self.tolerance = float(tolerance)
        self.increase = float(increase)
        self.backoff = float(backoff)
        self.baseline_drift = float(baseline_drift)
        self._on_change = on_change
        self._lock = threading.Lock()
        self._limit = float(initial)
        self._baselines: Dict[str, float] = {}
        #: Samples that triggered a multiplicative decrease.
        self.decreases = 0
        #: Samples that triggered an additive increase.
        self.increases = 0

    @property
    def limit(self) -> float:
        with self._lock:
            return self._limit

    def baseline(self, key: str = "") -> Optional[float]:
        with self._lock:
            return self._baselines.get(key)

    def on_complete(self, latency_seconds: float, key: str = "") -> None:
        """Feed one execution latency; adjusts the limit (AIMD)."""
        latency = max(0.0, float(latency_seconds))
        with self._lock:
            baseline = self._baselines.get(key)
            if baseline is None:
                # First observation for this key: it *is* the baseline;
                # there is nothing to compare against yet.
                self._baselines[key] = latency
                return
            baseline = min(latency, baseline * (1.0 + self.baseline_drift))
            self._baselines[key] = baseline
            if latency <= self.tolerance * max(baseline, 1e-9):
                self._limit = min(
                    self.max_limit, self._limit + self.increase / self._limit
                )
                self.increases += 1
            else:
                self._limit = max(self.min_limit, self._limit * self.backoff)
                self.decreases += 1
            limit = self._limit
        if self._on_change is not None:
            self._on_change(limit)

    def reset(self) -> None:
        with self._lock:
            self._limit = self.initial
            self._baselines.clear()
            self.decreases = 0
            self.increases = 0


# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #


class _Entry:
    """One admitted-but-not-finished request."""

    __slots__ = (
        "fn",
        "args",
        "future",
        "cost",
        "deadline_at",
        "enqueued",
        "key",
        "skips",
    )

    def __init__(self, fn, args, future, cost, deadline_at, enqueued, key):
        self.fn = fn
        self.args = args
        self.future = future
        self.cost = cost
        #: Absolute monotonic time by which the caller needs the answer
        #: (``None`` when the request carries no timeout).
        self.deadline_at = deadline_at
        self.enqueued = enqueued
        self.key = key
        #: Times a cheaper entry was dispatched past this one while it
        #: sat at the head of the queue (starvation guard).
        self.skips = 0


def _noop(*_args, **_kwargs) -> None:
    return None


class AdmissionController:
    """Bounded admission queue + shedding policy + adaptive inflight limit.

    Parameters
    ----------
    max_workers:
        Worker-thread count — the hard upper bound on parallelism.  The
        adaptive limiter throttles *below* this bound in cost units.
    capacity:
        Maximum queued (accepted but not yet executing) requests.
        ``None`` disables the bound (not recommended outside tests).
    policy:
        One of :data:`SHED_POLICIES`; decides who is rejected when the
        queue is full (and, for ``deadline-aware``, whom to shed early).
    limiter:
        An :class:`AdaptiveConcurrencyLimiter`; a permissive default is
        built when omitted.
    service_time:
        ``service_time(key) -> Optional[float]`` returning the observed
        p95 execution time for ``key`` (the serving layer answers from
        its latency histograms).  Only the ``deadline-aware`` policy
        consults it; ``None`` answers disable prediction (cold start).
    clock:
        Injectable monotonic clock (tests).
    on_reject / on_depth / on_inflight / on_limit:
        Observability callbacks: ``on_reject(reason)`` per rejection,
        ``on_depth(depth)`` / ``on_inflight(count, cost)`` on queue and
        inflight changes, ``on_limit(limit)`` on limiter adjustments.

    Counter semantics (see :meth:`counters`): every ``submit`` either
    raises/resolves :class:`~repro.exceptions.QueryRejected` (counted in
    ``rejected``, labelled by reason) or eventually *executes* (counted
    in ``accepted`` at dispatch, then exactly one of ``completed`` /
    ``failed``).  At quiescence ``submitted == accepted + rejected`` and
    ``accepted == completed + failed`` — no request is silently dropped
    or double-counted.
    """

    #: Consecutive dispatches allowed to jump past a head-of-queue entry
    #: that does not fit the current limit before FIFO order is enforced.
    MAX_SKIPS = 64

    def __init__(
        self,
        max_workers: int,
        capacity: Optional[int] = 1024,
        policy: str = REJECT_NEWEST,
        limiter: Optional[AdaptiveConcurrencyLimiter] = None,
        service_time: Optional[Callable[[str], Optional[float]]] = None,
        clock: Callable[[], float] = time.monotonic,
        on_reject: Callable[[str], None] = _noop,
        on_depth: Callable[[int], None] = _noop,
        on_inflight: Callable[[int, float], None] = _noop,
        on_limit: Callable[[float], None] = _noop,
        thread_name_prefix: str = "mck-admit",
    ):
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {policy!r}; pick one of {SHED_POLICIES}"
            )
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.max_workers = max(1, int(max_workers))
        self.capacity = capacity
        self.policy = policy
        self.limiter = limiter if limiter is not None else AdaptiveConcurrencyLimiter(
            initial=4.0 * self.max_workers,
            max_limit=16.0 * self.max_workers,
        )
        self._service_time = service_time
        self._clock = clock
        self._on_reject = on_reject
        self._on_depth = on_depth
        self._on_inflight = on_inflight
        self._on_limit = on_limit
        self._cond = threading.Condition()
        self._queue: Deque[_Entry] = deque()
        self._inflight = 0
        self._inflight_cost = 0.0
        self._closed = False
        self._counters = {
            "submitted": 0,
            "accepted": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
        }
        self._threads = [
            threading.Thread(
                target=self._worker,
                name=f"{thread_name_prefix}-{i}",
                daemon=True,
            )
            for i in range(self.max_workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def submit(
        self,
        fn: Callable,
        *args,
        cost: float = 1.0,
        timeout: Optional[float] = None,
        key: str = "",
    ) -> "Future":
        """Admit ``fn(*args)`` or raise :class:`QueryRejected`.

        ``cost`` is the request's weight against the concurrency limit,
        ``timeout`` its end-to-end budget in seconds (consulted by the
        ``deadline-aware`` policy), ``key`` the latency-baseline bucket
        (the serving layer passes the algorithm name).
        """
        cost = max(1e-6, float(cost))
        future: "Future" = Future()
        with self._cond:
            self._counters["submitted"] += 1
            try:
                # Fault site: an armed QueryRejected models a full queue;
                # an armed delay models a slow admission path.
                _faults.fire(
                    "serving.admission.capacity",
                    policy=self.policy,
                    depth=len(self._queue),
                )
            except QueryRejected as err:
                self._reject_locked(err.reason)
                raise
            except Exception:
                self._reject_locked("fault")
                raise
            if self._closed:
                raise self._rejected_locked(
                    "shutdown", "admission controller is closed"
                )
            now = self._clock()
            deadline_at = now + timeout if timeout is not None else None
            if self.policy == DEADLINE_AWARE:
                self._check_deadline_locked(timeout, cost, key)
            if self.capacity is not None and len(self._queue) >= self.capacity:
                self._make_room_locked()
            entry = _Entry(fn, args, future, cost, deadline_at, now, key)
            self._queue.append(entry)
            self._on_depth(len(self._queue))
            self._cond.notify()
        return future

    def counters(self) -> Dict[str, int]:
        """Snapshot of the conservation counters (see class docstring)."""
        with self._cond:
            return dict(self._counters)

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def inflight_cost(self) -> float:
        with self._cond:
            return self._inflight_cost

    def close(self) -> None:
        """Drain executing work, reject queued work, stop the workers.

        Idempotent: the second and later calls are no-ops.  Requests
        already dispatched to a worker complete normally (their futures
        resolve); requests still queued resolve with
        ``QueryRejected(reason="shutdown")``.
        """
        with self._cond:
            if self._closed:
                self._cond.notify_all()
            else:
                self._closed = True
                while self._queue:
                    entry = self._queue.popleft()
                    self._resolve_rejected_locked(
                        entry, "shutdown", "service closed before dispatch"
                    )
                self._on_depth(0)
                self._cond.notify_all()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join()

    def __enter__(self) -> "AdmissionController":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Admission internals (all called with the condition lock held)
    # ------------------------------------------------------------------ #

    def _rejected_locked(self, reason: str, detail: str) -> QueryRejected:
        self._reject_locked(reason)
        return QueryRejected(reason, detail)

    def _reject_locked(self, reason: str) -> None:
        self._counters["rejected"] += 1
        self._on_reject(reason)

    def _resolve_rejected_locked(
        self, entry: _Entry, reason: str, detail: str
    ) -> None:
        """Reject an already-queued entry through its future."""
        self._reject_locked(reason)
        entry.future.set_exception(QueryRejected(reason, detail))

    def _check_deadline_locked(
        self, timeout: Optional[float], cost: float, key: str
    ) -> None:
        """deadline-aware: reject a newcomer that provably cannot finish.

        Predicted time in system = queue drain time + own service time,
        with the drain modelled as ``depth`` requests of the observed p95
        service time spread over the effective parallelism (the smaller
        of the worker count and the current limit, in request units).
        Without an observed p95 (cold start) prediction is disabled.
        """
        if timeout is None or self._service_time is None:
            return
        est = self._service_time(key)
        if est is None or est <= 0.0:
            return
        parallel = max(1.0, min(float(self.max_workers), self.limiter.limit))
        predicted = (len(self._queue) * est) / parallel + est
        if predicted > timeout:
            raise self._rejected_locked(
                "deadline_unmeetable",
                f"predicted {predicted:.3f}s exceeds timeout {timeout:.3f}s "
                f"(queue depth {len(self._queue)}, p95 {est:.3f}s)",
            )

    def _make_room_locked(self) -> None:
        """The queue is full: shed per policy or reject the newcomer."""
        if self.policy == REJECT_OLDEST:
            victim = self._queue.popleft()
            self._resolve_rejected_locked(
                victim, "shed_oldest", "evicted by a newer request"
            )
            self._on_depth(len(self._queue))
            return
        if self.policy == DEADLINE_AWARE:
            # Shed the queued request with the least deadline headroom —
            # the one most likely to be wasted work anyway.
            victim = min(
                (e for e in self._queue if e.deadline_at is not None),
                key=lambda e: e.deadline_at,
                default=None,
            )
            if victim is not None:
                self._queue.remove(victim)
                self._resolve_rejected_locked(
                    victim,
                    "deadline_unmeetable",
                    "shed while queued: least remaining deadline headroom",
                )
                self._on_depth(len(self._queue))
                return
        raise self._rejected_locked(
            "capacity", f"admission queue is full ({self.capacity})"
        )

    # ------------------------------------------------------------------ #
    # Dispatch internals
    # ------------------------------------------------------------------ #

    def _next_entry_locked(self) -> Optional[_Entry]:
        """Pick the next dispatchable entry (FIFO with bounded skip-ahead).

        An entry fits when the cost-weighted inflight total stays within
        the limiter's current limit; with nothing inflight the head runs
        regardless (so an over-limit request can never deadlock).  When
        the head does not fit, cheaper entries behind it may jump ahead —
        at most :data:`MAX_SKIPS` times, after which FIFO order is
        enforced so the heavy head cannot starve.
        """
        limit = self.limiter.limit
        i = 0
        while i < len(self._queue):
            entry = self._queue[i]
            if (
                self.policy == DEADLINE_AWARE
                and entry.deadline_at is not None
                and self._clock() > entry.deadline_at
            ):
                # Executing an already-expired request is pure waste.
                del self._queue[i]
                self._resolve_rejected_locked(
                    entry, "deadline_unmeetable", "deadline expired in queue"
                )
                self._on_depth(len(self._queue))
                continue
            if (
                self._inflight == 0
                or self._inflight_cost + entry.cost <= limit
            ):
                del self._queue[i]
                if i > 0:
                    self._queue[0].skips += 1
                self._on_depth(len(self._queue))
                return entry
            if i == 0 and entry.skips >= self.MAX_SKIPS:
                return None
            i += 1
        return None

    def _worker(self) -> None:
        while True:
            with self._cond:
                entry = self._next_entry_locked()
                while entry is None:
                    if self._closed and not self._queue:
                        return
                    self._cond.wait()
                    entry = self._next_entry_locked()
                self._counters["accepted"] += 1
                self._inflight += 1
                self._inflight_cost += entry.cost
                self._on_inflight(self._inflight, self._inflight_cost)
            self._run_entry(entry)

    def _run_entry(self, entry: _Entry) -> None:
        started = self._clock()
        failed = False
        try:
            result = entry.fn(*entry.args)
        except BaseException as err:
            failed = True
            entry.future.set_exception(err)
        else:
            entry.future.set_result(result)
        latency = self._clock() - started
        # The limiter takes its own (leaf) lock; feed it outside ours.
        self.limiter.on_complete(latency, key=entry.key)
        self._on_limit(self.limiter.limit)
        with self._cond:
            self._inflight -= 1
            self._inflight_cost -= entry.cost
            self._counters["failed" if failed else "completed"] += 1
            self._on_inflight(self._inflight, self._inflight_cost)
            self._cond.notify_all()
