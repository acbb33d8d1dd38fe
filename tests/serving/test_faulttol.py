"""Process-pool fault tolerance: retry budget, circuit breaker, fallback."""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.serving import CircuitBreaker, MetricsRegistry, QueryService
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN
from repro.testing import faults

QUERY = ["shrine", "shop", "restaurant", "hotel"]


def make_service(kyoto_engine, **kwargs):
    defaults = dict(
        process_algorithms=("EXACT",),
        process_workers=1,
        pool_retry_backoff=0.0,
        metrics=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return QueryService(kyoto_engine, **defaults)


class TestPoolRetry:
    def test_injected_rejection_retried_and_served(self, kyoto_engine, kyoto_dataset):
        with make_service(kyoto_engine) as svc:
            with faults.injected(
                "serving.pool.submit", error=BrokenProcessPool, times=1
            ):
                result = svc.query(QUERY, algorithm="EXACT", timeout=30.0)
            assert result.ok
            assert not result.degraded  # the retry reached a healthy pool
            assert result.group.covers(kyoto_dataset, QUERY)
            assert (
                svc.metrics.pool_retry_counter.value(algorithm="EXACT") == 1.0
            )
            assert svc.breaker.state == CLOSED

    def test_real_dead_worker_retried(self, kyoto_engine, kyoto_dataset):
        # Kill an actual pool worker: the executor breaks with a genuine
        # BrokenProcessPool, the pool is rebuilt, the query still answers.
        with make_service(kyoto_engine) as svc:
            pool = svc._ensure_process_pool()
            pool.submit(os._exit, 1)
            result = svc.query(QUERY, algorithm="EXACT", timeout=30.0)
            assert result.ok
            assert result.group.covers(kyoto_dataset, QUERY)

    def test_exhausted_budget_falls_back_degraded(self, kyoto_engine, kyoto_dataset):
        with make_service(kyoto_engine, pool_retries=1) as svc:
            with faults.injected(
                "serving.pool.submit", error=BrokenProcessPool, times=None
            ):
                result = svc.query(QUERY, algorithm="EXACT", timeout=30.0)
            assert result.ok
            assert result.degraded
            assert result.group.stats.get("pool_fallback") == 1.0
            assert result.group.covers(kyoto_dataset, QUERY)
            assert (
                svc.metrics.pool_fallback_counter.value(algorithm="EXACT")
                == 1.0
            )
            # The fallback answer must not poison the cache.
            assert svc.cache.stats()["size"] == 0

    def test_strict_mode_fallback_is_an_error(self, kyoto_engine):
        with make_service(
            kyoto_engine, pool_retries=0, strict_timeouts=True
        ) as svc:
            with faults.injected(
                "serving.pool.submit", error=BrokenProcessPool, times=None
            ):
                result = svc.query(QUERY, algorithm="EXACT", timeout=30.0)
            assert not result.ok
            assert "process pool" in result.error


class TestBreakerIntegration:
    def test_breaker_opens_and_short_circuits(self, kyoto_engine):
        with make_service(
            kyoto_engine, pool_retries=1, breaker_threshold=2
        ) as svc:
            with faults.injected(
                "serving.pool.submit", error=BrokenProcessPool, times=None
            ) as fault:
                first = svc.query(QUERY, algorithm="EXACT", timeout=30.0)
                submits_after_first = fault.triggered
                second = svc.query(QUERY[:3], algorithm="EXACT", timeout=30.0)
                submits_after_second = fault.triggered
            assert first.ok and first.degraded
            assert second.ok and second.degraded
            # Two failures tripped the breaker during the first query; the
            # second never touched the pool.
            assert svc.breaker.state == OPEN
            assert submits_after_second == submits_after_first
            assert (
                svc.metrics.circuit_transition_counter.value(state="open")
                == 1.0
            )
            assert svc.metrics.circuit_open_gauge.value() == 1.0
            prom = svc.metrics.to_prometheus()
            assert "mck_circuit_open 1" in prom


class TestCircuitBreakerUnit:
    def test_opens_at_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=10.0, clock=clock)
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=10.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now += 10.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # only one probe at a time
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=10.0, clock=clock)
        breaker.record_failure()
        clock.now += 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now += 5.0
        assert not breaker.allow()  # cooldown restarted
        clock.now += 5.0
        assert breaker.allow()

    def test_transition_callback(self):
        transitions = []
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown_seconds=1.0,
            clock=clock,
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        breaker.record_failure()
        clock.now += 1.0
        breaker.allow()
        breaker.record_success()
        assert transitions == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now
