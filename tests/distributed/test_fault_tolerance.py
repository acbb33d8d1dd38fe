"""Coordinator crash detection, respawn-and-resubmit, and abandonment."""

import pytest

from repro.distributed.coordinator import DistributedMCKEngine
from repro.exceptions import WorkerCrashed
from repro.serving.stats import MetricsRegistry
from repro.testing import faults


@pytest.fixture
def grid_dataset(random_dataset_factory):
    # One keyword per object: no single object covers the query, so the
    # coordinator always collects a boundary strip.
    return random_dataset_factory(11, n=60, vocab="abcd", max_terms=1)


@pytest.fixture
def engine(grid_dataset):
    return DistributedMCKEngine(
        grid_dataset,
        n_workers=4,
        metrics=MetricsRegistry(),
        retry_backoff_seconds=0.0,
    )


QUERY = ["a", "b", "c"]


def crash(worker_id: int = -1):
    return lambda: WorkerCrashed(worker_id, "injected crash")


class TestRespawnAndResubmit:
    def test_single_crash_is_transparent(self, engine):
        baseline = engine.query(QUERY)
        with faults.injected(
            "distributed.worker.answer", error=crash(), times=1
        ):
            result = engine.query(QUERY)
        assert result.group.diameter == pytest.approx(baseline.group.diameter)
        assert result.worker_crashes == 1
        assert result.worker_retries == 1

    def test_crash_on_nth_task(self, engine):
        baseline = engine.query(QUERY)
        # Crash the third worker call of the query (crash-on-nth-task).
        with faults.injected(
            "distributed.worker.answer", error=crash(), after=2, times=1
        ):
            result = engine.query(QUERY)
        assert result.group.diameter == pytest.approx(baseline.group.diameter)
        assert result.worker_crashes == 1

    def test_crash_in_exact_round(self, engine):
        baseline = engine.query(QUERY)
        n = engine.n_workers
        # The workers run EXACT in the query's one worker round: crash the
        # last worker's call once.
        with faults.injected(
            "distributed.worker.answer", error=crash(), after=n - 1, times=1
        ):
            result = engine.query(QUERY)
        assert result.group.diameter == pytest.approx(baseline.group.diameter)
        assert result.group.object_ids == baseline.group.object_ids
        assert result.group.quality == "exact"
        assert (
            engine.metrics.counter("mck_worker_crashes_total").value(
                round="bound"
            )
            == 1.0
        )

    def test_retry_counters_recorded(self, engine):
        with faults.injected(
            "distributed.worker.answer", error=crash(), times=1
        ):
            engine.query(QUERY)
        assert (
            engine.metrics.counter("mck_worker_crashes_total").value(
                round="bound"
            )
            == 1.0
        )
        assert (
            engine.metrics.counter("mck_worker_retries_total").value(
                round="bound"
            )
            == 1.0
        )


class TestAbandonment:
    def test_persistent_crasher_abandoned_query_completes(self, engine):
        baseline = engine.query(QUERY)
        with faults.injected(
            "distributed.worker.answer",
            error=crash(0),
            times=None,
            match=lambda worker_id, **_: worker_id == 0,
        ):
            result = engine.query(QUERY)
        # Worker 0 died every attempt of the query's one worker round:
        # 1 + retries crashes, `max_worker_retries` respawns.
        assert result.worker_crashes == engine.max_worker_retries + 1
        assert result.worker_retries == engine.max_worker_retries
        assert result.group is not None
        # The survivors' merge answers without worker 0's rows: never
        # below the optimum, and tagged partial.
        assert result.group.diameter >= baseline.group.diameter - 1e-9
        assert result.group.quality == "partial"
        assert result.group.degraded

    def test_all_workers_crashing_raises(self, engine):
        # Every worker abandoned: no rows reach the coordinator, which
        # holds no copy of the data to answer from.
        with faults.injected(
            "distributed.worker.answer", error=crash(), times=None
        ):
            with pytest.raises(WorkerCrashed):
                engine.query(QUERY)
        per_worker = engine.max_worker_retries + 1
        assert (
            engine.metrics.counter("mck_worker_crashes_total").value(
                round="bound"
            )
            == engine.n_workers * per_worker
        )

    def test_zero_retry_budget(self, grid_dataset):
        engine = DistributedMCKEngine(
            grid_dataset,
            n_workers=4,
            max_worker_retries=0,
            metrics=MetricsRegistry(),
            retry_backoff_seconds=0.0,
        )
        with faults.injected(
            "distributed.worker.answer", error=crash(), times=1
        ):
            result = engine.query(QUERY)
        assert result.worker_crashes == 1
        assert result.worker_retries == 0
        assert result.group is not None


class TestBackoff:
    def test_backoff_is_capped_exponential(self, grid_dataset):
        sleeps = []
        engine = DistributedMCKEngine(
            grid_dataset,
            n_workers=2,
            max_worker_retries=4,
            retry_backoff_seconds=0.1,
            retry_backoff_cap=0.3,
            sleep=sleeps.append,
            metrics=MetricsRegistry(),
        )
        with faults.injected(
            "distributed.worker.answer",
            error=crash(0),
            times=4,
            match=lambda worker_id, **_: worker_id == 0,
        ):
            engine.query(QUERY)
        assert sleeps[:4] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.3),
            pytest.approx(0.3),
        ]
