"""Admission control: bounded queue, shedding policies, adaptive limits."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import (
    InvalidRequestError,
    QueryError,
    QueryRejected,
    ReproError,
)
from repro.serving import MetricsRegistry, QueryRequest, QueryService
from repro.serving.admission import (
    DEADLINE_AWARE,
    MAX_COST,
    REJECT_NEWEST,
    REJECT_OLDEST,
    AdaptiveConcurrencyLimiter,
    AdmissionController,
    estimate_cost,
)
from repro.testing import faults

WAIT = 10.0


class _Gate:
    """A task that blocks its worker thread until released."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def __call__(self):
        self.started.set()
        assert self.release.wait(WAIT), "gate never released"
        return "gated"


def _drain(controller, gates=()):
    for gate in gates:
        gate.release.set()
    controller.close()


# --------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------- #


class TestEstimateCost:
    def test_exact_costs_more_than_approximation(self):
        assert estimate_cost("EXACT", 4) > estimate_cost("SKECa+", 4)
        assert estimate_cost("SKECa+", 4) > estimate_cost("GKG", 4)

    def test_exact_grows_with_m(self):
        costs = [estimate_cost("EXACT", m) for m in range(2, 8)]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_frequent_rare_keyword_raises_cost(self):
        rare = estimate_cost("SKECa+", 4, min_keyword_frequency=0.001)
        common = estimate_cost("SKECa+", 4, min_keyword_frequency=0.9)
        assert common > rare

    def test_cost_is_capped(self):
        assert estimate_cost("EXACT", 30, min_keyword_frequency=1.0) == MAX_COST

    def test_unknown_algorithm_gets_default_weight(self):
        assert estimate_cost("mystery", 2) == pytest.approx(2.0)


# --------------------------------------------------------------------- #
# Adaptive concurrency limiter
# --------------------------------------------------------------------- #


class TestAdaptiveConcurrencyLimiter:
    def test_first_sample_only_sets_baseline(self):
        limiter = AdaptiveConcurrencyLimiter(initial=8.0)
        limiter.on_complete(0.05, key="GKG")
        assert limiter.limit == 8.0
        assert limiter.baseline("GKG") == pytest.approx(0.05)

    def test_fast_samples_increase_additively(self):
        limiter = AdaptiveConcurrencyLimiter(initial=8.0, increase=1.0)
        limiter.on_complete(0.05)
        before = limiter.limit
        limiter.on_complete(0.05)
        assert limiter.limit == pytest.approx(before + 1.0 / before)
        assert limiter.increases == 1

    def test_slow_samples_decrease_multiplicatively(self):
        limiter = AdaptiveConcurrencyLimiter(initial=8.0, backoff=0.5)
        limiter.on_complete(0.05)
        limiter.on_complete(5.0)  # way past tolerance * baseline
        assert limiter.limit == pytest.approx(4.0)
        assert limiter.decreases == 1

    def test_limit_respects_bounds(self):
        limiter = AdaptiveConcurrencyLimiter(
            initial=2.0, min_limit=1.0, max_limit=3.0, backoff=0.1
        )
        limiter.on_complete(0.05)
        for _ in range(50):
            limiter.on_complete(0.05)
        assert limiter.limit == 3.0
        for _ in range(50):
            limiter.on_complete(50.0)
        assert limiter.limit == 1.0

    def test_baselines_are_per_key(self):
        limiter = AdaptiveConcurrencyLimiter(initial=8.0)
        limiter.on_complete(0.001, key="GKG")
        limiter.on_complete(1.0, key="EXACT")
        # A 1s EXACT next to a 1ms GKG baseline must not trip a decrease.
        before = limiter.limit
        limiter.on_complete(1.0, key="EXACT")
        assert limiter.limit >= before
        assert limiter.decreases == 0

    def test_baseline_snaps_down_to_faster_samples(self):
        limiter = AdaptiveConcurrencyLimiter(initial=8.0)
        limiter.on_complete(1.0)
        limiter.on_complete(0.01)
        assert limiter.baseline("") == pytest.approx(0.01)

    def test_reset_restores_initial_state(self):
        limiter = AdaptiveConcurrencyLimiter(initial=8.0)
        limiter.on_complete(0.05)
        limiter.on_complete(50.0)
        limiter.reset()
        assert limiter.limit == 8.0
        assert limiter.baseline("") is None
        assert limiter.increases == limiter.decreases == 0

    def test_on_change_fires_on_adjustment(self):
        seen = []
        limiter = AdaptiveConcurrencyLimiter(initial=8.0, on_change=seen.append)
        limiter.on_complete(0.05)
        limiter.on_complete(0.05)
        assert seen and seen[-1] == limiter.limit

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial": 0.5, "min_limit": 1.0},
            {"backoff": 0.0},
            {"backoff": 1.0},
            {"tolerance": 0.5},
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimiter(**kwargs)

    def test_controller_times_samples_with_its_clock(self):
        now = [0.0]

        def serve(seconds):
            now[0] += seconds

        limiter = AdaptiveConcurrencyLimiter(initial=4.0)
        with AdmissionController(
            max_workers=1, limiter=limiter, clock=lambda: now[0]
        ) as controller:
            controller.submit(serve, 2.5, key="EXACT").result(timeout=WAIT)
        assert limiter.baseline("EXACT") == 2.5


# --------------------------------------------------------------------- #
# Admission controller: policies
# --------------------------------------------------------------------- #


class TestSheddingPolicies:
    def test_reject_newest_sheds_the_newcomer(self):
        ctrl = AdmissionController(
            max_workers=1, capacity=1, policy=REJECT_NEWEST
        )
        gate = _Gate()
        running = ctrl.submit(gate)
        assert gate.started.wait(WAIT)
        queued = ctrl.submit(lambda: "queued")
        with pytest.raises(QueryRejected) as excinfo:
            ctrl.submit(lambda: "late")
        assert excinfo.value.reason == "capacity"
        gate.release.set()
        assert running.result(timeout=WAIT) == "gated"
        assert queued.result(timeout=WAIT) == "queued"
        ctrl.close()
        counters = ctrl.counters()
        assert counters["submitted"] == 3
        assert counters["accepted"] == 2
        assert counters["rejected"] == 1

    def test_reject_oldest_evicts_the_queued_head(self):
        ctrl = AdmissionController(
            max_workers=1, capacity=1, policy=REJECT_OLDEST
        )
        gate = _Gate()
        ctrl.submit(gate)
        assert gate.started.wait(WAIT)
        oldest = ctrl.submit(lambda: "old")
        newest = ctrl.submit(lambda: "new")
        with pytest.raises(QueryRejected) as excinfo:
            oldest.result(timeout=WAIT)
        assert excinfo.value.reason == "shed_oldest"
        gate.release.set()
        assert newest.result(timeout=WAIT) == "new"
        ctrl.close()

    def test_deadline_aware_rejects_unmeetable_newcomer(self):
        ctrl = AdmissionController(
            max_workers=1,
            policy=DEADLINE_AWARE,
            service_time=lambda key: 1.0,  # observed p95: 1s per query
        )
        with pytest.raises(QueryRejected) as excinfo:
            ctrl.submit(lambda: "slow", timeout=0.3)
        assert excinfo.value.reason == "deadline_unmeetable"
        # A generous deadline is admitted under the same prediction.
        assert ctrl.submit(lambda: "ok", timeout=30.0).result(WAIT) == "ok"
        ctrl.close()

    def test_deadline_aware_cold_start_admits_everything(self):
        ctrl = AdmissionController(
            max_workers=1,
            policy=DEADLINE_AWARE,
            service_time=lambda key: None,  # no p95 yet
            # Frozen: a slow dispatch thread must not expire the 1 ms
            # deadline in the queue; the test is about admission only.
            clock=lambda: 0.0,
        )
        assert ctrl.submit(lambda: "ok", timeout=0.001).result(WAIT) == "ok"
        ctrl.close()

    def test_deadline_aware_sheds_least_headroom_when_full(self):
        ctrl = AdmissionController(
            max_workers=1, capacity=2, policy=DEADLINE_AWARE
        )
        gate = _Gate()
        ctrl.submit(gate)
        assert gate.started.wait(WAIT)
        patient = ctrl.submit(lambda: "patient", timeout=60.0)
        hurried = ctrl.submit(lambda: "hurried", timeout=1.0)
        latecomer = ctrl.submit(lambda: "late", timeout=30.0)
        with pytest.raises(QueryRejected) as excinfo:
            hurried.result(timeout=WAIT)
        assert excinfo.value.reason == "deadline_unmeetable"
        gate.release.set()
        assert patient.result(timeout=WAIT) == "patient"
        assert latecomer.result(timeout=WAIT) == "late"
        ctrl.close()

    def test_deadline_aware_sheds_expired_entries_at_dispatch(self):
        clock = [0.0]
        ctrl = AdmissionController(
            max_workers=1,
            policy=DEADLINE_AWARE,
            clock=lambda: clock[0],
        )
        gate = _Gate()
        ctrl.submit(gate)
        assert gate.started.wait(WAIT)
        doomed = ctrl.submit(lambda: "never", timeout=0.5)
        clock[0] = 2.0  # the queued entry's deadline is now in the past
        gate.release.set()
        with pytest.raises(QueryRejected) as excinfo:
            doomed.result(timeout=WAIT)
        assert excinfo.value.reason == "deadline_unmeetable"
        ctrl.close()


# --------------------------------------------------------------------- #
# Admission controller: dispatch, limits, lifecycle
# --------------------------------------------------------------------- #


class TestDispatchAndLifecycle:
    def test_oversized_cost_still_runs_alone(self):
        limiter = AdaptiveConcurrencyLimiter(
            initial=1.0, min_limit=1.0, max_limit=2.0
        )
        ctrl = AdmissionController(max_workers=2, limiter=limiter)
        # Far over the limit, but with nothing inflight it must run.
        assert ctrl.submit(lambda: "ran", cost=50.0).result(WAIT) == "ran"
        ctrl.close()

    def test_cheap_entry_skips_past_blocked_heavy_head(self):
        limiter = AdaptiveConcurrencyLimiter(
            initial=2.0, min_limit=1.0, max_limit=2.0
        )
        ctrl = AdmissionController(max_workers=2, limiter=limiter)
        gate = _Gate()
        ctrl.submit(gate, cost=1.5)
        assert gate.started.wait(WAIT)
        heavy = ctrl.submit(lambda: "heavy", cost=1.0)  # 1.5 + 1.0 > 2.0
        cheap = ctrl.submit(lambda: "cheap", cost=0.4)  # 1.5 + 0.4 <= 2.0
        assert cheap.result(timeout=WAIT) == "cheap"
        assert not heavy.done()
        gate.release.set()
        assert heavy.result(timeout=WAIT) == "heavy"
        ctrl.close()

    def test_failures_count_separately_from_completions(self):
        ctrl = AdmissionController(max_workers=1)

        def boom():
            raise RuntimeError("task failure")

        ok = ctrl.submit(lambda: 42)
        bad = ctrl.submit(boom)
        assert ok.result(timeout=WAIT) == 42
        with pytest.raises(RuntimeError):
            bad.result(timeout=WAIT)
        ctrl.close()
        counters = ctrl.counters()
        assert counters["completed"] == 1
        assert counters["failed"] == 1
        assert counters["accepted"] == 2

    def test_close_rejects_queued_and_is_idempotent(self):
        ctrl = AdmissionController(max_workers=1)
        gate = _Gate()
        running = ctrl.submit(gate)
        assert gate.started.wait(WAIT)
        queued = ctrl.submit(lambda: "queued")
        closer = threading.Thread(target=ctrl.close)
        closer.start()
        # The queued entry is rejected immediately, before the worker join.
        with pytest.raises(QueryRejected) as excinfo:
            queued.result(timeout=WAIT)
        assert excinfo.value.reason == "shutdown"
        gate.release.set()
        closer.join(timeout=WAIT)
        assert not closer.is_alive()
        assert running.result(timeout=WAIT) == "gated"  # accepted work drains
        ctrl.close()  # second close: no-op
        with pytest.raises(QueryRejected) as excinfo:
            ctrl.submit(lambda: "late")
        assert excinfo.value.reason == "shutdown"

    def test_context_manager_closes(self):
        with AdmissionController(max_workers=1) as ctrl:
            assert ctrl.submit(lambda: 1).result(timeout=WAIT) == 1
        with pytest.raises(QueryRejected):
            ctrl.submit(lambda: 2)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_workers=1, policy="drop-table")
        with pytest.raises(ValueError):
            AdmissionController(max_workers=1, capacity=0)

    def test_admission_fault_site_counts_as_rejection(self):
        ctrl = AdmissionController(max_workers=1)
        with faults.injected(
            "serving.admission.capacity",
            error=lambda: QueryRejected("injected", "smoke"),
        ):
            with pytest.raises(QueryRejected) as excinfo:
                ctrl.submit(lambda: 1)
        assert excinfo.value.reason == "injected"
        counters = ctrl.counters()
        assert counters["submitted"] == 1
        assert counters["rejected"] == 1
        assert counters["accepted"] == 0
        ctrl.close()


# --------------------------------------------------------------------- #
# Service integration
# --------------------------------------------------------------------- #


class TestServiceAdmission:
    def test_injected_rejection_surfaces_and_counts(self, kyoto_dataset, kyoto_query):
        with QueryService(kyoto_dataset, metrics=MetricsRegistry()) as service:
            with faults.injected(
                "serving.admission.capacity",
                error=lambda: QueryRejected("injected", "smoke"),
            ):
                with pytest.raises(QueryRejected):
                    service.query(kyoto_query)
            counter = service.metrics.admission_rejected_counter
            assert counter.value(reason="injected") == 1.0
            # The service recovers once the fault is disarmed.
            assert service.query(kyoto_query).ok

    def test_query_many_slots_rejections_in_input_order(
        self, kyoto_dataset, kyoto_query
    ):
        with QueryService(kyoto_dataset, metrics=MetricsRegistry()) as service:
            with faults.injected(
                "serving.admission.capacity",
                error=lambda: QueryRejected("injected", "smoke"),
                after=1,
                times=1,
            ):
                # Distinct keyword sets: a repeat could be a cache hit,
                # which is never admitted and would not reach the fault.
                results = service.query_many(
                    [kyoto_query, kyoto_query[:3], kyoto_query[:2]],
                    algorithm="GKG",
                )
        assert [r.rejected for r in results] == [False, True, False]
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "injected" in results[1].error

    def test_admission_metric_families_in_prometheus(
        self, kyoto_dataset, kyoto_query
    ):
        with QueryService(kyoto_dataset, metrics=MetricsRegistry()) as service:
            assert service.query(kyoto_query).ok
            with faults.injected(
                "serving.admission.capacity",
                error=lambda: QueryRejected("injected", "smoke"),
            ):
                with pytest.raises(QueryRejected):
                    service.query(kyoto_query[:2])  # a miss: admitted
            prom = service.metrics.to_prometheus()
        for family in (
            "mck_admission_rejected_total",
            "mck_queue_depth",
            "mck_inflight",
            "mck_concurrency_limit",
        ):
            assert family in prom, f"{family} missing from exposition"

    def test_admission_dict_reports_conserved_counters(
        self, kyoto_dataset, kyoto_query
    ):
        with QueryService(kyoto_dataset, metrics=MetricsRegistry()) as service:
            for _ in range(3):
                assert service.query(kyoto_query).ok
            snap = service.admission_dict()
        # The repeats are cache hits, served before admission.
        assert snap["submitted"] == 1
        assert snap["inline_hits"] == 2
        assert snap["submitted"] == snap["accepted"] + snap["rejected"]
        assert snap["accepted"] == snap["completed"] + snap["failed"]
        assert snap["queue_depth"] == 0
        assert snap["inflight"] == 0
        assert snap["concurrency_limit"] >= 1.0

    def test_close_drains_accepted_work(self, kyoto_dataset, kyoto_query):
        service = QueryService(kyoto_dataset, metrics=MetricsRegistry())
        future = service.submit(kyoto_query, algorithm="GKG")
        service.close()
        service.close()  # idempotent
        try:
            result = future.result(timeout=WAIT)
        except QueryRejected as err:
            # Raced close before dispatch: must be the typed shutdown reject.
            assert err.reason == "shutdown"
        else:
            assert result.ok


# --------------------------------------------------------------------- #
# Request validation (constructed-request contract)
# --------------------------------------------------------------------- #


class TestQueryRequestValidation:
    def test_bare_string_is_one_keyword_not_characters(self):
        assert QueryRequest("hotel").keywords == ("hotel",)

    def test_coerce_accepts_bare_string(self):
        assert QueryRequest.coerce("hotel").keywords == ("hotel",)

    def test_coerce_accepts_sequence(self):
        assert QueryRequest.coerce(["a", "b"]).keywords == ("a", "b")

    def test_empty_keyword_tuple_rejected(self):
        with pytest.raises(InvalidRequestError):
            QueryRequest(())

    def test_empty_keyword_term_rejected(self):
        with pytest.raises(InvalidRequestError):
            QueryRequest(("hotel", ""))

    @pytest.mark.parametrize(
        "epsilon",
        [0.0, -0.1, float("nan"), float("inf"), True, "0.01"],
    )
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(InvalidRequestError):
            QueryRequest(("hotel",), epsilon=epsilon)

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(InvalidRequestError):
            QueryRequest(("hotel",), timeout=timeout)

    def test_invalid_request_error_is_typed_and_catchable(self):
        assert issubclass(InvalidRequestError, QueryError)
        assert issubclass(InvalidRequestError, ReproError)
        assert issubclass(QueryRejected, ReproError)
