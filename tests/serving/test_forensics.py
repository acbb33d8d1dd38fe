"""Service-level forensics: EXPLAIN plumbing, flight retention, span
transport from EXACT pool workers under crash-and-respawn, and the
tracer's concurrent drain/ingest contract."""

from __future__ import annotations

import re
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exceptions import QueryRejected
from repro.observability.explain import render_explain
from repro.observability.flight import FlightRecorder
from repro.observability.slo import SLOTracker
from repro.observability.tracer import Tracer
from repro.serving import MetricsRegistry, QueryService
from repro.testing import faults
from tests.conftest import feasible_query, make_random_dataset

ALGORITHMS = ("GKG", "SKEC", "SKECa", "SKECa+", "EXACT")


@pytest.fixture(scope="module")
def dataset():
    return make_random_dataset(23, n=60)


@pytest.fixture(scope="module")
def query(dataset):
    return feasible_query(dataset, 5, 3)


class TestExplainPlumbing:
    def test_explain_without_any_tracer_uses_ephemeral(self, dataset, query):
        with QueryService(dataset, metrics=MetricsRegistry()) as svc:
            result = svc.query(query, explain=True)
        assert result.explain is not None
        assert result.explain["span_count"] > 0
        assert result.explain["execution"]["kernel_mode"] != "unknown"
        assert "EXPLAIN" in render_explain(result.explain)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_explain_renders_for_every_algorithm(
        self, dataset, query, algorithm
    ):
        with QueryService(dataset, metrics=MetricsRegistry()) as svc:
            result = svc.query(query, algorithm=algorithm, explain=True)
        report = result.explain
        assert report is not None
        assert report["query"]["algorithm"].upper().startswith(
            algorithm.upper().rstrip("+")
        )
        text = render_explain(report)
        assert "engine.algorithm" in text

    def test_explain_cache_hit_reported(self, dataset, query):
        with QueryService(
            dataset, metrics=MetricsRegistry(), cache_size=16
        ) as svc:
            first = svc.query(query, explain=True)
            second = svc.query(query, explain=True)
        assert first.explain["execution"]["cache"]["outcome"] == "miss"
        assert second.explain["execution"]["cache"]["outcome"].startswith("hit")

    def test_explain_false_attaches_nothing(self, dataset, query):
        with QueryService(dataset, metrics=MetricsRegistry()) as svc:
            result = svc.query(query)
        assert result.explain is None


class TestFlightIntegration:
    def test_stats_trace_id_stamped_and_exemplar_resolvable(
        self, dataset, query
    ):
        tracer = Tracer()
        flight = FlightRecorder(boring_keep_rate=1.0)
        registry = MetricsRegistry()
        with QueryService(
            dataset, metrics=registry, tracer=tracer, flight=flight
        ) as svc:
            result = svc.query(query)
            assert result.stats.trace_id
            assert flight.get(result.stats.trace_id) is not None
            prom = registry.to_prometheus(exemplars=True)
        ids = set(re.findall(r'trace_id="([0-9a-f]+)"', prom))
        assert result.stats.trace_id in ids

    def test_rejection_synthesizes_retained_trace(self, dataset, query):
        flight = FlightRecorder()
        slo = SLOTracker()
        with QueryService(
            dataset,
            metrics=MetricsRegistry(),
            tracer=Tracer(),
            flight=flight,
            slo=slo,
            max_workers=1,
            admission_capacity=1,
        ) as svc:
            # Hold the single worker and fill the one queue slot first, so
            # every query below finds the admission queue full.
            release = threading.Event()
            running = threading.Event()

            def hold():
                running.set()
                release.wait(30.0)

            held = svc.admission.submit(hold)
            assert running.wait(30.0)
            queued = svc.admission.submit(lambda: None)
            rejections = []

            def go():
                try:
                    svc.query(query, algorithm="EXACT")
                except QueryRejected as exc:
                    rejections.append(exc)

            threads = [threading.Thread(target=go) for _ in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            release.set()
            held.result(30.0)
            queued.result(30.0)
        assert rejections, "workload did not overflow the admission queue"
        for exc in rejections:
            trace_id = getattr(exc, "trace_id", "")
            assert trace_id, "rejection carries no trace id"
            retained = flight.get(trace_id)
            assert retained is not None
            assert retained.outcome.rejected
            assert retained.spans[0]["name"] == "serve.rejected"
        d = slo.as_dict()
        assert d["availability"]["events"]["bad"] >= len(rejections)

    def test_slo_binds_to_service_registry(self, dataset, query):
        registry = MetricsRegistry()
        slo = SLOTracker()
        with QueryService(dataset, metrics=registry, slo=slo) as svc:
            svc.query(query)
            slo.refresh_gauges()
        assert "mck_slo_burn_rate" in registry.to_prometheus()


class TestPoolSpanTransport:
    """Satellite regression: spans from EXACT pool workers survive a
    worker crash + respawn-with-backoff without loss or double ingest."""

    def test_respawned_worker_spans_ingested_exactly_once(
        self, kyoto_engine, kyoto_query
    ):
        tracer = Tracer()
        with QueryService(
            kyoto_engine,
            metrics=MetricsRegistry(),
            tracer=tracer,
            process_algorithms=("EXACT",),
            process_workers=1,
            pool_retry_backoff=0.0,
        ) as svc:
            with faults.injected(
                "serving.pool.submit", error=BrokenProcessPool, times=1
            ):
                result = svc.query(
                    kyoto_query, algorithm="EXACT", timeout=30.0
                )
            assert result.ok and not result.degraded
            trace_id = result.stats.trace_id
            assert trace_id
            spans = [
                s
                for s in tracer.finished_spans()
                if s["trace_id"] == trace_id
            ]
        # The crashed attempt never returned spans; the respawned worker's
        # spans arrive once — engine.query appears exactly once, and no
        # span id is duplicated by a double ingest.
        engine_spans = [s for s in spans if s["name"] == "engine.query"]
        assert len(engine_spans) == 1
        span_ids = [s["span_id"] for s in spans]
        assert len(span_ids) == len(set(span_ids))

    def test_pool_explain_reports_worker_kernel_mode(
        self, kyoto_engine, kyoto_query
    ):
        with QueryService(
            kyoto_engine,
            metrics=MetricsRegistry(),
            process_algorithms=("EXACT",),
            process_workers=1,
        ) as svc:
            result = svc.query(
                kyoto_query, algorithm="EXACT", timeout=30.0, explain=True
            )
        assert result.explain is not None
        assert result.explain["execution"]["kernel_mode"] != "unknown"
        names = {p["name"] for p in result.explain["phases"]}
        assert "engine.algorithm" in names


class TestConcurrentDrainIngest:
    def test_no_span_lost_or_duplicated(self):
        tracer = Tracer(max_spans=100_000)
        n_producers, per_producer = 4, 500
        drained = []
        stop = threading.Event()

        def produce(worker):
            for i in range(per_producer):
                tracer.ingest(
                    [
                        {
                            "name": "w",
                            "trace_id": "t",
                            "span_id": f"{worker}-{i}",
                            "parent_id": None,
                            "start_ns": 0,
                            "end_ns": 1,
                            "duration_ns": 1,
                            "attributes": {},
                        }
                    ]
                )

        def consume():
            while not stop.is_set():
                drained.extend(tracer.drain())
            drained.extend(tracer.drain())

        consumer = threading.Thread(target=consume)
        consumer.start()
        producers = [
            threading.Thread(target=produce, args=(w,))
            for w in range(n_producers)
        ]
        for t in producers:
            t.start()
        for t in producers:
            t.join()
        stop.set()
        consumer.join()
        ids = [s["span_id"] for s in drained]
        assert len(ids) == n_producers * per_producer
        assert len(set(ids)) == len(ids)


class TestDistributedFlight:
    def test_coordinator_completes_trace_on_global_tracer(self, dataset, query):
        from repro.distributed.coordinator import DistributedMCKEngine
        from repro.observability import tracer as _tracing

        tracer = Tracer()
        _tracing.set_tracer(tracer)
        try:
            flight = FlightRecorder(boring_keep_rate=1.0)
            engine = DistributedMCKEngine(
                dataset,
                n_workers=2,
                metrics=MetricsRegistry(),
                flight=flight,
            )
            engine.query(query)
            traces = flight.traces()
            assert len(traces) == 1
            (trace,) = traces
            assert any(s["name"] == "dist.query" for s in trace.spans)
            assert trace.outcome.latency_seconds is not None
        finally:
            _tracing.set_tracer(None)
