"""Tests for the batched QueryService: ordering, cache, stats, equivalence."""

import pytest

from repro import MCKEngine
from repro.serving import QueryRequest, QueryService
from repro.serving.cache import make_cache_key
from tests.conftest import feasible_query, make_random_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_random_dataset(11, n=60)


@pytest.fixture(scope="module")
def queries(dataset):
    return [feasible_query(dataset, seed, 3) for seed in range(12)]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestOrderingAndEquivalence:
    def test_results_in_input_order(self, dataset, queries):
        with QueryService(dataset) as service:
            results = service.query_many(queries)
        assert [r.request.keywords for r in results] == [
            tuple(q) for q in queries
        ]

    def test_batched_matches_sequential(self, dataset, queries):
        engine = MCKEngine(dataset)
        sequential = [engine.query(q, algorithm="SKECa+") for q in queries]
        with QueryService(dataset) as service:
            batched = service.query_many(queries, algorithm="SKECa+")
        for seq, bat in zip(sequential, batched):
            assert bat.ok
            assert bat.group.diameter == pytest.approx(seq.diameter, abs=1e-12)

    def test_repeated_queries_hit_cache_with_identical_answers(
        self, dataset, queries
    ):
        """The acceptance-criteria scenario: >= 100 repeated queries."""
        engine = MCKEngine(dataset)
        sequential = {
            tuple(q): engine.query(q, algorithm="SKECa+").diameter
            for q in queries
        }
        batch = [QueryRequest(tuple(q)) for q in queries] * 9  # 108 requests
        with QueryService(dataset, cache_size=64) as service:
            results = service.query_many(batch)
            metrics = service.metrics_dict()
        assert len(results) == 108
        for r in results:
            assert r.ok, r.error
            assert r.group.diameter == pytest.approx(
                sequential[r.request.keywords], abs=1e-12
            )
        assert metrics["cache"]["hits"] > 0
        assert metrics["queries_total"] == 108
        # Far fewer executions than requests: cache + single-flight.
        assert metrics["algorithms"]["SKECa+"]["executed"] < 108

    def test_mixed_algorithms_batch(self, dataset, queries):
        requests = [
            QueryRequest(tuple(queries[0]), algorithm="GKG"),
            QueryRequest(tuple(queries[0]), algorithm="SKECa+"),
            QueryRequest(tuple(queries[0]), algorithm="EXACT"),
        ]
        with QueryService(dataset) as service:
            gkg, skecap, exact = service.query_many(requests)
        assert gkg.ok and skecap.ok and exact.ok
        assert exact.group.diameter <= gkg.group.diameter + 1e-9
        assert exact.group.diameter <= skecap.group.diameter + 1e-9


class TestCacheBehaviour:
    def test_second_query_is_a_hit(self, dataset, queries):
        with QueryService(dataset) as service:
            first = service.query(queries[0])
            second = service.query(queries[0])
        assert not first.stats.cache_hit
        assert second.stats.cache_hit
        assert second.group.diameter == first.group.diameter

    def test_alias_spellings_share_cache_entries(self, dataset, queries):
        with QueryService(dataset) as service:
            service.query(queries[0], algorithm="SKECa+")
            aliased = service.query(queries[0], algorithm="skeca_plus")
        assert aliased.stats.cache_hit

    def test_ttl_expiry_forces_recompute(self, dataset, queries):
        clock = FakeClock()
        with QueryService(
            dataset, cache_ttl=30.0, cache_clock=clock
        ) as service:
            service.query(queries[0])
            clock.advance(31.0)
            again = service.query(queries[0])
            stats = service.cache.stats()
        assert not again.stats.cache_hit
        assert stats["expirations"] == 1

    def test_cache_disabled(self, dataset, queries):
        with QueryService(dataset, cache_size=0) as service:
            service.query(queries[0])
            second = service.query(queries[0])
        assert not second.stats.cache_hit

    def test_cache_key_present_after_query(self, dataset, queries):
        with QueryService(dataset) as service:
            service.query(queries[0], algorithm="GKG", epsilon=0.05)
            key = make_cache_key(queries[0], "GKG", 0.05)
            assert key in service.cache


class TestStatsAndMetrics:
    def test_query_stats_fields(self, dataset, queries):
        with QueryService(dataset) as service:
            result = service.query(queries[0], algorithm="SKECa+")
        s = result.stats
        assert s.algorithm == "SKECa+"
        assert s.total_seconds > 0.0
        assert s.algorithm_seconds > 0.0
        assert s.context_seconds >= 0.0
        assert s.group_size == len(result.group)
        assert s.diameter == result.group.diameter
        assert s.counters.get("circle_scans", 0) >= 0

    def test_exact_reports_pruning_counters(self, dataset, queries):
        with QueryService(dataset) as service:
            result = service.query(queries[0], algorithm="EXACT")
        # EXACT always reports its candidate/pruning counters, even when 0.
        assert "candidate_circles" in result.stats.counters
        assert "pruned_poles" in result.stats.counters

    def test_metrics_monotone_over_batches(self, dataset, queries):
        with QueryService(dataset) as service:
            totals = []
            for _ in range(3):
                service.query_many(queries[:4])
                totals.append(service.metrics.total_queries)
        assert totals == sorted(totals)
        assert totals[-1] == 12

    def test_metrics_dict_includes_cache_section(self, dataset, queries):
        with QueryService(dataset) as service:
            service.query(queries[0])
            dump = service.metrics_dict()
        assert dump["cache"]["misses"] >= 1
        assert "max_size" in dump["cache"]


class TestFailureIsolation:
    def test_timeout_yields_failed_result_not_exception(self, dataset, queries):
        requests = [
            QueryRequest(tuple(queries[0]), algorithm="EXACT", timeout=1e-9),
            QueryRequest(tuple(queries[1]), algorithm="GKG"),
        ]
        with QueryService(dataset, cache_size=0) as service:
            failed, okay = service.query_many(requests)
        assert not failed.ok
        assert not failed.stats.success
        assert "budget" in failed.error
        assert okay.ok

    def test_infeasible_query_isolated(self, dataset, queries):
        requests = [
            QueryRequest(("no-such-keyword-anywhere",)),
            QueryRequest(tuple(queries[0])),
        ]
        with QueryService(dataset, cache_size=0) as service:
            bad, good = service.query_many(requests)
        assert not bad.ok
        assert "covered" in bad.error
        assert good.ok

    def test_failures_are_not_cached(self, dataset, queries):
        req = QueryRequest(tuple(queries[0]), algorithm="EXACT", timeout=1e-9)
        with QueryService(dataset) as service:
            service.query_many([req])
            retry = service.query(queries[0], algorithm="EXACT")
        assert retry.ok
        assert not retry.stats.cache_hit


class TestSubmitAndLifecycle:
    def test_submit_returns_future(self, dataset, queries):
        with QueryService(dataset) as service:
            future = service.submit(queries[0])
            result = future.result(timeout=60)
        assert result.ok

    def test_submit_after_close_raises(self, dataset, queries):
        from repro.exceptions import QueryRejected

        service = QueryService(dataset)
        service.close()
        with pytest.raises(QueryRejected) as excinfo:
            service.submit(queries[0])
        assert excinfo.value.reason == "shutdown"

    def test_close_is_idempotent(self, dataset):
        service = QueryService(dataset)
        service.close()
        service.close()

    def test_accepts_prebuilt_engine(self, dataset, queries):
        engine = MCKEngine(dataset)
        with QueryService(engine) as service:
            assert service.engine is engine
            assert service.query(queries[0]).ok


class TestSingleFlight:
    def test_identical_concurrent_queries_coalesce(self, dataset, queries):
        batch = [QueryRequest(tuple(queries[0]))] * 24
        with QueryService(dataset, max_workers=8) as service:
            results = service.query_many(batch)
            executed = service.metrics_dict()["algorithms"]["SKECa+"]["executed"]
        diameters = {r.group.diameter for r in results if r.ok}
        assert len(diameters) == 1
        assert all(r.ok for r in results)
        # One leader computes; everyone else joins the flight or hits the
        # cache.  (A tiny race can elect a second leader; never 24.)
        assert executed <= 3


class TestProcessPool:
    def test_exact_via_process_pool_matches_inline(self):
        dataset = make_random_dataset(21, n=25)
        query = feasible_query(dataset, 3, 3)
        inline = MCKEngine(dataset).query(query, algorithm="EXACT")
        with QueryService(
            dataset,
            process_algorithms=("EXACT",),
            process_workers=2,
            cache_size=0,
        ) as service:
            served = service.query(query, algorithm="EXACT")
        assert served.ok
        assert served.group.diameter == pytest.approx(inline.diameter, abs=1e-12)
        assert sorted(served.group.object_ids) == sorted(inline.object_ids)

    def test_process_pool_counters_are_per_query_deltas(self):
        # Pool workers are reused across queries; each answer must carry
        # only its own query's counters, never a worker-lifetime total.
        dataset = make_random_dataset(22, n=25)
        query = feasible_query(dataset, 4, 3)
        with QueryService(
            dataset,
            process_algorithms=("EXACT",),
            process_workers=1,
            cache_size=0,
        ) as service:
            first = service.query(query, algorithm="EXACT")
            second = service.query(query, algorithm="EXACT")
        assert first.ok and second.ok
        assert first.stats.counters
        # Same query on the same (reused) worker: identical work, so any
        # accumulation across the boundary would double the counters.
        for name, value in first.stats.counters.items():
            assert second.stats.counters.get(name) == pytest.approx(value)


class TestObservability:
    def test_serve_spans_nest_under_request(self, dataset, queries):
        from repro.observability.tracer import Tracer

        tracer = Tracer()
        with QueryService(dataset, tracer=tracer) as service:
            assert service.query(queries[0]).ok
        spans = {s["name"]: s for s in tracer.finished_spans()}
        root = spans["serve.request"]
        assert root["parent_id"] is None
        assert spans["serve.cache_probe"]["parent_id"] == root["span_id"]
        assert spans["serve.execute"]["parent_id"] == root["span_id"]
        assert spans["serve.cache_store"]["trace_id"] == root["trace_id"]
        # Algorithm spans recorded through the Deadline join the same trace.
        assert spans["engine.query"]["trace_id"] == root["trace_id"]
        assert root["attributes"]["cache"] == "miss"

    def test_cache_hit_span_attribute(self, dataset, queries):
        from repro.observability.tracer import Tracer

        tracer = Tracer()
        with QueryService(dataset, tracer=tracer) as service:
            service.query(queries[1])
            tracer.reset()
            service.query(queries[1])
        (root,) = [
            s for s in tracer.finished_spans() if s["name"] == "serve.request"
        ]
        assert root["attributes"]["cache"] == "hit"

    def test_queue_wait_span_for_submitted_queries(self, dataset, queries):
        from repro.observability.tracer import Tracer

        tracer = Tracer()
        with QueryService(dataset, tracer=tracer) as service:
            assert service.submit(queries[2]).result().ok
        names = [s["name"] for s in tracer.finished_spans()]
        assert "serve.queue" in names

    def test_no_tracer_means_no_spans_and_null_fast_path(self, dataset, queries):
        from repro.observability.tracer import NULL_SPAN, get_tracer

        assert get_tracer() is None
        with QueryService(dataset) as service:
            assert service._span("serve.request") is NULL_SPAN
            assert service.query(queries[3]).ok

    def test_correlation_ids_unique_per_request(self, dataset, queries):
        with QueryService(dataset) as service:
            results = service.query_many(queries[:4])
        cids = [r.correlation_id for r in results]
        assert all(c.startswith("q-") for c in cids)
        assert len(set(cids)) == len(cids)

    def test_correlation_id_crosses_process_pool(self):
        from repro.observability.tracer import Tracer

        dataset = make_random_dataset(23, n=25)
        query = feasible_query(dataset, 5, 3)
        tracer = Tracer()
        with QueryService(
            dataset,
            process_algorithms=("EXACT",),
            process_workers=1,
            cache_size=0,
            tracer=tracer,
        ) as service:
            result = service.query(query, algorithm="EXACT")
        assert result.ok
        assert result.correlation_id.startswith("q-")
        spans = tracer.finished_spans()
        # The worker's spans came back and joined the parent's trace id.
        pids = {s["pid"] for s in spans}
        assert len(pids) == 2
        (root,) = [s for s in spans if s["name"] == "serve.request"]
        worker_spans = [s for s in spans if s["pid"] != root["pid"]]
        assert worker_spans
        assert all(s["trace_id"] == root["trace_id"] for s in worker_spans)

    def test_pool_worker_index_spans_reach_the_parent(self):
        """Spans the core opens on the global tracer (``index.*``) inside a
        traced pool-worker query come back with the worker's other spans."""
        from repro.observability.tracer import Tracer

        dataset = make_random_dataset(23, n=200)
        query = feasible_query(dataset, 5, 3)  # optimum > 0: EXACT searches
        tracer = Tracer()
        with QueryService(
            dataset,
            process_algorithms=("EXACT",),
            process_workers=1,
            cache_size=0,
            tracer=tracer,
        ) as service:
            assert service.query(query, algorithm="EXACT").ok
        (root,) = [s for s in tracer.finished_spans() if s["name"] == "serve.request"]
        worker = {
            s["name"] for s in tracer.finished_spans() if s["pid"] != root["pid"]
        }
        assert {"index.cover_radii_columnar", "index.pole_cache_build"} <= worker

    def test_structured_log_emitted_per_query(self, dataset, queries):
        import io
        import json as _json
        import logging

        from repro.observability.logging import configure_logging

        stream = io.StringIO()
        handler = configure_logging(stream=stream, level=logging.DEBUG)
        try:
            with QueryService(dataset) as service:
                service.query(queries[6])
        finally:
            logging.getLogger("repro").removeHandler(handler)
            logging.getLogger("repro").setLevel(logging.WARNING)
        records = [
            _json.loads(line) for line in stream.getvalue().splitlines()
        ]
        served = [r for r in records if r["event"] == "query.served"]
        assert served
        assert served[0]["correlation_id"].startswith("q-")
        assert served[0]["cache_hit"] is False
