"""Cache hits are answered on the submitting thread, before admission.

Only misses queue for a worker thread, so admission's counters and the
adaptive limiter describe work that executed; the hits keep the spans,
stats, EXPLAIN and shutdown behaviour an admitted request has.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.exceptions import QueryRejected
from repro.live import LiveMCKEngine
from repro.observability.explain import render_explain
from repro.observability.tracer import Tracer
from repro.serving import MetricsRegistry, QueryService
from tests.conftest import feasible_query, make_random_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_random_dataset(31, n=60)


@pytest.fixture(scope="module")
def query(dataset):
    return feasible_query(dataset, 3, 3)


def _roots(tracer):
    return [s for s in tracer.finished_spans() if s["name"] == "serve.request"]


class TestInlineHit:
    def test_hit_runs_on_the_calling_thread(self, dataset, query):
        tracer = Tracer()
        with QueryService(dataset, tracer=tracer, metrics=MetricsRegistry()) as svc:
            assert svc.query(query).ok
            (miss_root,) = _roots(tracer)
            tracer.reset()
            future = svc.submit(query)
            # Resolved before submit returned: nothing was handed off.
            assert future.done()
            result = future.result()
        assert result.ok and result.stats.cache_hit
        (hit_root,) = _roots(tracer)
        assert hit_root["thread_id"] == threading.get_ident()
        assert miss_root["thread_id"] != threading.get_ident()
        assert hit_root["attributes"]["cache"] == "hit"

    def test_hit_span_shape(self, dataset, query):
        tracer = Tracer()
        with QueryService(dataset, tracer=tracer, metrics=MetricsRegistry()) as svc:
            svc.query(query)
            tracer.reset()
            svc.query(query)
        spans = {s["name"]: s for s in tracer.finished_spans()}
        root, probe = spans["serve.request"], spans["serve.cache_probe"]
        assert root["parent_id"] is None
        assert probe["parent_id"] == root["span_id"]
        assert probe["attributes"]["hit"] is True
        # The root covers the probe that ran before it opened.
        assert root["start_ns"] <= probe["start_ns"] <= probe["end_ns"] <= root["end_ns"]
        assert not {"serve.queue", "serve.admission", "serve.execute"} & set(spans)

    def test_hits_bypass_admission_and_are_counted(self, dataset, query):
        registry = MetricsRegistry()
        with QueryService(dataset, metrics=registry) as svc:
            results = [svc.query(query) for _ in range(4)]
            snap = svc.admission_dict()
            cache = svc.cache.stats()
        assert [r.stats.cache_hit for r in results] == [False, True, True, True]
        assert snap["submitted"] == snap["accepted"] == snap["completed"] == 1
        assert snap["inline_hits"] == 3
        assert registry.inline_hits_counter.value(algorithm="SKECa+") == 3
        assert "mck_inline_hits_total" in registry.to_prometheus()
        # One counted probe per request.
        assert (cache["hits"], cache["misses"]) == (3, 1)

    def test_hit_after_close_is_rejected(self, dataset, query):
        svc = QueryService(dataset, metrics=MetricsRegistry())
        assert svc.query(query).ok
        hits_before = svc.cache.stats()["hits"]
        svc.close()
        with pytest.raises(QueryRejected) as err:
            svc.submit(query)
        assert err.value.reason == "shutdown"
        assert svc.cache.stats()["hits"] == hits_before
        assert svc.admission_dict()["inline_hits"] == 0

    def test_explain_on_an_inline_hit(self, dataset, query):
        # No tracer anywhere: the hit gets an ephemeral one, on the
        # caller's thread, exactly as an admitted request would.
        with QueryService(dataset, metrics=MetricsRegistry()) as svc:
            svc.query(query)
            result = svc.query(query, explain=True)
        report = result.explain
        assert result.stats.cache_hit
        assert report["execution"]["cache"]["outcome"] == "hit"
        assert report["execution"]["admission"]["wait_seconds"] is None
        assert report["outcome"]["status"] == "ok"
        assert report["outcome"]["object_ids"] == list(result.group.object_ids)
        assert {"serve.request", "serve.cache_probe"} <= {
            p["name"] for p in report["phases"]
        }
        assert "bypassed (cache hit)" in render_explain(report)

    def test_a_write_turns_a_hit_into_an_admitted_miss(self):
        # The stale entry's probe misses, and the miss executes on a
        # worker thread through admission, never on the caller's.
        engine = LiveMCKEngine.from_records(
            [(10.0, 10.0, ["shrine"]), (11.0, 10.5, ["shop"]), (30.0, 30.0, ["shop"])]
        )
        tracer = Tracer()
        try:
            with QueryService(
                engine, tracer=tracer, metrics=MetricsRegistry()
            ) as svc:
                first = svc.query(["shrine", "shop"], "EXACT")
                assert sorted(first.group.object_ids) == [0, 1]
                assert svc.query(["shrine", "shop"], "EXACT").stats.cache_hit
                svc.delete(1)  # a member of the cached answer: it drops
                tracer.reset()
                result = svc.query(["shrine", "shop"], "EXACT")
                snap = svc.admission_dict()
        finally:
            engine.close()
        assert result.ok and not result.stats.cache_hit
        assert sorted(result.group.object_ids) == [0, 2]
        (root,) = _roots(tracer)
        assert root["thread_id"] != threading.get_ident()
        names = {s["name"] for s in tracer.finished_spans()}
        assert {"serve.queue", "serve.execute", "serve.cache_probe"} <= names
        assert snap["inline_hits"] == 1


class TestQueuedMisses:
    def test_a_miss_queued_behind_its_leader_joins_the_cached_answer(
        self, dataset, query
    ):
        with QueryService(dataset, max_workers=1, metrics=MetricsRegistry()) as svc:
            gate = threading.Event()
            parked = svc.admission.submit(gate.wait, 10)
            # Both probes miss; both queue behind the parked task.
            first, second = svc.submit(query), svc.submit(query)
            gate.set()
            parked.result(timeout=10)
            a, b = first.result(timeout=30), second.result(timeout=30)
            cache = svc.cache.stats()
        assert not a.stats.cache_hit and b.stats.cache_hit
        assert b.group.object_ids == a.group.object_ids
        # The second ran after the first filled the entry: it joined that
        # answer instead of executing the query again.
        assert cache["inserts"] == 1
        assert b.stats.counters == {"coalesced": 1.0}


class TestConcurrentHits:
    def test_no_hit_is_lost_across_submitting_threads(self, dataset, query):
        threads, per_thread = 6, 50
        with QueryService(dataset, metrics=MetricsRegistry()) as svc:
            assert svc.query(query).ok
            errors = []

            def client():
                try:
                    for _ in range(per_thread):
                        assert svc.submit(query).result(timeout=10).stats.cache_hit
                except BaseException as err:  # noqa: BLE001 - reported below
                    errors.append(err)

            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [threading.Thread(target=client) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(60)
            finally:
                sys.setswitchinterval(previous)
            assert not any(worker.is_alive() for worker in workers)
            assert not errors, errors[0]
            snap = svc.admission_dict()
            hits = svc.cache.stats()["hits"]
        total = threads * per_thread
        assert snap["inline_hits"] == hits == total
        assert svc.metrics.inline_hits_counter.value(algorithm="SKECa+") == total
        assert snap["submitted"] == 1


class TestLimiterSeesMissesOnly:
    """Hits once fed the limiter ~50 µs samples: the EXACT baseline fell
    to the hit latency and every later miss counted as congestion."""

    def test_hits_leave_baseline_and_decreases_unchanged(self):
        dataset = make_random_dataset(5, n=150, vocab="abcdefghijkl")
        queries, seen = [], set()
        seed = 0
        while len(queries) < 120:
            q = feasible_query(dataset, seed, 3)
            seed += 1
            if frozenset(q) not in seen:
                seen.add(frozenset(q))
                queries.append(q)
        first, second = queries[:60], queries[60:]
        with QueryService(
            dataset, max_workers=1, metrics=MetricsRegistry(), cache_size=256
        ) as svc:
            limiter = svc.limiter
            for q in first:
                assert not svc.query(q, "EXACT").stats.cache_hit
            baseline = limiter.baseline("EXACT")
            counts = (limiter.decreases, limiter.increases)
            assert baseline is not None
            for _ in range(5):
                for q in first:
                    assert svc.query(q, "EXACT").stats.cache_hit
            assert limiter.baseline("EXACT") == baseline
            assert (limiter.decreases, limiter.increases) == counts
            for q in second:
                assert not svc.query(q, "EXACT").stats.cache_hit
            snap = svc.admission_dict()
        assert snap["submitted"] == snap["completed"] == 120
        assert snap["inline_hits"] == 300
        assert limiter.decreases + limiter.increases == counts[0] + counts[1] + 60
