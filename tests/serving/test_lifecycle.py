"""Service lifecycle hygiene: listener/sink detachment, close/submit races.

Two leak bugs motivated this module: ``QueryService.close()`` left its
mutation listener registered on a shared ``LiveMCKEngine`` forever (the
engine has outlived N services by design — shard handoff, config reload,
tests), and the flight-recorder span sink had the same one-way attach.
"""

import threading
import time
from concurrent.futures import Future, wait

import pytest

from repro.exceptions import QueryRejected
from repro.live import LiveMCKEngine
from repro.observability import tracer as tracing
from repro.observability.flight import FlightRecorder
from repro.serving import MetricsRegistry, QueryService
from tests.conftest import feasible_query, make_random_dataset

RECORDS = [
    (0.0, 0.0, ["cafe"]),
    (1.0, 1.0, ["bar"]),
    (2.0, 2.0, ["cafe", "bar"]),
    (50.0, 50.0, ["shop"]),
]


class TestListenerDetachment:
    def test_close_detaches_mutation_listener(self):
        engine = LiveMCKEngine.from_records(RECORDS)
        baseline = len(engine._listeners)
        service = QueryService(engine, metrics=MetricsRegistry())
        assert len(engine._listeners) == baseline + 1
        service.close()
        assert len(engine._listeners) == baseline

    def test_n_service_generations_do_not_accumulate(self):
        """The regression shape: one long-lived engine, many services."""
        engine = LiveMCKEngine.from_records(RECORDS)
        baseline = len(engine._listeners)
        for _ in range(10):
            with QueryService(engine, metrics=MetricsRegistry()) as service:
                service.insert(3.0, 3.0, ["tea"])
        assert len(engine._listeners) == baseline

    def test_remove_listener_is_idempotent(self):
        engine = LiveMCKEngine.from_records(RECORDS)

        def listener(mutations):
            pass

        engine.add_mutation_listener(listener)
        engine.remove_mutation_listener(listener)
        engine.remove_mutation_listener(listener)  # second removal: no-op
        assert listener not in engine._listeners

    def test_listener_can_detach_itself_mid_notify(self):
        engine = LiveMCKEngine.from_records(RECORDS)
        fired = []

        def once(mutations):
            fired.extend(m.oid for m in mutations)
            engine.remove_mutation_listener(once)

        engine.add_mutation_listener(once)
        engine.insert(4.0, 4.0, ["x"])
        engine.insert(5.0, 5.0, ["y"])
        assert len(fired) == 1


class TestFlightSinkDetachment:
    def test_close_detaches_flight_sink_it_attached(self):
        dataset = make_random_dataset(5, n=30)
        flight = FlightRecorder()
        service = QueryService(dataset, flight=flight, metrics=MetricsRegistry())
        sink_tracer = service._tracer()
        assert flight.is_attached(sink_tracer)
        service.close()
        assert not flight.is_attached(sink_tracer)

    def test_close_preserves_foreign_attachment(self):
        """A recorder shared across sibling services: closing one service
        must not sever a sink somebody else attached."""
        dataset = make_random_dataset(5, n=30)
        flight = FlightRecorder()
        shared = tracing.Tracer()
        flight.attach(shared)  # attached by "someone else"
        previous = tracing.set_tracer(shared)
        try:
            service = QueryService(
                dataset, flight=flight, metrics=MetricsRegistry()
            )
            assert service._tracer() is shared
            service.close()
            assert flight.is_attached(shared)  # still wired
        finally:
            tracing.set_tracer(previous)
            flight.detach(shared)

    def test_coordinator_close_detaches_flight(self):
        from repro.distributed import DistributedMCKEngine

        dataset = make_random_dataset(6, n=40)
        flight = FlightRecorder()
        shared = tracing.Tracer()
        previous = tracing.set_tracer(shared)
        try:
            with DistributedMCKEngine(
                dataset, n_workers=2, flight=flight
            ) as engine:
                assert flight.is_attached(shared)
            assert not flight.is_attached(shared)
        finally:
            tracing.set_tracer(previous)


class TestCloseSubmitRace:
    """Satellite: concurrent ``close()`` racing in-flight ``submit()``.

    Every future must resolve — a result or ``QueryRejected`` with
    reason ``shutdown`` — nothing hangs, and the admission conservation
    invariants still balance afterwards.
    """

    def test_every_future_resolves(self):
        self._race(cache_size=0)

    def test_every_future_resolves_with_cache_hits(self):
        # Half the submits repeat a query cached before the race, so
        # close() races hits served on the submitting threads as well as
        # admitted misses.
        self._race(cache_size=16)

    def _race(self, cache_size):
        dataset = make_random_dataset(7, n=50)
        query = list(feasible_query(dataset, 0, 3))
        service = QueryService(
            dataset,
            max_workers=2,
            cache_size=cache_size,
            metrics=MetricsRegistry(),
        )
        queries, primed = [query], 0
        if cache_size:
            assert service.query(query, algorithm="GKG").ok
            queries, primed = [query, list(feasible_query(dataset, 1, 3))], 1
            assert set(queries[1]) != set(query)
        start = threading.Barrier(3)
        futures = []
        immediate_rejects = []
        lock = threading.Lock()

        def submitter():
            start.wait()
            for i in range(25):
                try:
                    future = service.submit(queries[i % len(queries)], algorithm="GKG")
                except QueryRejected as err:
                    with lock:
                        immediate_rejects.append(err)
                    continue
                with lock:
                    futures.append(future)

        threads = [threading.Thread(target=submitter) for _ in range(2)]
        for thread in threads:
            thread.start()

        def closer():
            start.wait()
            # With a primed cache, let some submits land first, so hits
            # race the close.
            deadline = time.monotonic() + 10
            while primed and len(futures) < 10 and time.monotonic() < deadline:
                time.sleep(0.0005)
            service.close()

        close_thread = threading.Thread(target=closer)
        close_thread.start()
        for thread in threads:
            thread.join(30)
        close_thread.join(30)
        assert not close_thread.is_alive(), "close() hung against submits"

        done, not_done = wait(futures, timeout=30)
        assert not not_done, f"{len(not_done)} futures never resolved"
        resolved, shed = 0, 0
        for future in done:
            try:
                result = future.result(timeout=0)
            except QueryRejected as err:
                assert err.reason in ("shutdown", "capacity", "shed_oldest")
                shed += 1
            else:
                assert result.ok or result.error
                resolved += 1
        # Conservation: every request was either admitted or served
        # inline as a cache hit, and every admitted one was accounted.
        counters = service.admission_dict()
        assert counters["submitted"] == counters["accepted"] + counters["rejected"]
        assert counters["accepted"] == counters["completed"] + counters["failed"]
        inline = counters["inline_hits"]
        assert inline == service.metrics.inline_hits_counter.value(algorithm="GKG")
        assert counters["submitted"] + inline == (
            len(futures) + len(immediate_rejects) + primed
        )
        if cache_size == 0:
            assert inline == 0
        assert resolved + shed == len(futures)

    def test_rejections_after_close_carry_shutdown_reason(self):
        dataset = make_random_dataset(8, n=30)
        query = list(feasible_query(dataset, 0, 3))
        service = QueryService(dataset, metrics=MetricsRegistry())
        service.close()
        with pytest.raises(QueryRejected) as err:
            service.submit(query)
        assert err.value.reason == "shutdown"
