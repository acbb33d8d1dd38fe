"""Instrumentation counter transport and span-resolution tests."""

import pytest

from repro.core.common import Deadline, Instrumentation, instrumentation_span
from repro.observability.tracer import NULL_SPAN, Tracer, set_tracer


class TestCounterTransport:
    def test_snapshot_and_deltas(self):
        instr = Instrumentation()
        instr.count("circle_scans", 5)
        before = instr.snapshot()
        instr.count("circle_scans", 3)
        instr.count("binary_steps", 2)
        assert instr.deltas_since(before) == {
            "circle_scans": 3.0,
            "binary_steps": 2.0,
        }
        # The snapshot itself is a copy, immune to later mutation.
        assert before == {"circle_scans": 5.0}

    def test_deltas_skip_unchanged_counters(self):
        instr = Instrumentation()
        instr.count("poles_scanned", 7)
        before = instr.snapshot()
        assert instr.deltas_since(before) == {}

    def test_merge_counters_sums(self):
        parent = Instrumentation()
        parent.count("circle_scans", 1)
        parent.merge_counters({"circle_scans": 4.0, "candidate_circles": 2.0})
        assert parent.counters == {
            "circle_scans": 5.0,
            "candidate_circles": 2.0,
        }

    def test_record_max(self):
        instr = Instrumentation()
        instr.record_max("search_depth_max", 3)
        instr.record_max("search_depth_max", 7)
        instr.record_max("search_depth_max", 5)
        assert instr.counters["search_depth_max"] == 7.0

    def test_merge_group_stats_keeps_larger_and_skips_parameters(self):
        instr = Instrumentation()
        instr.count("candidate_circles", 10)
        instr.merge_group_stats({"candidate_circles": 4.0, "alpha": 0.5})
        assert instr.counters["candidate_circles"] == 10.0
        assert "alpha" not in instr.counters


class TestSpanResolution:
    def test_attached_tracer_wins(self):
        tracer = Tracer()
        instr = Instrumentation(tracer=tracer)
        with instr.span("phase", key=1):
            pass
        assert [s["name"] for s in tracer.finished_spans()] == ["phase"]

    def test_falls_back_to_global_tracer(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            instr = Instrumentation()
            with instr.span("global.phase"):
                pass
        finally:
            set_tracer(previous)
        assert [s["name"] for s in tracer.finished_spans()] == ["global.phase"]

    def test_no_tracer_returns_null_span(self):
        instr = Instrumentation()
        assert instr.span("anything") is NULL_SPAN

    def test_deadline_span_routes_through_instrumentation(self):
        tracer = Tracer()
        instr = Instrumentation(tracer=tracer)
        deadline = Deadline("GKG", None, instr)
        with deadline.span("gkg.run"):
            pass
        assert len(tracer) == 1

    def test_deadline_without_instrumentation_is_null(self):
        deadline = Deadline.unlimited("GKG")
        assert deadline.span("x") is NULL_SPAN

    def test_instrumentation_span_helper(self):
        tracer = Tracer()
        instr = Instrumentation(tracer=tracer)
        with instrumentation_span(instr, "engine.query"):
            pass
        assert len(tracer) == 1
        assert instrumentation_span(None, "engine.query") is NULL_SPAN


class TestAlgorithmsEmitSpans:
    """End-to-end: running each algorithm with a tracer yields its spans."""

    @pytest.fixture()
    def engine(self):
        from tests.conftest import make_random_dataset

        from repro import MCKEngine

        return MCKEngine(make_random_dataset(31, n=40))

    @pytest.fixture()
    def query(self, engine):
        from tests.conftest import feasible_query

        return feasible_query(engine.dataset, 2, 3)

    @pytest.mark.parametrize(
        "algorithm, expected",
        [
            ("GKG", {"gkg.anchor_round"}),
            ("SKECa", {"skeca.pole", "circlescan"}),
            ("SKECa+", {"skecaplus.binary_step", "circlescan"}),
            ("EXACT", {"exact.skeca_plus_bound", "exact.candidate_enumeration"}),
        ],
    )
    def test_algorithm_spans(self, engine, query, algorithm, expected):
        tracer = Tracer()
        instr = Instrumentation(tracer=tracer)
        engine.query(query, algorithm=algorithm, instrumentation=instr)
        names = {s["name"] for s in tracer.finished_spans()}
        assert expected <= names, f"missing {expected - names} in {sorted(names)}"
        assert {"engine.query", "engine.algorithm"} <= names


class TestSweepSpanGranularity:
    """A sweep opens one span per step or batch, never one per pole."""

    @pytest.fixture(scope="class")
    def busy(self):
        from tests.conftest import feasible_query, make_random_dataset

        from repro import MCKEngine

        # A query whose binary steps each sweep several poles.
        dataset = make_random_dataset(41, n=300, vocab="abcdefghij", max_terms=2)
        return MCKEngine(dataset), feasible_query(dataset, 2, 4)

    @staticmethod
    def _run(busy, algorithm):
        engine, query = busy
        tracer = Tracer()
        instr = Instrumentation(tracer=tracer)
        engine.query(query, algorithm=algorithm, instrumentation=instr)
        return tracer.finished_spans(), instr.counters

    @pytest.mark.parametrize("algorithm", ["SKECa+", "EXACT"])
    def test_one_circlescan_span_per_step(self, busy, algorithm):
        spans, counters = self._run(busy, algorithm)
        scans = [s for s in spans if s["name"] == "circlescan"]
        # The warm-up's opening probe, then one per binary step.
        assert len(scans) <= counters["binary_steps"] + 1
        assert counters["circle_scans"] > len(scans)

    def test_one_candidate_enumeration_span_per_batch(self, busy):
        spans, counters = self._run(busy, "EXACT")
        batches = [s for s in spans if s["name"] == "exact.candidate_enumeration"]
        # Every surviving pole fits one row budget on this small set.
        assert len(batches) == 1
        assert batches[0]["attributes"]["poles"] > 1
        assert batches[0]["attributes"]["candidates"] == counters["candidate_circles"]
