"""EXPLAIN assembly tests: span forest, phases, sections, rendering."""

from __future__ import annotations

from repro.observability.explain import (
    build_explain,
    collect_trace_spans,
    render_explain,
)
from repro.observability.tracer import Tracer


def make_spans():
    """A small realistic span forest via a real tracer."""
    tracer = Tracer()
    with tracer.span("serve.request") as root:
        with tracer.span("serve.queue"):
            pass
        with tracer.span("serve.execute"):
            with tracer.span("engine.algorithm"):
                pass
    return tracer.finished_spans(), root.trace_id


class TestBuildExplain:
    def test_minimal_report_shape(self):
        report = build_explain(
            keywords=("a", "b"), algorithm="GKG", epsilon=0.01
        )
        assert report["query"]["m"] == 2
        assert report["outcome"]["status"] == "ok"
        assert set(report["execution"]) == {
            "engine", "cache", "admission", "epoch", "delta_size"
        }
        assert report["span_count"] == 0
        assert report["tree"] == []

    def test_span_tree_structure_and_phases(self):
        spans, _tid = make_spans()
        report = build_explain(
            keywords=("a",), algorithm="GKG", epsilon=0.01, spans=spans
        )
        (root,) = report["tree"]
        assert root["name"] == "serve.request"
        assert {c["name"] for c in root["children"]} == {
            "serve.queue",
            "serve.execute",
        }
        phases = {p["name"]: p for p in report["phases"]}
        assert phases["serve.request"]["count"] == 1
        # Self time subtracts direct children.
        assert (
            phases["serve.request"]["self_seconds"]
            <= phases["serve.request"]["total_seconds"]
        )

    def test_orphan_spans_become_roots(self):
        spans = [
            {
                "name": "lost-child",
                "trace_id": "t",
                "span_id": "s1",
                "parent_id": "missing",
                "start_ns": 0,
                "end_ns": 10,
                "duration_ns": 10,
                "attributes": {},
            }
        ]
        report = build_explain(
            keywords=("a",), algorithm="GKG", epsilon=0.01, spans=spans
        )
        assert [n["name"] for n in report["tree"]] == ["lost-child"]

    def test_counters_split_key_vs_other(self):
        report = build_explain(
            keywords=("a",),
            algorithm="SKECA+",
            epsilon=0.01,
            counters={"circle_scans": 7.0, "weird_counter": 3.0, "epoch": 4.0},
        )
        assert report["counters"]["key"] == {"circle_scans": 7.0}
        assert report["counters"]["other"] == {"weird_counter": 3.0}
        assert report["execution"]["epoch"] == 4

    def test_nan_diameter_becomes_none(self):
        report = build_explain(
            keywords=("a",),
            algorithm="GKG",
            epsilon=0.01,
            diameter=float("nan"),
        )
        assert report["outcome"]["diameter"] is None


class TestCollect:
    def test_collect_filters_by_trace_id(self):
        tracer = Tracer()
        with tracer.span("first") as a:
            pass
        with tracer.span("second"):
            pass
        spans = collect_trace_spans(tracer, a.trace_id)
        assert [s["name"] for s in spans] == ["first"]


class TestRender:
    def test_render_contains_key_sections(self):
        spans, tid = make_spans()
        report = build_explain(
            keywords=("alpha", "beta"),
            algorithm="SKECA+",
            epsilon=0.01,
            spans=spans,
            counters={"circle_scans": 3.0},
            timings={"total_seconds": 0.5},
            trace_id=tid,
            diameter=12.5,
            group_size=3,
            object_ids=(1, 2, 3),
        )
        text = render_explain(report)
        assert "EXPLAIN" in text and tid in text
        assert "alpha, beta" in text
        assert "circle_scans=3" in text
        assert "serve.request" in text and "engine.algorithm" in text

    def test_render_caps_wide_trees(self):
        tracer = Tracer()
        with tracer.span("root") as r:
            for i in range(20):
                with tracer.span(f"c{i}"):
                    pass
        report = build_explain(
            keywords=("a",),
            algorithm="GKG",
            epsilon=0.01,
            spans=tracer.finished_spans(),
            trace_id=r.trace_id,
        )
        text = render_explain(report)
        assert "more)" in text  # elision marker, output stays bounded

    def test_render_error_status(self):
        report = build_explain(
            keywords=("a",),
            algorithm="GKG",
            epsilon=0.01,
            status="error",
            error="deadline exceeded",
        )
        text = render_explain(report)
        assert "error" in text and "deadline exceeded" in text
