"""Work guard: a live read compiles without copying the store.

After a write, the first query on the new epoch must not build any
``ColumnarStore`` larger than the delta — the only store a write may
build is the delta's own add rows.  An empty-delta view must answer with
the sealed base's store object itself, so rent-or-buy state is shared.
The live ``engine.context_compile`` span says what the delta contributed.
"""

import random

import pytest

from repro.core.common import Instrumentation
from repro.index.columns import ColumnarStore
from repro.live import LiveMCKEngine
from repro.live.delta import DeltaOverlay, LiveView
from repro.observability.tracer import Tracer

VOCAB = ["alpha", "beta", "gamma", "delta", "eps"]


@pytest.fixture()
def engine():
    rng = random.Random(0xC0DE)
    records = [
        (rng.uniform(0, 100), rng.uniform(0, 100), rng.sample(VOCAB, 2))
        for _ in range(300)
    ]
    live = LiveMCKEngine.from_records(records, auto_compact=False)
    yield live
    live.close()


@pytest.fixture()
def built_rows(monkeypatch):
    """Row counts of every ColumnarStore constructed while active."""
    sizes = []
    original = ColumnarStore.__init__

    def spy(self, oids, *args, **kwargs):
        sizes.append(len(oids))
        original(self, oids, *args, **kwargs)

    monkeypatch.setattr(ColumnarStore, "__init__", spy)
    return sizes


def test_miss_after_write_builds_no_store_larger_than_the_delta(engine, built_rows):
    engine.query(["alpha", "beta"], algorithm="SKECa+")  # warms the base store
    for round_ in range(3):
        built_rows.clear()
        engine.apply_batch(
            inserts=[(10.0 + round_, 20.0, ["alpha", "zeta"]), (50.0, 50.0 + round_, ["beta"])],
            deletes=[engine.dataset.live_oids()[round_]],
        )
        delta = engine.snapshot().delta
        for algorithm in ("SKECa+", "EXACT", "GKG"):
            engine.query(["alpha", "beta", "zeta"], algorithm=algorithm)
        assert built_rows, "the write should have built the delta's add rows"
        assert max(built_rows) <= delta.size


def test_empty_delta_view_uses_the_base_store(engine):
    snapshot = engine.snapshot()
    assert snapshot.delta.is_empty()
    base = snapshot.base
    assert snapshot.view().columns is base.columns
    # A second empty-delta view of the same base shares rent and purchases.
    assert LiveView(base, DeltaOverlay()).columns is base.columns

    engine.insert(1.0, 2.0, ["alpha"])
    assert engine.snapshot().view().columns is not base.columns
    engine.compact()
    compacted = engine.snapshot()
    assert compacted.delta.is_empty()
    assert compacted.view().columns is compacted.base.columns


def test_compile_span_reports_delta_rows_and_masked_tombstones(engine):
    base_beta = [o.oid for o in engine.snapshot().base if "beta" in o.keywords]
    engine.apply_batch(
        inserts=[(1.0, 1.0, ["alpha", "beta"]), (2.0, 2.0, ["gamma"])],
        deletes=base_beta[:3],
    )
    tracer = Tracer()
    engine.query(["alpha", "beta"], instrumentation=Instrumentation(tracer=tracer))
    (span,) = [s for s in tracer.finished_spans() if s["name"] == "engine.context_compile"]
    assert span["attributes"]["delta_rows"] == 1
    # Each deleted beta holder is masked once per query keyword it holds.
    want = sum(
        len({"alpha", "beta"} & engine.snapshot().base[oid].keywords)
        for oid in base_beta[:3]
    )
    assert span["attributes"]["tombstones_masked"] == want
