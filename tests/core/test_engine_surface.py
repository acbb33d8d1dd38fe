"""The engine surface the serving layer relies on.

Sealed, live and scatter engines share one ``query`` signature and
declare what they are through a ``kind`` attribute, read as a plain
attribute so forwarding proxies keep working.  Sealed and live engines
answer through the same pipeline, so on the same records they agree on
answers, counters and EXPLAIN, degraded runs included.
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro import Dataset, MCKEngine
from repro.core.engine import ALGORITHMS
from repro.live import LiveMCKEngine
from repro.replication import ReplicatedShardRouter
from repro.serving import MetricsRegistry, QueryService
from repro.testing import faults
from tests.conftest import feasible_query

ENGINES = {
    MCKEngine: "sealed",
    LiveMCKEngine: "live",
    ReplicatedShardRouter: "scatter",
}


def _records(seed=5, n=60, vocab="abcdefgh"):
    rng = random.Random(seed)
    return [
        (
            rng.uniform(0, 100),
            rng.uniform(0, 100),
            rng.sample(vocab, rng.randint(1, 3)),
        )
        for _ in range(n)
    ]


class _Forwarding:
    """Forwards every attribute to its target, as benchmark proxies do."""

    def __init__(self, target):
        object.__setattr__(self, "_target", target)

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __setattr__(self, name, value):
        setattr(self._target, name, value)

    def __len__(self):
        return len(self._target)


class TestSurface:
    def test_query_signatures_identical(self):
        sealed, live, scatter = (
            inspect.signature(cls.query) for cls in ENGINES
        )
        assert sealed == live == scatter

    @pytest.mark.parametrize("cls,kind", list(ENGINES.items()))
    def test_each_engine_declares_its_kind(self, cls, kind):
        assert cls.kind == kind

    def test_service_over_forwarding_proxy_of_live_engine(self):
        engine = LiveMCKEngine.from_records(_records())
        with QueryService(
            _Forwarding(engine), metrics=MetricsRegistry()
        ) as svc:
            oid = svc.insert(50.0, 50.0, ["zz"])
            assert oid in engine.dataset
            result = svc.query(["zz", "a"], algorithm="SKECa+", explain=True)
        assert result.group is not None
        assert oid in result.group.object_ids
        assert result.explain["execution"]["engine"] == "live"


class TestSealedLiveParity:
    @pytest.fixture(scope="class")
    def twins(self):
        records = _records()
        dataset = Dataset.from_records(records)
        live = LiveMCKEngine.from_records(records)
        yield MCKEngine(dataset), live, feasible_query(dataset, 5, 3)
        live.close()

    @staticmethod
    def _agree(sealed, live):
        assert sealed.object_ids == live.object_ids
        assert sealed.diameter == live.diameter
        assert sealed.quality == live.quality
        a, b = sealed.explain_report, live.explain_report
        assert a["counters"] == b["counters"]
        assert a["outcome"] == b["outcome"]
        assert a["execution"]["engine"] == "sealed"
        assert b["execution"]["engine"] == "live"
        assert b["execution"]["epoch"] == live.stats["epoch"]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_same_answer_and_counters(self, twins, algorithm):
        sealed_engine, live_engine, query = twins
        sealed = sealed_engine.query(query, algorithm=algorithm, explain=True)
        live = live_engine.query(query, algorithm=algorithm, explain=True)
        self._agree(sealed, live)
        assert sealed.explain_report["outcome"]["status"] == "ok"

    def test_degraded_exact_agrees(self, twins):
        sealed_engine, live_engine, query = twins
        answers = []
        for engine in (sealed_engine, live_engine):
            with faults.injected(
                "core.deadline.clock", skew=1e9, after=2, times=None
            ):
                answers.append(
                    engine.query(
                        query,
                        algorithm="EXACT",
                        timeout=60.0,
                        degrade_on_timeout=True,
                        explain=True,
                    )
                )
        sealed, live = answers
        assert sealed.degraded and live.degraded
        self._agree(sealed, live)
        assert sealed.explain_report["outcome"]["status"] == "degraded"
