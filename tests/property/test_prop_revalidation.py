"""Properties of cache revalidation on a live store.

After every write, each answer the result cache still serves must be one
a fresh run could stand behind:

* every member is live, and the members cover the query;
* an EXACT answer has the brute-force optimum's diameter;
* a SKECa+ or GKG answer is within its quality tag's ratio bound of it.

Random insert/delete streams on a small integer grid exercise the rule
(integer coordinates make distance ties common); two adversarial cases
pin the edges: an insert at exactly the cached diameter (a tie, so the
entry must drop) and the delete of a member.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import quality_ratio_bound
from repro.live import LiveMCKEngine
from repro.serving import QueryService
from repro.serving.cache import make_cache_key

EPSILON = 0.01
ALGORITHMS = ("EXACT", "SKECa+", "GKG")
QUERIES = (("a", "b"), ("a", "b", "c"), ("b", "d"), ("c", "d"))
BASE = [
    (0.0, 0.0, ["a"]),
    (3.0, 4.0, ["b"]),
    (6.0, 0.0, ["c"]),
    (9.0, 9.0, ["d", "a"]),
    (2.0, 7.0, ["b", "c"]),
    (8.0, 3.0, ["d"]),
]

_op = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10),
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=2, unique=True),
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
)


def _optimum(model, keywords) -> float:
    """Brute-force smallest diameter over one holder per keyword."""
    holders = [
        [(x, y) for x, y, kws in model.values() if kw in kws] for kw in keywords
    ]
    best = math.inf
    for pick in itertools.product(*holders):
        diameter = max(
            (math.hypot(p[0] - q[0], p[1] - q[1]) for p, q in itertools.combinations(pick, 2)),
            default=0.0,
        )
        best = min(best, diameter)
    return best


def _fill(service):
    for keywords in QUERIES:
        for algorithm in ALGORITHMS:
            service.query(list(keywords), algorithm, epsilon=EPSILON)


def _check_served(service, model) -> int:
    """Assert every answer the cache still serves; returns how many."""
    served = 0
    for keywords in QUERIES:
        optimum = _optimum(model, keywords)
        for algorithm in ALGORITHMS:
            group = service.cache.get(make_cache_key(keywords, algorithm, EPSILON))
            if group is None:
                continue
            served += 1
            assert all(oid in model for oid in group.object_ids), (
                f"{algorithm} {keywords}: cached answer holds a dead object"
            )
            covered = set().union(*(model[oid][2] for oid in group.object_ids))
            assert set(keywords) <= covered
            if algorithm == "EXACT":
                assert math.isclose(group.diameter, optimum, rel_tol=1e-9, abs_tol=1e-9), (
                    f"EXACT {keywords}: kept diameter {group.diameter} != optimum {optimum}"
                )
            else:
                bound = quality_ratio_bound(group.quality, EPSILON)
                assert group.diameter <= bound * optimum * (1 + 1e-9) + 1e-9, (
                    f"{algorithm} {keywords}: kept diameter {group.diameter} "
                    f"breaks its {group.quality} bound over optimum {optimum}"
                )
    return served


@settings(deadline=None, max_examples=40)
@given(ops=st.lists(_op, min_size=1, max_size=12))
def test_served_answers_stay_within_their_bound_after_every_write(ops):
    engine = LiveMCKEngine.from_records(BASE)
    model = {
        oid: (x, y, frozenset(kws)) for oid, (x, y, kws) in enumerate(BASE)
    }
    with QueryService(engine, max_workers=1) as service:
        _fill(service)
        for op in ops:
            if op[0] == "insert":
                _tag, x, y, kws = op
                oid = service.insert(float(x), float(y), kws)
                model[oid] = (float(x), float(y), frozenset(kws))
            else:
                live = sorted(model)
                if len(live) <= 1:
                    continue
                victim = live[op[1] % len(live)]
                service.delete(victim)
                del model[victim]
            _check_served(service, model)
            _fill(service)  # refill what the write dropped
        st_ = service.cache.stats()
        assert st_["inserts"] == (
            st_["size"] + st_["evictions"] + st_["expirations"] + st_["invalidations"]
        )
    engine.close()


class TestAdversarial:
    """Object 0 (shrine) and 1 (shop) sit 5 apart: the cached diameter."""

    RECORDS = [
        (0.0, 0.0, ["shrine"]),
        (3.0, 4.0, ["shop"]),
        (40.0, 40.0, ["shrine"]),
    ]

    def _cached(self, algorithm):
        engine = LiveMCKEngine.from_records(self.RECORDS)
        service = QueryService(engine, max_workers=1)
        first = service.query(["shrine", "shop"], algorithm)
        assert first.group.diameter == 5.0
        assert service.query(["shrine", "shop"], algorithm).stats.cache_hit
        return engine, service

    def test_insert_at_exactly_the_diameter_drops(self):
        for algorithm in ALGORITHMS:
            engine, service = self._cached(algorithm)
            with engine, service:
                service.insert(5.0, 0.0, ["shop"])  # exactly 5 from shrine 0
                assert not service.query(["shrine", "shop"], algorithm).stats.cache_hit
                assert service.cache.stats()["revalidated"] == 0

    def test_insert_just_beyond_the_diameter_keeps(self):
        for algorithm in ALGORITHMS:
            engine, service = self._cached(algorithm)
            with engine, service:
                service.insert(5.001, 0.0, ["shop"])
                kept = service.query(["shrine", "shop"], algorithm)
                assert kept.stats.cache_hit
                assert kept.group.object_ids == (0, 1)

    def test_insert_holding_every_keyword_drops(self):
        engine, service = self._cached("EXACT")
        with engine, service:
            service.insert(30.0, 30.0, ["shrine", "shop"])
            result = service.query(["shrine", "shop"], "EXACT")
            assert not result.stats.cache_hit
            assert result.group.diameter == 0.0

    def test_delete_of_a_member_drops(self):
        for algorithm in ALGORITHMS:
            engine, service = self._cached(algorithm)
            with engine, service:
                service.delete(1)
                assert service.cache.get(
                    make_cache_key(["shrine", "shop"], algorithm, 0.01)
                ) is None

    def test_delete_of_a_non_member_keeps(self):
        engine, service = self._cached("EXACT")
        with engine, service:
            service.delete(2)
            assert service.query(["shrine", "shop"], "EXACT").stats.cache_hit
