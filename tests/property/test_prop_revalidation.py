"""Properties of cache revalidation on a live store.

After every write, each answer the result cache still serves must be one
a fresh run could stand behind:

* every member is live, and the members cover the query;
* an EXACT answer has the brute-force optimum's diameter;
* a SKECa+ or GKG answer is within its quality tag's ratio bound of it.

Random insert/delete streams on a small integer grid exercise the rule
(integer coordinates make distance ties common): one writer, two
concurrent writers, and four-keyword queries, where an insert lacking
three keywords falls back to dropping.  A fixed stream checks the repairs
are not vacuous.  Adversarial cases pin the edges: an insert at exactly
the cached diameter (a tie, so the entry must drop), an insert covering
the query alone (repaired to it), and the delete of a member.
"""

from __future__ import annotations

import itertools
import math
import random
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import quality_ratio_bound
from repro.live import LiveMCKEngine
from repro.serving import QueryService
from repro.serving.cache import make_cache_key

EPSILON = 0.01
ALGORITHMS = ("EXACT", "SKECa+", "GKG")
QUERIES = (("a", "b"), ("a", "b", "c"), ("b", "d"), ("c", "d"))
#: m = 4: an insert holding one keyword lacks three.
WIDE_QUERIES = QUERIES + (("a", "b", "c", "d"),)
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


def _fill(service, queries=QUERIES):
    for keywords in queries:
        for algorithm in ALGORITHMS:
            service.query(list(keywords), algorithm, epsilon=EPSILON)


def _check_served(service, model, queries=QUERIES) -> int:
    """Assert every answer the cache still serves; returns how many were
    repaired ones."""
    repaired = 0
    for keywords in queries:
        optimum = _optimum(model, keywords)
        for algorithm in ALGORITHMS:
            group = service.cache.get(make_cache_key(keywords, algorithm, EPSILON))
            if group is None:
                continue
            repaired += group.stats.get("repaired", 0.0) == 1.0
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
    return repaired


def _model():
    return {oid: (x, y, frozenset(kws)) for oid, (x, y, kws) in enumerate(BASE)}


def _apply(service, model, op, lock=None) -> bool:
    """Apply one drawn op through the service and mirror it in ``model``;
    False when it was skipped (a delete with one object left)."""
    lock = lock or threading.Lock()
    if op[0] == "insert":
        _tag, x, y, kws = op
        oid = service.insert(float(x), float(y), kws)
        with lock:
            model[oid] = (float(x), float(y), frozenset(kws))
        return True
    with lock:
        live = sorted(model)
        if len(live) <= 1:
            return False
        victim = live[op[1] % len(live)]
        del model[victim]
    service.delete(victim)
    return True


def _assert_books_balance(service):
    st_ = service.cache.stats()
    assert st_["inserts"] == (
        st_["size"] + st_["evictions"] + st_["expirations"] + st_["invalidations"]
    )


def _run_stream(ops, queries=QUERIES) -> int:
    """One writer applies ``ops``, checking the cache after every write;
    returns how many repaired answers the checks met."""
    engine = LiveMCKEngine.from_records(BASE)
    model = _model()
    repaired = 0
    with engine, QueryService(engine, max_workers=1) as service:
        _fill(service, queries)
        for op in ops:
            if _apply(service, model, op):
                repaired += _check_served(service, model, queries)
                _fill(service, queries)  # refill what the write dropped
        _assert_books_balance(service)
    return repaired


@settings(deadline=None, max_examples=40)
@given(ops=st.lists(_op, min_size=1, max_size=12))
def test_served_answers_stay_within_their_bound_after_every_write(ops):
    _run_stream(ops)


@settings(deadline=None, max_examples=25)
@given(ops=st.lists(_op, min_size=1, max_size=12))
def test_four_keyword_answers_stay_within_their_bound(ops):
    """m = 4: inserts lacking three keywords take the drop fallback, ones
    lacking two are repaired from a holder pair."""
    _run_stream(ops, WIDE_QUERIES)


def test_repairs_happen_and_stay_within_their_bound():
    """Non-vacuity: a fixed stream of grid writes repairs answers, and the
    checks after every write meet repaired answers."""
    rng = random.Random(25)
    ops = [
        ("delete", rng.randrange(10**6))
        if rng.random() < 0.2
        else (
            "insert", rng.randint(0, 10), rng.randint(0, 10),
            rng.sample("abcd", rng.randint(1, 2)),
        )
        for _ in range(40)
    ]
    assert _run_stream(ops, WIDE_QUERIES) > 0


@settings(deadline=None, max_examples=15)
@given(
    left=st.lists(_op, min_size=1, max_size=8),
    right=st.lists(_op, min_size=1, max_size=8),
)
def test_two_concurrent_writers_leave_only_valid_answers(left, right):
    """Two writer threads (each refilling the cache between its writes)
    race their revalidations and repairs; once both finish, every served
    answer is valid for the final store."""
    engine = LiveMCKEngine.from_records(BASE)
    model = _model()
    lock = threading.Lock()
    with engine, QueryService(engine, max_workers=2) as service:
        _fill(service, WIDE_QUERIES)

        def writer(ops):
            for op in ops:
                _apply(service, model, op, lock)
                _fill(service, WIDE_QUERIES)

        threads = [threading.Thread(target=writer, args=(ops,)) for ops in (left, right)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not any(t.is_alive() for t in threads)
        _check_served(service, model, WIDE_QUERIES)
        _assert_books_balance(service)


def test_insert_lacking_three_keywords_drops():
    """A near insert lacking three of four keywords is not repaired."""
    records = [(0.0, 0.0, ["a"]), (3.0, 4.0, ["b"]), (0.0, 4.0, ["c"]), (3.0, 0.0, ["d"])]
    with LiveMCKEngine.from_records(records) as engine, QueryService(engine) as service:
        service.query(list("abcd"), "EXACT")
        service.insert(1.0, 1.0, ["a"])
        assert not service.query(list("abcd"), "EXACT").stats.cache_hit
        st_ = service.cache.stats()
        assert st_["invalidations"] == 1 and st_["repaired"] == 0


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

    def test_insert_holding_every_keyword_repairs(self):
        fresh = LiveMCKEngine.from_records(
            self.RECORDS + [(30.0, 30.0, ["shrine", "shop"])]
        )
        with fresh:
            want = fresh.query(["shrine", "shop"], "EXACT")
        for algorithm in ALGORITHMS:
            engine, service = self._cached(algorithm)
            with engine, service:
                oid = service.insert(30.0, 30.0, ["shrine", "shop"])
                result = service.query(["shrine", "shop"], algorithm)
                assert result.stats.cache_hit
                assert result.group.object_ids == want.object_ids == (oid,)
                assert result.group.diameter == want.diameter == 0.0
                assert result.group.stats["repaired"] == 1.0
                assert service.cache.stats()["repaired"] == 1

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
