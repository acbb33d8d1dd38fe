"""Write revalidation of cached answers: the cache protocol and its races.

A write's hook re-stamps only entries whose stamp was current just
before its bump.  The race tests gate execution so a fill and a write
interleave in the one order that matters, then check the fill misses.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.index.columns import ColumnarStore
from repro.live import LiveMCKEngine
from repro.serving import QueryService
from repro.serving.cache import KeywordGenerations, ResultCache, make_cache_key

WAIT = 10.0

RECORDS = [
    (10.0, 10.0, ["shrine"]),
    (11.0, 10.5, ["shop"]),
    (10.5, 11.0, ["restaurant"]),
]
#: ~28 from the shrine: cannot beat the cached diameter (~1.12), so the
#: rule would keep the entry — only the stamp protocol can reject it.
FAR_SHOP = (30.0, 30.0, ["shop"])
KEY = make_cache_key(["shrine", "shop"], "EXACT", 0.01)


def _cache():
    gen = KeywordGenerations()
    return ResultCache(max_size=8, generations=gen), gen


class TestRevalidateProtocol:
    def test_kept_entry_is_restamped_and_counted(self):
        cache, _gen = _cache()
        cache.put(KEY, "answer")
        assert cache.revalidate(["shop"], lambda entries: [True] * len(entries)) == (1, 0, 0)
        assert cache.get(KEY) == "answer"
        st = cache.stats()
        assert st["revalidated"] == 1 and st["invalidations"] == 0
        assert st["repaired"] == 0

    def test_replaced_entry_is_restamped_and_counted(self):
        cache, _gen = _cache()
        cache.put(KEY, "answer")
        assert cache.revalidate(["shop"], lambda entries: ["better"]) == (0, 1, 0)
        assert cache.get(KEY) == "better"
        st = cache.stats()
        assert st["repaired"] == 1
        assert st["revalidated"] == 0 and st["invalidations"] == 0
        assert st["inserts"] == st["size"] + st["evictions"] + st["expirations"] + st["invalidations"]

    def test_rejected_entry_is_an_invalidation(self):
        cache, _gen = _cache()
        cache.put(KEY, "answer")
        assert cache.revalidate(["shop"], lambda entries: [False] * len(entries)) == (0, 0, 1)
        assert KEY not in cache
        st = cache.stats()
        assert st["invalidations"] == 1
        assert st["inserts"] == st["size"] + st["evictions"] + st["expirations"] + st["invalidations"]

    def test_only_touched_current_entries_are_judged(self):
        cache, gen = _cache()
        disjoint = make_cache_key(["restaurant"], "EXACT", 0.01)
        stale = make_cache_key(["shop", "hotel"], "EXACT", 0.01)
        cache.put(KEY, 1)
        cache.put(disjoint, 2)
        cache.put(stale, 3, stamp=cache.probe_stamp(stale) - 1)  # raced a write
        cache.put("foreign", 4)
        judged = []
        cache.revalidate(["shop"], lambda entries: judged.extend(entries) or [True] * len(entries))
        assert judged == [(KEY, 1)]
        assert cache.get(stale) is None  # still on the generation fallback
        assert cache.get(disjoint) == 2 and cache.get("foreign") == 4

    def test_removed_entries_leave_the_keyword_index(self):
        gen = KeywordGenerations()
        cache = ResultCache(max_size=2, generations=gen)
        keys = [make_cache_key(["shop", kw], "EXACT", 0.01) for kw in "abcd"]
        for k in keys[:3]:
            cache.put(k, k)  # the third put evicts the first
        cache.put(keys[1], "again")  # an overwrite re-indexes its key
        cache.invalidate_keywords(["c"])
        judged = []
        cache.revalidate(["shop"], lambda entries: judged.extend(entries) or [True] * len(entries))
        assert judged == [(keys[1], "again")]
        cache.clear()
        cache.put(keys[3], 4)
        judged.clear()
        cache.revalidate(["shop"], lambda entries: judged.extend(entries) or [True] * len(entries))
        assert judged == [(keys[3], 4)]

    def test_entry_replaced_while_judged_is_left_alone(self):
        cache, _gen = _cache()
        cache.put(KEY, "old")
        judging, release = threading.Event(), threading.Event()

        def judge(entries):
            judging.set()
            assert release.wait(WAIT), "gate never released"
            return [True] * len(entries)

        worker = threading.Thread(target=cache.revalidate, args=(["shop"], judge))
        worker.start()
        assert judging.wait(WAIT)
        stamp = cache.probe_stamp(KEY)  # post-bump: a fresh fill
        cache.put(KEY, "new", stamp=stamp)
        release.set()
        worker.join(WAIT)
        assert cache.get(KEY) == "new"
        assert cache.stats()["revalidated"] == 0

    def test_restamp_does_not_absorb_a_foreign_bump(self):
        cache, gen = _cache()
        cache.put(KEY, "answer")

        def judge(entries):
            gen.bump(["shrine"])  # some other staleness source
            return [True] * len(entries)

        cache.revalidate(["shop"], judge)
        assert cache.get(KEY) is None


class TestJudgeFailure:
    def test_write_survives_a_failing_lookup_and_drops_the_entry(self, live):
        engine, service = live
        service.query(["shrine", "shop"], "EXACT")

        def broken(*_args):
            raise RuntimeError("lookup failed")

        engine.nearest_holders = broken
        oid = service.insert(*FAR_SHOP)  # the write itself still lands
        assert oid in engine.dataset
        assert not service.query(["shrine", "shop"], "EXACT").stats.cache_hit
        assert service.cache.stats()["invalidations"] == 1


class TestWriterCost:
    def test_one_write_makes_one_batched_slab_lookup(self, live, monkeypatch):
        """A write repairing a one-lacking (nearest holder) and a
        two-lacking (holder pair) answer scans the store once: one call
        into the engine, one batched slab lookup over the sealed base and
        one posting lookup over the delta's add rows."""
        engine, service = live
        queries = (["shrine", "shop"], ["shrine", "shop", "restaurant"])
        for keywords in queries:
            service.query(keywords, "EXACT")
        service.insert(30.0, 30.0, ["cafe"])  # the delta now has add rows
        scans, lookups = [], []
        real_scan = engine.nearest_holders
        for name in ("holders_in_slabs", "holder_ranges"):
            real = getattr(ColumnarStore, name)

            def counted(store, *args, _name=name, _real=real):
                lookups.append((_name, store))
                return _real(store, *args)

            monkeypatch.setattr(ColumnarStore, name, counted)
        monkeypatch.setattr(
            engine, "nearest_holders", lambda *a: scans.append(a) or real_scan(*a)
        )
        near = (10.7, 10.7, ["shrine"])  # lacks shop (k = 1) and shop + restaurant (k = 2)
        service.insert(*near)
        assert len(scans) == 1
        snapshot = engine.snapshot()
        assert lookups == [
            ("holders_in_slabs", snapshot.base.columns),
            ("holder_ranges", snapshot.delta.add_rows),
        ]
        assert service.cache.stats()["repaired"] == 2
        with LiveMCKEngine.from_records(RECORDS + [(30.0, 30.0, ["cafe"]), near]) as fresh:
            for keywords in queries:
                hit = service.query(keywords, "EXACT")
                want = fresh.query(keywords, algorithm="EXACT")
                assert hit.stats.cache_hit
                assert hit.group.object_ids == want.object_ids
                assert hit.group.diameter == pytest.approx(want.diameter, rel=1e-12)


class _GatedQueries:
    """Holds the engine's next query after it answered, until released."""

    def __init__(self, engine):
        self.engine = engine
        self.real = engine.query
        self.answered = threading.Event()
        self.release = threading.Event()
        engine.query = self._query

    def _query(self, *args, **kwargs):
        self.engine.query = self.real  # gate one query only
        result = self.real(*args, **kwargs)
        self.answered.set()
        assert self.release.wait(WAIT), "gate never released"
        return result


@pytest.fixture()
def live():
    engine = LiveMCKEngine.from_records(RECORDS)
    with QueryService(engine, max_workers=2) as service:
        yield engine, service
    engine.close()


class TestFillRaces:
    def _racing_fill(self, engine, service):
        """A fill whose query ran before a write and whose put lands after
        that write's hook; returns once the put has landed."""
        gate = _GatedQueries(engine)
        fill = service.submit(["shrine", "shop"], "EXACT")
        assert gate.answered.wait(WAIT)
        # Write e, straight on the engine (admission would queue it behind
        # the gated query): its hook finds nothing cached yet.
        engine.insert(*FAR_SHOP)
        gate.release.set()
        assert fill.result(timeout=WAIT).ok
        assert service.cache.stats()["inserts"] == 1  # the put landed

    def test_fill_racing_a_write_still_misses(self, live):
        engine, service = live
        self._racing_fill(engine, service)
        assert not service.query(["shrine", "shop"], "EXACT").stats.cache_hit
        assert service.cache.stats()["revalidated"] == 0

    def test_entry_from_before_a_write_is_not_restamped_by_the_next(self, live):
        engine, service = live
        self._racing_fill(engine, service)  # entry answered at epoch e-1
        engine.insert(31.0, 31.0, ["shop"])  # write e+1, also far
        assert service.cache.stats()["revalidated"] == 0
        assert not service.query(["shrine", "shop"], "EXACT").stats.cache_hit


class TestRepairRaces:
    def test_insert_deleted_before_its_hook_runs_is_not_repaired_in(self):
        """Write 1 inserts a shop that beats the cached answer; write 2
        deletes that shop and runs its hook before write 1's does.  Write
        1's hook then scans a store without the shop and must not install
        a group holding it."""
        engine = LiveMCKEngine.from_records(RECORDS)
        held, release = threading.Event(), threading.Event()

        def hold_first_insert(mutations):
            if mutations[0].op == "insert" and not held.is_set():
                held.set()
                assert release.wait(WAIT), "gate never released"

        # Registered first, so it runs before the service's hook.
        engine.add_mutation_listener(hold_first_insert)
        with engine, QueryService(engine, max_workers=1) as service:
            service.query(["shrine", "shop"], "EXACT")
            writer = threading.Thread(target=engine.insert, args=(10.2, 10.2, ["shop"]))
            writer.start()
            assert held.wait(WAIT)
            engine.delete(len(RECORDS))  # the near shop; this hook runs first
            release.set()
            writer.join(WAIT)
            group = service.cache.get(KEY)
            assert group is None or all(oid in engine.dataset for oid in group.object_ids)
            assert service.cache.stats()["repaired"] == 0


def test_racing_writers_and_readers_leave_only_valid_answers():
    """Writers and readers race under a tiny switch interval, more threads
    than cores; once quiet, every answer the cache still serves is an
    optimum of the final store, and the cache's books balance."""
    rng = random.Random(11)
    grid = [
        (float(rng.randint(0, 20)), float(rng.randint(0, 20)), [rng.choice("abc")])
        for _ in range(40)
    ]
    queries = (["a", "b"], ["b", "c"], ["a", "b", "c"])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        engine = LiveMCKEngine.from_records(grid)
        with engine, QueryService(engine, max_workers=4) as service:

            def writer(seed):
                local = random.Random(seed)
                mine = []
                for _ in range(25):
                    if mine and local.random() < 0.3:
                        service.delete(mine.pop(local.randrange(len(mine))))
                    else:
                        mine.append(
                            service.insert(
                                float(local.randint(0, 20)),
                                float(local.randint(0, 20)),
                                [local.choice("abc")],
                            )
                        )

            def reader():
                for _ in range(25):
                    for keywords in queries:
                        assert service.query(keywords, "EXACT").ok

            threads = [threading.Thread(target=writer, args=(s,)) for s in (1, 2)]
            threads += [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert not any(t.is_alive() for t in threads)

            final = [(o.x, o.y, sorted(o.keywords)) for o in engine.dataset]
            with LiveMCKEngine.from_records(final) as fresh:
                for keywords in queries:
                    group = service.cache.get(make_cache_key(keywords, "EXACT", 0.01))
                    if group is None:
                        continue
                    assert all(oid in engine.dataset for oid in group.object_ids)
                    want = fresh.query(keywords, algorithm="EXACT").diameter
                    assert group.diameter == pytest.approx(want, rel=1e-12)
            st = service.cache.stats()
            assert st["inserts"] == (
                st["size"] + st["evictions"] + st["expirations"] + st["invalidations"]
            )
    finally:
        sys.setswitchinterval(old)
