"""LiveMCKEngine: query parity, mutation semantics, WAL durability,
and freedom from stale reads under concurrent writers."""

import threading

import pytest

from repro import Dataset, MCKEngine
from repro.exceptions import DatasetError, InfeasibleQueryError
from repro.live import LiveMCKEngine, Mutation

RECORDS = [
    (10.0, 10.0, ["shrine"]),
    (11.0, 10.5, ["shop"]),
    (10.5, 11.0, ["restaurant"]),
    (11.2, 11.2, ["hotel"]),
    (50.0, 50.0, ["shrine"]),
    (52.0, 50.0, ["shop"]),
    (90.0, 10.0, ["restaurant"]),
    (10.0, 90.0, ["hotel"]),
    (60.0, 60.0, ["shop", "cafe"]),
    (0.0, 0.0, ["museum"]),
]

ALGORITHMS = ["GKG", "SKEC", "SKECa", "SKECa+", "EXACT"]


@pytest.fixture()
def live():
    engine = LiveMCKEngine.from_records(RECORDS)
    yield engine
    engine.close()


class TestQueryParity:
    """An unmutated live engine answers exactly like the static engine."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_same_answer_as_static(self, live, algorithm):
        static = MCKEngine(Dataset.from_records(RECORDS, name="static"))
        keywords = ["shrine", "shop", "restaurant", "hotel"]
        got = live.query(keywords, algorithm=algorithm)
        want = static.query(keywords, algorithm=algorithm)
        assert got.diameter == pytest.approx(want.diameter)
        if algorithm == "EXACT":
            assert sorted(got.object_ids) == sorted(want.object_ids)

    def test_epoch_recorded_in_stats(self, live):
        group = live.query(["shrine", "shop"], algorithm="EXACT")
        assert group.stats["epoch"] == 0.0
        live.insert(10.6, 10.6, ["cafe"])
        group = live.query(["shrine", "shop"], algorithm="EXACT")
        assert group.stats["epoch"] == 1.0

    def test_infeasible_raises(self, live):
        with pytest.raises(InfeasibleQueryError):
            live.query(["shrine", "unicorn"], algorithm="EXACT")


class TestMutations:
    def test_insert_becomes_queryable(self, live):
        oid = live.insert(10.4, 10.4, ["cafe"])
        group = live.query(["shrine", "cafe"], algorithm="EXACT")
        assert oid in group.object_ids

    def test_delete_disappears(self, live):
        live.delete(8)  # the only cafe
        with pytest.raises(InfeasibleQueryError):
            live.query(["cafe"], algorithm="EXACT")

    def test_delete_changes_answer(self, live):
        before = live.query(["shrine", "shop"], algorithm="EXACT")
        assert sorted(before.object_ids) == [0, 1]
        live.delete(1)  # best shop partner gone
        after = live.query(["shrine", "shop"], algorithm="EXACT")
        assert 1 not in after.object_ids
        assert after.diameter > before.diameter

    def test_oids_are_stable_and_never_reused(self, live):
        a = live.insert(1.0, 1.0, ["x"])
        live.delete(a)
        b = live.insert(1.0, 1.0, ["x"])
        assert b == a + 1

    def test_batch_is_one_epoch(self, live):
        epoch = live.epoch
        oids = live.apply_batch(
            inserts=[(1.0, 1.0, ["x"]), (2.0, 2.0, ["y"])], deletes=[9]
        )
        assert len(oids) == 2
        assert live.epoch == epoch + 1
        assert live.delta_size == 3

    def test_empty_batch_is_a_noop(self, live):
        epoch = live.epoch
        assert live.apply_batch() == []
        assert live.epoch == epoch

    def test_delete_of_dead_oid_raises(self, live):
        live.delete(9)
        with pytest.raises(DatasetError):
            live.delete(9)
        with pytest.raises(DatasetError):
            live.delete(999)

    def test_empty_keywords_rejected(self, live):
        with pytest.raises(DatasetError):
            live.insert(1.0, 1.0, [])

    def test_mutation_listener_fires_post_publish(self, live):
        seen = []
        live.add_mutation_listener(seen.append)
        oid = live.insert(1.0, 1.0, ["cafe", "bar"])
        live.delete(oid)
        assert seen == [
            (Mutation("insert", oid, ("bar", "cafe"), 1.0, 1.0),),
            (Mutation("delete", oid, ("bar", "cafe"), 1.0, 1.0),),
        ]

    def test_closed_engine_rejects_mutations(self):
        engine = LiveMCKEngine.from_records(RECORDS)
        engine.close()
        with pytest.raises(DatasetError):
            engine.insert(0.0, 0.0, ["x"])


class TestSnapshotIsolation:
    def test_pinned_reader_keeps_its_version(self, live):
        with live.pin() as snapshot:
            live.delete(1)
            live.insert(70.0, 70.0, ["shop"])
            assert snapshot.view().get(1) is not None
            assert snapshot.view().live_oids() == list(range(10))
        assert live.dataset.get(1) is None

    def test_len_tracks_current_view(self, live):
        assert len(live) == 10
        live.insert(1.0, 1.0, ["x"])
        assert len(live) == 11
        live.delete(0)
        assert len(live) == 10


class TestContextCache:
    def test_insert_drops_superseded_epochs(self, live):
        live.query(["shrine", "shop"], algorithm="EXACT")
        live.query(["hotel", "shop"], algorithm="EXACT")
        assert {key[0] for key in live._contexts} == {0}
        live.insert(10.6, 10.6, ["cafe"])
        with live.pin() as stale:
            live.delete(9)
            live._context(stale, ["shrine", "shop"])
            assert list(live._contexts) == []
            live.query(["shrine", "shop"], algorithm="EXACT")
        assert list(live._contexts) == [(live.epoch, ("shrine", "shop"))]


class TestWalDurability:
    def test_replay_reproduces_live_set(self, tmp_path):
        path = str(tmp_path / "engine.wal")
        with LiveMCKEngine.from_records(RECORDS, wal_path=path) as engine:
            new = engine.insert(10.4, 10.4, ["cafe"])
            engine.delete(1)
            want = engine.dataset.live_oids()
            answer = engine.query(["shrine", "cafe"], algorithm="EXACT")
        with LiveMCKEngine.from_records(RECORDS, wal_path=path) as engine:
            assert engine.dataset.live_oids() == want
            assert engine.dataset[new].keywords == frozenset({"cafe"})
            replayed = engine.query(["shrine", "cafe"], algorithm="EXACT")
            assert replayed.diameter == pytest.approx(answer.diameter)

    def test_replay_continues_oid_allocation(self, tmp_path):
        path = str(tmp_path / "oids.wal")
        with LiveMCKEngine.from_records(RECORDS, wal_path=path) as engine:
            first = engine.insert(1.0, 1.0, ["x"])
        with LiveMCKEngine.from_records(RECORDS, wal_path=path) as engine:
            second = engine.insert(2.0, 2.0, ["y"])
            assert second == first + 1

    def test_replay_rejects_colliding_insert(self, tmp_path):
        path = str(tmp_path / "bad.wal")
        from repro.live.wal import WriteAheadLog
        with WriteAheadLog(path, sync_every=0) as wal:
            wal.append_insert(0, 1.0, 1.0, ["x"])  # oid 0 is a base object
        with pytest.raises(DatasetError):
            LiveMCKEngine.from_records(RECORDS, wal_path=path)

    def test_replay_rejects_delete_of_never_live(self, tmp_path):
        path = str(tmp_path / "bad2.wal")
        from repro.live.wal import WriteAheadLog
        with WriteAheadLog(path, sync_every=0) as wal:
            wal.append_delete(999)
        with pytest.raises(DatasetError):
            LiveMCKEngine.from_records(RECORDS, wal_path=path)


class TestFromDataset:
    def test_oids_preserved(self):
        dataset = Dataset.from_records(RECORDS, name="src")
        with LiveMCKEngine.from_dataset(dataset) as engine:
            assert engine.dataset.live_oids() == list(range(10))
            assert engine.name == "src"


class TestStaleReadFreedom:
    """Readers racing a writer never observe a torn or stale state.

    The writer atomically swaps which of two "beta" objects exists (one
    near the anchor, one far) — every published epoch contains the anchor
    and *exactly one* beta.  Concurrent EXACT readers must therefore
    always find a feasible answer whose diameter is one of the two legal
    values, and never a group mixing both betas or missing beta entirely.
    """

    def test_concurrent_swaps_yield_only_published_states(self):
        near, far = (1.0, 0.0), (5.0, 0.0)
        engine = LiveMCKEngine.from_records(
            [(0.0, 0.0, ["alpha"]), (near[0], near[1], ["beta"])],
            compact_threshold=6,  # compactions interleave with the race
        )
        legal = {1.0, 5.0}
        errors = []
        stop = threading.Event()

        def writer():
            beta, at_near = 1, True
            try:
                for _ in range(60):
                    pos = far if at_near else near
                    (beta,) = engine.apply_batch(
                        inserts=[(pos[0], pos[1], ["beta"])], deletes=[beta]
                    )
                    at_near = not at_near
            except Exception as err:  # pragma: no cover - failure path
                errors.append(f"writer: {err!r}")
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    group = engine.query(["alpha", "beta"], algorithm="EXACT")
                    if len(group.object_ids) != 2:
                        errors.append(f"group size {group.object_ids}")
                    if not any(
                        abs(group.diameter - d) < 1e-9 for d in legal
                    ):
                        errors.append(f"illegal diameter {group.diameter}")
                    if 0 not in group.object_ids:
                        errors.append(f"anchor missing from {group.object_ids}")
            except Exception as err:  # pragma: no cover - failure path
                errors.append(f"reader: {err!r}")

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        engine.close()
        assert not errors, errors[:5]
        # The race really exercised compaction at least once.
        assert engine.compactor.compactions >= 1

    def test_no_epoch_leaks_after_quiescence(self):
        engine = LiveMCKEngine.from_records(RECORDS)
        for i in range(5):
            engine.insert(float(i), float(i), ["x"])
            engine.query(["shrine"], algorithm="GKG")
        assert engine._epochs.pinned_epochs() == []
        engine.close()
