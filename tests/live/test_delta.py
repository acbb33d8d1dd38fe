"""Delta overlay: copy-on-write semantics, merged views, rebase."""

import math
import random

import numpy as np
import pytest

from repro.core.objects import Dataset, GeoObject
from repro.exceptions import DatasetError
from repro.live.delta import DeltaOverlay, LiveView

BASE_RECORDS = [
    (0, 0.0, 0.0, ["shrine"]),
    (1, 1.0, 1.0, ["shop"]),
    (2, 2.0, 0.5, ["restaurant", "shop"]),
    (3, 40.0, 40.0, ["hotel"]),
]


@pytest.fixture()
def base():
    return Dataset.seal(BASE_RECORDS, name="delta-test")


def _obj(oid, x, y, keywords):
    return GeoObject(oid, x, y, frozenset(keywords))


class TestCopyOnWrite:
    def test_with_insert_leaves_original_untouched(self):
        d0 = DeltaOverlay()
        d1 = d0.with_insert(_obj(10, 5.0, 5.0, ["cafe"]))
        assert d0.is_empty()
        assert d0.size == 0
        assert not d1.is_empty()
        assert 10 in d1.adds
        assert d1.holders_of("cafe") == frozenset({10})
        assert d0.holders_of("cafe") == frozenset()

    def test_with_delete_leaves_original_untouched(self):
        d0 = DeltaOverlay()
        d1 = d0.with_delete(1, ["shop"])
        assert d0.tombstones == frozenset()
        assert d1.tombstones == frozenset({1})
        assert d1.freq_delta["shop"] == -1

    def test_delete_of_own_add_cancels(self):
        d = DeltaOverlay().with_insert(_obj(10, 5.0, 5.0, ["cafe"]))
        d = d.with_delete(10, ["cafe"])
        assert 10 not in d.adds
        assert 10 in d.tombstones  # the trace survives for rebase safety
        assert d.holders_of("cafe") == frozenset()
        assert d.freq_delta["cafe"] == 0

    def test_double_insert_rejected(self):
        d = DeltaOverlay().with_insert(_obj(10, 0.0, 0.0, ["a"]))
        with pytest.raises(DatasetError):
            d.with_insert(_obj(10, 1.0, 1.0, ["b"]))

    def test_double_delete_rejected(self):
        d = DeltaOverlay().with_delete(1, ["shop"])
        with pytest.raises(DatasetError):
            d.with_delete(1, ["shop"])

    def test_batch_is_one_step(self):
        d = DeltaOverlay().with_batch(
            inserts=[_obj(10, 0.0, 0.0, ["a"]), _obj(11, 1.0, 1.0, ["a", "b"])],
            deletes=[(1, ("shop",))],
        )
        assert d.size == 3
        assert d.holders_of("a") == frozenset({10, 11})
        assert d.freq_delta == {"a": 2, "b": 1, "shop": -1}

    def test_from_state_matches_sequential_build(self, base):
        adds = {
            10: _obj(10, 3.0, 3.0, ["cafe"]),
            11: _obj(11, 4.0, 4.0, ["cafe", "shop"]),
        }
        sequential = (
            DeltaOverlay()
            .with_insert(adds[10])
            .with_insert(adds[11])
            .with_delete(2, tuple(sorted(base[2].keywords)))
        )
        bulk = DeltaOverlay.from_state(adds, {2}, base)
        assert bulk.adds == sequential.adds
        assert bulk.tombstones == sequential.tombstones
        assert bulk.keyword_map == sequential.keyword_map
        assert bulk.freq_delta == sequential.freq_delta

    def test_from_state_rejects_add_and_tombstone_overlap(self, base):
        with pytest.raises(DatasetError):
            DeltaOverlay.from_state({2: _obj(2, 0.0, 0.0, ["x"])}, {2}, base)


class TestLiveView:
    def test_merged_membership(self, base):
        delta = (
            DeltaOverlay()
            .with_insert(_obj(10, 5.0, 5.0, ["cafe"]))
            .with_delete(1, ("shop",))
        )
        view = LiveView(base, delta)
        assert len(view) == 4  # 4 base - 1 tombstone + 1 add
        assert 0 in view and 10 in view
        assert 1 not in view
        assert view.get(1) is None
        with pytest.raises(KeyError):
            view[1]
        assert view.live_oids() == [0, 2, 3, 10]
        assert {obj.oid for obj in view} == {0, 2, 3, 10}

    def test_records_roundtrip_through_seal(self, base):
        delta = (
            DeltaOverlay()
            .with_insert(_obj(10, 5.0, 5.0, ["cafe"]))
            .with_delete(0, ("shrine",))
        )
        view = LiveView(base, delta)
        resealed = Dataset.seal(view.records(), name="resealed")
        assert [o.oid for o in resealed] == view.live_oids()
        assert resealed[10].keywords == frozenset({"cafe"})

    def test_vocabulary_extends_base_ids(self, base):
        delta = DeltaOverlay().with_insert(_obj(10, 5.0, 5.0, ["zoo", "cafe"]))
        view = LiveView(base, delta)
        vocab = view.vocabulary
        # Base term ids must be unchanged by the overlay.
        for term in ("shrine", "shop", "restaurant", "hotel"):
            assert vocab.id_of(term) == base.vocabulary.id_of(term)
        # Delta-only terms get fresh ids past the base vocabulary.
        for term in ("cafe", "zoo"):
            assert term in vocab
            tid = vocab.id_of(term)
            assert tid >= vocab.base_size
            assert vocab.term_of(tid) == term
        assert len(vocab) == len(base.vocabulary) + 2

    def test_vocabulary_frequency_merges_delta(self, base):
        delta = (
            DeltaOverlay()
            .with_insert(_obj(10, 5.0, 5.0, ["shop"]))
            .with_delete(0, ("shrine",))
        )
        vocab = LiveView(base, delta).vocabulary
        assert vocab.frequency("shop") == 3  # 2 base + 1 add
        assert vocab.frequency("shrine") == 0  # the only holder deleted
        assert vocab.least_frequent(["shop", "hotel"]) == "hotel"

    def test_inverted_merges_and_subtracts(self, base):
        delta = (
            DeltaOverlay()
            .with_insert(_obj(10, 5.0, 5.0, ["shop"]))
            .with_delete(2, ("restaurant", "shop"))
        )
        view = LiveView(base, delta)
        shop = view.inverted.posting(view.vocabulary.id_of("shop"))
        assert shop == [1, 10]
        restaurant = view.inverted.posting(view.vocabulary.id_of("restaurant"))
        assert restaurant == []
        assert view.inverted.uncoverable_terms(
            [view.vocabulary.id_of("restaurant")]
        ) == [view.vocabulary.id_of("restaurant")]

    def test_adapters_match_objects(self, base):
        delta = DeltaOverlay().with_insert(_obj(10, 5.0, 6.0, ["cafe"]))
        view = LiveView(base, delta)
        assert view.location_of(10) == (5.0, 6.0)
        assert view.location_of(0) == (0.0, 0.0)
        assert view.term_ids_of(10) == (view.vocabulary.id_of("cafe"),)
        assert view.global_mask_of(10) == 1 << view.vocabulary.id_of("cafe")


class TestLiveIndex:
    def test_range_circle_merges_and_filters(self, base):
        delta = (
            DeltaOverlay()
            .with_insert(_obj(10, 1.5, 1.5, ["cafe"]))
            .with_delete(1, ("shop",))
        )
        index = LiveView(base, delta).index()
        got = {e.item for e in index.range_circle(1.0, 1.0, 1.5)}
        assert 10 in got          # delta add inside the disc
        assert 1 not in got       # tombstoned base hit filtered
        assert 0 in got and 2 in got

    def test_nearest_with_mask_prefers_closer_delta_add(self, base):
        delta = DeltaOverlay().with_insert(_obj(10, 1.1, 1.1, ["shop"]))
        view = LiveView(base, delta)
        index = view.index()
        mask = 1 << view.vocabulary.id_of("shop")
        got = index.nearest_with_mask(1.2, 1.2, mask)
        assert got is not None and got.item == 10

    def test_nearest_with_mask_skips_tombstones(self, base):
        delta = DeltaOverlay().with_delete(1, ("shop",))
        view = LiveView(base, delta)
        index = view.index()
        mask = 1 << view.vocabulary.id_of("shop")
        got = index.nearest_with_mask(1.0, 1.0, mask)
        assert got is not None and got.item == 2  # next live shop holder

    def test_nearest_holder_distances_match_a_loop(self):
        """The vectorised slab scan against a plain loop over live objects:
        exact wherever the nearest holder is within the bound, never below
        the true distance beyond it; a gathered pair lists exactly the live
        holders within its bound, with their coordinates; anchors report
        liveness."""
        rng = random.Random(5)
        terms = ["a", "b", "c", "d"]
        records = [
            (oid, rng.uniform(0, 50), rng.uniform(0, 50), rng.sample(terms, rng.randint(1, 2)))
            for oid in range(120)
        ]
        base = Dataset.seal(records, name="slab")
        delta = DeltaOverlay(vocab=base.vocabulary)
        for oid in rng.sample(range(120), 25):
            delta = delta.with_delete(oid, tuple(records[oid][3]))
        # Many adds (some with a delta-only term), a third of them deleted
        # again, in batches: the add rows are slab-filtered like the base.
        for first in range(200, 400, 20):
            batch = [
                _obj(
                    oid, rng.uniform(0, 50), rng.uniform(0, 50),
                    rng.sample(terms + ["new"], rng.randint(1, 2)),
                )
                for oid in range(first, first + 20)
            ]
            delta = delta.with_batch(inserts=batch)
            victims = rng.sample(sorted(delta.adds), 7)
            delta = delta.with_batch(
                deletes=[(oid, tuple(delta.adds[oid].keywords)) for oid in victims]
            )
        assert len(delta.add_rows) == len(delta.adds) == 130
        view = LiveView(base, delta)
        pairs = [
            ((rng.uniform(-5, 55), rng.uniform(-5, 55)), rng.choice(terms + ["new", "zz"]), rng.choice([0.0, 3.0, 8.0, math.inf]))
            for _ in range(400)
        ]
        gather = [rng.random() < 0.5 for _ in pairs]
        anchors = [0, 5, 150, 205, 399, 10**6]
        got = view.nearest_holders(
            [p for p, _t, _w in pairs], [t for _p, t, _w in pairs],
            [w for _p, _t, w in pairs], gather, anchors,
        )
        assert got.anchors_live.tolist() == [oid in view for oid in anchors]
        for i, ((x, y), term, within) in enumerate(pairs):
            dist = got.distance[i]
            holders = {
                o.oid: math.hypot(o.x - x, o.y - y) for o in view if term in o.keywords
            }
            want = min(holders.values(), default=math.inf)
            if want == math.inf:
                assert dist == math.inf
            elif want <= within:
                assert dist == pytest.approx(want, rel=1e-12, abs=1e-12)
            else:
                assert dist >= want * (1 - 1e-12)
            listed = got.reach_oid[got.reach_pair == i].tolist()
            assert len(listed) == len(set(listed))
            if gather[i]:
                assert set(listed) == {o for o, d in holders.items() if d <= within}
                for oid, (hx, hy) in zip(listed, got.reach_xy[got.reach_pair == i]):
                    assert (hx, hy) == (view[oid].x, view[oid].y)
            else:
                assert not listed

    def test_keyword_holders(self, base):
        delta = (
            DeltaOverlay()
            .with_insert(_obj(10, 5.0, 5.0, ["shop", "cafe"]))
            .with_delete(1, ("shop",))
        )
        index = LiveView(base, delta).index()
        assert index.keyword_holders("shop") == [2, 10]
        assert index.keyword_holders("cafe") == [10]
        assert index.keyword_holders("nonexistent") == []

    def test_item_mask_of_dead_object_is_zero(self, base):
        delta = DeltaOverlay().with_delete(1, ("shop",))
        index = LiveView(base, delta).index()
        assert index.item_mask(1) == 0
        assert index.item_mask(0) != 0


def test_seal_equals_a_seal_of_the_records(base):
    """Compaction's numpy-folded store is the one sealing the records builds."""
    delta = (
        DeltaOverlay(vocab=base.vocabulary)
        .with_insert(_obj(10, 5.0, 5.0, ["zoo", "cafe", "shop"]))
        .with_insert(_obj(11, 6.0, 7.0, ["bar"]))
        .with_insert(_obj(12, 1.0, 9.0, ["cafe"]))
        .with_delete(1, ("shop",))
        .with_delete(11, ("bar",))     # a deleted add's delta-only term
        .with_delete(3, ("hotel",))    # the only holder of a base term
    )
    view = LiveView(base, delta)
    want_base = Dataset.seal(view.records(), name="resealed")
    got_base = view.seal("resealed")
    got, want = got_base.columns, want_base.columns
    for name in ("oids", "xs", "ys", "term_indptr", "term_ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.term_ids.dtype == want.term_ids.dtype
    assert got_base.vocabulary.terms() == want_base.vocabulary.terms()
    for term in want_base.vocabulary.terms():
        assert got_base.vocabulary.frequency(term) == want_base.vocabulary.frequency(term)


class TestRebase:
    def test_fully_sealed_delta_rebases_to_empty(self, base):
        delta = (
            DeltaOverlay()
            .with_insert(_obj(10, 5.0, 5.0, ["cafe"]))
            .with_delete(1, ("shop",))
        )
        new_base = Dataset.seal(LiveView(base, delta).records())
        residual = delta.rebase(new_base)
        assert residual.is_empty()

    def test_post_seal_mutations_survive(self, base):
        sealed_delta = DeltaOverlay().with_insert(_obj(10, 5.0, 5.0, ["cafe"]))
        new_base = Dataset.seal(LiveView(base, sealed_delta).records())
        # Mutations landing after the compactor took its snapshot:
        later = (
            sealed_delta
            .with_insert(_obj(11, 6.0, 6.0, ["bar"]))   # not in new_base
            .with_delete(10, ("cafe",))                  # victim IS sealed now
        )
        residual = later.rebase(new_base)
        assert set(residual.adds) == {11}
        assert residual.tombstones == frozenset({10})
        # The rebased view over the new base shows exactly the right set.
        view = LiveView(new_base, residual)
        assert view.live_oids() == [0, 1, 2, 3, 11]

    def test_delete_of_unsealed_add_cancels_out(self, base):
        delta = (
            DeltaOverlay()
            .with_insert(_obj(10, 5.0, 5.0, ["cafe"]))
            .with_delete(10, ("cafe",))
        )
        residual = delta.rebase(base)  # 10 never reached any base
        assert residual.is_empty()


def test_view_len_is_consistent_with_iteration(base):
    delta = (
        DeltaOverlay()
        .with_insert(_obj(10, 5.0, 5.0, ["cafe"]))
        .with_insert(_obj(11, 6.0, 6.0, ["cafe"]))
        .with_delete(3, ("hotel",))
    )
    view = LiveView(base, delta)
    assert len(view) == len(list(view)) == len(BASE_RECORDS) + 2 - 1
    assert math.isclose(view.location_of(10)[0], 5.0)
