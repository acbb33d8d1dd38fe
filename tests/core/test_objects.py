"""Tests for GeoObject and Dataset."""

import numpy as np
import pytest

from repro.core.objects import Dataset, GeoObject
from repro.exceptions import DatasetError


class TestGeoObject:
    def test_location(self):
        o = GeoObject(0, 1.5, 2.5, frozenset({"a"}))
        assert o.location == (1.5, 2.5)

    def test_covers(self):
        o = GeoObject(0, 0, 0, frozenset({"a", "b"}))
        assert o.covers(["a"])
        assert o.covers(["a", "b"])
        assert not o.covers(["a", "c"])

    def test_frozen(self):
        o = GeoObject(0, 0, 0, frozenset({"a"}))
        with pytest.raises(AttributeError):
            o.x = 5  # type: ignore[misc]


class TestDatasetConstruction:
    def test_from_records(self):
        ds = Dataset.from_records([(0, 0, ["a"]), (1, 1, ["b", "c"])])
        assert len(ds) == 2
        assert ds[1].keywords == frozenset({"b", "c"})

    def test_ids_dense(self):
        ds = Dataset.from_records([(i, i, ["x"]) for i in range(5)])
        assert [o.oid for o in ds] == list(range(5))

    def test_requires_keywords(self):
        ds = Dataset()
        with pytest.raises(DatasetError):
            ds.add(0, 0, [])

    def test_add_after_finalize_rejected(self):
        ds = Dataset.from_records([(0, 0, ["a"])])
        with pytest.raises(DatasetError):
            ds.add(1, 1, ["b"])

    def test_finalize_idempotent(self):
        ds = Dataset.from_records([(0, 0, ["a"])])
        ds.finalize()
        assert len(ds) == 1

    def test_coords_requires_finalize(self):
        ds = Dataset()
        ds.add(0, 0, ["a"])
        with pytest.raises(DatasetError):
            _ = ds.coords


class TestDatasetAccessors:
    @pytest.fixture
    def ds(self):
        return Dataset.from_records(
            [(0, 0, ["a", "b"]), (3, 4, ["b"]), (6, 8, ["c"])]
        )

    def test_coords_array(self, ds):
        assert ds.coords.shape == (3, 2)
        assert tuple(ds.coords[1]) == (3.0, 4.0)

    def test_location_of(self, ds):
        assert ds.location_of(2) == (6.0, 8.0)

    def test_term_ids_sorted(self, ds):
        tids = ds.term_ids_of(0)
        assert list(tids) == sorted(tids)
        assert len(tids) == 2

    def test_inverted_index_populated(self, ds):
        b_id = ds.vocabulary.id_of("b")
        assert ds.inverted.posting(b_id) == [0, 1]

    def test_vocabulary_frequencies(self, ds):
        assert ds.vocabulary.frequency("b") == 2
        assert ds.vocabulary.frequency("c") == 1


class TestDatasetStatsAndIndex:
    def test_word_counts(self):
        ds = Dataset.from_records([(0, 0, ["a", "b"]), (1, 1, ["b"])])
        assert ds.unique_word_count() == 2
        assert ds.total_word_count() == 3

    def test_extent_diameter(self):
        ds = Dataset.from_records([(0, 0, ["a"]), (3, 4, ["b"])])
        assert ds.extent_diameter() == pytest.approx(5.0)

    def test_brtree_cached(self):
        ds = Dataset.from_records([(i, i % 3, ["t"]) for i in range(20)])
        t1 = ds.brtree()
        t2 = ds.brtree()
        assert t1 is t2
        assert len(t1) == 20

    def test_brtree_built_once_under_racing_threads(self):
        import threading

        ds = Dataset.from_records([(i, i % 7, [f"t{i % 5}"]) for i in range(400)])
        start = threading.Barrier(8)
        trees = []

        def build():
            start.wait()
            trees.append(ds.brtree())

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(trees) == 8
        assert all(tree is trees[0] for tree in trees)

    def test_brtree_mask_reflects_keywords(self):
        ds = Dataset.from_records([(0, 0, ["x"]), (5, 5, ["y"])])
        tree = ds.brtree()
        x_bit = 1 << ds.vocabulary.id_of("x")
        entry = tree.nearest_with_mask(0, 0, x_bit)
        assert entry is not None and entry.item == 0

    def test_duplicate_keywords_dedup(self):
        ds = Dataset.from_records([(0, 0, ["a", "a", "a"])])
        assert ds[0].keywords == frozenset({"a"})
        assert ds.total_word_count() == 1
