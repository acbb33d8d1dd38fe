"""Tests for the per-query virtual bR*-tree."""

import math

import numpy as np
import pytest

from repro.core.objects import Dataset
from repro.exceptions import InfeasibleQueryError
from repro.index.virtual import VirtualBRTree


def _fixture():
    """Five objects over terms {0: alpha, 1: beta, 2: gamma, 3: delta}."""
    locations = {0: (0, 0), 1: (1, 0), 2: (5, 5), 3: (9, 9), 4: (2, 2)}
    keywords = {
        0: ["alpha"], 1: ["beta"], 2: ["alpha", "gamma"], 3: ["delta"],
        4: ["beta", "gamma"],
    }
    dataset = Dataset.seal(
        (oid, x, y, keywords[oid]) for oid, (x, y) in locations.items()
    )
    assert dataset.vocabulary.terms() == ["alpha", "beta", "gamma", "delta"]
    return locations, dataset


class TestBuild:
    def test_relevant_objects_only(self):
        locations, dataset = _fixture()
        vt = VirtualBRTree.build(dataset, [0, 1])
        # Terms 0 and 1 appear in objects 0, 1, 2, 4 (object 3 has only term 3).
        assert vt.object_ids == [0, 1, 2, 4]
        assert len(vt) == 4

    def test_query_local_masks(self):
        locations, dataset = _fixture()
        vt = VirtualBRTree.build(dataset, [1, 0])
        # Query order [1, 0]: bit 0 = term 1, bit 1 = term 0.
        assert vt.mask_of(1) == 0b01  # object 1 holds term 1
        assert vt.mask_of(0) == 0b10  # object 0 holds term 0
        assert vt.mask_of(2) == 0b10  # term 2 not in query, term 0 is

    def test_full_mask(self):
        locations, dataset = _fixture()
        vt = VirtualBRTree.build(dataset, [0, 1, 2])
        assert vt.full_mask == 0b111

    def test_infeasible_raises(self):
        locations, dataset = _fixture()
        with pytest.raises(InfeasibleQueryError):
            VirtualBRTree.build(dataset, [0, 99])

    def test_infeasible_reports_term_names(self):
        locations, dataset = _fixture()
        with pytest.raises(InfeasibleQueryError) as exc:
            VirtualBRTree.build(
                dataset, [0, 99],
                query_terms=["alpha", "missing"],
            )
        assert exc.value.missing_keywords == ("missing",)

    def test_coords_row_aligned(self):
        locations, dataset = _fixture()
        vt = VirtualBRTree.build(dataset, [0, 1])
        for oid in vt.object_ids:
            row = vt.row_of(oid)
            assert tuple(vt.coords[row]) == locations[oid]


class TestQueries:
    def test_rows_within(self):
        locations, dataset = _fixture()
        vt = VirtualBRTree.build(dataset, [0, 1])
        rows = vt.rows_within(0.0, 0.0, 1.5)
        got_oids = sorted(vt.object_ids[r] for r in rows)
        assert got_oids == [0, 1]

    def test_rows_within_closed_boundary(self):
        locations, dataset = _fixture()
        vt = VirtualBRTree.build(dataset, [0, 1])
        rows = vt.rows_within(0.0, 0.0, 1.0)  # object 1 at distance exactly 1
        assert 1 in {vt.object_ids[r] for r in rows}

    def test_union_mask_and_covers(self):
        locations, dataset = _fixture()
        vt = VirtualBRTree.build(dataset, [0, 1])
        r0, r1 = vt.row_of(0), vt.row_of(1)
        assert vt.union_mask([r0]) == 0b01
        assert not vt.covers_query([r0])
        assert vt.covers_query([r0, r1])

    def test_location_of(self):
        locations, dataset = _fixture()
        vt = VirtualBRTree.build(dataset, [0, 1, 2, 3])
        assert vt.location_of(3) == (9, 9)

    def test_underlying_tree_consistent(self):
        locations, dataset = _fixture()
        vt = VirtualBRTree.build(dataset, [0, 1, 2, 3])
        vt.tree.check_invariants()
        items = sorted(e.item for e in vt.tree.iter_leaf_entries())
        assert items == vt.object_ids
