"""Tests for the inverted keyword file."""

from repro.index.columns import ColumnarStore
from repro.index.inverted import InvertedIndex


def _index(rows):
    """An inverted file over ``(oid, term_ids)`` rows (oids ascending)."""
    return InvertedIndex(
        ColumnarStore.from_rows((oid, 0.0, 0.0, tids) for oid, tids in rows)
    )


def _build():
    return _index([(0, [1, 2]), (1, [2, 3]), (2, [1]), (3, [3, 4])])


class TestPostings:
    def test_posting_sorted(self):
        idx = _build()
        assert idx.posting(1) == [0, 2]
        assert idx.posting(2) == [0, 1]

    def test_posting_unknown_term_empty(self):
        assert _build().posting(99) == []

    def test_document_frequency(self):
        idx = _build()
        assert idx.document_frequency(3) == 2
        assert idx.document_frequency(4) == 1
        assert idx.document_frequency(42) == 0

    def test_sparse_oids_translate_rows(self):
        idx = _index([(4, [5]), (7, [5, 6]), (30, [6])])
        assert idx.posting(5) == [4, 7]
        assert idx.posting(6) == [7, 30]
        assert idx.relevant_objects([5, 6]) == [4, 7, 30]


class TestRelevantObjects:
    def test_union_sorted(self):
        idx = _build()
        assert idx.relevant_objects([1, 3]) == [0, 1, 2, 3]

    def test_single_term(self):
        assert _build().relevant_objects([4]) == [3]

    def test_no_terms(self):
        assert _build().relevant_objects([]) == []

    def test_overlapping_postings_deduped(self):
        assert _build().relevant_objects([1, 2]) == [0, 1, 2]


class TestUncoverable:
    def test_detects_missing_terms(self):
        idx = _build()
        assert idx.uncoverable_terms([1, 9, 4, 77]) == [9, 77]

    def test_all_present(self):
        assert _build().uncoverable_terms([1, 2, 3, 4]) == []


class TestDunder:
    def test_len_counts_terms(self):
        assert len(_build()) == 4

    def test_contains(self):
        idx = _build()
        assert 1 in idx
        assert 9 not in idx


class TestObjectsWithAllTerms:
    def _reference(self, idx, term_ids):
        acc = None
        for tid in term_ids:
            holders = set(idx.posting(tid))
            acc = holders if acc is None else (acc & holders)
        return sorted(acc or ())

    def test_simple_intersection(self):
        idx = _build()
        assert idx.objects_with_all_terms([1, 2]) == [0]
        assert idx.objects_with_all_terms([2, 3]) == [1]
        assert idx.objects_with_all_terms([1, 4]) == []

    def test_empty_and_duplicate_terms(self):
        idx = _build()
        assert idx.objects_with_all_terms([]) == []
        assert idx.objects_with_all_terms([1, 1, 2]) == [0]

    def test_unknown_term_short_circuits(self):
        assert _build().objects_with_all_terms([1, 99]) == []

    def test_merge_bitmap_and_scalar_strategies_agree(self):
        """Dense postings route through the bitmap path, sparse ones
        through the sorted merge, the object path through sets — all
        three must return the identical sorted id list."""
        import random

        from repro.kernels import scalar_kernels

        rng = random.Random(0xA11)
        # Term 0: dense (most objects) -> bitmap path once it is the
        # smallest remaining column; terms 1..5: increasingly sparse.
        rows = []
        for oid in range(500):
            terms = [0] if rng.random() < 0.9 else []
            terms += [t for t in range(1, 6) if rng.random() < 0.3 / t]
            rows.append((oid, terms))
        idx = _index(rows)

        queries = [[0, 1], [1, 2, 3], [0, 1, 2, 3, 4, 5], [5], [2, 4]]
        for q in queries:
            expected = self._reference(idx, q)
            assert idx.objects_with_all_terms(q) == expected
            with scalar_kernels():
                assert idx.objects_with_all_terms(q) == expected
