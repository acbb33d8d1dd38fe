"""Inverted keyword file: term id -> posting list of object ids.

The virtual bR*-tree method [22] reads the relevant objects for a query
from an inverted file before building its per-query tree; GKG and the
SKEC-family algorithms use the same posting lists to materialise ``O'``,
the set of objects containing at least one query keyword (paper §4).

Posting lists are kept sorted by object id, which makes the set algebra
columnar: the ``O'`` union and the all-terms intersection both run as
sorted-array merges over contiguous int64 columns.  Dense intersections
can also route through a bitmap — one boolean column over the id space —
which beats the k-way merge when the lists are large relative to the
universe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .columns import ColumnarStore

__all__ = ["InvertedIndex"]

#: Intersection strategy flips to a bitmap when the smallest posting list
#: covers at least this fraction of the id universe — below that, the
#: sorted-merge touches far less memory than a universe-wide column.
_BITMAP_DENSITY = 0.05


class InvertedIndex:
    """Posting lists over integer term ids: a view of a store's postings.

    Lists are read off the store's term-major CSR
    (:attr:`~repro.index.columns.ColumnarStore.postings`) and translated
    to object ids, so they are sorted by object id, which makes unions
    (the ``O'`` computation) cheap and the output deterministic.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "ColumnarStore") -> None:
        self._store = store

    def posting(self, term_id: int) -> List[int]:
        """Object ids containing ``term_id`` (empty list when unseen)."""
        return self.posting_column(term_id).tolist()

    def posting_column(self, term_id) -> np.ndarray:
        """The posting list as a sorted, deduplicated int64 column.

        A sequence of term ids gives the union of their lists: the paper's
        ``O'`` for a query.
        """
        store = self._store
        rows = store.holder_positions(term_id)
        return rows if store.dense else store.oids[rows]

    def document_frequency(self, term_id: int) -> int:
        return len(self._store.holder_positions(term_id))

    def objects_with_all_terms(self, term_ids: Sequence[int]) -> List[int]:
        """Sorted intersection of posting lists: objects holding every term.

        An object here covers the whole query alone (the degenerate
        optimal answer with diameter 0).  Two columnar strategies:

        * **sorted-array merge** — successive ``np.intersect1d`` starting
          from the shortest list, so the working set only shrinks;
        * **bitmap** — when the shortest list is dense in the id universe,
          one boolean column per remaining term, AND-ed in place.

        Both produce the identical sorted id list.
        """
        wanted = list(dict.fromkeys(term_ids))
        if not wanted:
            return []
        cols = sorted(
            (self.posting_column(tid) for tid in wanted), key=len
        )
        smallest = cols[0]
        if len(smallest) == 0:
            return []
        universe = int(smallest[-1]) + 1
        if len(cols) > 1 and len(smallest) >= universe * _BITMAP_DENSITY:
            alive = np.zeros(universe, dtype=bool)
            alive[smallest] = True
            for col in cols[1:]:
                mask = np.zeros(universe, dtype=bool)
                inside = col[col < universe]
                mask[inside] = True
                alive &= mask
                if not alive.any():
                    return []
            return np.flatnonzero(alive).tolist()
        acc_col = smallest
        for col in cols[1:]:
            acc_col = np.intersect1d(acc_col, col, assume_unique=True)
            if len(acc_col) == 0:
                return []
        return acc_col.tolist()

    def uncoverable_terms(self, term_ids: Sequence[int]) -> List[int]:
        """Query term ids with empty posting lists (query infeasible)."""
        return [tid for tid in term_ids if not self.document_frequency(tid)]

    def __len__(self) -> int:
        """Number of terms with at least one holder."""
        return int(np.count_nonzero(np.diff(self._store.postings[0])))

    def __contains__(self, term_id: int) -> bool:
        return self.document_frequency(term_id) > 0
