"""Inverted keyword file: term id -> posting list of object ids.

The virtual bR*-tree method [22] reads the relevant objects for a query
from an inverted file before building its per-query tree; GKG and the
SKEC-family algorithms use the same posting lists to materialise ``O'``,
the set of objects containing at least one query keyword (paper §4).

Posting lists are kept sorted by object id, which makes the set algebra
columnar: the ``O'`` union and the all-terms intersection both run as
sorted-array merges over contiguous int64 columns when the vectorized
kernels are enabled (falling back to Python sets on the object path).
Dense intersections can also route through a bitmap — one boolean column
over the id space — which beats the k-way merge when the lists are large
relative to the universe.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from ..kernels import vectorized_enabled

__all__ = ["InvertedIndex"]

#: Intersection strategy flips to a bitmap when the smallest posting list
#: covers at least this fraction of the id universe — below that, the
#: sorted-merge touches far less memory than a universe-wide column.
_BITMAP_DENSITY = 0.05


class InvertedIndex:
    """Posting lists over integer term ids.

    Lists are kept sorted by object id, which makes unions (the ``O'``
    computation) cheap and the output deterministic.
    """

    def __init__(self) -> None:
        self._postings: Dict[int, List[int]] = {}
        #: Sorted int64 posting columns, materialised lazily per term and
        #: dropped whenever the term's list changes.
        self._columns: Dict[int, np.ndarray] = {}
        #: True while every list is sorted and deduplicated.
        self._finalized = True

    def add_object(self, object_id: int, term_ids: Iterable[int]) -> None:
        for tid in term_ids:
            self._postings.setdefault(tid, []).append(object_id)
            self._columns.pop(tid, None)
        self._finalized = False

    def finalize(self) -> None:
        """Sort and deduplicate all posting lists (idempotent)."""
        for tid, lst in self._postings.items():
            if len(lst) > 1:
                self._postings[tid] = sorted(set(lst))
        self._finalized = True

    def posting(self, term_id: int) -> List[int]:
        """Object ids containing ``term_id`` (empty list when unseen)."""
        return self._postings.get(term_id, [])

    def posting_column(self, term_id: int) -> np.ndarray:
        """The posting list as a sorted, deduplicated int64 column."""
        col = self._columns.get(term_id)
        if col is None:
            col = np.asarray(self._postings.get(term_id, ()), dtype=np.int64)
            if not self._finalized:
                col = np.unique(col)
            self._columns[term_id] = col
        return col

    def document_frequency(self, term_id: int) -> int:
        return len(self._postings.get(term_id, ()))

    def relevant_objects(self, term_ids: Sequence[int]) -> List[int]:
        """Sorted union of posting lists: the paper's ``O'`` for a query."""
        if vectorized_enabled():
            cols = [self.posting_column(tid) for tid in set(term_ids)]
            cols = [c for c in cols if len(c)]
            if not cols:
                return []
            if len(cols) == 1:
                return cols[0].tolist()
            merged = np.unique(np.concatenate(cols))
            return merged.tolist()
        merged_set: Set[int] = set()
        for tid in term_ids:
            merged_set.update(self._postings.get(tid, ()))
        return sorted(merged_set)

    def objects_with_all_terms(self, term_ids: Sequence[int]) -> List[int]:
        """Sorted intersection of posting lists: objects holding every term.

        An object here covers the whole query alone (the degenerate
        optimal answer with diameter 0).  Two columnar strategies:

        * **sorted-array merge** — successive ``np.intersect1d`` starting
          from the shortest list, so the working set only shrinks;
        * **bitmap** — when the shortest list is dense in the id universe,
          one boolean column per remaining term, AND-ed in place.

        Both produce the identical sorted id list; the object path uses
        Python sets.
        """
        wanted = list(dict.fromkeys(term_ids))
        if not wanted:
            return []
        if not vectorized_enabled():
            acc: Optional[Set[int]] = None
            for tid in wanted:
                holders = set(self._postings.get(tid, ()))
                acc = holders if acc is None else (acc & holders)
                if not acc:
                    return []
            return sorted(acc or ())
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
        return [tid for tid in term_ids if not self._postings.get(tid)]

    def __len__(self) -> int:
        return len(self._postings)

    def __contains__(self, term_id: int) -> bool:
        return term_id in self._postings
