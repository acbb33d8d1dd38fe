"""Virtual bR*-tree: the per-query index of Zhang et al. [22].

The original proposal stores an inverted file from keywords to R*-tree
nodes and objects, and at query time assembles a small "virtual" bR*-tree
containing only the objects relevant to the query.  The decisive property —
the one the paper's experiments exercise — is that the tree seen by the
search algorithm covers *only* ``O'`` (objects holding at least one query
keyword), making it far smaller than the full index.

We reproduce that property directly: the posting lists of the query's terms
are unioned into ``O'`` and a compact bR*-tree is bulk-loaded bottom-up over
just those objects, with keyword bitmaps remapped to query-local bits
(bit ``i`` = query keyword ``i``), so coverage tests inside the algorithms
are single mask comparisons.

``O'`` is materialised batch-wise from the store's
:class:`~repro.index.columns.ColumnarStore` — coordinate gathers plus one
``bitwise_or.reduceat`` over the CSR keyword column; the tree itself is
bulk-loaded lazily on first access, since the default algorithm paths
never descend it (their range scans run on the packed coordinate array).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import InfeasibleQueryError
from .brtree import BRStarTree

__all__ = ["VirtualBRTree"]


class VirtualBRTree:
    """A query-scoped bR*-tree over the relevant objects ``O'``.

    Attributes
    ----------
    object_ids:
        Sorted ids of the relevant objects (the paper's ``O'``).
    coords:
        ``(len(O'), 2)`` float64 array of their locations, row-aligned with
        ``object_ids`` — the algorithms vectorise their sweeping-area range
        queries over this array.
    masks:
        Query-local keyword masks, row-aligned with ``object_ids``.
    masks_np:
        The same masks as a flat uint64 column when ``m <= 64``, else None.
    full_mask:
        ``(1 << m) - 1``; a group covers the query iff the OR of its masks
        equals this value.
    """

    def __init__(
        self,
        object_ids: List[int],
        coords: np.ndarray,
        masks: List[int],
        full_mask: int,
        masks_np: Optional[np.ndarray] = None,
        max_entries: int = 100,
    ):
        self.object_ids = object_ids
        self.coords = coords
        self.masks = masks
        self.full_mask = full_mask
        self.masks_np = masks_np
        self._tree: Optional[BRStarTree] = None
        self._max_entries = max_entries

    @property
    def tree(self) -> BRStarTree:
        """The bulk-loaded bR*-tree over O' (built lazily on first use).

        Only index-descending strategies (GKG ``method="brtree"``, the
        VirbR baseline) touch the tree; the default algorithm paths range-
        scan the packed arrays, so most queries never pay for the build.
        """
        if self._tree is None:
            records = (
                (oid, self.coords[row, 0], self.coords[row, 1], self.masks[row])
                for row, oid in enumerate(self.object_ids)
            )
            self._tree = BRStarTree.build(records, max_entries=self._max_entries)
        return self._tree

    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        source,
        query_term_ids: Sequence[int],
        max_entries: int = 100,
        query_terms: Optional[Sequence[str]] = None,
        exclude: Optional[frozenset] = None,
    ) -> "VirtualBRTree":
        """Assemble the virtual tree for one query.

        Parameters
        ----------
        source:
            The dataset-shaped store: its ``inverted`` file and its
            struct-of-arrays ``columns``, from which O' is gathered.
        query_term_ids:
            Global term ids of the m query keywords, in query order.
        query_terms:
            Optional keyword strings, used only to report infeasibility.
        exclude:
            Object ids to drop from O' (used by the top-k extension to
            forbid already-returned groups' members).

        Raises
        ------
        InfeasibleQueryError
            When some query keyword appears in no (non-excluded) object.
        """

        def infeasible(missing):
            names: Sequence = missing
            if query_terms is not None:
                pos = {tid: i for i, tid in enumerate(query_term_ids)}
                names = [query_terms[pos[tid]] for tid in missing]
            return InfeasibleQueryError(names)

        inverted = source.inverted
        missing = inverted.uncoverable_terms(query_term_ids)
        if missing:
            raise infeasible(missing)

        local_bit = {tid: 1 << i for i, tid in enumerate(query_term_ids)}
        oid_column, coords, mask_column = cls.gather(source, local_bit, exclude)
        object_ids = oid_column.tolist()
        full_mask = (1 << len(query_term_ids)) - 1
        masks: List[int] = mask_column.tolist()
        # Past 64 keywords the masks are Python ints in an object column.
        masks_np = mask_column if mask_column.dtype == np.uint64 else None

        if exclude:
            covered = 0
            for mask in masks:
                covered |= mask
            missing = [
                tid for i, tid in enumerate(query_term_ids) if not covered >> i & 1
            ]
            if missing:
                raise infeasible(missing)

        return cls(
            object_ids,
            coords,
            masks,
            full_mask,
            masks_np=masks_np,
            max_entries=max_entries,
        )

    @staticmethod
    def gather(source, bit_of_term, exclude: Optional[frozenset] = None):
        """``(oids, coords, masks)`` columns of every holder of a query term.

        ``bit_of_term`` maps a global term id to its query-local bit value;
        oids ascend and the other two columns are row-aligned.
        """
        object_ids = source.inverted.posting_column(list(bit_of_term))
        if exclude:
            object_ids = object_ids[~np.isin(object_ids, list(exclude))]
        columns = source.columns
        positions = columns.positions_of(object_ids)
        return (
            object_ids,
            columns.coords_of(positions),
            columns.query_masks(positions, bit_of_term),
        )

    # ------------------------------------------------------------------ #
    # Row-level helpers used by the algorithms.
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.object_ids)

    def row_of(self, object_id: int) -> int:
        """The O' row index of a relevant object id (``object_ids`` is sorted)."""
        row = bisect_left(self.object_ids, object_id)
        if row == len(self.object_ids) or self.object_ids[row] != object_id:
            raise KeyError(object_id)
        return row

    def mask_of(self, object_id: int) -> int:
        """The query-local keyword mask of a relevant object."""
        return self.masks[self.row_of(object_id)]

    def location_of(self, object_id: int):
        """The (x, y) location of a relevant object."""
        row = self.row_of(object_id)
        return (self.coords[row, 0], self.coords[row, 1])

    def rows_within(self, cx: float, cy: float, r: float) -> np.ndarray:
        """Row indices of relevant objects in the closed disc (vectorised)."""
        dx = self.coords[:, 0] - cx
        dy = self.coords[:, 1] - cy
        limit = r * r * (1.0 + 1e-12) + 1e-18
        return np.nonzero(dx * dx + dy * dy <= limit)[0]

    def union_mask(self, rows) -> int:
        """The OR of the rows' query-local masks."""
        mask = 0
        masks = self.masks
        for row in rows:
            mask |= masks[row]
        return mask

    def covers_query(self, rows) -> bool:
        """True when the rows' keywords cover all m query keywords."""
        mask = 0
        full = self.full_mask
        masks = self.masks
        for row in rows:
            mask |= masks[row]
            if mask == full:
                return True
        return False
