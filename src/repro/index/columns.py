"""Struct-of-arrays columnar storage for geo-textual objects.

A :class:`ColumnarStore` holds the objects of a sealed
:class:`~repro.core.objects.Dataset` (its source of truth) and of a live
delta's add rows: contiguous ``x`` / ``y`` coordinate columns, the
object-id column, the keyword sets flattened to a CSR pair
(``term_indptr``, ``term_ids``), and the term-major posting CSR over them
(:attr:`~ColumnarStore.postings`).  The compiled query surface gathers
from these columns batch-wise — materialising ``O'`` for a query becomes
a handful of numpy gathers and one ``bitwise_or.reduceat`` instead of a
Python loop over objects and their keyword tuples.

Stores are immutable once built.  Dense stores (object ids are exactly
``0..n-1``) resolve ids by direct indexing; sparse stores (a live store's
stable oid space with holes) keep the oid column sorted and resolve by
``searchsorted``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["ColumnarStore", "RentOrBuy", "mask_dtype"]


def mask_dtype(bit_of_term: Dict[int, int]):
    """Dtype of a query-local mask column: uint64 up to 64 keywords, else
    object (Python ints of any width)."""
    if any(bit > (1 << 63) for bit in bit_of_term.values()):
        return object
    return np.uint64


class RentOrBuy:
    """Rent-or-buy per-term nearest-holder distance columns over a store.

    A subclass supplies ``__len__`` (the live rows whose KD queries one
    purchase replaces) and :meth:`_holder_and_row_coords`; this class
    keeps the ledger and the bought columns.
    """

    __slots__ = ("_term_nn", "_term_rent")

    def __init__(self) -> None:
        #: Bought per-term nearest-holder distance columns (term id -> one
        #: float64 per position) and the rent charged toward each; see
        #: :meth:`term_nn_dists`.
        self._term_nn: Dict[int, np.ndarray] = {}
        self._term_rent: Dict[int, int] = {}

    def term_nn_dists(self, term_id: int, rent: int) -> Optional[np.ndarray]:
        """Distance from every position to its nearest holder of ``term_id``.

        Rent-or-buy: a caller needing the distances for ``rent`` objects
        would otherwise pay a KD query per object, so that count is charged
        to the term.  Once the charges reach ``len(self)`` — the cost of one
        KD query over the whole store — the full column is built and
        cached; before that, and for a term without holders, returns None
        and the caller queries its own holder tree.  Both sources minimise
        over the same holder set, so the distances are bit-identical.
        """
        arr = self._term_nn.get(term_id)
        if arr is not None:
            return arr
        paid = self._term_rent.get(term_id, 0) + rent
        self._term_rent[term_id] = paid
        if paid < len(self):
            return None
        holders, rows = self._holder_and_row_coords(term_id)
        if len(holders) == 0:
            return None
        arr, _idx = cKDTree(holders).query(rows, k=1)
        self._term_nn[term_id] = arr
        return arr

    def _holder_and_row_coords(self, term_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(k, 2)`` live holder coordinates and every position's coordinates."""
        raise NotImplementedError


class ColumnarStore(RentOrBuy):
    """Immutable SoA view: oid, x, y columns plus CSR keyword term ids."""

    __slots__ = (
        "oids",
        "xs",
        "ys",
        "term_indptr",
        "term_ids",
        "dense",
        "_postings",
        "_by_term_x",
    )

    def __init__(
        self,
        oids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        term_indptr: np.ndarray,
        term_ids: np.ndarray,
    ):
        super().__init__()
        self.oids = oids
        self.xs = xs
        self.ys = ys
        #: CSR row pointers: object ``i``'s term ids are
        #: ``term_ids[term_indptr[i]:term_indptr[i+1]]``.
        self.term_indptr = term_indptr
        self.term_ids = term_ids
        n = len(oids)
        self.dense = bool(n == 0 or (oids[0] == 0 and oids[n - 1] == n - 1))
        self._postings: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._by_term_x: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(
        cls, rows: Iterable[Tuple[int, float, float, Sequence[int]]]
    ) -> "ColumnarStore":
        """Build from ``(oid, x, y, term_ids)`` rows sorted by oid."""
        oid_list: List[int] = []
        x_list: List[float] = []
        y_list: List[float] = []
        indptr: List[int] = [0]
        flat_terms: List[int] = []
        for oid, x, y, terms in rows:
            oid_list.append(oid)
            x_list.append(x)
            y_list.append(y)
            flat_terms.extend(terms)
            indptr.append(len(flat_terms))
        return cls(
            np.asarray(oid_list, dtype=np.int64),
            np.asarray(x_list, dtype=np.float64),
            np.asarray(y_list, dtype=np.float64),
            np.asarray(indptr, dtype=np.int64),
            np.asarray(flat_terms, dtype=np.int64),
        )

    @classmethod
    def concat(
        cls, first: "ColumnarStore", second: "ColumnarStore"
    ) -> "ColumnarStore":
        """``first``'s rows followed by ``second``'s (oid order is the caller's)."""
        return cls(
            np.concatenate([first.oids, second.oids]),
            np.concatenate([first.xs, second.xs]),
            np.concatenate([first.ys, second.ys]),
            np.concatenate(
                [first.term_indptr, second.term_indptr[1:] + first.term_indptr[-1]]
            ),
            np.concatenate([first.term_ids, second.term_ids]),
        )

    def take(self, positions: np.ndarray) -> "ColumnarStore":
        """A new store of the given rows, in the given order."""
        positions = np.asarray(positions, dtype=np.int64)
        starts = self.term_indptr[positions]
        counts = self.term_indptr[positions + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(counts)))
        flat = np.arange(int(indptr[-1]), dtype=np.int64) + np.repeat(
            starts - indptr[:-1], counts
        )
        return type(self)(
            self.oids[positions],
            self.xs[positions],
            self.ys[positions],
            indptr,
            self.term_ids[flat],
        )

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.oids)

    @property
    def postings(self) -> Tuple[np.ndarray, np.ndarray]:
        """Term-major CSR ``(indptr, rows)`` over the CSR term lists (lazy).

        Term ``t``'s holders are the ascending row positions
        ``rows[indptr[t]:indptr[t + 1]]``: one stable argsort of the flat
        term column, built on first use and read-only.
        """
        if self._postings is None:
            n_terms = int(self.term_ids.max(initial=-1)) + 1
            indptr = np.zeros(n_terms + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.term_ids, minlength=n_terms), out=indptr[1:])
            owner = np.repeat(
                np.arange(len(self.oids), dtype=np.int64), np.diff(self.term_indptr)
            )
            rows = owner[np.argsort(self.term_ids, kind="stable")]
            rows.flags.writeable = False
            self._postings = (indptr, rows)
        return self._postings

    def holder_positions(self, term_id) -> np.ndarray:
        """Row positions of the objects carrying ``term_id`` (ascending).

        ``term_id`` may also be a sequence of ids: rows carrying any of them.
        One term is a slice of :attr:`postings`; unknown ids hold nothing.
        """
        indptr, rows = self.postings
        wanted = [int(t) for t in np.atleast_1d(term_id) if 0 <= t < len(indptr) - 1]
        parts = [rows[indptr[t] : indptr[t + 1]] for t in dict.fromkeys(wanted)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return rows[:0]
        return np.unique(np.concatenate(parts))

    def holder_ranges(
        self, term_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every holder of ``term_ids[i]``, as ``(rows, starts, ends)``
        (see :meth:`holders_in_slabs`): slices of :attr:`postings`, with
        no x filter; unknown term ids hold nothing."""
        indptr, rows = self.postings
        n_terms = len(indptr) - 1
        ids = np.asarray(term_ids, dtype=np.int64)
        ids = np.where((ids >= 0) & (ids < n_terms), ids, n_terms)
        padded = np.append(indptr, indptr[-1])
        return rows, padded[ids], padded[ids + 1]

    def _holder_and_row_coords(self, term_id: int) -> Tuple[np.ndarray, np.ndarray]:
        return (
            self.coords_of(self.holder_positions(term_id)),
            self.coords_of(np.arange(len(self.oids))),
        )

    def holders_in_slabs(
        self, term_ids: np.ndarray, x_lo: np.ndarray, x_hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The holders of ``term_ids[i]`` whose x lies in ``[x_lo[i], x_hi[i]]``.

        Returns ``(rows, starts, ends)``: pair ``i``'s holders are the row
        positions ``rows[starts[i]:ends[i]]``.  Every pair is answered by
        two ``searchsorted`` passes over the postings laid out by (term,
        x-rank), built on first use; unknown term ids get empty slabs.
        """
        n = len(self.oids)
        if self._by_term_x is None:
            owner = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.term_indptr)
            )
            by_x = np.argsort(self.xs, kind="stable")
            x_rank = np.empty(n, dtype=np.int64)
            x_rank[by_x] = np.arange(n, dtype=np.int64)
            keys = self.term_ids.astype(np.int64) * n + x_rank[owner]
            order = np.argsort(keys, kind="stable")
            self._by_term_x = (keys[order], owner[order], self.xs[by_x])
        keys, rows, sorted_xs = self._by_term_x
        first = np.asarray(term_ids, dtype=np.int64) * n
        lo = first + np.searchsorted(sorted_xs, x_lo, "left")
        hi = first + np.searchsorted(sorted_xs, x_hi, "right")
        # Search in key order: sorted queries walk the keys once.
        order = np.argsort(lo)
        starts = np.empty_like(lo)
        ends = np.empty_like(hi)
        starts[order] = np.searchsorted(keys, lo[order])
        ends[order] = np.searchsorted(keys, hi[order])
        return rows, starts, ends

    def positions_of(self, oids) -> np.ndarray:
        """Row positions of the given oids (must all be present)."""
        wanted = np.asarray(oids, dtype=np.int64)
        if self.dense:
            return wanted
        return np.searchsorted(self.oids, wanted)

    def coords_of(self, positions: np.ndarray) -> np.ndarray:
        """C-contiguous ``(k, 2)`` coordinate block for the given rows."""
        out = np.empty((len(positions), 2), dtype=np.float64)
        out[:, 0] = self.xs[positions]
        out[:, 1] = self.ys[positions]
        return out

    def query_masks(
        self, positions: np.ndarray, bit_of_term: Dict[int, int]
    ) -> np.ndarray:
        """Query-local masks for the given rows, built batch-wise.

        ``bit_of_term`` maps a global term id to its query-local bit value
        (``1 << i`` for query keyword ``i``); term ids outside the map
        contribute nothing.  The column is uint64, or, when a bit exceeds
        64 bits, an object column of Python ints.
        """
        dtype = mask_dtype(bit_of_term)
        k = len(positions)
        if k == 0:
            return np.empty(0, dtype=dtype)
        bitvals = np.zeros(int(self.term_ids.max(initial=-1)) + 2, dtype=dtype)
        for tid, bit in bit_of_term.items():
            if tid < len(bitvals):
                bitvals[tid] = bit
        starts = self.term_indptr[positions]
        counts = self.term_indptr[positions + 1] - starts
        offsets = np.concatenate(([0], np.cumsum(counts)))
        total = int(offsets[-1])
        if total == 0:
            return np.zeros(k, dtype=dtype)
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets[:-1], counts
        )
        vals = bitvals[self.term_ids[flat]]
        # Every object carries >= 1 keyword, so no empty reduceat segment —
        # guard anyway for adversarial stores (empty segments would echo
        # the neighbour's value instead of 0).
        if counts.min(initial=1) == 0:
            masks = np.zeros(k, dtype=dtype)
            nonempty = counts > 0
            if nonempty.any():
                masks[nonempty] = np.bitwise_or.reduceat(
                    vals, offsets[:-1][nonempty]
                )
            return masks
        return np.bitwise_or.reduceat(vals, offsets[:-1])
