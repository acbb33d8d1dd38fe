"""Delta overlay: recent mutations layered over a sealed base.

A :class:`DeltaOverlay` is an *immutable* value: ``with_insert`` /
``with_delete`` / ``with_batch`` return a new overlay sharing nothing
mutable with the old one (copy-on-write of small dicts).  That is what
makes epoch snapshots trivially safe — a reader holding ``(base, delta)``
can never observe a torn mutation, because published deltas are never
mutated in place.

An overlay bound to a base vocabulary also carries its live adds as a
small :class:`~repro.index.columns.ColumnarStore`, the *add rows*, which
``with_batch`` updates in O(batch).  Their term ids are the overlay's:
base ids for base terms, append-only ids from ``len(base vocabulary)``
upward for delta-only terms, so they agree with
:class:`OverlayVocabulary` in every epoch.

Read views built on top:

* :class:`OverlayVocabulary` / :class:`OverlayInverted` — keyword lookups
  over base + delta with tombstones subtracted, duck-typing the
  :class:`~repro.index.bitmap.KeywordVocabulary` /
  :class:`~repro.index.inverted.InvertedIndex` surface the query compiler
  consumes;
* :class:`LiveView` — a dataset-shaped view the unmodified mCK algorithms
  run against.  It compiles a query without copying the store: its
  ``columns`` are the base's own store when the delta is empty, else an
  :class:`OverlayColumns` that gathers O′ from the base store (tombstoned
  rows masked out) and from the add rows.  Add oids lie above every base
  oid, so the two parts concatenate in oid order;
* :class:`LiveIndex` — merged index primitives (``range_circle`` /
  ``nearest_with_mask`` / ``keyword_holders``): the sealed base's
  bR*-tree answers filtered by tombstones, delta adds scanned linearly
  (the delta is small by construction — the compactor reseals it before
  it grows past its threshold).

Bookkeeping invariants (relied on by :meth:`DeltaOverlay.rebase`):
``adds`` never contains a tombstoned oid; ``tombstones`` records *every*
delete since the base was sealed, including deletes of objects that were
themselves delta adds — without that trace, a compaction racing a delete
could resurrect the deleted object.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.objects import Dataset, GeoObject, first_occurrence_terms
from ..exceptions import DatasetError
from ..index.bitmap import mask_of
from ..index.columns import ColumnarStore, RentOrBuy, mask_dtype
from ..index.rstar import LeafEntry

__all__ = [
    "DeltaOverlay",
    "OverlayVocabulary",
    "OverlayInverted",
    "OverlayColumns",
    "LiveView",
    "LiveIndex",
    "HolderScan",
]

_EMPTY: FrozenSet[int] = frozenset()


class DeltaOverlay:
    """Immutable set of adds + tombstones with its own keyword map."""

    __slots__ = (
        "adds",
        "tombstones",
        "keyword_map",
        "freq_delta",
        "vocab",
        "extra_ids",
        "add_rows",
        "_tombstone_column",
    )

    def __init__(
        self,
        adds: Optional[Dict[int, GeoObject]] = None,
        tombstones: FrozenSet[int] = _EMPTY,
        keyword_map: Optional[Dict[str, FrozenSet[int]]] = None,
        freq_delta: Optional[Dict[str, int]] = None,
        vocab=None,
        extra_ids: Optional[Dict[str, int]] = None,
        add_rows: Optional[ColumnarStore] = None,
    ):
        self.adds: Dict[int, GeoObject] = adds or {}
        self.tombstones: FrozenSet[int] = tombstones
        #: term -> oids of *live* delta adds containing it.
        self.keyword_map: Dict[str, FrozenSet[int]] = keyword_map or {}
        #: term -> net document-frequency change vs the base.
        self.freq_delta: Dict[str, int] = freq_delta or {}
        #: The base vocabulary ``add_rows`` is keyed to (None: unbound —
        #: :class:`LiveView` binds such an overlay in one pass).
        self.vocab = vocab
        #: Delta-only term -> overlay id, ``len(vocab)`` upward in insertion
        #: order.  Append-only, so ids are stable across epochs.
        self.extra_ids: Dict[str, int] = extra_ids or {}
        #: Live adds as columns sorted by oid, term ids in overlay id space.
        self.add_rows: Optional[ColumnarStore] = (
            add_rows
            if add_rows is not None or vocab is None
            else ColumnarStore.from_rows(())
        )
        self._tombstone_column: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Copy-on-write mutation
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Mutations carried: live adds plus tombstones."""
        return len(self.adds) + len(self.tombstones)

    def is_empty(self) -> bool:
        return not self.adds and not self.tombstones

    def with_insert(self, obj: GeoObject) -> "DeltaOverlay":
        return self.with_batch(inserts=(obj,))

    def with_delete(self, oid: int, keywords: Iterable[str]) -> "DeltaOverlay":
        return self.with_batch(deletes=((oid, tuple(keywords)),))

    def with_batch(
        self,
        inserts: Sequence[GeoObject] = (),
        deletes: Sequence[Tuple[int, Tuple[str, ...]]] = (),
    ) -> "DeltaOverlay":
        """One copy-on-write step applying a whole mutation batch.

        ``deletes`` carries each victim's keywords so the keyword map and
        frequency deltas stay exact without a base lookup here (the engine
        resolves them from the snapshot it mutated under).  The add rows
        change in O(batch): deleted adds are masked out, inserts appended.
        """
        adds = dict(self.adds)
        tombstones = set(self.tombstones)
        keyword_map = dict(self.keyword_map)
        freq_delta = dict(self.freq_delta)
        for obj in inserts:
            if obj.oid in adds or obj.oid in tombstones:
                raise DatasetError(f"oid {obj.oid} already mutated in this delta")
            adds[obj.oid] = obj
            for term in obj.keywords:
                keyword_map[term] = keyword_map.get(term, _EMPTY) | {obj.oid}
                freq_delta[term] = freq_delta.get(term, 0) + 1
        for oid, keywords in deletes:
            if oid in tombstones:
                raise DatasetError(f"oid {oid} already deleted in this delta")
            adds.pop(oid, None)
            tombstones.add(oid)
            for term in keywords:
                holders = keyword_map.get(term)
                if holders and oid in holders:
                    remaining = holders - {oid}
                    if remaining:
                        keyword_map[term] = remaining
                    else:
                        del keyword_map[term]
                freq_delta[term] = freq_delta.get(term, 0) - 1
        rows, extra_ids = self.add_rows, self.extra_ids
        if rows is not None:
            gone = [oid for oid, _kw in deletes if oid in self.adds]
            if gone:
                rows = rows.take(np.flatnonzero(~np.isin(rows.oids, gone)))
            fresh = [obj for obj in inserts if obj.oid in adds]
            if fresh:
                rows, extra_ids = _append_rows(rows, fresh, self.vocab, extra_ids)
        return DeltaOverlay(
            adds, frozenset(tombstones), keyword_map, freq_delta,
            self.vocab, extra_ids, rows,
        )

    @classmethod
    def from_state(
        cls,
        adds: Dict[int, GeoObject],
        tombstones: Iterable[int],
        base: Dataset,
    ) -> "DeltaOverlay":
        """Build an overlay from replayed end state in one pass.

        Used by WAL replay, where rebuilding via per-record copy-on-write
        would be quadratic.  ``adds`` must already exclude every
        tombstoned oid; frequency deltas for tombstoned *base* objects
        are recovered by looking their keywords up in ``base``.
        """
        tomb = frozenset(int(t) for t in tombstones)
        keyword_map: Dict[str, FrozenSet[int]] = {}
        freq_delta: Dict[str, int] = {}
        for oid, obj in adds.items():
            if oid in tomb:
                raise DatasetError(f"oid {oid} both added and tombstoned")
            for term in obj.keywords:
                keyword_map[term] = keyword_map.get(term, _EMPTY) | {oid}
                freq_delta[term] = freq_delta.get(term, 0) + 1
        for oid in tomb:
            victim = base.get(oid)
            if victim is not None:
                for term in victim.keywords:
                    freq_delta[term] = freq_delta.get(term, 0) - 1
        return cls(dict(adds), tomb, keyword_map, freq_delta).bound_to(
            base.vocabulary
        )

    def bound_to(self, vocab) -> "DeltaOverlay":
        """This overlay with add rows keyed to ``vocab`` (one pass if rebound)."""
        if self.vocab is vocab:
            return self
        rows, extra_ids = _append_rows(
            ColumnarStore.from_rows(()),
            [obj for _oid, obj in sorted(self.adds.items())],
            vocab,
            {},
        )
        return DeltaOverlay(
            self.adds, self.tombstones, self.keyword_map, self.freq_delta,
            vocab, extra_ids, rows,
        )

    @property
    def tombstone_column(self) -> np.ndarray:
        """Every tombstoned oid as a sorted int64 column (cached)."""
        if self._tombstone_column is None:
            tomb = self.tombstones
            col = np.fromiter(tomb, dtype=np.int64, count=len(tomb))
            col.sort()
            self._tombstone_column = col
        return self._tombstone_column

    # ------------------------------------------------------------------ #

    def holders_of(self, term: str) -> FrozenSet[int]:
        """Live delta adds containing ``term``."""
        return self.keyword_map.get(term, _EMPTY)

    def rebase(self, new_base: Dataset) -> "DeltaOverlay":
        """The residual delta after ``new_base`` sealed an older snapshot.

        Everything already folded into ``new_base`` drops out; what
        remains is exactly the mutations applied after the compactor took
        its snapshot: adds whose oid is not sealed, and tombstones whose
        victim *is* sealed (tombstones of never-sealed adds cancel out).
        """
        residual = DeltaOverlay(vocab=new_base.vocabulary)
        inserts = [
            obj for oid, obj in sorted(self.adds.items()) if oid not in new_base
        ]
        deletes = [
            (oid, tuple(new_base[oid].keywords))
            for oid in sorted(self.tombstones)
            if oid in new_base
        ]
        return residual.with_batch(inserts=inserts, deletes=deletes)


def _append_rows(
    rows: ColumnarStore,
    objs: Sequence[GeoObject],
    vocab,
    extra_ids: Dict[str, int],
) -> Tuple[ColumnarStore, Dict[str, int]]:
    """``rows`` plus one row per object, with the grown delta-only terms.

    A term outside ``vocab`` and ``extra_ids`` gets the next overlay id
    (the map is copied before it grows).  The result is re-sorted by oid
    only when an appended oid undercuts the existing rows (never for
    engine-allocated oids).
    """
    grown = False
    new_rows = []
    for obj in objs:
        tids = []
        for term in sorted(obj.keywords):
            tid = extra_ids.get(term)
            if tid is None:
                if term in vocab:
                    tid = vocab.id_of(term)
                else:
                    if not grown:
                        extra_ids, grown = dict(extra_ids), True
                    tid = extra_ids[term] = len(vocab) + len(extra_ids)
            tids.append(tid)
        tids.sort()
        new_rows.append((obj.oid, obj.x, obj.y, tids))
    merged = ColumnarStore.concat(rows, ColumnarStore.from_rows(new_rows))
    if np.any(np.diff(merged.oids) < 0):
        merged = merged.take(np.argsort(merged.oids, kind="stable"))
    return merged, extra_ids


class OverlayVocabulary:
    """Base vocabulary extended with the delta's unseen terms.

    Term ids of base terms are unchanged; delta-only terms take the
    overlay's append-only ids from ``len(base)`` upward (see
    :attr:`DeltaOverlay.extra_ids`).  Ids are epoch-internal — they are
    never exposed to clients and are re-interned at compaction.  A
    delta-only term whose adds were all deleted keeps its id but is no
    longer *contained*, exactly like a base term without live holders has
    frequency 0.
    """

    __slots__ = (
        "_base", "_base_size", "_extra", "_extra_terms", "_freq_delta", "_live"
    )

    def __init__(self, base_vocab, delta: DeltaOverlay):
        self._base = base_vocab
        self._base_size = len(base_vocab)
        self._extra = delta.extra_ids
        self._extra_terms: Optional[List[str]] = None
        self._live = delta.keyword_map
        self._freq_delta = delta.freq_delta

    def __len__(self) -> int:
        return self._base_size + len(self._extra)

    def __contains__(self, term: str) -> bool:
        return term in self._base or term in self._live

    @property
    def base_size(self) -> int:
        return self._base_size

    def id_of(self, term: str) -> int:
        tid = self._extra.get(term)
        if tid is not None:
            return tid
        return self._base.id_of(term)

    def ids_of(self, terms: Sequence[str]) -> List[int]:
        """The overlay id of each term, ``-1`` for one never seen."""
        extra = self._extra
        return [
            extra.get(term, tid)
            for term, tid in zip(terms, self._base.ids_of(terms))
        ]

    def term_of(self, tid: int) -> str:
        if tid >= self._base_size:
            if self._extra_terms is None:
                self._extra_terms = list(self._extra)  # insertion = id order
            return self._extra_terms[tid - self._base_size]
        return self._base.term_of(tid)

    def frequency(self, term_or_id) -> int:
        term = (
            self.term_of(term_or_id)
            if isinstance(term_or_id, (int, np.integer))
            else term_or_id
        )
        base_freq = (
            self._base.frequency(term) if term in self._base else 0
        )
        return base_freq + self._freq_delta.get(term, 0)

    def least_frequent(self, terms: Sequence[str]) -> str:
        if not terms:
            raise DatasetError("cannot pick least frequent of no terms")
        return min(terms, key=self.frequency)

    def terms(self) -> List[str]:
        """Every term in overlay id order."""
        return self._base.terms() + list(self._extra)


class OverlayInverted:
    """Live postings: base postings minus tombstones, plus add rows.

    Every lookup is a handful of numpy passes — slices of the base store's
    term-major postings with the tombstoned rows dropped, then the add
    rows' holders — with no per-oid Python loop.  Feasibility is read off
    the overlay's document frequencies.
    """

    __slots__ = ("_base", "_vocab", "_delta")

    def __init__(
        self, base: Dataset, vocab: OverlayVocabulary, delta: DeltaOverlay
    ):
        self._base = base
        self._vocab = vocab
        self._delta = delta

    def _live_holders(self, term_ids: Sequence[int]) -> np.ndarray:
        """Sorted oids of live objects holding any of ``term_ids``."""
        store = self._base.columns
        base_size = self._vocab.base_size
        positions = store.holder_positions([t for t in term_ids if t < base_size])
        tomb = self._delta.tombstone_column
        if len(tomb):
            dead = _dead_positions(store, tomb)
            positions = positions[~np.isin(positions, dead, assume_unique=True)]
        base_part = store.oids[positions]
        rows = self._delta.add_rows
        if not len(rows):
            return base_part
        add_part = rows.oids[rows.holder_positions(list(term_ids))]
        if not len(add_part):
            return base_part
        merged = np.concatenate([base_part, add_part])
        if len(base_part) and add_part[0] < base_part[-1]:
            merged.sort()
        return merged

    def posting(self, term_id: int) -> List[int]:
        return self._live_holders([term_id]).tolist()

    def document_frequency(self, term_id: int) -> int:
        return self._vocab.frequency(term_id)

    def relevant_objects(self, term_ids: Sequence[int]) -> List[int]:
        return self._live_holders(term_ids).tolist()

    def uncoverable_terms(self, term_ids: Sequence[int]) -> List[int]:
        return [tid for tid in term_ids if self._vocab.frequency(tid) <= 0]


class OverlayColumns(RentOrBuy):
    """One snapshot's columns in two parts: the base store and the add rows.

    Position ``p < len(base)`` is base row ``p`` (tombstoned rows keep
    their positions but are never resolved), position ``len(base) + j``
    is add row ``j``.  Nothing is copied: gathers split their positions
    between the two stores.  Bought nearest-holder columns span every
    position and minimise over this snapshot's live holders only.
    """

    __slots__ = ("base", "adds", "_dead", "_live_rows")

    def __init__(
        self, base: ColumnarStore, adds: ColumnarStore, tombstones: np.ndarray
    ):
        super().__init__()
        self.base = base
        self.adds = adds
        #: Base positions of tombstoned rows (ascending).
        self._dead = _dead_positions(base, tombstones)
        self._live_rows = len(base.oids) - len(self._dead) + len(adds.oids)

    def __len__(self) -> int:
        return self._live_rows

    def positions_of(self, oids) -> np.ndarray:
        """Positions of the given live oids."""
        wanted = np.asarray(oids, dtype=np.int64)
        add_oids = self.adds.oids
        if not len(add_oids):
            return self.base.positions_of(wanted)
        slot = np.searchsorted(add_oids, wanted)
        in_adds = slot < len(add_oids)
        in_adds[in_adds] = add_oids[slot[in_adds]] == wanted[in_adds]
        out = np.empty(len(wanted), dtype=np.int64)
        out[in_adds] = len(self.base.oids) + slot[in_adds]
        out[~in_adds] = self.base.positions_of(wanted[~in_adds])
        return out

    def _split(self, positions: np.ndarray):
        in_base = positions < len(self.base.oids)
        return in_base, positions[in_base], positions[~in_base] - len(self.base.oids)

    def coords_of(self, positions: np.ndarray) -> np.ndarray:
        in_base, base_rows, add_rows = self._split(positions)
        out = np.empty((len(positions), 2), dtype=np.float64)
        out[in_base] = self.base.coords_of(base_rows)
        out[~in_base] = self.adds.coords_of(add_rows)
        return out

    def query_masks(
        self, positions: np.ndarray, bit_of_term: Dict[int, int]
    ) -> np.ndarray:
        in_base, base_rows, add_rows = self._split(positions)
        out = np.empty(len(positions), dtype=mask_dtype(bit_of_term))
        out[in_base] = self.base.query_masks(base_rows, bit_of_term)
        out[~in_base] = self.adds.query_masks(add_rows, bit_of_term)
        return out

    def _holder_and_row_coords(self, term_id: int) -> Tuple[np.ndarray, np.ndarray]:
        base, adds = self.base, self.adds
        base_holders = base.holder_positions(term_id)
        if len(self._dead):
            base_holders = base_holders[
                ~np.isin(base_holders, self._dead, assume_unique=True)
            ]
        add_holders = adds.holder_positions(term_id)
        holders = np.concatenate(
            [base.coords_of(base_holders), adds.coords_of(add_holders)]
        )
        rows = np.concatenate(
            [
                base.coords_of(np.arange(len(base.oids))),
                adds.coords_of(np.arange(len(adds.oids))),
            ]
        )
        return holders, rows


class LiveView:
    """Dataset-shaped merged view of one ``(base, delta)`` snapshot.

    Duck-types the slice of :class:`~repro.core.objects.Dataset` the query
    compiler, the algorithms, and :meth:`~repro.core.result.Group.objects`
    consume — vocabulary, inverted file, ``columns``, ``location_of`` /
    ``term_ids_of``, item access.  Object ids are the store's stable live
    oids (sparse after deletes).
    """

    def __init__(self, base: Dataset, delta: DeltaOverlay, name: str = "live"):
        self.base = base
        self.delta = delta = delta.bound_to(base.vocabulary)
        self.name = name
        self.vocabulary = OverlayVocabulary(base.vocabulary, delta)
        self.inverted = OverlayInverted(base, self.vocabulary, delta)
        self._columns: Optional[OverlayColumns] = None
        self._len: Optional[int] = None

    def finalize(self) -> None:
        """No-op: a snapshot view is immutable by construction."""

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        if self._len is None:
            dead = _dead_positions(self.base.columns, self.delta.tombstone_column)
            self._len = len(self.base) - len(dead) + len(self.delta.adds)
        return self._len

    def __contains__(self, oid: int) -> bool:
        if oid in self.delta.adds:
            return True
        return oid in self.base and oid not in self.delta.tombstones

    def __getitem__(self, oid: int) -> GeoObject:
        obj = self.get(oid)
        if obj is None:
            raise KeyError(f"oid {oid} is not live in this snapshot")
        return obj

    def get(self, oid: int) -> Optional[GeoObject]:
        obj = self.delta.adds.get(oid)
        if obj is not None:
            return obj
        if oid in self.delta.tombstones:
            return None
        return self.base.get(oid)

    def __iter__(self) -> Iterator[GeoObject]:
        tombstones = self.delta.tombstones
        for obj in self.base:
            if obj.oid not in tombstones:
                yield obj
        yield from self.delta.adds.values()

    def live_oids(self) -> List[int]:
        base = self.base.columns
        oids = np.concatenate(
            [base.oids[self._live_base_rows()], self.delta.add_rows.oids]
        )
        oids.sort()
        return oids.tolist()

    def records(self) -> Iterator[Tuple[int, float, float, FrozenSet[str]]]:
        """``(oid, x, y, keywords)`` for every live object (seal input)."""
        for obj in self:
            yield (obj.oid, obj.x, obj.y, obj.keywords)

    def location_of(self, oid: int) -> Tuple[float, float]:
        obj = self[oid]
        return (obj.x, obj.y)

    def term_ids_of(self, oid: int) -> Tuple[int, ...]:
        if oid in self.delta.adds:
            obj = self.delta.adds[oid]
            return tuple(sorted(self.vocabulary.id_of(t) for t in obj.keywords))
        return self.base.term_ids_of(oid)

    def global_mask_of(self, oid: int) -> int:
        """Whole-vocabulary (overlay id space) keyword mask of an object."""
        return mask_of(self.term_ids_of(oid))

    def index(self) -> "LiveIndex":
        return LiveIndex(self)

    def compile_stats(self, keywords: Sequence[str]) -> Dict[str, int]:
        """What the delta contributes to compiling ``keywords``.

        ``delta_rows``: O′ rows that are delta adds; ``tombstones_masked``:
        posting entries of the keywords dropped because their object was
        deleted (a dead object counts once per keyword it holds).  Read
        off the overlay's keyword map and frequency deltas alone.
        """
        keyword_map = self.delta.keyword_map
        freq_delta = self.delta.freq_delta
        adds = set()
        masked = 0
        for term in keywords:
            holders = keyword_map.get(term, _EMPTY)
            adds.update(holders)
            masked += len(holders) - freq_delta.get(term, 0)
        return {"delta_rows": len(adds), "tombstones_masked": masked}

    def nearest_holders(
        self, points, terms: Sequence[str], within, gather, anchors
    ) -> "HolderScan":
        """One batched scan for the live holders of ``terms[i]`` near
        ``points[i]`` (see :class:`HolderScan` for what it reports).

        The nearest holder's distance is exact wherever it is at most
        ``within[i]``; beyond that it is some larger value (``inf`` when
        no holder is in range).  Pairs flagged in ``gather`` also list
        every holder within ``within[i]``.  ``anchors`` are oids whose
        liveness in this snapshot is reported alongside.

        The base's holders are scanned only inside the x-slab
        ``points[i].x ± within[i]`` (any holder that close in distance
        lies there), tombstoned ones masked out; the few add rows' holders
        (live by construction) are scanned whole.  Each scan measures
        every (point, holder) pair in one vectorised pass.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        n = len(pts)
        live = np.array([oid in self for oid in anchors], dtype=bool)
        if not n:
            return HolderScan.nothing(0)._replace(anchors_live=live)
        distinct = list(dict.fromkeys(terms))
        tid = dict(zip(distinct, self.vocabulary.ids_of(distinct)))
        term_ids = np.fromiter(map(tid.__getitem__, terms), np.int64, len(terms))
        # Widen the slab past float rounding; the exact test comes after.
        reach = np.asarray(within, dtype=np.float64)
        reach = reach + 1e-9 * (reach + np.abs(pts[:, 0]))
        x_lo = pts[:, 0] - reach
        x_hi = pts[:, 0] + reach
        # Squared reach of the gathered pairs (-1 gathers nothing); capped
        # so a dead holder's infinite gap never counts as in reach.
        gather_sq = np.where(
            np.asarray(gather, dtype=bool),
            np.minimum(reach * reach, np.finfo(np.float64).max),
            -1.0,
        )
        gap = np.full(n, math.inf)
        pairs, oids, coords = [], [], []
        base = self.base.columns
        adds = self.delta.add_rows
        scans = [
            (base, base.holders_in_slabs(term_ids, x_lo, x_hi),
             _dead_positions(base, self.delta.tombstone_column)),
        ]
        if len(adds):
            scans.append((adds, adds.holder_ranges(term_ids), None))
        for store, (rows, starts, ends), dead in scans:
            pair, held = _scan_block(
                gap, pts, starts, ends - starts, rows, store.xs, store.ys,
                dead, gather_sq,
            )
            pairs.append(pair)
            oids.append(store.oids[held])
            coords.append(store.coords_of(held))
        return HolderScan(
            np.sqrt(gap),
            np.concatenate(pairs),
            np.concatenate(oids),
            np.concatenate(coords),
            live,
        )

    @property
    def columns(self):
        """This snapshot's struct-of-arrays view (lazy, cached).

        An empty delta answers with the sealed base's own store — rent
        and bought columns are then shared by every such view of the
        base.  Otherwise an :class:`OverlayColumns` addresses the base
        store and the add rows in place, so nothing of size n is copied
        per epoch.  Term ids are the snapshot's overlay id space, matching
        :meth:`term_ids_of`.
        """
        if self.delta.is_empty():
            return self.base.columns
        if self._columns is None:
            self._columns = OverlayColumns(
                self.base.columns, self.delta.add_rows, self.delta.tombstone_column
            )
        return self._columns

    def _live_columns(self) -> ColumnarStore:
        """The live rows as one oid-sorted store in overlay term ids.

        The base store minus tombstoned rows, then the add rows; re-sorted
        only when an add undercuts a base oid.
        """
        store = ColumnarStore.concat(
            self.base.columns.take(self._live_base_rows()), self.delta.add_rows
        )
        if np.any(np.diff(store.oids) < 0):
            store = store.take(np.argsort(store.oids, kind="stable"))
        return store

    def _live_base_rows(self) -> np.ndarray:
        """Positions of the base rows no tombstone covers (ascending)."""
        base = self.base.columns
        kept = np.ones(len(base.oids), dtype=bool)
        kept[_dead_positions(base, self.delta.tombstone_column)] = False
        return np.flatnonzero(kept)

    def seal(self, name: str) -> Dataset:
        """The live rows sealed into a fresh store (what compaction publishes).

        Term ids are renumbered by first occurrence over the live rows in
        oid order, so this equals ``Dataset.seal(self.records())`` whenever
        ``records()`` runs in oid order (adds above every base oid, in
        allocation order: always so for engine-allocated oids).  Built in
        numpy from the live columns, with no per-object Python.
        """
        store = self._live_columns()
        term_ids, terms = first_occurrence_terms(
            store.term_indptr, store.term_ids, self.vocabulary.terms()
        )
        return Dataset.from_columns(
            store.oids, store.xs, store.ys, store.term_indptr, term_ids, terms,
            name=name,
        )


def _dead_positions(store: ColumnarStore, tombstones: np.ndarray) -> np.ndarray:
    """Positions in ``store`` of the tombstoned oids it holds (ascending)."""
    n = len(store.oids)
    hit = np.searchsorted(store.oids, tombstones)
    found = hit < n
    found[found] = store.oids[hit[found]] == tombstones[found]
    return hit[found]


def _scan_block(gap, pts, starts, lengths, order, xs, ys, dead, gather_sq):
    """Lower ``gap[r]`` to the squared distance of point ``r``'s nearest
    live holder in its block; return the holders within its gather reach.

    Row ``r``'s holders are ``order[starts[r]:starts[r] + lengths[r]]``,
    indexing the ``xs`` / ``ys`` columns; holders at the ``dead``
    positions are skipped (``dead=None`` skips nothing).  Every (row,
    holder) pair is measured in one pass.  Returns ``(pair, held)``: for
    each holder within ``gather_sq[r]`` (squared) of row ``r``, the row
    and the holder's position.
    """
    ends = np.cumsum(lengths)
    if not len(ends) or not ends[-1]:
        none = np.zeros(0, dtype=np.int64)
        return none, none
    firsts = ends - lengths
    holder = order[np.arange(int(ends[-1])) + np.repeat(starts - firsts, lengths)]
    dx = np.repeat(pts[:, 0], lengths) - xs[holder]
    dy = np.repeat(pts[:, 1], lengths) - ys[holder]
    gaps = dx * dx + dy * dy
    if dead is not None and len(dead):
        gaps[np.isin(holder, dead)] = math.inf
    filled = lengths > 0
    gap[filled] = np.minimum(gap[filled], np.minimum.reduceat(gaps, firsts[filled]))
    near = np.flatnonzero(gaps <= np.repeat(gather_sq, lengths))
    return np.searchsorted(ends, near, side="right"), holder[near]


class HolderScan(NamedTuple):
    """What one batched holder scan found for each (point, term) pair.

    ``distance[i]`` is the distance from point ``i`` to its nearest live
    holder of term ``i``: exact up to the pair's bound, some larger value
    beyond it (``inf`` when no holder was in range).  ``reach_pair`` /
    ``reach_oid`` / ``reach_xy`` list, unordered, every live holder within
    the bound of a gathered pair, tagged with the pair's index.
    ``anchors_live[j]`` tells whether the ``j``-th anchor oid is live, and
    ``epoch`` is the scanned snapshot's epoch (``-1`` when unknown).
    """

    distance: np.ndarray
    reach_pair: np.ndarray
    reach_oid: np.ndarray
    reach_xy: np.ndarray
    anchors_live: np.ndarray
    epoch: int = -1

    @classmethod
    def nothing(cls, n: int, anchors: int = 0) -> "HolderScan":
        """A scan of ``n`` pairs that found no holder and no live anchor."""
        return cls(
            np.full(n, math.inf),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, 2)),
            np.zeros(anchors, dtype=bool),
        )

    @classmethod
    def merge(cls, scans: Sequence["HolderScan"]) -> "HolderScan":
        """The scan of the union of disjoint stores, from one scan of each."""
        return cls(
            np.min([s.distance for s in scans], axis=0),
            np.concatenate([s.reach_pair for s in scans]),
            np.concatenate([s.reach_oid for s in scans]),
            np.concatenate([s.reach_xy for s in scans]),
            np.logical_or.reduce([s.anchors_live for s in scans]),
            max(s.epoch for s in scans),
        )


class LiveIndex:
    """Merged spatial-keyword primitives over one snapshot.

    The sealed base's bR*-tree answers the bulk of every query; results
    are filtered against the tombstone set and the (small) delta adds are
    scanned linearly.  Masks use the snapshot's overlay term-id space.
    """

    def __init__(self, view: LiveView):
        self._view = view
        self._tree = view.base.brtree()
        self._tombstones = view.delta.tombstones
        self._adds = view.delta.adds

    def __len__(self) -> int:
        return len(self._view)

    def item_mask(self, oid: int) -> int:
        obj = self._view.get(oid)
        return self._view.global_mask_of(oid) if obj is not None else 0

    def range_circle(self, cx: float, cy: float, r: float) -> Iterator[LeafEntry]:
        """All live entries within the closed disc (base hits + delta adds)."""
        tombstones = self._tombstones
        for entry in self._tree.range_circle(cx, cy, r):
            if entry.item not in tombstones:
                yield entry
        r_sq = r * r * (1.0 + 1e-12) + 1e-18
        for obj in self._adds.values():
            dx = obj.x - cx
            dy = obj.y - cy
            if dx * dx + dy * dy <= r_sq:
                yield LeafEntry(obj.oid, obj.x, obj.y)

    def nearest_with_mask(
        self, x: float, y: float, required_mask: int
    ) -> Optional[LeafEntry]:
        """Nearest live entry whose keyword mask intersects ``required_mask``."""
        best: Optional[LeafEntry] = None
        best_dist = math.inf
        for obj in self._adds.values():
            if self._view.global_mask_of(obj.oid) & required_mask:
                d = math.hypot(obj.x - x, obj.y - y)
                if d < best_dist:
                    best, best_dist = LeafEntry(obj.oid, obj.x, obj.y), d
        tombstones = self._tombstones
        for entry, d in self._tree.nearest_iter_with_mask(x, y, required_mask):
            if d >= best_dist:
                break
            if entry.item not in tombstones:
                return entry
        return best

    def keyword_holders(self, term: str) -> List[int]:
        """Sorted live oids containing ``term`` (merged posting lookup)."""
        view = self._view
        if term not in view.vocabulary:
            return []
        return view.inverted.posting(view.vocabulary.id_of(term))
