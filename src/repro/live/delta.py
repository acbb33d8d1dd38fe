"""Delta overlay: recent mutations layered over a sealed base.

A :class:`DeltaOverlay` is an *immutable* value: ``with_insert`` /
``with_delete`` / ``with_batch`` return a new overlay sharing nothing
mutable with the old one (copy-on-write of small dicts).  That is what
makes epoch snapshots trivially safe — a reader holding ``(base, delta)``
can never observe a torn mutation, because published deltas are never
mutated in place.

Three merged read views are built on top:

* :class:`OverlayVocabulary` / :class:`OverlayInverted` — keyword lookups
  over base + delta with tombstones subtracted, duck-typing the
  :class:`~repro.index.bitmap.KeywordVocabulary` /
  :class:`~repro.index.inverted.InvertedIndex` surface the query compiler
  consumes;
* :class:`LiveView` — a dataset-shaped view the unmodified mCK algorithms
  run against (the per-query virtual bR*-tree is built from its merged
  postings, so GKG/SKEC/SKECa/SKECa+/EXACT all work on live data);
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
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.objects import GeoObject
from ..exceptions import DatasetError
from ..index.bitmap import mask_of
from ..index.columns import ColumnarStore
from ..index.rstar import LeafEntry
from .base import SealedBase

__all__ = ["DeltaOverlay", "OverlayVocabulary", "OverlayInverted", "LiveView", "LiveIndex"]

_EMPTY: FrozenSet[int] = frozenset()


class DeltaOverlay:
    """Immutable set of adds + tombstones with its own keyword map."""

    __slots__ = ("adds", "tombstones", "keyword_map", "freq_delta")

    def __init__(
        self,
        adds: Optional[Dict[int, GeoObject]] = None,
        tombstones: FrozenSet[int] = _EMPTY,
        keyword_map: Optional[Dict[str, FrozenSet[int]]] = None,
        freq_delta: Optional[Dict[str, int]] = None,
    ):
        self.adds: Dict[int, GeoObject] = adds or {}
        self.tombstones: FrozenSet[int] = tombstones
        #: term -> oids of *live* delta adds containing it.
        self.keyword_map: Dict[str, FrozenSet[int]] = keyword_map or {}
        #: term -> net document-frequency change vs the base.
        self.freq_delta: Dict[str, int] = freq_delta or {}

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
        resolves them from the snapshot it mutated under).
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
        return DeltaOverlay(adds, frozenset(tombstones), keyword_map, freq_delta)

    @classmethod
    def from_state(
        cls,
        adds: Dict[int, GeoObject],
        tombstones: Iterable[int],
        base: SealedBase,
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
        return cls(dict(adds), tomb, keyword_map, freq_delta)

    # ------------------------------------------------------------------ #

    def holders_of(self, term: str) -> FrozenSet[int]:
        """Live delta adds containing ``term``."""
        return self.keyword_map.get(term, _EMPTY)

    def rebase(self, new_base: SealedBase) -> "DeltaOverlay":
        """The residual delta after ``new_base`` sealed an older snapshot.

        Everything already folded into ``new_base`` drops out; what
        remains is exactly the mutations applied after the compactor took
        its snapshot: adds whose oid is not sealed, and tombstones whose
        victim *is* sealed (tombstones of never-sealed adds cancel out).
        """
        residual = DeltaOverlay()
        inserts = [
            obj for oid, obj in sorted(self.adds.items()) if oid not in new_base
        ]
        deletes = [
            (oid, tuple(new_base[oid].keywords))
            for oid in sorted(self.tombstones)
            if oid in new_base
        ]
        return residual.with_batch(inserts=inserts, deletes=deletes)


class OverlayVocabulary:
    """Base vocabulary extended with the delta's unseen terms.

    Term ids of base terms are unchanged; delta-only terms get ids from
    ``len(base)`` upward (sorted for determinism).  Ids are epoch-internal
    — they are never exposed to clients and are re-interned at compaction.
    """

    __slots__ = ("_base", "_base_size", "_extra", "_extra_terms", "_freq_delta")

    def __init__(self, base_vocab, delta: DeltaOverlay):
        self._base = base_vocab
        self._base_size = len(base_vocab)
        extra = sorted(t for t in delta.keyword_map if t not in base_vocab)
        self._extra: Dict[str, int] = {
            t: self._base_size + i for i, t in enumerate(extra)
        }
        self._extra_terms: List[str] = extra
        self._freq_delta = delta.freq_delta

    def __len__(self) -> int:
        return self._base_size + len(self._extra)

    def __contains__(self, term: str) -> bool:
        return term in self._base or term in self._extra

    @property
    def base_size(self) -> int:
        return self._base_size

    def id_of(self, term: str) -> int:
        tid = self._extra.get(term)
        if tid is not None:
            return tid
        return self._base.id_of(term)

    def term_of(self, tid: int) -> str:
        if tid >= self._base_size:
            return self._extra_terms[tid - self._base_size]
        return self._base.term_of(tid)

    def frequency(self, term_or_id) -> int:
        term = (
            self.term_of(term_or_id)
            if isinstance(term_or_id, int)
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


class OverlayInverted:
    """Merged posting lists: base minus tombstones, plus delta adds."""

    __slots__ = ("_base", "_vocab", "_delta")

    def __init__(self, base_inverted, vocab: OverlayVocabulary, delta: DeltaOverlay):
        self._base = base_inverted
        self._vocab = vocab
        self._delta = delta

    def posting(self, term_id: int) -> List[int]:
        term = self._vocab.term_of(term_id)
        if term_id < self._vocab.base_size:
            base_list = self._base.posting(term_id)
        else:
            base_list = ()
        tombstones = self._delta.tombstones
        merged = [oid for oid in base_list if oid not in tombstones]
        extra = self._delta.holders_of(term)
        if extra:
            merged.extend(extra)
            merged.sort()
        return merged

    def document_frequency(self, term_id: int) -> int:
        return len(self.posting(term_id))

    def relevant_objects(self, term_ids: Sequence[int]) -> List[int]:
        merged = set()
        for tid in term_ids:
            merged.update(self.posting(tid))
        return sorted(merged)

    def uncoverable_terms(self, term_ids: Sequence[int]) -> List[int]:
        return [tid for tid in term_ids if not self.posting(tid)]


class LiveView:
    """Dataset-shaped merged view of one ``(base, delta)`` snapshot.

    Duck-types the slice of :class:`~repro.core.objects.Dataset` the query
    compiler, the algorithms, and :meth:`~repro.core.result.Group.objects`
    consume — vocabulary, inverted file, ``locations[oid]`` /
    ``term_ids[oid]`` adapters, item access.  Object ids are the store's
    stable live oids (sparse after deletes), which is why the adapters are
    mapping-backed instead of packed arrays.
    """

    def __init__(self, base: SealedBase, delta: DeltaOverlay, name: str = "live"):
        self.base = base
        self.delta = delta
        self.name = name
        self.vocabulary = OverlayVocabulary(base.vocabulary, delta)
        self.inverted = OverlayInverted(base.inverted, self.vocabulary, delta)
        self._columns: Optional[ColumnarStore] = None

    def finalize(self) -> None:
        """No-op: a snapshot view is immutable by construction."""

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.base) - len(self.delta.tombstones & self.base.objects.keys()) + len(self.delta.adds)

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
        for oid, obj in self.base.objects.items():
            if oid not in tombstones:
                yield obj
        yield from self.delta.adds.values()

    def live_oids(self) -> List[int]:
        return sorted(obj.oid for obj in self)

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

    @property
    def term_ids(self) -> "_ViewTermIds":
        return _ViewTermIds(self)

    @property
    def locations(self) -> "_ViewLocations":
        return _ViewLocations(self)

    def global_mask_of(self, oid: int) -> int:
        """Whole-vocabulary (overlay id space) keyword mask of an object."""
        return mask_of(self.term_ids_of(oid))

    def index(self) -> "LiveIndex":
        return LiveIndex(self)

    def nearest_holder_distances(
        self, points, terms: Sequence[str], within
    ) -> np.ndarray:
        """Distance from ``points[i]`` to its nearest live holder of
        ``terms[i]``, exact wherever it is at most ``within[i]``; beyond
        that, some larger value (``inf`` when no holder is in range).

        Base holders are scanned only inside the x-slab ``points[i].x ±
        within[i]`` (any holder that close in distance lies there), with
        tombstoned ones masked out; the delta's adds of each term (live by
        construction) are scanned whole.  Both scans measure every
        (point, holder) pair in one vectorised pass.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        best = np.full(len(pts), math.inf)
        if not len(pts):
            return best
        vocab = self.base.vocabulary
        tid = {t: vocab.id_of(t) if t in vocab else -1 for t in set(terms)}
        # Widen the slab past float rounding; the exact test comes after.
        reach = np.asarray(within, dtype=np.float64)
        reach = reach + 1e-9 * (reach + np.abs(pts[:, 0]))
        columns = self.base.columns
        rows, starts, ends = columns.holders_in_slabs(
            np.array([tid[t] for t in terms], dtype=np.int64),
            pts[:, 0] - reach,
            pts[:, 0] + reach,
        )
        alive = None
        dead = self.delta.tombstones & self.base.objects.keys()
        if dead:
            alive = np.ones(len(columns.oids), dtype=bool)
            dead_ids = np.fromiter(dead, dtype=np.int64, count=len(dead))
            alive[columns.positions_of(dead_ids)] = False
        _scan_nearest(
            best, pts, starts, ends - starts, rows, columns.xs, columns.ys, alive
        )
        add_xs: List[float] = []
        add_ys: List[float] = []
        spans: Dict[str, Tuple[int, int]] = {}
        keyword_map = self.delta.keyword_map
        for term in tid.keys() & keyword_map.keys():
            oids = keyword_map[term]
            spans[term] = (len(add_xs), len(oids))
            for oid in oids:
                obj = self.delta.adds[oid]
                add_xs.append(obj.x)
                add_ys.append(obj.y)
        if add_xs:
            empty = (0, 0)
            starts, lengths = np.array(
                [spans.get(t, empty) for t in terms], dtype=np.int64
            ).T
            _scan_nearest(
                best, pts, starts, lengths, np.arange(len(add_xs)),
                np.array(add_xs), np.array(add_ys), None,
            )
        return best

    @property
    def columns(self) -> ColumnarStore:
        """Merged struct-of-arrays view of this snapshot (lazy, cached).

        The sealed base's columns are reused wholesale: tombstoned rows are
        dropped with one boolean gather, delta adds (small by construction)
        are appended, and when an add's oid interleaves with the base range
        a stable argsort restores oid order.  Term ids are the snapshot's
        overlay id space, matching :meth:`term_ids_of`.
        """
        if self._columns is None:
            base_cols = self.base.columns
            tomb = self.delta.tombstones & self.base.objects.keys()
            if tomb:
                keep = ~np.isin(
                    base_cols.oids, np.fromiter(tomb, dtype=np.int64, count=len(tomb))
                )
                kept_idx = np.flatnonzero(keep)
                oids = base_cols.oids[kept_idx]
                xs = base_cols.xs[kept_idx]
                ys = base_cols.ys[kept_idx]
                starts = base_cols.term_indptr[kept_idx]
                counts = base_cols.term_indptr[kept_idx + 1] - starts
                offsets = np.concatenate(([0], np.cumsum(counts)))
                flat = np.arange(int(offsets[-1]), dtype=np.int64) + np.repeat(
                    starts - offsets[:-1], counts
                )
                terms = base_cols.term_ids[flat]
                indptr = offsets
            else:
                oids = base_cols.oids
                xs = base_cols.xs
                ys = base_cols.ys
                indptr = base_cols.term_indptr
                terms = base_cols.term_ids
            if self.delta.adds:
                add_cols = ColumnarStore.from_rows(
                    (oid, obj.x, obj.y, self.term_ids_of(oid))
                    for oid, obj in sorted(self.delta.adds.items())
                )
                merged_oids = np.concatenate([oids, add_cols.oids])
                xs = np.concatenate([xs, add_cols.xs])
                ys = np.concatenate([ys, add_cols.ys])
                lengths = np.concatenate(
                    [np.diff(indptr), np.diff(add_cols.term_indptr)]
                )
                starts = np.concatenate(
                    [indptr[:-1], add_cols.term_indptr[:-1] + indptr[-1]]
                )
                terms = np.concatenate([terms, add_cols.term_ids])
                if len(oids) and len(add_cols.oids) and add_cols.oids[0] < oids[-1]:
                    order = np.argsort(merged_oids, kind="stable")
                    merged_oids = merged_oids[order]
                    xs = xs[order]
                    ys = ys[order]
                    lengths = lengths[order]
                    starts = starts[order]
                indptr = np.concatenate(([0], np.cumsum(lengths)))
                flat = np.arange(int(indptr[-1]), dtype=np.int64) + np.repeat(
                    starts - indptr[:-1], lengths
                )
                terms = terms[flat]
                oids = merged_oids
            self._columns = ColumnarStore(oids, xs, ys, indptr, terms)
        return self._columns


def _scan_nearest(best, pts, starts, lengths, order, xs, ys, alive) -> None:
    """Lower ``best[r]`` to point ``r``'s nearest holder in its block.

    Row ``r``'s holders are ``order[starts[r]:starts[r] + lengths[r]]``,
    indexing the ``xs`` / ``ys`` columns; holders whose ``alive`` flag is
    False are skipped (``alive=None`` skips nothing).  Every (row,
    holder) pair is measured in one pass, then reduced per row on
    squared distances.
    """
    ends = np.cumsum(lengths)
    if not len(ends) or not ends[-1]:
        return
    holder = order[
        np.arange(int(ends[-1])) + np.repeat(starts - (ends - lengths), lengths)
    ]
    dx = np.repeat(pts[:, 0], lengths) - xs[holder]
    dy = np.repeat(pts[:, 1], lengths) - ys[holder]
    gaps = dx * dx + dy * dy
    if alive is not None:
        gaps[~alive[holder]] = math.inf
    filled = lengths > 0
    nearest = np.sqrt(np.minimum.reduceat(gaps, (ends - lengths)[filled]))
    best[filled] = np.minimum(best[filled], nearest)


class _ViewTermIds:
    __slots__ = ("_view",)

    def __init__(self, view: LiveView):
        self._view = view

    def __getitem__(self, oid: int) -> Tuple[int, ...]:
        return self._view.term_ids_of(oid)


class _ViewLocations:
    __slots__ = ("_view",)

    def __init__(self, view: LiveView):
        self._view = view

    def __getitem__(self, oid: int) -> Tuple[float, float]:
        return self._view.location_of(oid)

    def __len__(self) -> int:
        return len(self._view)


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
