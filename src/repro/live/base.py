"""The sealed, immutable base of a live store.

A :class:`SealedBase` plays the role :class:`~repro.core.objects.Dataset`
plays for the static engine, with one crucial difference: object ids are
*stable client-visible ids*, not dense row numbers.  A live store never
reuses an oid, so after deletes the id space has holes — postings, term
ids and locations are therefore keyed by oid (dict-backed adapters keep
the ``locations[oid]`` indexing contract the virtual-tree builder
expects).

A base is built once (at engine open or by the compactor folding a delta
in) and never mutated afterwards; all churn lives in the
:class:`~repro.live.delta.DeltaOverlay` layered on top.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.objects import GeoObject
from ..exceptions import DatasetError
from ..index.bitmap import KeywordVocabulary, mask_of
from ..index.brtree import BRStarTree
from ..index.columns import ColumnarStore
from ..index.inverted import InvertedIndex

__all__ = ["SealedBase"]


class SealedBase:
    """Immutable geo-textual store over stable (possibly sparse) oids."""

    def __init__(self, name: str = "live-base"):
        self.name = name
        self.objects: Dict[int, GeoObject] = {}
        self.vocabulary = KeywordVocabulary()
        self.inverted = InvertedIndex()
        self._term_ids: Dict[int, Tuple[int, ...]] = {}
        self._brtree: Optional[BRStarTree] = None
        self._brtree_lock = threading.Lock()
        self._columns: Optional[ColumnarStore] = None
        self._columns_lock = threading.Lock()

    @classmethod
    def build(
        cls,
        records: Iterable[Tuple[int, float, float, Iterable[str]]],
        name: str = "live-base",
    ) -> "SealedBase":
        """Seal ``(oid, x, y, keywords)`` records (oids must be unique)."""
        base = cls(name=name)
        for oid, x, y, keywords in records:
            oid = int(oid)
            if oid in base.objects:
                raise DatasetError(f"duplicate oid {oid} in sealed base")
            kw = frozenset(str(k) for k in keywords)
            if not kw:
                raise DatasetError("objects must carry at least one keyword")
            base.objects[oid] = GeoObject(oid, float(x), float(y), kw)
            term_ids = tuple(
                sorted(base.vocabulary.observe(t) for t in sorted(kw))
            )
            base._term_ids[oid] = term_ids
            base.inverted.add_object(oid, term_ids)
        base.inverted.finalize()
        return base

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.objects)

    def __contains__(self, oid: int) -> bool:
        return oid in self.objects

    def __iter__(self) -> Iterator[GeoObject]:
        return iter(self.objects.values())

    def __getitem__(self, oid: int) -> GeoObject:
        return self.objects[oid]

    def get(self, oid: int) -> Optional[GeoObject]:
        return self.objects.get(oid)

    def term_ids_of(self, oid: int) -> Tuple[int, ...]:
        return self._term_ids[oid]

    @property
    def term_ids(self) -> Dict[int, Tuple[int, ...]]:
        """``oid -> tuple of term ids`` mapping (dict-backed)."""
        return self._term_ids

    @property
    def locations(self) -> "_SparseLocationView":
        return _SparseLocationView(self)

    def max_oid(self) -> int:
        """Largest oid sealed in (``-1`` when empty)."""
        return max(self.objects) if self.objects else -1

    @property
    def columns(self) -> ColumnarStore:
        """Struct-of-arrays view sorted by oid (lazy, built once).

        The oid column is sorted but sparse (deletes leave holes), so the
        store resolves ids by ``searchsorted`` instead of direct indexing.
        """
        with self._columns_lock:
            if self._columns is None:
                self._columns = ColumnarStore.from_rows(
                    (oid, obj.x, obj.y, self._term_ids[oid])
                    for oid, obj in sorted(self.objects.items())
                )
            return self._columns

    def install_columns(self, columns: ColumnarStore) -> None:
        """Adopt an already-built oid-sorted store as :attr:`columns`.

        For builders that hold the columns anyway (a loaded segment, a
        compaction folding the previous base's store); the store must be
        exactly what the lazy build would produce.
        """
        with self._columns_lock:
            self._columns = columns

    def brtree(self, fanout: int = 100) -> BRStarTree:
        """Whole-base bR*-tree over global keyword masks (lazy, cached)."""
        with self._brtree_lock:
            if self._brtree is None:
                self._brtree = BRStarTree.build(
                    (
                        (oid, o.x, o.y, mask_of(self._term_ids[oid]))
                        for oid, o in self.objects.items()
                    ),
                    max_entries=fanout,
                )
            return self._brtree


class _SparseLocationView:
    """``view[oid] -> (x, y)`` over a sealed base's sparse id space."""

    __slots__ = ("_base",)

    def __init__(self, base: SealedBase):
        self._base = base

    def __getitem__(self, oid: int) -> Tuple[float, float]:
        o = self._base.objects[oid]
        return (o.x, o.y)

    def __len__(self) -> int:
        return len(self._base)
