"""Geo-textual objects and the sealed store they live in.

A :class:`GeoObject` is the paper's ``o``: a 2-D location ``o.λ`` plus a
keyword set ``o.ψ``.  :class:`Dataset` is the database ``O``: one
immutable columnar store (oid / x / y columns, CSR keyword term lists and
the term-major posting CSR over them) with its keyword vocabulary, the
inverted file viewing those postings, and a lazily built global bR*-tree.
A static engine's dataset has the dense oids ``0..n-1``; a live store's
sealed base is the same class over stable oids with holes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..exceptions import DatasetError
from ..index.bitmap import KeywordVocabulary, mask_of
from ..index.brtree import BRStarTree
from ..index.columns import ColumnarStore
from ..index.inverted import InvertedIndex

__all__ = ["GeoObject", "Dataset", "first_occurrence_terms"]


@dataclass(frozen=True, slots=True)
class GeoObject:
    """A geo-textual object: id, location, keyword strings."""

    oid: int
    x: float
    y: float
    keywords: FrozenSet[str]

    @property
    def location(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def covers(self, terms: Iterable[str]) -> bool:
        """True when this object alone contains every term."""
        return all(t in self.keywords for t in terms)


class _RowBuilder:
    """Rows collected in Python, then sealed into columns in numpy.

    Term ids follow first occurrence over rows in input order, each row's
    keywords in string order — so they do not depend on the process hash
    seed, and datasets and query workloads reproduce across runs.
    """

    def __init__(self) -> None:
        self.oids: List[int] = []
        self.xs: List[float] = []
        self.ys: List[float] = []
        self.keywords: List[List[str]] = []

    def extend(self, records: Iterable[Tuple[int, float, float, Iterable[str]]]) -> None:
        oids, xs, ys = self.oids.append, self.xs.append, self.ys.append
        keywords = self.keywords.append
        for oid, x, y, kw in records:
            row = sorted({*map(str, kw)})
            if not row:
                raise DatasetError("objects must carry at least one keyword")
            oids(oid)
            xs(x)
            ys(y)
            keywords(row)

    def build(self) -> Tuple[ColumnarStore, List[str]]:
        """The rows as an oid-sorted store, plus the terms in id order."""
        n = len(self.oids)
        flat = list(chain.from_iterable(self.keywords))
        index = {t: i for i, t in enumerate(dict.fromkeys(flat))}
        ids = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, self.keywords), np.int64, n), out=indptr[1:])
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        store = ColumnarStore(
            np.asarray(self.oids, dtype=np.int64),
            np.asarray(self.xs, dtype=np.float64),
            np.asarray(self.ys, dtype=np.float64),
            indptr,
            ids[np.argsort(owner * max(1, len(index)) + ids, kind="stable")],
        )
        oids = store.oids
        if np.any(oids[1:] <= oids[:-1]):
            store = store.take(np.argsort(oids, kind="stable"))
            same = np.flatnonzero(store.oids[1:] == store.oids[:-1])
            if len(same):
                raise DatasetError(
                    f"duplicate oid {int(store.oids[same[0]])} in sealed store"
                )
        return store, list(index)


def first_occurrence_terms(
    term_indptr: np.ndarray, term_ids: np.ndarray, terms: Sequence[str]
) -> Tuple[np.ndarray, List[str]]:
    """Renumber CSR term lists as a seal of the same rows would number them.

    ``term_ids`` index ``terms``.  The new ids follow first occurrence over
    the rows in order, each row's terms in string order (the
    :class:`_RowBuilder` rule); terms no row holds drop out.  Rows must not
    repeat a term.  Returns the renumbered, per-row sorted term column and
    the new terms in id order.
    """
    n_terms = len(terms)
    rank = np.empty(n_terms, dtype=np.int64)
    rank[sorted(range(n_terms), key=terms.__getitem__)] = np.arange(n_terms)
    owner = np.repeat(
        np.arange(len(term_indptr) - 1, dtype=np.int64), np.diff(term_indptr)
    )
    visit = term_ids[np.argsort(owner * max(1, n_terms) + rank[term_ids], kind="stable")]
    held, first = np.unique(visit, return_index=True)
    old_ids = held[np.argsort(first)]
    remap = np.zeros(max(1, n_terms), dtype=np.int64)
    remap[old_ids] = np.arange(len(old_ids))
    renumbered = remap[term_ids]
    renumbered = renumbered[np.argsort(owner * max(1, n_terms) + renumbered, kind="stable")]
    return renumbered, [terms[t] for t in old_ids.tolist()]


class Dataset:
    """The geo-textual database ``O`` with its query-time substrate.

    Build it once from records — ``from_records`` / ``add`` + ``finalize``
    (dense oids ``0..n-1`` in insertion order), :meth:`seal` (records that
    carry their own, possibly sparse, oids) or :meth:`from_columns`
    (columns already in hand, e.g. a loaded segment).  All mCK algorithms
    then share its inverted file, vocabulary and indexes.

    The columns are the truth; :class:`GeoObject` rows and the
    ``term_ids[oid]`` adapter are derived on demand for public accessors
    and the dataset-wide bR*-tree.  A dataset pickles as its
    columns and terms only.
    """

    def __init__(self, name: str = "dataset"):
        self.name = name
        self._builder: Optional[_RowBuilder] = _RowBuilder()
        self._store: Optional[ColumnarStore] = None
        self.vocabulary = KeywordVocabulary()
        self.inverted: Optional[InvertedIndex] = None
        #: Derived state (adapters, coords, bR*-tree), each built once
        #: under ``_lock``.
        self._derived: Dict[str, Any] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_records(
        cls,
        records: Iterable[Tuple[float, float, Iterable[str]]],
        name: str = "dataset",
    ) -> "Dataset":
        """Build from ``(x, y, keywords)`` records and finalize."""
        ds = cls(name=name)
        for x, y, keywords in records:
            ds.add(x, y, keywords)
        ds.finalize()
        return ds

    @classmethod
    def seal(
        cls,
        records: Iterable[Tuple[int, float, float, Iterable[str]]],
        name: str = "dataset",
    ) -> "Dataset":
        """Seal ``(oid, x, y, keywords)`` records (oids unique, any order)."""
        builder = _RowBuilder()
        builder.extend(records)
        ds = cls(name=name)
        ds._adopt(*builder.build())
        return ds

    @classmethod
    def from_columns(
        cls,
        oids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        term_indptr: np.ndarray,
        term_ids: np.ndarray,
        terms: Sequence[str],
        name: str = "dataset",
    ) -> "Dataset":
        """Adopt oid-sorted columns whose ascending CSR rows index ``terms``."""
        ds = cls(name=name)
        ds._adopt(ColumnarStore(oids, xs, ys, term_indptr, term_ids), list(terms))
        return ds

    def add(self, x: float, y: float, keywords: Iterable[str]) -> int:
        """Append one object; returns its id."""
        if self._builder is None:
            raise DatasetError("dataset already finalized; create a new one")
        oid = len(self._builder.oids)
        self._builder.extend(((oid, x, y, keywords),))
        return oid

    def finalize(self) -> None:
        """Freeze the dataset: build its columns and vocabulary."""
        if self._builder is not None:
            self._adopt(*self._builder.build())

    def _adopt(self, store: ColumnarStore, terms: List[str]) -> None:
        freq = np.bincount(store.term_ids, minlength=len(terms))
        self._builder = None
        self._store = store
        self.vocabulary = KeywordVocabulary.from_terms(terms, freq.tolist())
        self.inverted = InvertedIndex(store)

    def __reduce__(self):
        """Pickle as the truth only — columns and terms, no caches."""
        s = self.columns
        terms = self.vocabulary.terms()
        return (
            type(self).from_columns,
            (s.oids, s.xs, s.ys, s.term_indptr, s.term_ids, terms, self.name),
        )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def columns(self) -> ColumnarStore:
        """Struct-of-arrays store: oid/x/y columns + CSR term ids, oid-sorted."""
        if self._store is None:
            raise DatasetError("dataset not finalized")
        return self._store

    def __len__(self) -> int:
        if self._store is None:
            return len(self._builder.oids)
        return len(self._store.oids)

    def _row_of(self, oid) -> Optional[int]:
        s = self.columns
        n = len(s.oids)
        if s.dense:
            return int(oid) if 0 <= oid < n else None
        row = int(np.searchsorted(s.oids, oid))
        return row if row < n and s.oids[row] == oid else None

    def _row(self, oid) -> int:
        row = self._row_of(oid)
        if row is None:
            raise KeyError(oid)
        return row

    def _object_at(self, row: int) -> GeoObject:
        s = self._store
        tids = s.term_ids[s.term_indptr[row] : s.term_indptr[row + 1]].tolist()
        terms = self.vocabulary.terms()
        return GeoObject(
            int(s.oids[row]),
            float(s.xs[row]),
            float(s.ys[row]),
            frozenset([terms[t] for t in tids]),
        )

    def __contains__(self, oid) -> bool:
        return self._row_of(oid) is not None

    def __iter__(self) -> Iterator[GeoObject]:
        s = self.columns
        terms = self.vocabulary.terms()
        flat = s.term_ids.tolist()
        ptr = s.term_indptr.tolist()
        rows = zip(s.oids.tolist(), s.xs.tolist(), s.ys.tolist())
        for i, (oid, x, y) in enumerate(rows):
            kw = frozenset([terms[t] for t in flat[ptr[i] : ptr[i + 1]]])
            yield GeoObject(oid, x, y, kw)

    def __getitem__(self, oid: int) -> GeoObject:
        return self._object_at(self._row(oid))

    def get(self, oid: int) -> Optional[GeoObject]:
        row = self._row_of(oid)
        return None if row is None else self._object_at(row)

    def max_oid(self) -> int:
        """Largest oid held (``-1`` when empty)."""
        oids = self.columns.oids
        return int(oids[-1]) if len(oids) else -1

    def _cached(self, key: str, build: Callable[[], Any]) -> Any:
        value = self._derived.get(key)
        if value is None:
            with self._lock:
                value = self._derived.get(key)
                if value is None:
                    value = self._derived[key] = build()
        return value

    def _by_oid(self, values: List[Any]) -> Any:
        """``values`` (one per row) indexable by oid: a list when dense."""
        s = self.columns
        return values if s.dense else dict(zip(s.oids.tolist(), values))

    @property
    def coords(self) -> np.ndarray:
        """``(n, 2)`` float64 array of locations in row order (requires finalize())."""
        s = self.columns
        return self._cached("coords", lambda: np.column_stack((s.xs, s.ys)))

    def location_of(self, oid: int) -> Tuple[float, float]:
        row = self._row(oid)
        return (float(self._store.xs[row]), float(self._store.ys[row]))

    def term_ids_of(self, oid: int) -> Tuple[int, ...]:
        """Global term ids of an object's keywords."""
        row = self._row(oid)
        s = self._store
        return tuple(s.term_ids[s.term_indptr[row] : s.term_indptr[row + 1]].tolist())

    @property
    def term_ids(self):
        """``oid -> tuple of global term ids`` (built on first use)."""

        def build():
            flat = self.columns.term_ids.tolist()
            ptr = self.columns.term_indptr.tolist()
            return self._by_oid(
                [tuple(flat[ptr[i] : ptr[i + 1]]) for i in range(len(ptr) - 1)]
            )

        return self._cached("term_ids", build)

    def brtree(self) -> BRStarTree:
        """The dataset-wide bR*-tree over global keyword masks (built once)."""

        def build():
            s = self.columns
            term_ids = self.term_ids
            return BRStarTree.build(
                (oid, x, y, mask_of(term_ids[oid]))
                for oid, x, y in zip(s.oids.tolist(), s.xs.tolist(), s.ys.tolist())
            )

        return self._cached("brtree", build)

    # ------------------------------------------------------------------ #
    # Derived datasets
    # ------------------------------------------------------------------ #

    def sample(self, n: int, seed: int = 0, name: Optional[str] = None) -> "Dataset":
        """A new dataset of ``n`` objects sampled without replacement.

        The paper's scalability study (§6.2.5) samples its 1M–4M datasets
        from the 5M crawl; this reproduces that methodology.  Object ids
        are re-densified in the sample.
        """
        if not 0 <= n <= len(self):
            raise DatasetError(f"cannot sample {n} of {len(self)} objects")
        import random as _random

        rng = _random.Random(seed)
        chosen = sorted(rng.sample(range(len(self)), n))
        objects = list(self)
        return Dataset.from_records(
            ((objects[i].x, objects[i].y, objects[i].keywords) for i in chosen),
            name=name or f"{self.name}-sample{n}",
        )

    def extended(
        self,
        records: Iterable[Tuple[float, float, Iterable[str]]],
        name: Optional[str] = None,
    ) -> "Dataset":
        """A new dataset with ``records`` appended (functional update).

        Post-finalize datasets are deliberately immutable (packed arrays,
        cached indexes); evolving data is modelled by deriving a new
        dataset, which shares nothing mutable with its parent.
        """
        def chain():
            for o in self:
                yield (o.x, o.y, o.keywords)
            yield from records

        return Dataset.from_records(chain(), name=name or self.name)

    def without(self, object_ids, name: Optional[str] = None) -> "Dataset":
        """A new dataset with the given object ids removed (re-densified)."""
        drop = set(int(o) for o in object_ids)
        return Dataset.from_records(
            (
                (o.x, o.y, o.keywords)
                for o in self
                if o.oid not in drop
            ),
            name=name or self.name,
        )

    def filter_bbox(
        self, x1: float, y1: float, x2: float, y2: float, name: Optional[str] = None
    ) -> "Dataset":
        """A new dataset restricted to a bounding box (e.g. one city area)."""
        return Dataset.from_records(
            (
                (o.x, o.y, o.keywords)
                for o in self
                if x1 <= o.x <= x2 and y1 <= o.y <= y2
            ),
            name=name or f"{self.name}-bbox",
        )

    # ------------------------------------------------------------------ #
    # Statistics (Table 1 of the paper)
    # ------------------------------------------------------------------ #

    def unique_word_count(self) -> int:
        return len(self.vocabulary)

    def total_word_count(self) -> int:
        return len(self.columns.term_ids)

    def extent_diameter(self) -> float:
        """Diameter of the dataset's bounding box diagonal.

        Used by the paper's query generator ("20% of the diameter of the
        whole dataset", §6.1).
        """
        coords = self.coords
        if len(coords) == 0:
            return 0.0
        min_xy = coords.min(axis=0)
        max_xy = coords.max(axis=0)
        return float(np.hypot(*(max_xy - min_xy)))

