"""The mCK query and its per-dataset compiled context.

A raw :class:`MCKQuery` is just the m keyword strings.  Before an algorithm
runs, the query is *compiled* against a dataset into a
:class:`QueryContext`: keyword strings become global term ids, objects in
``O'`` get query-local bitmap masks (bit i = query keyword i), and the
virtual bR*-tree plus packed coordinate arrays are materialised.  All five
algorithms and all three baselines consume the same context, which is what
makes the paper's "same index for all methods" comparison fair (§3).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from ..exceptions import QueryError
from ..geometry.diameter import diameter_batch
from ..index.virtual import VirtualBRTree
from ..observability.tracer import span as _trace_span
from .objects import Dataset

__all__ = [
    "MCKQuery",
    "QueryContext",
    "QueryRows",
    "PoleCache",
    "compile_query",
    "query_rows",
]

#: Relative headroom of the coverage radii read for a precheck at diameter
#: D: the precheck keeps radii up to D / (1 - 1e-12), and 1e-11 covers that
#: with rounding to spare while staying far below the 1e-9 slack of
#: ``probe_radius``, so a probe within the search's bound reuses its radii.
_PRECHECK_REACH = 1.0 + 1e-11


class PoleCache:
    """Distance-sorted view of O' around one pole object.

    The SKEC-family algorithms probe the same pole with many diameters
    (binary search).  Sorting O' by distance from the pole once makes every
    subsequent sweeping-area query a ``searchsorted`` + slice, and the
    prefix-union array answers "can the objects within distance D cover the
    query?" in O(1) — the precheck that skips most circleScan invocations.
    ``phis`` carries each object's polar angle around the pole (aligned
    with ``rows``), so per-probe event construction skips the ``arctan2``.
    """

    __slots__ = ("dists", "rows", "prefix_union", "phis", "radius_bound")

    def __init__(
        self,
        dists: np.ndarray,
        rows: np.ndarray,
        prefix_union: np.ndarray,
        phis: np.ndarray,
        radius_bound: float,
    ):
        self.dists = dists
        self.rows = rows
        self.prefix_union = prefix_union
        self.phis = phis
        #: Largest query radius this cache fully covers: it holds only the
        #: rows within this distance — a bit-identical prefix of the full
        #: distance sort.
        self.radius_bound = radius_bound

    def prefix_length(self, radius: float) -> int:
        """Number of O' objects within (closed) distance ``radius``."""
        bound = radius * (1.0 + 1e-12) + 1e-18
        return int(np.searchsorted(self.dists, bound, side="right"))

    def union_within(self, radius: float) -> int:
        """Keyword union mask of all objects within ``radius`` of the pole."""
        return self.prefix_union[self.prefix_length(radius)]

    def rows_within(self, radius: float) -> np.ndarray:
        """O' rows within ``radius`` of the pole, nearest first."""
        return self.rows[: self.prefix_length(radius)]


@dataclass(frozen=True)
class MCKQuery:
    """An m-closest-keywords query: a tuple of distinct keywords."""

    keywords: Tuple[str, ...]

    def __init__(self, keywords: Sequence[str]):
        cleaned = tuple(dict.fromkeys(str(k) for k in keywords))
        if not cleaned:
            raise QueryError("query must contain at least one keyword")
        object.__setattr__(self, "keywords", cleaned)

    @property
    def m(self) -> int:
        return len(self.keywords)

    def __iter__(self):
        return iter(self.keywords)

    def __len__(self) -> int:
        return len(self.keywords)


class QueryRows(NamedTuple):
    """O' as ascending oids, ``(n, 2)`` coords and query-local masks."""

    oids: np.ndarray
    coords: np.ndarray
    masks: np.ndarray

    @classmethod
    def empty(cls) -> "QueryRows":
        return cls(np.empty(0, np.int64), np.empty((0, 2)), np.empty(0, np.uint64))


class QueryContext:
    """A query compiled against a dataset.

    Exposes everything the algorithms share:

    * ``relevant_ids`` / ``coords`` / ``masks`` — ``O'`` with row-aligned
      locations and query-local keyword masks;
    * ``full_mask`` — coverage target ``(1 << m) - 1``;
    * ``virtual_tree`` — the per-query virtual bR*-tree;
    * ``t_inf`` — the least frequent query keyword (GKG §3);
    * distance helpers over the packed array.
    """

    def __init__(
        self,
        dataset: Dataset,
        query: MCKQuery,
        exclude: Optional[frozenset] = None,
    ):
        self.dataset = dataset
        self.query = query
        self.excluded_ids = frozenset(exclude or ())
        self.term_ids = [dataset.vocabulary.id_of(t) for t in query.keywords]
        self.virtual_tree = VirtualBRTree.build(
            dataset,
            self.term_ids,
            query_terms=query.keywords,
            exclude=self.excluded_ids or None,
        )
        self.relevant_ids: List[int] = self.virtual_tree.object_ids
        self.coords: np.ndarray = self.virtual_tree.coords
        self.masks: List[int] = self.virtual_tree.masks
        self.full_mask: int = self.virtual_tree.full_mask
        self.t_inf: str = dataset.vocabulary.least_frequent(list(query.keywords))
        self.t_inf_bit: int = 1 << query.keywords.index(self.t_inf)
        self._pole_caches: "OrderedDict[int, PoleCache]" = OrderedDict()
        #: Largest diameter the running search can still probe; a bounded
        #: pole cache is built at least this wide, so each probed pole pays
        #: one ball query however its probes shrink (SKECa+ sets it from
        #: its upper bound and tightens it every binary step).
        self.probe_radius = 0.0
        #: Cap on cached poles; 1024 poles over a few thousand relevant
        #: objects stays well under 100 MB.
        self._pole_cache_limit = 1024
        #: ``(bound, radii)``: radii exact up to ``bound``.  One attribute,
        #: so a thread sharing this context never pairs one call's array
        #: with another call's bound.
        self._cover_radii: Tuple[float, Optional[np.ndarray]] = (-math.inf, None)
        self._keyword_trees: dict = {}
        self._relevant_kdtree = None
        self._masks_np: Optional[np.ndarray] = self.virtual_tree.masks_np
        self._bits_matrix: Optional[np.ndarray] = None
        self._ir_tree = None

    # ------------------------------------------------------------------ #

    @property
    def m(self) -> int:
        return self.query.m

    def __len__(self) -> int:
        """Number of relevant objects |O'|."""
        return len(self.relevant_ids)

    def row_of(self, oid: int) -> int:
        return self.virtual_tree.row_of(oid)

    def rows(self) -> QueryRows:
        """O' as :class:`QueryRows`; coords and masks are this context's."""
        oids = np.asarray(self.relevant_ids, dtype=np.int64)
        masks = self.masks_np if self.m <= 64 else np.array(self.masks, dtype=object)
        return QueryRows(oids, self.coords, masks)

    def mask_of_row(self, row: int) -> int:
        return self.masks[row]

    def location_of_row(self, row: int) -> Tuple[float, float]:
        return (float(self.coords[row, 0]), float(self.coords[row, 1]))

    @property
    def masks_np(self) -> np.ndarray:
        """Flat uint64 column of the query-local masks (m <= 64 bits)."""
        if self._masks_np is None:
            self._masks_np = np.asarray(self.masks, dtype=np.uint64)
        return self._masks_np

    @property
    def bits_matrix(self) -> np.ndarray:
        """``(|O'|, m)`` uint8 keyword-membership matrix (lazy).

        Column ``i`` flags the holders of query keyword ``i`` — the
        struct-of-arrays form of ``masks`` that the batched circleScan
        event walk consumes.
        """
        if self._bits_matrix is None:
            from ..index.bitmap import bits_matrix as _bits

            if self.m <= 64:
                self._bits_matrix = _bits(self.masks_np, self.m)
            else:
                self._bits_matrix = _bits(self.masks, self.m)
        return self._bits_matrix

    def rows_with_bit(self, bit: int) -> List[int]:
        """Rows of O' whose mask has ``bit`` set (e.g. holders of t_inf)."""
        if self.m <= 64:
            hits = np.flatnonzero(self.masks_np & np.uint64(bit))
            return [int(r) for r in hits]
        return [row for row, mask in enumerate(self.masks) if mask & bit]

    def rows_within(self, cx: float, cy: float, r: float) -> np.ndarray:
        return self.virtual_tree.rows_within(cx, cy, r)

    def union_mask(self, rows) -> int:
        return self.virtual_tree.union_mask(rows)

    def covers(self, rows) -> bool:
        return self.virtual_tree.covers_query(rows)

    @property
    def cover_radii(self) -> np.ndarray:
        """Every row's exact coverage radius: :meth:`cover_radii_within` ``inf``."""
        return self.cover_radii_within(math.inf)

    def cover_radii_within(self, bound: float) -> np.ndarray:
        """Per-pole coverage radius, exact up to ``bound`` (cached per bound).

        ``radii[row]`` is the largest over the m query keywords of the
        distance from pole ``row`` to its nearest holder of that keyword.
        A closed disc of diameter D around the pole can enclose a covering
        group iff ``D >= radii[row]`` — the O(1) precheck that lets
        circleScan skip hopeless (pole, diameter) probes without touching
        the sweeping area.  A search that never probes past ``bound`` reads
        no radius above it, so rows whose radius exceeds ``bound`` hold
        ``+inf``; the rest are bit-identical to the unbounded radii.

        Each keyword's distances come from the store's column once bought
        (``ColumnarStore.term_nn_dists``; every call charges |O'| rent),
        else from :meth:`keyword_tree`, queried only at the rows still
        within ``bound``.  Under ``exclude`` the holder set shrinks, so the
        store is not asked.  Contexts are shared across algorithms and
        threads: a read above the cached bound recomputes at the wider one.
        """
        cached_bound, cached = self._cover_radii
        if bound <= cached_bound:
            return cached
        columns = None if self.excluded_ids else self.dataset.columns
        # The KD tree compares squared distances strictly, so a radius
        # exactly at ``bound`` needs the slack `_disc_candidates` uses.
        reach = bound * (1.0 + 1e-9) + 1e-12
        with _trace_span(
            "index.cover_radii_columnar",
            bound=float(bound) if math.isfinite(bound) else "inf",
        ) as sp:
            radii = np.zeros(len(self.relevant_ids), dtype=np.float64)
            positions = None
            queried = 0
            for bit_pos, tid in enumerate(self.term_ids):
                dists = None
                if columns is not None:
                    dists = columns.term_nn_dists(tid, len(radii))
                if dists is None:
                    # A holder is its own nearest holder, and a row already
                    # past the bound stays past it: query the rest.
                    tree, holders = self.keyword_tree(bit_pos)
                    rows = radii <= bound
                    rows[holders] = False
                    nearest, _idx = tree.query(
                        self.coords[rows], k=1, distance_upper_bound=reach
                    )
                    queried += len(nearest)
                else:
                    if positions is None:
                        positions = columns.positions_of(self.relevant_ids)
                    rows, nearest = slice(None), dists[positions]
                radii[rows] = np.maximum(radii[rows], nearest)
            radii[radii > bound] = math.inf
            sp.set_attribute("rows_queried", queried)
        radii.flags.writeable = False
        # A wider pass on another thread may have landed meanwhile: keep it.
        # Racing here can only cache a narrower pair, which stays consistent.
        if bound > self._cover_radii[0]:
            self._cover_radii = (bound, radii)
        return radii

    def hopeless(self, diameter: float, rows=slice(None)):
        """True where no disc of ``diameter`` through the pole covers the query.

        The coverage-radius precheck, with a 1e-12 relative tolerance
        (paper §4.3.2: "the checking on o is thus avoided").  It reads
        radii exact up to ``diameter * _PRECHECK_REACH``, past every radius
        the tolerance keeps, so the answer equals the unbounded one.
        """
        radii = self.cover_radii_within(diameter * _PRECHECK_REACH)
        return diameter < radii[rows] * (1.0 - 1e-12)

    def keyword_tree(self, bit_pos: int):
        """KD-tree over the holders of query keyword ``bit_pos``.

        Returns ``(tree, holder_rows)`` where ``holder_rows`` maps tree
        indices back to O' rows.  Built lazily once per keyword and shared
        by GKG's nearest-holder lookups and the coverage-radius
        computation.
        """
        cached = self._keyword_trees.get(bit_pos)
        if cached is None:
            with _trace_span("index.keyword_tree_build", keyword_bit=bit_pos):
                bit = 1 << bit_pos
                if self.m <= 64:
                    holder_rows = np.flatnonzero(
                        self.masks_np & np.uint64(bit)
                    ).astype(np.intp)
                else:
                    holder_rows = np.array(
                        [r for r, msk in enumerate(self.masks) if msk & bit],
                        dtype=np.intp,
                    )
                cached = (cKDTree(self.coords[holder_rows]), holder_rows)
            self._keyword_trees[bit_pos] = cached
        return cached

    def ir_tree(self):
        """An IR-tree over O' keyed by query-local bit positions.

        The alternative geo-textual index the paper names in §3; GKG's
        ``method="irtree"`` descends its per-node inverted files instead of
        the bR*-tree bitmaps.  Built lazily once per query.
        """
        if self._ir_tree is None:
            from ..index.irtree import IRTree

            records = []
            for row, oid in enumerate(self.relevant_ids):
                mask = self.masks[row]
                bits = []
                while mask:
                    low = mask & -mask
                    bits.append(low.bit_length() - 1)
                    mask ^= low
                records.append((oid, self.coords[row, 0], self.coords[row, 1], bits))
            self._ir_tree = IRTree.build(records)
        return self._ir_tree

    def _prefix_union(self, rows: np.ndarray) -> np.ndarray:
        """Keyword union of each prefix of ``rows``, led by the empty union.

        Past 64 keywords the masks do not fit a uint64, so the fold runs
        over Python ints.
        """
        if self.m <= 64:
            acc = np.bitwise_or.accumulate(self.masks_np[rows])
            return np.concatenate(([np.uint64(0)], acc))
        masks = self.masks
        return np.bitwise_or.accumulate(np.array([0] + [masks[r] for r in rows], dtype=object))

    def distances_from_row(self, row: int) -> np.ndarray:
        """Distances from one relevant object to all of O' (vectorised)."""
        delta = self.coords - self.coords[row]
        return np.hypot(delta[:, 0], delta[:, 1])

    def _disc_candidates(self, row: int, bound: float) -> np.ndarray:
        """Ascending O' rows guaranteed to include all within ``bound``.

        A KD ball query (built lazily, once per compile) with a slightly
        inflated radius: the tree's internal distance rounding differs
        from ``np.hypot`` by at most a few ulps, which the 1e-9 relative
        inflation dominates, so no row with ``hypot <= bound`` can be
        missed.  Callers re-filter with the exact ``hypot <= bound`` test;
        the surviving selection is identical to a full-array scan.
        """
        if self._relevant_kdtree is None:
            self._relevant_kdtree = cKDTree(self.coords)
        hits = self._relevant_kdtree.query_ball_point(
            self.coords[row], bound * (1.0 + 1e-9) + 1e-12, return_sorted=True
        )
        return np.asarray(hits, dtype=np.intp)

    def pole_cache_bounded(self, row: int, radius: float) -> PoleCache:
        """A :class:`PoleCache` covering queries up to ``radius`` (LRU-cached).

        Selects the rows within ``radius`` with one vectorised ``hypot``
        pass and sorts only those — O(n + k log k) against sorting all of
        O' in O(n log n), a large win because sweeping areas are tiny
        compared to O'.  The result is a bit-identical prefix of the full
        stable distance sort (ties break by row index in both), so any
        probe at ``diameter <= radius`` sees exactly the full sort's
        view.  The cache is built at least :attr:`probe_radius` wide; one
        that a probe outgrows is rebuilt with doubled headroom.
        """
        cache = self._pole_caches.get(row)
        if cache is not None and radius <= cache.radius_bound:
            self._pole_caches.move_to_end(row)
            return cache
        if radius <= self.probe_radius:
            radius = self.probe_radius
        elif cache is not None:
            # A probe outgrew the cached bound: rebuild with headroom.
            radius = max(radius * 2.0, cache.radius_bound * 2.0)
        with _trace_span("index.pole_cache_build", pole=row, bounded=True):
            bound = radius * (1.0 + 1e-12) + 1e-18
            cand = self._disc_candidates(row, bound)
            dx = self.coords[cand, 0] - self.coords[row, 0]
            dy = self.coords[cand, 1] - self.coords[row, 1]
            d = np.hypot(dx, dy)
            keep = d <= bound
            sel = cand[keep]
            dsel = d[keep]
            order = np.argsort(dsel, kind="stable")
            rows = sel[order]
            phis = np.arctan2(dy[keep][order], dx[keep][order])
            prefix_union = self._prefix_union(rows)
            cache = PoleCache(dsel[order], rows, prefix_union, phis, radius)
        self._pole_caches[row] = cache
        while len(self._pole_caches) > self._pole_cache_limit:
            self._pole_caches.popitem(last=False)
        return cache

    def group_diameter_rows(self, rows: Sequence[int]) -> float:
        """Diameter (Definition 1) of a set of O' rows."""
        if len(rows) < 2:
            return 0.0
        return diameter_batch(self.coords[np.asarray(rows, dtype=np.intp)])


def compile_query(dataset: Dataset, query, exclude=None) -> QueryContext:
    """Compile ``query`` (an :class:`MCKQuery` or a keyword sequence).

    ``exclude`` removes specific object ids from O' — the top-k extension
    uses this to forbid members of already-returned groups.
    """
    if not isinstance(query, MCKQuery):
        query = MCKQuery(query)
    # A dataset still being built has no columns yet: raise its
    # DatasetError here rather than judge the query against no objects.
    dataset.columns
    unknown = [t for t in query.keywords if t not in dataset.vocabulary]
    if unknown:
        from ..exceptions import InfeasibleQueryError

        raise InfeasibleQueryError(unknown)
    return QueryContext(dataset, query, exclude=exclude)


def query_rows(dataset: Dataset, keywords: Sequence[str]) -> QueryRows:
    """O' as :class:`QueryRows`, also when ``dataset`` misses a keyword
    (where :func:`compile_query` raises): its holders of the others."""
    vocabulary = dataset.vocabulary
    bits = {
        vocabulary.id_of(term): 1 << i
        for i, term in enumerate(MCKQuery(keywords).keywords)
        if term in vocabulary
    }
    return QueryRows(*VirtualBRTree.gather(dataset, bits)) if bits else QueryRows.empty()
