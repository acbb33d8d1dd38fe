"""LRU + TTL result cache with write-scoped revalidation and repair.

Keys are ``(frozenset(keywords), canonical_algorithm, epsilon)`` — keyword
*sets*, because an mCK answer is order-independent (and
:class:`~repro.core.query.MCKQuery` deduplicates), and the canonical
algorithm spelling, so ``"skeca_plus"`` and ``"SKECa+"`` share an entry.

Entries expire ``ttl_seconds`` after insertion (``None`` disables expiry)
and the least recently *used* entry is evicted beyond ``max_size``.  All
operations are thread-safe; the clock is injectable so tests can drive
TTL expiry deterministically.

Keyword generations
-------------------
A live (mutable) store makes cached answers go stale, but only answers
to queries that mention a keyword the write touched.  A
:class:`KeywordGenerations` table keeps one monotonically increasing
counter per keyword; every write calls :meth:`~KeywordGenerations.bump`
on exactly the keywords it touches.  Each cache entry records the *sum*
of its query keywords' generations at probe time, and a lookup
whose recomputed sum differs treats the entry as a miss and drops it
(counted under ``invalidations``).  This is the only staleness fallback:
an entry nothing vouched for since the last write to its keywords misses.

The stamp is the **sum**, not the max, of the per-keyword counters: with
``gen = {a: 5, b: 0}`` a bump of ``b`` leaves ``max(gen)`` unchanged at 5
— the stale entry would survive — while the sum strictly increases on
every bump of any member keyword.

Revalidation: keep what a write cannot change, repair what it beats
-------------------------------------------------------------------
An mCK answer A is judged by one number, its diameter d(A).  After each
published write, :meth:`ResultCache.revalidate` bumps the touched
keywords and hands the entries they touch to :func:`judge_answers`,
which checks each against the post-write store:

* **delete** — removing objects cannot create a smaller group, so A
  survives unless a deleted object is one of its members (then it drops);
* **insert of p** — only a group holding p can beat A, and one with
  diameter below d(A) has a holder of every query keyword within d(A) of
  p.  So A survives untouched if some query keyword that p lacks has its
  nearest live holder farther than d(A) from p;
* **repair** — otherwise, if p lacks k <= 2 query keywords, the best
  group B holding p is computed exactly: ``{p}`` for k = 0, p and the
  nearest live holder of the missing keyword for k = 1, and for k = 2 the
  holder pair minimising max(|p h1|, |p h2|, |h1 h2|) over the holders
  within d(A) of p.  If B beats A, the entry is replaced by B;
* **drops** — a tie, B within ``TIE_SLACK`` of d(A) (it could reorder the
  ``(diameter, oids)`` ranking); an insert lacking k >= 3 keywords that
  reaches them all; an uncertified answer (``partial`` or degraded) that
  an insert could beat; an insert a later write already deleted (it is
  not live in the scanned snapshot).

Replacing A by min(A, B) keeps every certified tag's promise.  Let O be
the optimum before the write; every group new to the store holds an
insert, so the new optimum is min(O, best B).  If B <= O, B *is* the new
optimum — exact whatever A's tag was.  Otherwise the optimum is still O
and d(B) < d(A), so:

* ``exact``: d(A) = O, and B < d(A) means B <= O — the first case;
* ``approx_2sqrt3``: d(B) < d(A) <= (2/sqrt(3) + epsilon) O;
* ``greedy_2x``: d(B) < d(A) <= 2 O.

Deletes in the same write only raise the optimum, so neither bound
weakens.  The members of B are live in the snapshot the judge scanned
(the insert's own liveness is checked too), and a later write deleting
one of them runs its own revalidation after this one, which drops B.

A kept entry is re-stamped to the new generation and counted under
``revalidated``, a replaced one is re-stamped with its new group and
counted under ``repaired``; a dropped one is an invalidation.  Only an
entry whose stamp was current just before this write's bump is
re-stamped, so a fill whose query raced the write, or an entry already
stale from an earlier write, still misses exactly as without
revalidation.

A kept or repaired EXACT answer is optimal, with the fresh optimum's
diameter.  A kept or repaired SKECa+ or GKG answer keeps its quality
bound but may differ from what a fresh run would return.

Accounting
----------
Every entry removal funnels through one internal drop path tagged with a
reason, so the books always balance::

    inserts == live + evictions + expirations + invalidations

(an overwrite of a live key counts the displaced entry as an eviction;
a revalidated or repaired entry stays live, so it is not a removal).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..core.common import QUALITY_APPROX, QUALITY_EXACT, QUALITY_GREEDY
from ..core.engine import ALGORITHMS, canonical_algorithm
from ..geometry.mcc import minimum_covering_circle

if TYPE_CHECKING:  # pragma: no cover
    from ..live.delta import HolderScan

__all__ = ["ResultCache", "KeywordGenerations", "judge_answers", "make_cache_key"]

CacheKey = Tuple[frozenset, str, float]

#: Relative slack on the tie test: a holder within d(A) * (1 + TIE_SLACK)
#: counts as reaching d(A), so float rounding between the nearest-holder
#: distance and the group's diameter can never keep a beaten answer.
TIE_SLACK = 1e-9

#: Quality tags whose ratio bound a smaller group keeps (``partial`` has
#: none), so a write may repair such an answer instead of dropping it.
CERTIFIED = frozenset({QUALITY_EXACT, QUALITY_APPROX, QUALITY_GREEDY})


def make_cache_key(
    keywords: Iterable[str], algorithm: str, epsilon: float
) -> CacheKey:
    """Build the canonical cache key for one query configuration.

    A name that is already canonical is used as is, so a caller that
    canonicalised the algorithm once does not pay for it again.
    """
    return (
        frozenset(str(k) for k in keywords),
        algorithm if algorithm in ALGORITHMS else canonical_algorithm(algorithm),
        float(epsilon),
    )


class KeywordGenerations:
    """Per-keyword monotone counters scoping invalidation to mutations.

    ``bump(keywords)`` is called once per write (inserts *and* deletes —
    both can change any answer mentioning those keywords), by
    :meth:`ResultCache.revalidate`; ``stamp(keywords)`` is called by the
    cache on probe and fill.  A keyword never bumped has generation 0, so
    stamps need no warm-up.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._gen: Dict[str, int] = {}
        self._bumps = 0

    def bump(self, keywords: Iterable[str]) -> None:
        """Advance the generation of every given keyword by one."""
        with self._lock:
            for keyword in keywords:
                keyword = str(keyword)
                self._gen[keyword] = self._gen.get(keyword, 0) + 1
                self._bumps += 1

    def stamp(self, keywords: Iterable[str]) -> int:
        """The summed generation of a keyword set (0 for never-bumped)."""
        with self._lock:
            return sum(self._gen.get(str(k), 0) for k in keywords)

    def stamps(self, keyword_sets: Iterable[Iterable[str]]) -> List[int]:
        """:meth:`stamp` of each keyword set, read under one lock."""
        with self._lock:
            get = self._gen.get
            return [sum(map(get, kws, repeat(0))) for kws in keyword_sets]

    def generation(self, keyword: str) -> int:
        with self._lock:
            return self._gen.get(str(keyword), 0)

    @property
    def bumps(self) -> int:
        """Total single-keyword bumps applied (telemetry)."""
        with self._lock:
            return self._bumps


class ResultCache:
    """A bounded, thread-safe LRU cache with TTL and write revalidation."""

    def __init__(
        self,
        max_size: int = 1024,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        generations: Optional[KeywordGenerations] = None,
        on_invalidate: Optional[Callable[[int], None]] = None,
    ):
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive or None, got {ttl_seconds}")
        self.max_size = max(0, int(max_size))
        self.ttl_seconds = ttl_seconds
        self.generations = generations
        self._on_invalidate = on_invalidate
        self._clock = clock
        self._lock = threading.Lock()
        # key -> (value, expires_at, stamp)
        self._entries: "OrderedDict[Hashable, Tuple[object, Optional[float], int]]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._inserts = 0
        self._evictions = 0
        self._expirations = 0
        self._invalidations = 0
        self._revalidated = 0
        self._repaired = 0
        #: keyword -> keys of the live entries whose query mentions it.
        self._by_keyword: Dict[str, Set[Hashable]] = {}
        #: Serialises revalidations: a write's bump, judgement and
        #: re-stamp must not interleave with another write's.
        self._revalidate_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # The single drop path: every removal is an eviction, an expiration
    # or an invalidation — nothing leaves the table unaccounted.
    # ------------------------------------------------------------------ #

    def _drop(self, key: Hashable, reason: str) -> None:
        del self._entries[key]
        for keyword in _scope(key):
            holders = self._by_keyword[keyword]
            holders.discard(key)
            if not holders:
                del self._by_keyword[keyword]
        if reason == "evicted":
            self._evictions += 1
        elif reason == "expired":
            self._expirations += 1
        elif reason == "invalidated":
            self._invalidations += 1
            if self._on_invalidate is not None:
                self._on_invalidate(1)
        else:  # pragma: no cover - programming error
            raise ValueError(f"unknown drop reason {reason!r}")

    def _current_stamp(self, key: Hashable) -> int:
        if self.generations is None:
            return 0
        scope = _scope(key)
        return self.generations.stamp(scope) if scope else 0

    # ------------------------------------------------------------------ #

    def probe_stamp(self, key: Hashable) -> int:
        """The generation stamp a fill for ``key`` should carry.

        Captured *before* executing the query and passed back to
        :meth:`put`: a mutation landing mid-execution bumps the live
        generation past the captured stamp, so the (possibly stale)
        result is dropped on its next lookup instead of being trusted.
        """
        return self._current_stamp(key)

    def get(self, key: Hashable):
        """Return the cached value or ``None``; counts a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            value, expires_at, stamp = entry
            if expires_at is not None and self._clock() >= expires_at:
                self._drop(key, "expired")
                self._misses += 1
                return None
            if stamp != self._current_stamp(key):
                self._drop(key, "invalidated")
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value, stamp: Optional[int] = None) -> None:
        """Insert ``value``; ``stamp`` should come from :meth:`probe_stamp`.

        When ``stamp`` is omitted the current generation stamp is used —
        correct only if no mutation could have raced the computation.
        """
        if self.max_size == 0:
            return
        expires_at = (
            None if self.ttl_seconds is None else self._clock() + self.ttl_seconds
        )
        with self._lock:
            if stamp is None:
                stamp = self._current_stamp(key)
            if key in self._entries:
                # Overwriting displaces a live entry: account it so
                # inserts == live + evictions + expirations + invalidations
                # keeps holding.
                self._drop(key, "evicted")
            self._entries[key] = (value, expires_at, stamp)
            self._entries.move_to_end(key)
            for keyword in _scope(key):
                self._by_keyword.setdefault(keyword, set()).add(key)
            self._inserts += 1
            if len(self._entries) > self.max_size:
                # Prefer dropping entries that are already dead over
                # evicting live ones LRU-first; dead entries counted as
                # expirations would otherwise sit resident until probed.
                now = self._clock()
                stale = [
                    k
                    for k, (_v, exp, _s) in self._entries.items()
                    if exp is not None and now >= exp
                ]
                for k in stale:
                    self._drop(k, "expired")
            while len(self._entries) > self.max_size:
                oldest = next(iter(self._entries))
                self._drop(oldest, "evicted")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Presence check without touching LRU order or hit/miss counters.

        A dead entry (expired or generation-stale) is dropped and
        accounted rather than left resident: before this, a ``key in
        cache`` probe would report False yet keep the dead entry
        occupying capacity.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            _value, expires_at, stamp = entry
            if expires_at is not None and self._clock() >= expires_at:
                self._drop(key, "expired")
                return False
            if stamp != self._current_stamp(key):
                self._drop(key, "invalidated")
                return False
            return True

    def clear(self) -> None:
        """Drop everything (each entry accounted as an eviction)."""
        with self._lock:
            for key in list(self._entries):
                self._drop(key, "evicted")

    def purge_expired(self) -> int:
        """Drop every expired entry eagerly; returns how many were dropped."""
        if self.ttl_seconds is None:
            return 0
        now = self._clock()
        with self._lock:
            stale = [
                k
                for k, (_v, expires_at, _s) in self._entries.items()
                if expires_at is not None and now >= expires_at
            ]
            for k in stale:
                self._drop(k, "expired")
            return len(stale)

    def invalidate_keywords(self, keywords: Iterable[str]) -> int:
        """Eagerly drop every entry whose keyword set intersects ``keywords``.

        The generation mechanism already invalidates lazily on probe;
        this eager sweep exists for explicit flushes (an operator purging
        a keyword) and returns how many entries were dropped.
        """
        with self._lock:
            doomed = self._keys_touching(keywords)
            for k in doomed:
                self._drop(k, "invalidated")
            return len(doomed)

    def revalidate(
        self,
        keywords: Iterable[str],
        judge: Callable[[List[Tuple[CacheKey, object]]], Sequence[object]],
    ) -> Tuple[int, int, int]:
        """Age ``keywords`` for one write and re-check what it touched.

        The entries whose keyword set meets ``keywords`` and whose stamp
        is current just before the bump go to ``judge`` — run outside the
        cache lock, so readers are not held up — which returns one verdict
        per ``(key, value)``: ``True`` keeps the entry, ``False`` drops it,
        anything else is the value to serve in its place.  A kept entry is
        re-stamped to the new generation (counted under ``revalidated``),
        a replaced one is re-stamped with its new value (``repaired``), a
        rejected one is dropped as an invalidation.  Everything else stays
        on the generation fallback.  Returns ``(kept, repaired, dropped)``.
        """
        if self.generations is None:
            raise TypeError("revalidation needs keyword generations")
        touched = frozenset(str(k) for k in keywords)
        with self._revalidate_lock:
            with self._lock:
                hit = []
                for key in self._keys_touching(touched):
                    value, _exp, stamp = self._entries[key]
                    hit.append((key, value, stamp))
                now = self.generations.stamps([key[0] for key, _v, _s in hit])
            current = [entry for entry, stamp in zip(hit, now) if entry[2] == stamp]
            self.generations.bump(touched)
            verdicts = judge([(key, value) for key, value, _ in current])
            kept = repaired = dropped = 0
            with self._lock:
                for (key, value, stamp), verdict in zip(current, verdicts):
                    entry = self._entries.get(key)
                    if entry is None or entry[0] is not value or entry[2] != stamp:
                        continue  # replaced or dropped while being judged
                    if not isinstance(verdict, (bool, np.bool_)):
                        value = verdict
                        repaired += 1
                    elif verdict:
                        kept += 1
                    else:
                        self._drop(key, "invalidated")
                        dropped += 1
                        continue
                    # The exact post-bump stamp, not a fresh read: a bump
                    # from anywhere else must still condemn it.
                    restamp = stamp + len(key[0] & touched)
                    self._entries[key] = (value, entry[1], restamp)
                self._revalidated += kept
                self._repaired += repaired
            return kept, repaired, dropped

    def _keys_touching(self, keywords: Iterable[str]) -> List[Hashable]:
        """Keys of the entries whose query mentions any of ``keywords``."""
        found: Set[Hashable] = set()
        for keyword in keywords:
            found.update(self._by_keyword.get(str(keyword), ()))
        return list(found)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "hits": self._hits,
                "misses": self._misses,
                "inserts": self._inserts,
                "evictions": self._evictions,
                "expirations": self._expirations,
                "invalidations": self._invalidations,
                "revalidated": self._revalidated,
                "repaired": self._repaired,
            }


def _scope(key: Hashable) -> frozenset:
    """The keyword set of a :func:`make_cache_key` key (empty otherwise).

    Foreign keys (plain hashables from direct users) carry no keyword
    scope, so no write ever ages or re-checks them.
    """
    if isinstance(key, tuple) and key and isinstance(key[0], frozenset):
        return key[0]
    return frozenset()


def judge_answers(
    entries: Sequence[Tuple[CacheKey, object]],
    mutations: Sequence,
    scan: Callable[..., "HolderScan"],
) -> Tuple[List[object], int]:
    """Verdicts for cached answers after one write, plus lookups made.

    ``entries`` are ``(key, group)`` pairs; ``mutations`` carry ``op``,
    ``oid``, ``keywords``, ``x``, ``y`` (see
    :class:`~repro.live.engine.Mutation`).  ``scan(points, terms, within,
    gather, anchors)`` is one batched holder scan of the post-write store
    (see :meth:`~repro.live.delta.LiveView.nearest_holders`).  Each
    verdict is ``True`` (keep), ``False`` (drop) or the repaired
    :class:`~repro.core.result.Group` to serve instead.

    An insert p is settled for an answer when some query keyword it lacks
    has no live holder within the answer's diameter.  Otherwise, when p
    lacks at most two query keywords, the best group holding p is built
    from the scan (p alone, p and its nearest holder, or p and the best
    in-reach holder pair) and replaces a certified answer it beats.  Every
    (answer, insert) check is decided from one scan over the distinct
    (insert, keyword) pairs, each bounded by the widest diameter that asks
    for it.
    """
    deleted = {m.oid for m in mutations if m.op == "delete"}
    inserts = [m for m in mutations if m.op == "insert"]
    keep = np.array(
        [deleted.isdisjoint(group.object_ids) for _, group in entries], dtype=bool
    )
    if not inserts or not keep.any():
        return keep.tolist(), 0
    # Each entry's query keywords as term slots (-1 pads).
    slot: Dict[str, int] = {}
    slots = [slot.setdefault(t, len(slot)) for key, _ in entries for t in key[0]]
    sizes = np.array([len(key[0]) for key, _ in entries])
    kw = np.full((len(entries), sizes.max()), -1, dtype=np.intp)
    kw[np.arange(kw.shape[1]) < sizes[:, None]] = slots
    names = list(slot)
    # holds[e, i, j]: insert i holds entry e's j-th keyword.  The spare
    # last column answers the -1 padding with False.
    held = np.zeros((len(inserts), len(names) + 1), dtype=bool)
    for i, m in enumerate(inserts):
        for t in m.keywords:
            if t in slot:
                held[i, slot[t]] = True
    holds = held[:, kw].transpose(1, 0, 2)
    lacking = (kw >= 0)[:, None, :] & ~holds
    # An insert holding no query keyword cannot be in a smallest group.
    shares = holds.any(axis=2)
    diameter = np.array([group.diameter for _, group in entries])
    limit = diameter * (1.0 + TIE_SLACK)
    # One row per (check, lacking keyword) of every open check; each
    # distinct (insert, keyword) pair is looked up once, out to the
    # widest limit that asks for it.  Checks lacking one or two keywords
    # also gather those keywords' holders in reach, for the repair.
    e_idx, i_idx = np.nonzero(shares & keep[:, None])
    if not len(e_idx):
        return keep.tolist(), 0
    k_idx = lacking[e_idx, i_idx].sum(axis=1)
    c, j = np.nonzero(lacking[e_idx, i_idx])
    e_c, i_c, t_c = e_idx[c], i_idx[c], kw[e_idx[c], j]
    within = np.full((len(inserts), len(names)), -1.0)
    np.maximum.at(within, (i_c, t_c), limit[e_c])
    gather = np.zeros_like(within, dtype=bool)
    small = k_idx[c] <= 2
    gather[i_c[small], t_c[small]] = True
    pi, pt = np.nonzero(within >= 0.0)
    pair_of = np.full(within.shape, -1, dtype=np.intp)
    pair_of[pi, pt] = np.arange(len(pi))
    xy = np.array([(m.x, m.y) for m in inserts], dtype=np.float64)
    found = scan(
        xy[pi], [names[t] for t in pt], within[pi, pt], gather[pi, pt],
        [m.oid for m in inserts],
    )
    settled = np.zeros(len(e_idx), dtype=bool)
    settled[c[found.distance[pair_of[i_c, t_c]] > limit[e_c]]] = True
    by_pair = np.argsort(found.reach_pair, kind="stable")
    cuts = np.searchsorted(found.reach_pair[by_pair], np.arange(len(pi) + 1))

    def holders(i: int, t: int, bound: float):
        """Insert ``i``'s gathered holders of term slot ``t`` within
        ``bound``: oids, coordinates and squared distances."""
        p = pair_of[i, t]
        rows = by_pair[cuts[p] : cuts[p + 1]]
        gaps = np.sum((found.reach_xy[rows] - xy[i]) ** 2, axis=1)
        near = gaps <= bound * bound
        return found.reach_oid[rows[near]], found.reach_xy[rows[near]], gaps[near]

    # A check with every lacking keyword within reach can beat its entry:
    # repair a certified entry from the best group holding the insert,
    # drop anything else.
    verdicts: List[object] = keep.tolist()
    best: Dict[int, Tuple[float, List[int], np.ndarray]] = {}
    for e, i, k in zip(
        e_idx[~settled].tolist(), i_idx[~settled].tolist(), k_idx[~settled].tolist()
    ):
        if not verdicts[e]:
            continue
        group = entries[e][1]
        if k > 2 or not _certified(group) or not found.anchors_live[i]:
            verdicts[e] = False
            continue
        smallest = _best_group_holding(
            inserts[i].oid,
            xy[i],
            [holders(i, t, limit[e]) for t in kw[e][lacking[e, i]]],
        )
        if smallest is not None and smallest[0] > limit[e]:
            continue  # cannot beat the entry
        if smallest is None or smallest[0] >= diameter[e] * (1.0 - TIE_SLACK):
            # A tie could reorder the ranking.  An empty holder list means
            # the nearest holder sat on the bound up to rounding: a tie too.
            verdicts[e] = False
        elif e not in best or smallest[0] < best[e][0]:
            best[e] = smallest
    for e, (d, oids, points) in best.items():
        if verdicts[e]:
            verdicts[e] = _repaired(entries[e][1], d, oids, points, found.epoch)
    return verdicts, len(pi)


def _certified(group) -> bool:
    """True when ``group`` carries a ratio bound a smaller group keeps."""
    return group.quality in CERTIFIED and not group.degraded


def _best_group_holding(
    oid: int, at: np.ndarray, lacking: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> Optional[Tuple[float, List[int], np.ndarray]]:
    """The smallest group holding object ``oid`` (at ``at``) that covers
    the query keywords it lacks.

    ``lacking`` holds, per lacking keyword (none: the object covers the
    query alone), its holders within the bound of interest as ``(oids,
    coordinates, squared distances to at)``.  One lacking keyword pairs
    the object with its nearest holder; two take the holder pair
    minimising the group's diameter, preferring one holder of both on a
    tie.  A group within the bound has every member that close, so the
    lists suffice.  Returns ``(diameter, oids, points)``, or ``None``
    when some list is empty.
    """
    if not lacking:
        return 0.0, [oid], at[None, :]
    if any(not len(oids) for oids, _xy, _gaps in lacking):
        return None
    if len(lacking) == 1:
        ((oids, xys, gaps),) = lacking
        a = int(np.argmin(gaps))
        return float(np.sqrt(gaps[a])), [oid, int(oids[a])], np.stack([at, xys[a]])
    (oid1, xy1, gap1), (oid2, xy2, gap2) = lacking
    between = np.sum((xy1[:, None, :] - xy2[None, :, :]) ** 2, axis=2)
    spans = np.maximum(np.maximum(gap1[:, None], gap2[None, :]), between)
    ties = np.argwhere(spans == spans.min())
    one = oid1[ties[:, 0]] == oid2[ties[:, 1]]
    a, b = ties[np.argmax(one)]
    oids = list(dict.fromkeys([oid, int(oid1[a]), int(oid2[b])]))
    return float(np.sqrt(spans[a, b])), oids, np.stack([at, xy1[a], xy2[b]])


def _repaired(group, diameter: float, oids: List[int], points, epoch: int):
    """``group``'s answer replaced by a smaller group found on ``epoch``."""
    return dataclasses.replace(
        group,
        object_ids=tuple(sorted(oids)),
        diameter=diameter,
        enclosing_circle=minimum_covering_circle(points),
        stats={**group.stats, "repaired": 1.0, "epoch": float(epoch)},
    )
