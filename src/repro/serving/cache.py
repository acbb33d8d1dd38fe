"""LRU + TTL result cache with write-scoped revalidation.

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

Revalidation: keep what a write cannot change
---------------------------------------------
An mCK answer A is judged by one number, its diameter d(A).  After each
published write, :meth:`ResultCache.revalidate` bumps the touched
keywords and hands the entries they touch to :func:`judge_answers`,
which checks each against the post-write store:

* **delete** — removing objects cannot create a smaller group, so A
  survives unless a deleted object is one of its members;
* **insert of p** — a group holding p with diameter below d(A) has a
  holder of every query keyword within d(A) of p.  So A survives if
  some query keyword that p does not hold has its nearest live holder
  farther than d(A) from p.  **Ties drop**: a holder at exactly d(A)
  (within float rounding) could reorder the ``(diameter, oids)``
  ranking, so the entry is dropped.  An insert holding every query
  keyword always drops.

A kept entry is re-stamped to the new generation and counted under
``revalidated``; a dropped one is an invalidation.  Only an entry whose
stamp was current just before this write's bump is re-stamped, so a fill
whose query raced the write, or an entry already stale from an earlier
write, still misses exactly as without revalidation.

A kept EXACT answer is still optimal, with the fresh optimum's diameter.
A kept SKECa+ or GKG answer keeps its quality bound — the optimum did not
move — but may differ from what a fresh run would return.

Accounting
----------
Every entry removal funnels through one internal drop path tagged with a
reason, so the books always balance::

    inserts == live + evictions + expirations + invalidations

(an overwrite of a live key counts the displaced entry as an eviction;
a revalidated entry stays live, so it is not a removal).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from itertools import repeat
from typing import (
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

from ..core.engine import canonical_algorithm

__all__ = ["ResultCache", "KeywordGenerations", "judge_answers", "make_cache_key"]

CacheKey = Tuple[frozenset, str, float]

#: Relative slack on the tie test: a holder within d(A) * (1 + TIE_SLACK)
#: counts as reaching d(A), so float rounding between the nearest-holder
#: distance and the group's diameter can never keep a beaten answer.
TIE_SLACK = 1e-9


def make_cache_key(
    keywords: Iterable[str], algorithm: str, epsilon: float
) -> CacheKey:
    """Build the canonical cache key for one query configuration."""
    return (
        frozenset(str(k) for k in keywords),
        canonical_algorithm(algorithm),
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
        judge: Callable[[List[Tuple[CacheKey, object]]], Sequence[bool]],
    ) -> Tuple[int, int]:
        """Age ``keywords`` for one write and re-check what it touched.

        The entries whose keyword set meets ``keywords`` and whose stamp
        is current just before the bump go to ``judge`` — run outside the
        cache lock, so readers are not held up — which returns one keep
        flag per ``(key, value)``.  A kept entry is re-stamped to the new
        generation (counted under ``revalidated``); a rejected one is
        dropped as an invalidation.  Everything else stays on the
        generation fallback.  Returns ``(kept, dropped)``.
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
            kept = dropped = 0
            with self._lock:
                for (key, value, stamp), keep in zip(current, verdicts):
                    entry = self._entries.get(key)
                    if entry is None or entry[0] is not value or entry[2] != stamp:
                        continue  # replaced or dropped while being judged
                    if keep:
                        # The exact post-bump stamp, not a fresh read: a
                        # bump from anywhere else must still condemn it.
                        restamp = stamp + len(key[0] & touched)
                        self._entries[key] = (value, entry[1], restamp)
                        kept += 1
                    else:
                        self._drop(key, "invalidated")
                        dropped += 1
                self._revalidated += kept
            return kept, dropped

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
    nearest: Callable[[np.ndarray, List[str], np.ndarray], np.ndarray],
) -> Tuple[List[bool], int]:
    """Keep flags for cached answers after one write, plus lookups made.

    ``entries`` are ``(key, group)`` pairs; ``mutations`` carry ``op``,
    ``oid``, ``keywords``, ``x``, ``y`` (see
    :class:`~repro.live.engine.Mutation`).  ``nearest(points, terms,
    within)`` gives each point's distance to its nearest live holder of
    the paired term in the post-write store — exact up to the paired
    bound, and never below the true distance beyond it.

    An insert p keeps an answer when some query keyword it lacks has no
    live holder within the answer's diameter.  Every (answer, insert)
    check is decided in numpy from one batched ``nearest`` call over the
    distinct (insert, keyword) pairs, each bounded by the widest diameter
    that asks for it.
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
    # An insert holding no query keyword cannot be in a smallest group;
    # one lacking none covers the query alone.
    shares = holds.any(axis=2)
    keep &= ~(shares & ~lacking.any(axis=2)).any(axis=1)
    limit = np.array([group.diameter for _, group in entries]) * (1.0 + TIE_SLACK)
    # One row per (check, lacking keyword) of every open check; each
    # distinct (insert, keyword) pair is looked up once, out to the
    # widest limit that asks for it.
    e_idx, i_idx = np.nonzero(shares & keep[:, None])
    c, j = np.nonzero(lacking[e_idx, i_idx])
    e_c, i_c, t_c = e_idx[c], i_idx[c], kw[e_idx[c], j]
    within = np.full((len(inserts), len(names)), -1.0)
    np.maximum.at(within, (i_c, t_c), limit[e_c])
    pi, pt = np.nonzero(within >= 0.0)
    reach = np.zeros_like(within)
    if len(pi):
        xy = np.array([(m.x, m.y) for m in inserts], dtype=np.float64)
        reach[pi, pt] = nearest(xy[pi], [names[t] for t in pt], within[pi, pt])
    settled = np.zeros(len(e_idx), dtype=bool)
    settled[c[reach[i_c, t_c] > limit[e_c]]] = True
    # A check with every lacking keyword within reach sinks its entry.
    keep[e_idx[~settled]] = False
    return keep.tolist(), len(pi)
