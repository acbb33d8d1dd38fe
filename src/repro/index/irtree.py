"""IR-tree: an R-tree whose nodes carry per-node inverted files.

Cong et al. (VLDB 2009, the paper's reference [7]) attach to every tree
node an inverted file mapping each term to the child entries whose
subtrees contain it.  The paper notes (§3) that GKG works with any
geo-textual index and names the IR-tree as the alternative to the virtual
bR*-tree; this module provides it, sharing the R*-tree spatial structure
and exposing the same nearest-holder primitive.

Compared to the bR*-tree's bitmaps, per-node inverted files trade memory
for direct child lookup: descending for a term touches only the posting
list instead of testing every child's bitmap.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .mbr import point_min_dist
from .rstar import (
    _BATCH_MIN_FANOUT,
    _leaf_frontier_dists,
    _node_frontier_dists,
    LeafEntry,
    Node,
    RStarTree,
)

__all__ = ["IRTree"]


class IRTree:
    """R*-tree + per-node inverted files over ``(item, x, y, term_ids)``."""

    def __init__(self, max_entries: int = 100):
        self._tree = RStarTree(max_entries=max_entries)
        self._item_terms: Dict[object, frozenset] = {}
        #: id(node) -> {term_id: [children holding the term]}
        self._node_inv: Dict[int, Dict[int, List]] = {}

    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        records: Iterable[Tuple[object, float, float, Iterable[int]]],
        max_entries: int = 100,
    ) -> "IRTree":
        """Bulk load from ``(item, x, y, term_ids)`` records."""
        index = cls(max_entries=max_entries)
        plain = []
        for item, x, y, term_ids in records:
            index._item_terms[item] = frozenset(int(t) for t in term_ids)
            plain.append((item, x, y))
        index._tree = RStarTree.bulk_load(plain, max_entries=max_entries)
        index._build_inverted(index._tree.root)
        return index

    def _build_inverted(self, node: Node) -> frozenset:
        """Bottom-up construction of the per-node inverted files."""
        inv: Dict[int, List] = {}
        if node.is_leaf:
            for entry in node.entries:
                for term in self._item_terms.get(entry.item, ()):
                    inv.setdefault(term, []).append(entry)
        else:
            for child in node.entries:
                child_terms = self._build_inverted(child)
                for term in child_terms:
                    inv.setdefault(term, []).append(child)
        self._node_inv[id(node)] = inv
        return frozenset(inv)

    # ------------------------------------------------------------------ #

    @property
    def root(self) -> Node:
        return self._tree.root

    def __len__(self) -> int:
        return len(self._tree)

    def node_terms(self, node: Node) -> frozenset:
        """Terms appearing somewhere below ``node``."""
        return frozenset(self._node_inv[id(node)])

    def posting(self, node: Node, term: int) -> List:
        """Children (or leaf entries) of ``node`` holding ``term``."""
        return self._node_inv[id(node)].get(term, [])

    def item_terms(self, item) -> frozenset:
        return self._item_terms.get(item, frozenset())

    # ------------------------------------------------------------------ #
    # The GKG primitive: nearest object containing a term.
    # ------------------------------------------------------------------ #

    def nearest_with_term(self, x: float, y: float, term: int) -> Optional[LeafEntry]:
        """Nearest entry whose keywords contain ``term``; best-first descent
        through the per-node posting lists."""
        for entry, _d in self.nearest_iter_with_term(x, y, term):
            return entry
        return None

    def nearest_iter_with_term(
        self, x: float, y: float, term: int
    ) -> Iterator[Tuple[LeafEntry, float]]:
        """Increasing-distance iterator over entries containing ``term``."""
        root = self._tree.root
        if len(self._tree) == 0 or term not in self._node_inv[id(root)]:
            return
        origin = (x, y)
        counter = 0
        heap: List[Tuple[float, int, object, bool]] = [
            (point_min_dist(origin, root.box), 0, root, False)
        ]
        while heap:
            d, _tie, element, is_entry = heapq.heappop(heap)
            if is_entry:
                yield element, d
                continue
            node: Node = element
            posting = self.posting(node, term)
            if len(posting) >= _BATCH_MIN_FANOUT:
                # Posting lists are homogeneous (leaf entries under leaf
                # nodes, child nodes otherwise), so one batched MinDist
                # pass covers the whole frontier expansion.
                if node.is_leaf:
                    dists = _leaf_frontier_dists(posting, x, y)
                else:
                    dists = _node_frontier_dists(posting, x, y)
                is_entry = node.is_leaf
                for dc, child in zip(dists, posting):
                    counter += 1
                    heapq.heappush(heap, (dc, counter, child, is_entry))
                continue
            for child in self.posting(node, term):
                counter += 1
                if isinstance(child, LeafEntry):
                    dc = math.hypot(child.x - x, child.y - y)
                    heapq.heappush(heap, (dc, counter, child, True))
                else:
                    dc = point_min_dist(origin, child.box)
                    heapq.heappush(heap, (dc, counter, child, False))

    # ------------------------------------------------------------------ #

    def check_invariants(self) -> None:
        """R*-tree invariants plus inverted-file consistency."""
        self._tree.check_invariants()
        self._check_node(self._tree.root)

    def _check_node(self, node: Node) -> None:
        inv = self._node_inv[id(node)]
        if node.is_leaf:
            expected: Dict[int, set] = {}
            for entry in node.entries:
                for term in self._item_terms.get(entry.item, ()):
                    expected.setdefault(term, set()).add(entry.item)
            assert set(inv) == set(expected), "leaf inverted file keys wrong"
            for term, posting in inv.items():
                assert {e.item for e in posting} == expected[term]
        else:
            for child in node.entries:
                self._check_node(child)
            for term, posting in inv.items():
                for child in posting:
                    assert term in self._node_inv[id(child)], (
                        "posting points to child without the term"
                    )
