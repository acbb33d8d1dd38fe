"""An R*-tree implemented from scratch (Beckmann et al. 1990).

This is the spatial substrate under the bR*-tree / virtual bR*-tree indexes
of the paper.  It supports:

* one-by-one insertion with the R* heuristics — ChooseSubtree with minimum
  overlap enlargement at the leaf level, forced reinsertion on first
  overflow per level, and the topological (margin-driven) split;
* STR (sort-tile-recursive) bulk loading, used to build per-query virtual
  trees bottom-up quickly;
* disc / rectangle range queries and best-first nearest-neighbour search.

Leaf entries carry an opaque ``item`` (the library stores object ids) plus
its point; the keyword augmentation lives in :mod:`repro.index.brtree`.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .mbr import MBR, point_min_dist

__all__ = ["RStarTree", "Node", "LeafEntry"]

#: Below this fanout a Python loop beats the numpy gather set-up cost.
_BATCH_MIN_FANOUT = 8


def _leaf_frontier_dists(entries: List["LeafEntry"], x: float, y: float) -> List[float]:
    """Distances from ``(x, y)`` to each leaf entry, gathered batch-wise.

    The coordinate gather and subtraction vectorise; the final ``hypot``
    stays ``math.hypot`` per element because ``np.hypot`` rounds
    differently on some platforms and the heap order must match the
    scalar walk bit-for-bit.
    """
    k = len(entries)
    dx = np.fromiter((e.x for e in entries), np.float64, k)
    dy = np.fromiter((e.y for e in entries), np.float64, k)
    dx -= x
    dy -= y
    hyp = math.hypot
    return [hyp(dx[i], dy[i]) for i in range(k)]


def _node_frontier_dists(children: List["Node"], x: float, y: float) -> List[float]:
    """MinDist from ``(x, y)`` to each child MBR, clamped batch-wise."""
    k = len(children)
    x1 = np.fromiter((c.box.x1 for c in children), np.float64, k)
    y1 = np.fromiter((c.box.y1 for c in children), np.float64, k)
    x2 = np.fromiter((c.box.x2 for c in children), np.float64, k)
    y2 = np.fromiter((c.box.y2 for c in children), np.float64, k)
    x1 -= x
    y1 -= y
    np.subtract(x, x2, out=x2)
    np.subtract(y, y2, out=y2)
    dx = np.maximum(np.maximum(x1, 0.0), x2)
    dy = np.maximum(np.maximum(y1, 0.0), y2)
    hyp = math.hypot
    return [hyp(dx[i], dy[i]) for i in range(k)]

#: Fraction of entries forcibly reinserted on first overflow (R* paper: 30%).
_REINSERT_FRACTION = 0.3


class LeafEntry:
    """A data record stored at the leaf level: an item at a point."""

    __slots__ = ("item", "x", "y")

    def __init__(self, item, x: float, y: float):
        self.item = item
        self.x = x
        self.y = y

    @property
    def point(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def mbr(self) -> MBR:
        """Degenerate point rectangle of this record."""
        return MBR(self.x, self.y, self.x, self.y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LeafEntry({self.item!r}, {self.x}, {self.y})"


class Node:
    """A tree node.  ``level`` 0 is the leaf level."""

    __slots__ = ("level", "entries", "box", "parent")

    def __init__(self, level: int):
        self.level = level
        self.entries: List = []  # LeafEntry at level 0, Node above
        self.box = MBR.empty()
        self.parent: Optional["Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def recompute_box(self) -> None:
        """Rebuild this node's MBR from its entries."""
        box = MBR.empty()
        if self.is_leaf:
            for e in self.entries:
                box.include_point((e.x, e.y))
        else:
            for child in self.entries:
                box.include_mbr(child.box)
        self.box = box

    def add(self, entry) -> None:
        """Append an entry and grow the MBR (sets parent for nodes)."""
        self.entries.append(entry)
        if self.is_leaf:
            self.box.include_point((entry.x, entry.y))
        else:
            entry.parent = self
            self.box.include_mbr(entry.box)

    def __len__(self) -> int:
        return len(self.entries)


class RStarTree:
    """R*-tree over 2-D points.

    Parameters
    ----------
    max_entries:
        Node fanout; the paper's experiments use 100 children per node.
    min_entries:
        Minimum fill; defaults to 40% of ``max_entries`` per the R* paper.
    """

    def __init__(self, max_entries: int = 100, min_entries: Optional[int] = None):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = min_entries or max(2, int(round(max_entries * 0.4)))
        if self.min_entries > max_entries // 2:
            self.min_entries = max_entries // 2
        self.root = Node(0)
        self.size = 0
        #: Bumped whenever entries move between nodes (forced reinsert,
        #: split, delete-condense).  Annotation layers compare it across
        #: an insert to learn whether the insertion path is still exactly
        #: the leaf's parent chain (incremental update safe) or entries
        #: were shuffled (full recompute needed).
        self.restructures = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def insert(self, item, x: float, y: float) -> None:
        """Insert one item with R* overflow treatment."""
        self._insert_entry(LeafEntry(item, float(x), float(y)), 0, set())
        self.size += 1

    @classmethod
    def bulk_load(
        cls,
        records: Iterable[Tuple[object, float, float]],
        max_entries: int = 100,
        min_entries: Optional[int] = None,
    ) -> "RStarTree":
        """STR bulk loading: sort by x, tile into vertical slabs, sort each
        slab by y, pack leaves, then pack upper levels the same way."""
        tree = cls(max_entries=max_entries, min_entries=min_entries)
        entries = [LeafEntry(item, float(x), float(y)) for item, x, y in records]
        tree.size = len(entries)
        if not entries:
            return tree

        cap = tree.max_entries
        leaves = tree._pack_leaves(entries, cap)
        level = 0
        nodes = leaves
        while len(nodes) > 1:
            level += 1
            nodes = tree._pack_nodes(nodes, cap, level)
        tree.root = nodes[0]
        tree.root.parent = None
        return tree

    @staticmethod
    def _pack_leaves(entries: List[LeafEntry], cap: int) -> List[Node]:
        entries.sort(key=lambda e: e.x)
        n = len(entries)
        leaf_count = math.ceil(n / cap)
        slab_count = max(1, math.ceil(math.sqrt(leaf_count)))
        slab_size = math.ceil(n / slab_count)
        leaves: List[Node] = []
        for s in range(0, n, slab_size):
            slab = sorted(entries[s : s + slab_size], key=lambda e: e.y)
            for i in range(0, len(slab), cap):
                node = Node(0)
                for e in slab[i : i + cap]:
                    node.add(e)
                leaves.append(node)
        return leaves

    @staticmethod
    def _pack_nodes(nodes: List[Node], cap: int, level: int) -> List[Node]:
        nodes.sort(key=lambda nd: nd.box.center()[0])
        n = len(nodes)
        parent_count = math.ceil(n / cap)
        slab_count = max(1, math.ceil(math.sqrt(parent_count)))
        slab_size = math.ceil(n / slab_count)
        parents: List[Node] = []
        for s in range(0, n, slab_size):
            slab = sorted(nodes[s : s + slab_size], key=lambda nd: nd.box.center()[1])
            for i in range(0, len(slab), cap):
                parent = Node(level)
                for child in slab[i : i + cap]:
                    parent.add(child)
                parents.append(parent)
        return parents

    # ------------------------------------------------------------------ #
    # Insertion internals (R* heuristics)
    # ------------------------------------------------------------------ #

    def _insert_entry(self, entry, level: int, reinserted_levels: set) -> None:
        node = self._choose_subtree(entry, level)
        node.add(entry)
        self._propagate_box(node)
        if len(node) > self.max_entries:
            self._overflow_treatment(node, reinserted_levels)

    def _choose_subtree(self, entry, level: int) -> Node:
        entry_box = entry.mbr() if isinstance(entry, LeafEntry) else entry.box
        node = self.root
        while node.level > level:
            children: List[Node] = node.entries
            if node.level == level + 1 and node.level == 1:
                # Children are leaves: minimise overlap enlargement.
                best = self._least_overlap_child(children, entry_box)
            else:
                best = self._least_enlargement_child(children, entry_box)
            node = best
        return node

    @staticmethod
    def _least_enlargement_child(children: List[Node], box: MBR) -> Node:
        best = None
        best_key = None
        for child in children:
            key = (child.box.enlargement(box), child.box.area())
            if best_key is None or key < best_key:
                best_key = key
                best = child
        return best

    @staticmethod
    def _least_overlap_child(children: List[Node], box: MBR) -> Node:
        best = None
        best_key = None
        for child in children:
            grown = child.box.union(box)
            overlap_delta = 0.0
            for other in children:
                if other is child:
                    continue
                overlap_delta += grown.intersection_area(other.box)
                overlap_delta -= child.box.intersection_area(other.box)
            key = (overlap_delta, child.box.enlargement(box), child.box.area())
            if best_key is None or key < best_key:
                best_key = key
                best = child
        return best

    def _overflow_treatment(self, node: Node, reinserted_levels: set) -> None:
        self.restructures += 1
        if node is not self.root and node.level not in reinserted_levels:
            reinserted_levels.add(node.level)
            self._forced_reinsert(node, reinserted_levels)
        else:
            self._split(node)

    def _forced_reinsert(self, node: Node, reinserted_levels: set) -> None:
        cx, cy = node.box.center()

        def centre_dist(entry) -> float:
            if node.is_leaf:
                return (entry.x - cx) ** 2 + (entry.y - cy) ** 2
            ex, ey = entry.box.center()
            return (ex - cx) ** 2 + (ey - cy) ** 2

        node.entries.sort(key=centre_dist)
        count = max(1, int(len(node.entries) * _REINSERT_FRACTION))
        evicted = node.entries[-count:]
        del node.entries[-count:]
        node.recompute_box()
        self._propagate_box(node)
        for entry in evicted:
            self._insert_entry(entry, node.level, reinserted_levels)

    def _split(self, node: Node) -> None:
        group_a, group_b = self._rstar_split_groups(node)
        sibling = Node(node.level)
        node.entries = group_a
        for entry in group_b:
            sibling.add(entry)
        node.recompute_box()
        if not node.is_leaf:
            for child in node.entries:
                child.parent = node

        parent = node.parent
        if parent is None:
            new_root = Node(node.level + 1)
            new_root.add(node)
            new_root.add(sibling)
            self.root = new_root
        else:
            parent.add(sibling)
            self._propagate_box(parent)
            if len(parent) > self.max_entries:
                self._split(parent)

    def _rstar_split_groups(self, node: Node):
        """R* topological split: pick the axis with the smallest summed
        margin over all distributions, then the distribution with the least
        overlap (ties: least combined area)."""
        entries = node.entries

        def box_of(entry) -> MBR:
            return entry.mbr() if node.is_leaf else entry.box

        m = self.min_entries
        best_axis_margin = None
        best_axis_sorted = None
        for axis in (0, 1):
            if node.is_leaf:
                key_lo = (lambda e: e.x) if axis == 0 else (lambda e: e.y)
                ordered = sorted(entries, key=key_lo)
            else:
                ordered = sorted(
                    entries,
                    key=lambda e: (e.box.x1, e.box.x2)
                    if axis == 0
                    else (e.box.y1, e.box.y2),
                )
            margin_sum = 0.0
            for k in range(m, len(entries) - m + 1):
                left = _union_boxes(box_of(e) for e in ordered[:k])
                right = _union_boxes(box_of(e) for e in ordered[k:])
                margin_sum += left.margin() + right.margin()
            if best_axis_margin is None or margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis_sorted = ordered

        ordered = best_axis_sorted
        best_key = None
        best_k = m
        for k in range(m, len(entries) - m + 1):
            left = _union_boxes(box_of(e) for e in ordered[:k])
            right = _union_boxes(box_of(e) for e in ordered[k:])
            key = (left.intersection_area(right), left.area() + right.area())
            if best_key is None or key < best_key:
                best_key = key
                best_k = k
        return list(ordered[:best_k]), list(ordered[best_k:])

    @staticmethod
    def _propagate_box(node: Node) -> None:
        walker: Optional[Node] = node
        while walker is not None:
            walker.recompute_box()
            walker = walker.parent

    # ------------------------------------------------------------------ #
    # Deletion (R-tree CondenseTree: underfull nodes dissolve and their
    # entries reinsert at their original level).
    # ------------------------------------------------------------------ #

    def delete(self, item, x: float, y: float) -> bool:
        """Remove one entry matching ``(item, x, y)``; False when absent."""
        leaf = self._find_leaf(self.root, item, float(x), float(y))
        if leaf is None:
            return False
        for i, entry in enumerate(leaf.entries):
            if entry.item == item and entry.x == x and entry.y == y:
                del leaf.entries[i]
                break
        self.size -= 1
        # A removal shrinks subtree unions even without condensing, so any
        # annotation layer's cached aggregates are stale from here on.
        self.restructures += 1
        self._condense(leaf)
        # Shrink the root when it degenerates to a single internal child.
        while not self.root.is_leaf and len(self.root) == 1:
            self.root = self.root.entries[0]
            self.root.parent = None
        return True

    def _find_leaf(self, node: Node, item, x: float, y: float) -> Optional[Node]:
        if not node.box.contains_point((x, y)) and len(node.entries) > 0:
            return None
        if node.is_leaf:
            for entry in node.entries:
                if entry.item == item and entry.x == x and entry.y == y:
                    return node
            return None
        for child in node.entries:
            if child.box.contains_point((x, y)):
                found = self._find_leaf(child, item, x, y)
                if found is not None:
                    return found
        return None

    def _condense(self, node: Node) -> None:
        """Walk to the root, dissolving underfull non-root nodes.

        Orphaned entries reinsert at the level of the node that held them
        (LeafEntry records at level 0, whole subtrees at their level).
        """
        orphans: List[Tuple[object, int]] = []
        walker = node
        while walker.parent is not None:
            parent = walker.parent
            if len(walker) < self.min_entries:
                parent.entries.remove(walker)
                orphans.extend((entry, walker.level) for entry in walker.entries)
            else:
                walker.recompute_box()
            walker = parent
        walker.recompute_box()  # the root

        for entry, level in orphans:
            self._insert_entry(entry, level, set())

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def range_circle(self, cx: float, cy: float, r: float) -> Iterator[LeafEntry]:
        """All leaf entries within the closed disc of radius ``r``."""
        r_sq = r * r
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.box.intersects_circle(cx, cy, r):
                continue
            if node.is_leaf:
                for e in node.entries:
                    dx = e.x - cx
                    dy = e.y - cy
                    if dx * dx + dy * dy <= r_sq:
                        yield e
            else:
                stack.extend(node.entries)

    def range_rect(self, box: MBR) -> Iterator[LeafEntry]:
        """All leaf entries inside the rectangle."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.box.intersects(box):
                continue
            if node.is_leaf:
                for e in node.entries:
                    if box.contains_point((e.x, e.y)):
                        yield e
            else:
                stack.extend(node.entries)

    def nearest(
        self,
        x: float,
        y: float,
        predicate: Optional[Callable[[LeafEntry], bool]] = None,
        prune: Optional[Callable[[Node], bool]] = None,
    ) -> Optional[LeafEntry]:
        """Best-first nearest neighbour, optionally filtered.

        ``predicate`` filters leaf entries; ``prune`` may reject whole
        subtrees (the bR*-tree passes a bitmap check here, which is exactly
        the paper's "find the nearest object containing term t" primitive).
        """
        for entry, _d in self.nearest_iter(x, y, predicate=predicate, prune=prune):
            return entry
        return None

    def nearest_iter(
        self,
        x: float,
        y: float,
        predicate: Optional[Callable[[LeafEntry], bool]] = None,
        prune: Optional[Callable[[Node], bool]] = None,
    ) -> Iterator[Tuple[LeafEntry, float]]:
        """Yield (entry, distance) pairs in increasing distance order."""
        origin = (x, y)
        counter = 0
        heap: List[Tuple[float, int, object, bool]] = []
        if self.size:
            heap.append((point_min_dist(origin, self.root.box), counter, self.root, False))
        while heap:
            d, _tie, element, is_entry = heapq.heappop(heap)
            if is_entry:
                yield element, d
                continue
            node: Node = element
            if prune is not None and prune(node):
                continue
            batched = len(node.entries) >= _BATCH_MIN_FANOUT
            if node.is_leaf:
                if batched and predicate is None:
                    for de, e in zip(_leaf_frontier_dists(node.entries, x, y), node.entries):
                        counter += 1
                        heapq.heappush(heap, (de, counter, e, True))
                    continue
                for e in node.entries:
                    if predicate is not None and not predicate(e):
                        continue
                    counter += 1
                    de = math.hypot(e.x - x, e.y - y)
                    heapq.heappush(heap, (de, counter, e, True))
            else:
                if batched:
                    for dc, child in zip(_node_frontier_dists(node.entries, x, y), node.entries):
                        counter += 1
                        heapq.heappush(heap, (dc, counter, child, False))
                    continue
                for child in node.entries:
                    counter += 1
                    dc = point_min_dist(origin, child.box)
                    heapq.heappush(heap, (dc, counter, child, False))

    # ------------------------------------------------------------------ #
    # Introspection (tests rely on these invariants)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.size

    def iter_leaf_entries(self) -> Iterator[LeafEntry]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.entries)

    def height(self) -> int:
        """Number of levels (a lone root leaf has height 1)."""
        return self.root.level + 1

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` when structural invariants are violated."""
        self._check_node(self.root, is_root=True)
        assert sum(1 for _ in self.iter_leaf_entries()) == self.size

    def _check_node(self, node: Node, is_root: bool = False) -> None:
        if not is_root:
            assert len(node) >= 1, "non-root node may not be empty"
        assert len(node) <= self.max_entries, "node overflow"
        box = MBR.empty()
        if node.is_leaf:
            for e in node.entries:
                box.include_point((e.x, e.y))
        else:
            for child in node.entries:
                assert child.parent is node, "broken parent pointer"
                assert child.level == node.level - 1, "broken level chain"
                box.include_mbr(child.box)
                self._check_node(child)
        if node.entries:
            assert abs(box.x1 - node.box.x1) < 1e-9
            assert abs(box.y1 - node.box.y1) < 1e-9
            assert abs(box.x2 - node.box.x2) < 1e-9
            assert abs(box.y2 - node.box.y2) < 1e-9


def _union_boxes(boxes: Iterable[MBR]) -> MBR:
    merged = MBR.empty()
    for b in boxes:
        merged.include_mbr(b)
    return merged
