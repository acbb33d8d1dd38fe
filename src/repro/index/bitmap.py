"""Keyword bitmaps.

The bR*-tree (Zhang et al. [21]) augments every R*-tree node with a bitmap
of the keywords appearing below it.  We encode bitmaps as arbitrary-width
Python ints: union is ``|``, coverage testing is a mask comparison, and the
representation is exact for vocabularies of any size.

Two granularities are used:

* *global* bitmaps over the whole vocabulary (one bit per term id) stored in
  the bR*-tree nodes, and
* *query-local* masks over the m query keywords (bits 0..m-1) used inside
  the algorithms, produced by :meth:`KeywordVocabulary.query_mask`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

from ..exceptions import DatasetError

__all__ = [
    "KeywordVocabulary",
    "mask_of",
    "iter_bits",
    "popcount",
    "pack_masks",
    "bits_matrix",
]


def mask_of(term_ids: Iterable[int]) -> int:
    """Bitmap with the given bit positions set."""
    mask = 0
    for t in term_ids:
        mask |= 1 << t
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    """Number of set bits."""
    return mask.bit_count()


# ---------------------------------------------------------------------- #
# Packed mask columns (struct-of-arrays storage for the columnar kernels)
# ---------------------------------------------------------------------- #

def pack_masks(masks: Sequence[int], width: int) -> np.ndarray:
    """Pack ``n`` arbitrary-width int bitmaps into an ``(n, W)`` uint64 array.

    ``W = ceil(width / 64)`` words per row, little-endian (word 0 holds
    bits 0..63).  This is the columnar twin of a ``List[int]`` mask column:
    contiguous, gather-friendly, and consumed batch-wise by the vectorized
    kernels.  For ``width <= 64`` the result is a single word per row and
    ``packed[:, 0]`` is a flat ``uint64`` mask column.
    """
    words = max(1, (int(width) + 63) // 64)
    packed = np.zeros((len(masks), words), dtype=np.uint64)
    low64 = (1 << 64) - 1
    for row, mask in enumerate(masks):
        mask = int(mask)
        w = 0
        while mask and w < words:
            packed[row, w] = mask & low64
            mask >>= 64
            w += 1
    return packed


def bits_matrix(masks: Sequence[int], width: int) -> np.ndarray:
    """Expand masks into an ``(n, width)`` uint8 0/1 matrix.

    Column ``i`` flags which rows carry bit ``i`` — the representation the
    batched circleScan event walk consumes (per-keyword count updates
    become column-wise cumulative sums).
    """
    packed = masks if isinstance(masks, np.ndarray) else pack_masks(masks, width)
    if packed.ndim == 1:
        packed = packed[:, None]
    width = int(width)
    out = np.empty((packed.shape[0], width), dtype=np.uint8)
    for w in range((width + 63) // 64):
        lo = w * 64
        span = min(64, width - lo)
        shifts = np.arange(span, dtype=np.uint64)
        out[:, lo : lo + span] = (
            (packed[:, w, None] >> shifts[None, :]) & np.uint64(1)
        ).astype(np.uint8)
    return out


class KeywordVocabulary:
    """Bidirectional term <-> integer-id mapping with frequency counts.

    Term frequencies (number of objects containing the term) drive both the
    GKG least-frequent-keyword selection and the paper's §6.2.4
    frequency-bounded query generation.
    """

    def __init__(self) -> None:
        self._term_to_id: Dict[str, int] = {}
        self._id_to_term: List[str] = []
        self._frequency: List[int] = []

    @classmethod
    def from_terms(
        cls, terms: Sequence[str], frequencies: Iterable[int]
    ) -> "KeywordVocabulary":
        """A vocabulary whose term ``i`` is ``terms[i]`` (terms must be unique)."""
        vocab = cls()
        vocab._id_to_term = list(terms)
        vocab._term_to_id = dict(zip(vocab._id_to_term, range(len(terms))))
        vocab._frequency = list(frequencies)
        return vocab

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def terms(self) -> List[str]:
        """Every term in id order (the vocabulary's own list: do not mutate)."""
        return self._id_to_term

    def add(self, term: str) -> int:
        """Intern ``term``; returns its id. Does not touch frequencies."""
        tid = self._term_to_id.get(term)
        if tid is None:
            tid = len(self._id_to_term)
            self._term_to_id[term] = tid
            self._id_to_term.append(term)
            self._frequency.append(0)
        return tid

    def observe(self, term: str) -> int:
        """Intern ``term`` and count one containing object."""
        tid = self.add(term)
        self._frequency[tid] += 1
        return tid

    def id_of(self, term: str) -> int:
        """The id of a known term; raises DatasetError when unseen."""
        try:
            return self._term_to_id[term]
        except KeyError:
            raise DatasetError(f"unknown keyword: {term!r}") from None

    def ids_of(self, terms: Iterable[str]) -> List[int]:
        """The id of each term, ``-1`` for an unseen one."""
        get = self._term_to_id.get
        return [get(term, -1) for term in terms]

    def term_of(self, tid: int) -> str:
        """The term string for an id."""
        return self._id_to_term[tid]

    def frequency(self, term_or_id) -> int:
        """Document frequency of a term (by string or id)."""
        tid = term_or_id if isinstance(term_or_id, int) else self.id_of(term_or_id)
        return self._frequency[tid]

    def terms_by_frequency(self) -> List[str]:
        """All terms, least frequent first (the paper ranks ascending)."""
        order = sorted(range(len(self._id_to_term)), key=self._frequency.__getitem__)
        return [self._id_to_term[i] for i in order]

    def least_frequent(self, terms: Sequence[str]) -> str:
        """The least frequent of ``terms`` (GKG's ``t_inf``)."""
        if not terms:
            raise DatasetError("cannot pick least frequent of no terms")
        return min(terms, key=lambda t: self._frequency[self.id_of(t)])

    def global_mask(self, terms: Iterable[str]) -> int:
        """Whole-vocabulary bitmap of ``terms``."""
        return mask_of(self.id_of(t) for t in terms)

    def query_mask(self, query_terms: Sequence[str]) -> Dict[int, int]:
        """Map global term id -> query-local bit for the m query keywords."""
        return {self.id_of(t): 1 << pos for pos, t in enumerate(query_terms)}
