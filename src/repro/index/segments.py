"""CRC-checksummed on-disk segments for sealed stores.

A *segment* is the durable form of a :class:`~repro.core.objects.Dataset`'s
columns, serialized section by section — the sorted oid column, the x/y
coordinate columns, the CSR keyword term lists (``term_indptr`` /
``term_ids``), and the packed keyword-mask matrix (every object's global
mask as little-endian uint64 words, the
:func:`~repro.index.bitmap.pack_masks` layout).  Loading a segment adopts
those columns as the identical store — same term ids, same posting lists
— without replaying a single WAL record or re-interning a single keyword,
which is what makes restart-from-checkpoint a load instead of a rebuild.

Layout (little-endian throughout)::

    MCKSEG1\\n                                   8-byte magic
    <crc32 hex8> <json header>\\n                WAL-style framed header
    <section bytes> ...                         raw arrays, header order

The header records every section's dtype, shape, byte length, and CRC32,
plus the base name and the vocabulary's terms in id order.  Any torn
write, bit flip, or truncation fails verification with
:class:`~repro.exceptions.SegmentError` — loaders never guess.

Writes are atomic: the segment is written to ``<path>.tmp``, fsynced,
and renamed into place; callers (the checkpoint manager) fsync the
directory so the rename itself survives a crash.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Tuple

import numpy as np

from ..exceptions import SegmentError
from .columns import ColumnarStore

__all__ = ["write_segment", "load_segment", "segment_info", "fsync_dir"]

MAGIC = b"MCKSEG1\n"

#: Section name -> numpy dtype string, in on-disk order.
_SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("oids", "<i8"),
    ("xs", "<f8"),
    ("ys", "<f8"),
    ("term_indptr", "<i8"),
    ("term_ids", "<i8"),
    ("masks", "<u8"),
)


def fsync_dir(path: str) -> None:
    """fsync a directory so a rename/creation inside it is durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _frame(body: bytes) -> bytes:
    return b"%08x %s\n" % (zlib.crc32(body) & 0xFFFFFFFF, body)


def _unframe(line: bytes, what: str) -> bytes:
    if not line.endswith(b"\n"):
        raise SegmentError(f"{what}: truncated header line")
    line = line[:-1]
    if len(line) < 10 or line[8:9] != b" ":
        raise SegmentError(f"{what}: malformed header framing")
    try:
        want = int(line[:8], 16)
    except ValueError:
        raise SegmentError(f"{what}: malformed header CRC field") from None
    body = line[9:]
    if zlib.crc32(body) & 0xFFFFFFFF != want:
        raise SegmentError(f"{what}: header CRC mismatch")
    return body


def _packed_masks(cols: ColumnarStore, words: int) -> np.ndarray:
    """``(n, words)`` uint64 global keyword masks of every CSR row.

    Raises ``IndexError`` when a term id needs more than ``words`` words.
    """
    masks = np.zeros((len(cols.oids), words), dtype=np.uint64)
    tids = cols.term_ids
    owner = np.repeat(np.arange(len(cols.oids)), np.diff(cols.term_indptr))
    bits = np.left_shift(np.uint64(1), (tids % 64).astype(np.uint64))
    np.bitwise_or.at(masks, (owner, tids // 64), bits)
    return masks


def write_segment(base, path: str) -> Dict:
    """Serialize a sealed store to ``path`` atomically; returns the header.

    ``base`` is a :class:`~repro.core.objects.Dataset` (``name``,
    ``vocabulary``, ``columns``).  The file appears at ``path`` fully
    written or not at all (write-temp, fsync, rename); the caller is
    responsible for fsyncing the containing directory.
    """
    cols = base.columns
    terms = list(base.vocabulary.terms())
    masks = _packed_masks(cols, max(1, (len(terms) + 63) // 64))

    arrays = {
        "oids": np.ascontiguousarray(cols.oids, dtype="<i8"),
        "xs": np.ascontiguousarray(cols.xs, dtype="<f8"),
        "ys": np.ascontiguousarray(cols.ys, dtype="<f8"),
        "term_indptr": np.ascontiguousarray(cols.term_indptr, dtype="<i8"),
        "term_ids": np.ascontiguousarray(cols.term_ids, dtype="<i8"),
        "masks": np.ascontiguousarray(masks, dtype="<u8"),
    }
    sections = []
    for name, dtype in _SECTIONS:
        arr = arrays[name]
        raw = arr.tobytes()
        sections.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(arr.shape),
                "bytes": len(raw),
                "crc": zlib.crc32(raw) & 0xFFFFFFFF,
            }
        )
    header = {
        "version": 1,
        "name": base.name,
        "objects": int(len(cols)),
        "terms": terms,
        "sections": sections,
    }
    body = json.dumps(header, sort_keys=True).encode("utf-8")

    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_frame(body))
        for name, _dtype in _SECTIONS:
            fh.write(arrays[name].tobytes())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return header


def segment_info(path: str) -> Dict:
    """Read and verify only a segment's header (cheap integrity peek)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise SegmentError(f"{path}: bad segment magic")
        return json.loads(_unframe(fh.readline(), path).decode("utf-8"))


def load_segment(path: str):
    """Load and fully verify a segment; returns the sealed store.

    Every section is CRC-checked against the header and the packed mask
    matrix is cross-validated against the CSR term lists, so a segment
    that loads is internally consistent — a corrupt or torn file raises
    :class:`~repro.exceptions.SegmentError` instead of producing a
    silently wrong index.  The checks run in numpy over whole columns.
    """
    from ..core.objects import Dataset  # deferred: core imports index

    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise SegmentError(f"{path}: bad segment magic")
        try:
            header = json.loads(_unframe(fh.readline(), path).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise SegmentError(f"{path}: undecodable header: {err}") from None
        if header.get("version") != 1:
            raise SegmentError(
                f"{path}: unsupported segment version {header.get('version')!r}"
            )
        arrays: Dict[str, np.ndarray] = {}
        declared = {s["name"]: s for s in header.get("sections", ())}
        for name, dtype in _SECTIONS:
            section = declared.get(name)
            if section is None:
                raise SegmentError(f"{path}: missing section {name!r}")
            raw = fh.read(int(section["bytes"]))
            if len(raw) != int(section["bytes"]):
                raise SegmentError(f"{path}: section {name!r} truncated")
            if zlib.crc32(raw) & 0xFFFFFFFF != int(section["crc"]):
                raise SegmentError(f"{path}: section {name!r} CRC mismatch")
            arr = np.frombuffer(raw, dtype=dtype).reshape(section["shape"])
            arrays[name] = arr

    oids = arrays["oids"].astype(np.int64)
    xs = arrays["xs"].astype(np.float64)
    ys = arrays["ys"].astype(np.float64)
    indptr = arrays["term_indptr"].astype(np.int64)
    term_ids = arrays["term_ids"].astype(np.int64)
    masks = arrays["masks"].astype(np.uint64)
    n = int(header["objects"])
    terms = [str(t) for t in header["terms"]]

    if len(oids) != n or len(xs) != n or len(ys) != n:
        raise SegmentError(f"{path}: column lengths disagree with header")
    if len(indptr) != n + 1 or (n and indptr[0] != 0):
        raise SegmentError(f"{path}: malformed CSR row pointers")
    if n and int(indptr[-1]) != len(term_ids):
        raise SegmentError(f"{path}: CSR term column length mismatch")
    if n and not np.all(np.diff(oids) > 0):
        raise SegmentError(f"{path}: oid column is not strictly ascending")
    if len(term_ids) and (
        int(term_ids.min()) < 0 or int(term_ids.max()) >= len(terms)
    ):
        raise SegmentError(f"{path}: term id outside vocabulary")
    if len(set(terms)) != len(terms):
        raise SegmentError(f"{path}: duplicate vocabulary terms")
    if n and (masks.ndim != 2 or len(masks) != n):
        raise SegmentError(f"{path}: mask matrix row count mismatch")
    if n:
        counts = np.diff(indptr)
        empty = np.flatnonzero(counts <= 0)
        if len(empty):
            raise SegmentError(
                f"{path}: object {int(oids[empty[0]])} has no keywords"
            )
        # Each row's ids ascend strictly: no duplicate holder in a posting.
        rising = np.diff(term_ids) > 0
        rising[indptr[1:-1] - 1] = True
        if not rising.all():
            raise SegmentError(f"{path}: CSR term row not strictly ascending")
        cols = ColumnarStore(oids, xs, ys, indptr, term_ids)
        try:
            want = _packed_masks(cols, masks.shape[1])
        except IndexError:
            want = None
        bad = (
            np.arange(n)
            if want is None
            else np.flatnonzero(np.any(want != masks, axis=1))
        )
        if len(bad):
            raise SegmentError(
                f"{path}: mask matrix disagrees with CSR terms at oid "
                f"{int(oids[bad[0]])}"
            )
    return Dataset.from_columns(
        oids, xs, ys, indptr, term_ids, terms,
        name=str(header.get("name", "live-base")),
    )
