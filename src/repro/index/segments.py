"""CRC-checksummed on-disk segments for sealed bases.

A *segment* is the durable twin of a :class:`~repro.live.base.SealedBase`:
the PR 6 columnar layout serialized section by section — the sorted oid
column, the x/y coordinate columns, the CSR keyword term lists
(``term_indptr`` / ``term_ids``), and the packed keyword-mask matrix
(:func:`~repro.index.bitmap.pack_masks` over every object's global mask).
Loading a segment rebuilds the identical sealed base — same term ids,
same posting lists, same columns — without replaying a single WAL record
or re-interning a single keyword, which is what makes restart-from-
checkpoint a load instead of a rebuild.

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
from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import SegmentError
from .bitmap import pack_masks, unpack_mask_row
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


def write_segment(base, path: str) -> Dict:
    """Serialize a sealed base to ``path`` atomically; returns the header.

    ``base`` is any :class:`~repro.live.base.SealedBase`-shaped object
    (``name``, ``vocabulary``, ``columns``).  The file appears at ``path``
    fully written or not at all (write-temp, fsync, rename); the caller
    is responsible for fsyncing the containing directory.
    """
    cols = base.columns
    vocab = base.vocabulary
    terms = [vocab.term_of(tid) for tid in range(len(vocab))]
    # Masks are rebuilt row-wise from the CSR lists (arbitrary-width ints
    # survive any vocabulary size); pack_masks flattens them to uint64
    # words for the on-disk matrix.
    row_masks: List[int] = []
    indptr = cols.term_indptr
    tids = cols.term_ids
    for row in range(len(cols)):
        mask = 0
        for t in tids[indptr[row] : indptr[row + 1]]:
            mask |= 1 << int(t)
        row_masks.append(mask)
    masks = pack_masks(row_masks, max(1, len(vocab)))

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
    """Load and fully verify a segment; returns the rebuilt sealed base.

    Every section is CRC-checked against the header and the packed mask
    matrix is cross-validated against the CSR term lists row by row, so a
    segment that loads is internally consistent — a corrupt or torn file
    raises :class:`~repro.exceptions.SegmentError` instead of producing a
    silently wrong index.
    """
    from ..live.base import SealedBase  # deferred: live imports index

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
    if n and len(masks) != n:
        raise SegmentError(f"{path}: mask matrix row count mismatch")

    base = SealedBase(name=str(header.get("name", "live-base")))
    vocab = base.vocabulary
    for term in terms:
        vocab.add(term)
    if len(term_ids):
        freq = np.bincount(term_ids, minlength=len(terms))
        vocab._frequency = [int(f) for f in freq]

    from ..core.objects import GeoObject

    for row in range(n):
        oid = int(oids[row])
        row_tids = tuple(
            int(t) for t in term_ids[int(indptr[row]) : int(indptr[row + 1])]
        )
        if not row_tids:
            raise SegmentError(f"{path}: object {oid} has no keywords")
        want_mask = 0
        for t in row_tids:
            want_mask |= 1 << t
        if unpack_mask_row(masks[row]) != want_mask:
            raise SegmentError(
                f"{path}: mask matrix disagrees with CSR terms at oid {oid}"
            )
        kw = frozenset(vocab.term_of(t) for t in row_tids)
        base.objects[oid] = GeoObject(oid, float(xs[row]), float(ys[row]), kw)
        base._term_ids[oid] = row_tids
        base.inverted.add_object(oid, row_tids)
    base.inverted.finalize()
    # The columns were serialized oid-sorted, exactly the layout
    # SealedBase.columns would lazily build — install them directly.
    base.install_columns(ColumnarStore(oids, xs, ys, indptr, term_ids))
    return base
