"""On-disk segments: round-trip fidelity and corruption detection."""

import json
import os
import zlib

import pytest

from repro.exceptions import SegmentError
from repro.index.segments import (
    MAGIC,
    load_segment,
    segment_info,
    write_segment,
)
from repro.core.objects import Dataset


def _sealed(name="seg-test", n=20):
    """A small sealed base with a mixed vocabulary and sparse oids."""
    records = []
    for i in range(n):
        oid = i * 3 + 1  # sparse: deletes leave holes in real bases
        kws = [f"kw{i % 5}", f"tag{i % 3}"]
        if i % 4 == 0:
            kws.append("rare")
        records.append((oid, float(i), float(n - i) * 0.5, kws))
    return Dataset.seal(records, name=name)


def _write(tmp_path, base=None, name="base.seg"):
    base = base if base is not None else _sealed()
    path = str(tmp_path / name)
    header = write_segment(base, path)
    return base, path, header


class TestRoundTrip:
    def test_identical_objects_and_terms(self, tmp_path):
        base, path, header = _write(tmp_path)
        loaded = load_segment(path)
        assert loaded.name == base.name
        assert [o.oid for o in loaded] == [o.oid for o in base]
        for obj in base:
            twin = loaded[obj.oid]
            assert (twin.x, twin.y) == (obj.x, obj.y)
            assert twin.keywords == obj.keywords
            # Term ids survive verbatim — no re-interning on load.
            assert loaded.term_ids_of(obj.oid) == base.term_ids_of(obj.oid)

    def test_vocabulary_order_and_frequency_survive(self, tmp_path):
        base, path, _header = _write(tmp_path)
        loaded = load_segment(path)
        assert len(loaded.vocabulary) == len(base.vocabulary)
        for tid in range(len(base.vocabulary)):
            term = base.vocabulary.term_of(tid)
            assert loaded.vocabulary.term_of(tid) == term
            assert loaded.vocabulary.frequency(tid) == base.vocabulary.frequency(
                tid
            )

    def test_columns_installed_eagerly(self, tmp_path):
        base, path, _header = _write(tmp_path)
        loaded = load_segment(path)
        assert list(loaded.columns.oids) == list(base.columns.oids)
        assert list(loaded.columns.term_ids) == list(base.columns.term_ids)

    def test_inverted_index_parity(self, tmp_path):
        base, path, _header = _write(tmp_path)
        loaded = load_segment(path)
        for tid in range(len(base.vocabulary)):
            assert list(loaded.inverted.posting(tid)) == list(
                base.inverted.posting(tid)
            )

    def test_header_metadata(self, tmp_path):
        base, path, header = _write(tmp_path)
        assert header["objects"] == len(base)
        assert header["version"] == 1
        info = segment_info(path)
        assert info["objects"] == len(base)
        assert info["terms"] == header["terms"]

    def test_empty_base_round_trips(self, tmp_path):
        base = Dataset.seal((), name="empty")
        path = str(tmp_path / "empty.seg")
        write_segment(base, path)
        loaded = load_segment(path)
        assert len(loaded) == 0
        assert loaded.name == "empty"

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        _base, path, _header = _write(tmp_path)
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")


class TestCorruption:
    """Every corruption shape raises SegmentError — loaders never guess."""

    def test_bad_magic(self, tmp_path):
        _base, path, _header = _write(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[0] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(SegmentError, match="magic"):
            load_segment(path)
        with pytest.raises(SegmentError, match="magic"):
            segment_info(path)

    def test_header_crc_mismatch(self, tmp_path):
        _base, path, _header = _write(tmp_path)
        data = bytearray(open(path, "rb").read())
        # Flip a byte inside the JSON header (just past the CRC field).
        data[len(MAGIC) + 12] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(SegmentError, match="CRC"):
            load_segment(path)

    def test_section_bitflip(self, tmp_path):
        _base, path, _header = _write(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-5] ^= 0x01  # inside the last (masks) section
        open(path, "wb").write(bytes(data))
        with pytest.raises(SegmentError, match="CRC mismatch"):
            load_segment(path)

    def test_truncated_section(self, tmp_path):
        _base, path, _header = _write(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 16)
        with pytest.raises(SegmentError, match="truncated"):
            load_segment(path)

    def test_truncated_header(self, tmp_path):
        _base, path, _header = _write(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(len(MAGIC) + 4)
        with pytest.raises(SegmentError):
            load_segment(path)

    def test_consistent_rewrite_fails_mask_cross_check(self, tmp_path):
        # Adversarial: rewrite a section AND fix its CRC in the header.
        # The per-row mask/CSR cross-validation still catches the lie.
        base, path, header = _write(tmp_path)
        with open(path, "rb") as fh:
            raw = fh.read()
        header_line_end = raw.index(b"\n", len(MAGIC)) + 1
        body = raw[header_line_end:]
        sections = header["sections"]
        # Corrupt one uint64 word of the masks section, recompute its CRC.
        offset = sum(s["bytes"] for s in sections[:-1])
        masks_raw = bytearray(body[offset:])
        masks_raw[0] ^= 0x01
        sections[-1]["crc"] = zlib.crc32(bytes(masks_raw)) & 0xFFFFFFFF
        new_body = json.dumps(header, sort_keys=True).encode("utf-8")
        framed = b"%08x %s\n" % (zlib.crc32(new_body) & 0xFFFFFFFF, new_body)
        with open(path, "wb") as fh:
            fh.write(MAGIC + framed + body[:offset] + bytes(masks_raw))
        with pytest.raises(SegmentError, match="disagrees"):
            load_segment(path)

    def test_unsupported_version(self, tmp_path):
        base = _sealed()
        path = str(tmp_path / "v2.seg")
        header = write_segment(base, path)
        header["version"] = 99
        body = json.dumps(header, sort_keys=True).encode("utf-8")
        framed = b"%08x %s\n" % (zlib.crc32(body) & 0xFFFFFFFF, body)
        with open(path, "rb") as fh:
            raw = fh.read()
        tail = raw[raw.index(b"\n", len(MAGIC)) + 1 :]
        with open(path, "wb") as fh:
            fh.write(MAGIC + framed + tail)
        with pytest.raises(SegmentError, match="version"):
            load_segment(path)


class TestCrossVersion:
    """A segment written before the store became columns-first still loads.

    ``data/mckseg1_v1.seg`` was written by the previous sealed-base
    implementation (sparse oids, 80 terms, so every mask spans two uint64
    words); ``data/mckseg1_v1.json`` holds what that writer sealed.
    """

    DATA = os.path.join(os.path.dirname(__file__), "data")

    def _copy(self, tmp_path):
        path = str(tmp_path / "v1.seg")
        with open(os.path.join(self.DATA, "mckseg1_v1.seg"), "rb") as src:
            raw = src.read()
        with open(path, "wb") as dst:
            dst.write(raw)
        return path, raw

    def test_loads_to_the_same_store(self, tmp_path):
        path, _raw = self._copy(tmp_path)
        with open(os.path.join(self.DATA, "mckseg1_v1.json")) as fh:
            want = json.load(fh)
        loaded = load_segment(path)
        cols = loaded.columns
        assert loaded.name == want["name"]
        for name in ("oids", "xs", "ys", "term_indptr", "term_ids"):
            assert getattr(cols, name).tolist() == want[name], name
        assert loaded.vocabulary.terms() == want["terms"]
        assert [
            loaded.vocabulary.frequency(t) for t in range(len(want["terms"]))
        ] == want["frequencies"]
        assert segment_info(path)["sections"][-1]["shape"] == [len(want["oids"]), 2]

    def test_second_mask_word_bitflip_is_caught(self, tmp_path):
        path, raw = self._copy(tmp_path)
        header = segment_info(path)
        sections = header["sections"]
        body = raw[raw.index(b"\n", len(MAGIC)) + 1 :]
        offset = sum(s["bytes"] for s in sections[:-1])
        masks_raw = bytearray(body[offset:])
        row, word = 3, 1
        masks_raw[(row * 2 + word) * 8] ^= 0x01  # term id 64's bit in row 3
        sections[-1]["crc"] = zlib.crc32(bytes(masks_raw)) & 0xFFFFFFFF
        new_body = json.dumps(header, sort_keys=True).encode("utf-8")
        framed = b"%08x %s\n" % (zlib.crc32(new_body) & 0xFFFFFFFF, new_body)
        with open(path, "wb") as fh:
            fh.write(MAGIC + framed + body[:offset] + bytes(masks_raw))
        with pytest.raises(SegmentError, match="disagrees"):
            load_segment(path)
