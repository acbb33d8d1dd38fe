"""Crash-safe checkpoints: segment persistence + verified instant restart.

The WAL alone makes mutations durable, but recovery cost grows with the
log: a restart replays every record ever written and rebuilds every
index from scratch.  A *checkpoint* bounds that cost.  Sealing a base is
already an index rebuild — checkpointing rides it: the freshly sealed
base is serialized to a CRC-checksummed segment
(:mod:`repro.index.segments`), an atomic manifest records which segment
covers which WAL prefix, and the covered prefix is truncated away.
Recovery then becomes *segment load + short WAL tail replay*.

Atomicity protocol (every arrow is a crash point, all are survivable)::

    seal base -> write segment.tmp -> fsync -> rename -> fsync dir
              -> write MANIFEST.tmp -> fsync -> rename -> fsync dir
              -> WAL truncate_through(prev covered seq)

* A crash before the manifest rename leaves the previous manifest
  authoritative; the orphan segment is garbage-collected later.
* A crash after the rename but before the truncate recovers from the new
  checkpoint and simply skips the already-covered WAL records.
* The WAL truncation is itself an atomic rotation (see
  :meth:`~repro.live.wal.WriteAheadLog.truncate_through`).

The manifest retains the **last two** checkpoints and the WAL is only
truncated through the *older* retained one.  That one-checkpoint lag is
the corruption budget: if the newest segment fails its CRC at recovery
(bit rot, torn write that survived rename), the previous checkpoint plus
the still-present WAL tail reconstructs the identical store.  Only when
*every* retained segment is unreadable does recovery degrade to replaying
whatever WAL exists over the initial base — counted, logged, and
reported, never a refusal to start.

Fault sites: ``live.checkpoint.segment_write``,
``live.checkpoint.manifest_rename``, ``live.checkpoint.wal_truncate``
fire before the corresponding protocol step; ``live.checkpoint.recover``
fires at recovery start (see :mod:`repro.testing.faults`).
"""

from __future__ import annotations

import json
import logging
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.objects import Dataset
from ..exceptions import SegmentError
from ..index.segments import fsync_dir, load_segment, write_segment
from ..observability.tracer import span
from ..testing import faults
from .wal import WalRecord, read_wal

__all__ = ["CheckpointManager", "RecoveryReport", "read_manifest"]

logger = logging.getLogger("repro.live.checkpoint")

MANIFEST_NAME = "MANIFEST"
WAL_NAME = "wal.log"
SEGMENT_DIR = "segments"

#: Checkpoints retained in the manifest.  Two, not one: the WAL is only
#: truncated through the older retained checkpoint, so the newest segment
#: failing verification still leaves a complete (older segment + WAL
#: tail) recovery path.
RETAIN = 2


def _frame(body: bytes) -> bytes:
    return b"%08x %s\n" % (zlib.crc32(body) & 0xFFFFFFFF, body)


def read_manifest(path: str) -> Dict:
    """Read and CRC-verify a checkpoint manifest.

    Raises :class:`~repro.exceptions.SegmentError` on any corruption —
    missing newline (torn write), CRC mismatch, undecodable JSON, or an
    unsupported version.  A missing file is a plain ``FileNotFoundError``
    (first boot, not corruption).
    """
    with open(path, "rb") as fh:
        line = fh.read()
    if not line.endswith(b"\n"):
        raise SegmentError(f"{path}: torn manifest (no trailing newline)")
    line = line[:-1]
    if len(line) < 10 or line[8:9] != b" ":
        raise SegmentError(f"{path}: malformed manifest framing")
    try:
        want = int(line[:8], 16)
    except ValueError:
        raise SegmentError(f"{path}: malformed manifest CRC field") from None
    body = line[9:]
    if zlib.crc32(body) & 0xFFFFFFFF != want:
        raise SegmentError(f"{path}: manifest CRC mismatch")
    try:
        doc = json.loads(body)
    except ValueError as err:
        raise SegmentError(f"{path}: undecodable manifest: {err}") from None
    if doc.get("version") != 1:
        raise SegmentError(
            f"{path}: unsupported manifest version {doc.get('version')!r}"
        )
    return doc


@dataclass
class RecoveryReport:
    """What one recovery did, for /readyz detail and metrics.

    ``state`` walks the recovery state machine:
    ``pending -> reading_manifest -> loading_segment -> replaying_wal ->
    complete``.  ``segment_failures`` counts retained segments (or the
    manifest) that failed verification and were skipped; ``source`` says
    where the base came from (``segment`` / ``initial``).
    """

    state: str = "pending"
    source: str = "initial"
    segment: str = ""
    covered_seq: int = 0
    wal_records_replayed: int = 0
    segment_failures: int = 0
    failure_reasons: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def complete(self) -> bool:
        return self.state == "complete"

    def as_dict(self) -> Dict:
        return {
            "state": self.state,
            "source": self.source,
            "segment": self.segment,
            "covered_seq": self.covered_seq,
            "wal_records_replayed": self.wal_records_replayed,
            "segment_failures": self.segment_failures,
            "failure_reasons": list(self.failure_reasons),
            "seconds": self.seconds,
        }


class CheckpointManager:
    """Durability subsystem for one live engine's data directory.

    Layout under ``data_dir``::

        MANIFEST            atomic pointer: retained checkpoints, newest last
        wal.log             the current WAL (tail since the oldest retained
                            checkpoint)
        segments/seg-*.seg  CRC-checksummed sealed-base segments
    """

    def __init__(self, data_dir: str):
        self.data_dir = os.path.abspath(data_dir)
        self.segment_dir = os.path.join(self.data_dir, SEGMENT_DIR)
        os.makedirs(self.segment_dir, exist_ok=True)
        self.manifest_path = os.path.join(self.data_dir, MANIFEST_NAME)
        self.wal_path = os.path.join(self.data_dir, WAL_NAME)
        self.checkpoints_taken = 0
        self.checkpoint_failures = 0
        #: Highest ``next_oid`` recorded by any retained checkpoint, set
        #: by :meth:`recover`.  A compacted base forgets oids that were
        #: allocated and then deleted; without this high-water mark a
        #: restart after delete-everything + compact would re-issue them.
        self.recovered_next_oid = 0

    # ------------------------------------------------------------------ #
    # Writing checkpoints
    # ------------------------------------------------------------------ #

    def _retained(self) -> List[Dict]:
        try:
            return list(read_manifest(self.manifest_path).get("checkpoints", ()))
        except FileNotFoundError:
            return []
        except SegmentError:
            # A torn manifest at *write* time means the previous write
            # crashed mid-protocol; the new checkpoint simply starts a
            # fresh history (recovery already logged the corruption).
            return []

    def checkpoint(
        self,
        base: Dataset,
        covered_seq: int,
        wal=None,
        next_oid: int = 0,
    ) -> Dict:
        """Persist ``base`` as the checkpoint covering WAL seq ``covered_seq``.

        Runs the full protocol: segment write, manifest commit, WAL
        truncation through the *previous* retained checkpoint's covered
        seq, and garbage collection of unreferenced segments.  Raises on
        failure (callers count and keep serving); the store on disk is
        never left unrecoverable, whichever step dies.
        """
        started = time.perf_counter()
        covered_seq = int(covered_seq)
        entry_name = f"seg-{covered_seq:012d}.seg"
        seg_path = os.path.join(self.segment_dir, entry_name)
        with span(
            "live.checkpoint", covered_seq=covered_seq, objects=len(base)
        ):
            faults.fire(
                "live.checkpoint.segment_write",
                covered_seq=covered_seq,
                objects=len(base),
            )
            header = write_segment(base, seg_path)
            fsync_dir(self.segment_dir)

            retained = self._retained()
            retained = [
                c for c in retained if int(c["wal_seq"]) != covered_seq
            ]
            retained.append(
                {
                    "segment": entry_name,
                    "wal_seq": covered_seq,
                    "objects": int(header["objects"]),
                    # The oid allocator's high-water mark, NOT derivable
                    # from the base: deleted-then-compacted oids leave no
                    # trace in the segment but must never be re-issued.
                    "next_oid": int(next_oid),
                    "created_unix": time.time(),
                }
            )
            retained = retained[-RETAIN:]
            manifest = {"version": 1, "checkpoints": retained}
            body = json.dumps(manifest, sort_keys=True).encode("utf-8")
            tmp = self.manifest_path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(_frame(body))
                fh.flush()
                os.fsync(fh.fileno())
            faults.fire(
                "live.checkpoint.manifest_rename", covered_seq=covered_seq
            )
            os.replace(tmp, self.manifest_path)
            fsync_dir(self.data_dir)

            faults.fire(
                "live.checkpoint.wal_truncate", covered_seq=covered_seq
            )
            if wal is not None and len(retained) >= RETAIN:
                # Truncate only through the *older* retained checkpoint:
                # the newest segment failing verification later must still
                # find its covering records on disk.  Until two
                # checkpoints exist there is no older one to lean on, so
                # the whole log stays.
                safe_seq = int(retained[0]["wal_seq"])
                wal.truncate_through(safe_seq)

            self._collect_garbage(retained)
        self.checkpoints_taken += 1
        logger.info(
            "checkpoint: %d objects through wal seq %d in %.3fs",
            len(base),
            covered_seq,
            time.perf_counter() - started,
        )
        return manifest

    def _collect_garbage(self, retained: List[Dict]) -> None:
        """Delete segments the manifest no longer references (best effort)."""
        keep = {c["segment"] for c in retained}
        try:
            names = os.listdir(self.segment_dir)
        except OSError:
            return
        for name in names:
            if name.endswith(".seg") and name not in keep:
                try:
                    os.unlink(os.path.join(self.segment_dir, name))
                except OSError:
                    pass

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def recover(
        self, report: Optional[RecoveryReport] = None
    ) -> Tuple[Optional[Dataset], int, List[WalRecord], RecoveryReport]:
        """Load the newest verifiable checkpoint plus the WAL tail.

        Returns ``(base, covered_seq, tail_records, report)``:

        * ``base`` — the sealed base rebuilt from the newest segment that
          passes full CRC verification, or ``None`` when no retained
          checkpoint is loadable (first boot, or every segment corrupt);
        * ``covered_seq`` — the WAL prefix that base covers (0 for None);
        * ``tail_records`` — WAL records with ``seq > covered_seq``, in
          order, ready to fold into a delta overlay.

        Corruption never raises: a bad manifest or segment is counted in
        the report, logged, and recovery falls back — first to the older
        retained checkpoint, then to full replay of whatever WAL exists.
        """
        report = report if report is not None else RecoveryReport()
        started = time.perf_counter()
        faults.fire("live.checkpoint.recover")
        report.state = "reading_manifest"
        candidates: List[Dict] = []
        try:
            candidates = list(
                read_manifest(self.manifest_path).get("checkpoints", ())
            )
        except FileNotFoundError:
            pass
        except SegmentError as err:
            report.segment_failures += 1
            report.failure_reasons.append(str(err))
            logger.warning("recovery: manifest unreadable: %s", err)

        # The high-water mark is valid even when its segment is not: oids
        # only grow, so every readable manifest entry contributes.
        self.recovered_next_oid = max(
            (int(c.get("next_oid", 0)) for c in candidates), default=0
        )

        base: Optional[Dataset] = None
        covered_seq = 0
        report.state = "loading_segment"
        for entry in reversed(candidates):  # newest first
            seg_path = os.path.join(self.segment_dir, str(entry["segment"]))
            try:
                loaded = load_segment(seg_path)
            except (OSError, SegmentError, KeyError, ValueError) as err:
                report.segment_failures += 1
                report.failure_reasons.append(str(err))
                logger.warning(
                    "recovery: segment %s unusable, falling back: %s",
                    entry.get("segment"),
                    err,
                )
                continue
            base = loaded
            covered_seq = int(entry["wal_seq"])
            report.source = "segment"
            report.segment = str(entry["segment"])
            report.covered_seq = covered_seq
            break

        report.state = "replaying_wal"
        records, _bytes, torn = read_wal(self.wal_path)
        if torn is not None:
            logger.warning("recovery: WAL tail torn (%s); clean prefix kept", torn)
        tail = [r for r in records if r.seq > covered_seq]
        report.wal_records_replayed = len(tail)
        report.seconds = time.perf_counter() - started
        report.state = "complete"
        return base, covered_seq, tail, report
