#!/usr/bin/env python
"""Live-updates smoke check: WAL, snapshots, compaction, invalidation.

Five scenarios, all deterministic:

1. **Snapshot isolation.** A reader pins an epoch, a writer deletes an
   object the pinned view contains: the pinned view still serves it, a
   fresh query does not, and the superseded epoch retires only after the
   pin is released.
2. **WAL crash recovery.** Mutations through a WAL, the file's tail torn
   mid-record: reopening replays exactly the valid prefix, the torn
   record is gone, and appends continue from the recovered sequence.
3. **Compaction under faults.** An armed ``compaction-fail`` fault
   aborts the fold; the store keeps answering correctly on the
   uncompacted snapshot, and the next (disarmed) attempt folds the delta
   into a fresh sealed base with identical answers.
4. **Cache revalidation.** Through a live ``QueryService``: an insert
   too far away to form a smaller group keeps the cached answer (equal
   to a fresh engine's), one that can form a smaller group drops it
   (misses on re-ask), disjoint entries stay hot, and the cache's
   conservation identity holds.
5. **CLI.** ``mck bench --stack live --wal ... --inject-fault compaction-fail``
   runs in a subprocess; its JSON dump carries WAL/epoch/compaction
   counters and the cache invalidation count.

Run from the repo root: ``python scripts/live_smoke.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.exceptions import InfeasibleQueryError  # noqa: E402
from repro.live import LiveMCKEngine, WriteAheadLog  # noqa: E402
from repro.serving import QueryService  # noqa: E402
from repro.testing import faults  # noqa: E402


def fail(message):
    print(f"live-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


RECORDS = [
    (0.0, 0.0, ["shrine"]),
    (1.0, 1.0, ["shop"]),
    (2.0, 0.5, ["restaurant"]),
    (40.0, 40.0, ["shrine", "hotel"]),
    (41.0, 41.0, ["shop"]),
]


def check_snapshot_isolation():
    engine = LiveMCKEngine.from_records(RECORDS)
    guard = engine.pin()
    pinned = guard.snapshot
    engine.delete(1)  # the (1,1) shop
    assert pinned.view().get(1) is not None, "pinned view lost its object"
    group = engine.query(["shrine", "shop"], algorithm="EXACT")
    assert 1 not in group.object_ids, "fresh query saw a deleted object"
    assert engine._epochs.retired_epochs() == [], "pinned epoch retired early"
    guard.release()
    assert 0 in engine._epochs.retired_epochs(), "drained epoch not retired"
    engine.close()
    print("  snapshot isolation: pinned reads stable, retirement on drain")


def check_wal_recovery(tmpdir):
    path = os.path.join(tmpdir, "crash.wal")
    with LiveMCKEngine.from_records(RECORDS, wal_path=path) as engine:
        engine.insert(0.5, 0.5, ["cafe"])
        engine.insert(0.6, 0.6, ["cafe"])
        engine.delete(2)
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:  # tear the last record mid-body
        fh.truncate(size - 7)
    with LiveMCKEngine.from_records(RECORDS, wal_path=path) as engine:
        assert engine.wal.torn_reason is not None, "torn tail undetected"
        assert len(engine.wal.recovered) == 2, "valid prefix not replayed"
        view = engine.dataset
        assert view.get(5) is not None and view.get(6) is not None
        assert view.get(2) is not None, "torn delete partially applied"
        engine.insert(3.0, 3.0, ["bar"])  # appends continue cleanly
    with LiveMCKEngine.from_records(RECORDS, wal_path=path) as engine:
        assert len(engine.wal.recovered) == 3, "post-recovery append lost"
    print("  WAL recovery: torn tail truncated, valid prefix replayed")


def check_compaction_fault():
    engine = LiveMCKEngine.from_records(RECORDS, compact_threshold=4,
                                        auto_compact=False)
    for i in range(6):
        engine.insert(0.1 * i, 0.1 * i, ["cafe"])
    fault = faults.arm_spec("compaction-fail")
    try:
        assert engine.compact() is False, "compaction succeeded under fault"
    finally:
        faults.disarm(fault)
    assert engine.compactor.failures == 1
    before = sorted(engine.query(["shrine", "cafe"], algorithm="EXACT").object_ids)
    assert engine.compact() is True, "disarmed compaction did not run"
    assert engine.delta_size == 0, "delta survived compaction"
    after = sorted(engine.query(["shrine", "cafe"], algorithm="EXACT").object_ids)
    assert before == after, f"answers changed across compaction: {before} vs {after}"
    engine.close()
    print("  compaction: fault aborts cleanly, retry folds with equal answers")


def check_invalidation():
    engine = LiveMCKEngine.from_records(RECORDS)
    with QueryService(engine, max_workers=2) as service:
        r1 = service.query(["shrine", "shop"], "EXACT")
        r2 = service.query(["restaurant"])
        assert not r1.stats.cache_hit and not r2.stats.cache_hit
        assert service.query(["shrine", "shop"], "EXACT").stats.cache_hit
        # ~28 from every shrine: cannot beat the cached diameter sqrt(2).
        far = (20.0, 20.0, ["shop"])
        service.insert(*far)
        kept = service.query(["shrine", "shop"], "EXACT")
        assert kept.stats.cache_hit, "answer a far insert cannot change dropped"
        fresh = LiveMCKEngine.from_records(RECORDS + [far])
        want = fresh.query(["shrine", "shop"], algorithm="EXACT")
        assert (kept.group.object_ids, kept.group.diameter) == (
            want.object_ids, want.diameter
        ), "kept answer differs from a fresh engine's"
        fresh.close()
        # 0.28 from shrine 0: forms a smaller group, which replaces the
        # cached answer.
        near = (0.2, 0.2, ["shop"])
        near_oid = service.insert(*near)
        repaired = service.query(["shrine", "shop"], "EXACT")
        assert repaired.stats.cache_hit, "answer a near insert beats dropped"
        fresh = LiveMCKEngine.from_records(RECORDS + [far, near])
        want = fresh.query(["shrine", "shop"], algorithm="EXACT")
        fresh.close()
        assert repaired.group.object_ids == want.object_ids, \
            "repaired answer differs from a fresh engine's"
        assert abs(repaired.group.diameter - want.diameter) <= 1e-12 * want.diameter
        # Deleting a member of the repaired answer drops it.
        service.delete(near_oid)
        miss = service.query(["shrine", "shop"], "EXACT")
        assert not miss.stats.cache_hit, "stale cached answer served"
        assert service.query(["restaurant"]).stats.cache_hit, \
            "disjoint entry was invalidated"
        st = service.cache.stats()
        assert st["invalidations"] >= 1 and st["revalidated"] >= 1, st
        assert st["repaired"] >= 1, st
        assert st["inserts"] == st["size"] + st["evictions"] \
            + st["expirations"] + st["invalidations"], f"conservation: {st}"
    engine.close()
    print("  invalidation: far insert kept, near insert repaired, member "
          "delete dropped, disjoint entry hot, conservation counters balance")


def check_cli(tmpdir):
    out = os.path.join(tmpdir, "bench.json")
    wal = os.path.join(tmpdir, "bench.wal")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "--stack", "live",
         "--scale", "0.01", "--operations", "60", "--queries", "8",
         "--write-ratio", "0.5",
         "--compact-threshold", "12", "--wal", wal,
         "--inject-fault", "compaction-fail:times=1",
         "--seed", "3", "--output", out],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        fail(f"bench exited {proc.returncode}: {proc.stderr[-800:]}")
    dump = json.loads(Path(out).read_text())
    live = dump["live"]
    if not (live["wal_records"] and live["wal_records"] > 0):
        fail(f"no WAL records in dump: {live}")
    if live["epoch"] < 1:
        fail(f"no epochs published: {live}")
    if live["compaction_failures"] < 1:
        fail(f"injected compaction fault never fired: {live}")
    if dump["workload"]["failures"] != 0:
        fail(f"queries failed: {dump['workload']}")
    st = dump["cache"]
    if st["inserts"] != st["size"] + st["evictions"] + st["expirations"] \
            + st["invalidations"]:
        fail(f"CLI cache conservation broken: {st}")
    print("  CLI: bench --stack live JSON carries WAL/epoch/compaction/"
          "invalidation counters")


def main():
    print("== live smoke ==")
    check_snapshot_isolation()
    with tempfile.TemporaryDirectory() as tmpdir:
        check_wal_recovery(tmpdir)
    check_compaction_fault()
    check_invalidation()
    with tempfile.TemporaryDirectory() as tmpdir:
        check_cli(tmpdir)
    print("live-smoke: OK")


if __name__ == "__main__":
    main()
