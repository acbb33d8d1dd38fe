"""The three workloads, each driving one stack through its public entry points.

* ``http-distinct`` — loopback HTTP into ``MCKServer`` -> ``QueryService``
  with EXACT and SKECa+ on the process pool; distinct keyword sets.
* ``live-mixed`` — ``LiveMCKEngine.open`` on a prepared checkpoint,
  inline ``QueryService``, 80% Zipf-skewed reads / 20% writes.
* ``sharded-exact`` — ``QueryService`` over ``ReplicatedShardRouter``
  (4 shards, 1 replica each); distinct EXACT/SKECa+ reads checked
  against the single-engine global optimum.

Each returns an :class:`Outcome`: end-to-end metrics, per-layer metrics
(traced runs) and the tally of attempted, failed and wrong operations.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import common
from common import (
    EPSILON,
    HostSpeed,
    PeakMemory,
    Reference,
    SetupClock,
    Tally,
    TimedEngine,
    baseline_mb,
    check_answer,
    mean,
    median,
    percentile,
)
from ledger import Ledger

from repro import Dataset, MCKEngine
from repro.core.common import (
    QUALITY_APPROX,
    QUALITY_EXACT,
    QUALITY_GREEDY,
    QUALITY_RANK,
)
from repro.exceptions import InfeasibleQueryError, QueryRejected
from repro.live import LiveMCKEngine
from repro.observability.tracer import Tracer, set_tracer
from repro.replication import ReplicatedShardRouter
from repro.server import MCKServer
from repro.serving import QueryService

#: The certificate each algorithm must at least carry.
EXPECTED_QUALITY = {
    "GKG": QUALITY_GREEDY,
    "SKECa+": QUALITY_APPROX,
    "EXACT": QUALITY_EXACT,
}
#: Warm-ups run all three algorithms.
MIXED = ("GKG", "SKECa+", "EXACT")
#: Measured reads run SKECa+ and EXACT.  GKG's ~2 ms answers form a fast
#: mode of their own: as a third of the mix they put the median on the
#: steep edge between the two modes.
MEASURED = ("SKECa+", "EXACT")
#: http-distinct keeps one read in nine on GKG, the inline path (and the
#: in-process engine call the traced run reconciles against its span).
HTTP_MIX = MEASURED * 4 + ("GKG",)
#: How an infeasibility verdict reads once serialised to an error string.
INFEASIBLE = str(InfeasibleQueryError())

HTTP_M = 3
LIVE_M = 3
SHARD_M = 2
#: ``rss_mb`` is the peak up to this many measured reads (PeakMemory):
#: fewer than the slowest 20-second run completes on the reference host.
HTTP_MEMORY_READS = 600
LIVE_MEMORY_READS = 300
SHARD_MEMORY_READS = 1000

#: live-mixed: keyword-set pool (well under the 1024-entry result cache),
#: Zipf exponent over it, write share and the shape of one write batch.
LIVE_POOL = 256
LIVE_ZIPF = 0.8
#: Pool entries re-read after the run and checked against a fresh engine
#: built from the final live set (the most-read ones).
LIVE_VERIFY = 96
LIVE_WRITE_SHARE = 0.2
LIVE_BATCH_INSERTS = 24
LIVE_BATCH_DELETES = 4
#: Inserts logged after the prepared checkpoint: replayed on every open.
LIVE_WAL_TAIL = 256


@dataclass
class Config:
    seed: int
    seconds: float
    trace: bool
    workdir: str
    scale: float = common.DATA_SCALE
    setups: int = 5
    #: Test seam: rewrites each answer's object ids before it is checked.
    corrupt: Optional[Callable[[List[int]], List[int]]] = None


@dataclass
class Outcome:
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    #: Wrong answers explained by the router's documented cross-shard
    #: gap (the optimal group straddles a shard boundary); see README.md.
    known_gap: int = 0
    #: Figures printed in the summary but not part of the result line.
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.tally.wrong == self.known_gap


@dataclass
class Read:
    keywords: Tuple[str, ...]
    algorithm: str
    latency_ms: float
    #: Host-speed factor measured next to this read (``HostSpeed``).
    speed: float = 1.0
    oids: Optional[List[int]] = None
    #: The returned objects resolved against the benchmark's own data.
    objects: Optional[list] = None
    diameter: float = 0.0
    quality: str = ""
    cache_hit: bool = False
    trace_id: str = ""
    error: Optional[str] = None
    #: The stack answered "infeasible" (a verdict, checked like a group).
    infeasible: bool = False
    delta_size: float = 0.0


@dataclass
class Phase:
    reads: List[Read]
    wall: float
    writes_ms: List[float] = field(default_factory=list)


def _resolve(cfg: Config, oids: List[int], lookup) -> list:
    if cfg.corrupt is not None:
        oids = cfg.corrupt(list(oids))
    return [lookup(o) for o in oids]


def _judge(out: Outcome, read: Read, optimum, bounded: bool = True) -> Optional[str]:
    """Check one read; returns the reason it is wrong, if it is.

    ``optimum`` is the reference's ``(diameter, points)`` or ``None`` for
    an infeasible query.  With ``bounded=False`` no reference exists: the
    query is known feasible and only the data checks apply.
    """
    out.tally.attempted += 1
    if read.error is not None:
        out.tally.fail(read.error)
        return None
    feasible = optimum is not None or not bounded
    if read.infeasible:
        reason = "infeasible verdict on a feasible query" if feasible else None
    else:
        expected = EXPECTED_QUALITY[read.algorithm]
        if QUALITY_RANK.get(read.quality, -1) < QUALITY_RANK[expected]:
            reason = f"{read.algorithm} answer tagged {read.quality!r}"
        else:
            reason = check_answer(
                read.keywords,
                read.objects,
                read.diameter,
                read.quality,
                optimum[0] if bounded and optimum is not None else None,
            )
        if reason is None and not feasible:
            reason = "answer to a query the reference finds infeasible"
    out.tally.judge(reason)
    return reason


def _served(read: Read, result, cfg: Config, lookup) -> Read:
    """Fill a read from an in-process :class:`ServedResult`."""
    read.trace_id = result.stats.trace_id
    if result.ok:
        group = result.group
        read.oids = list(group.object_ids)
        read.objects = _resolve(cfg, read.oids, lookup)
        read.diameter = group.diameter
        read.quality = group.quality or ""
        read.cache_hit = result.stats.cache_hit
        read.delta_size = group.stats.get("delta_size", 0.0)
        if result.degraded:
            read.error = "degraded answer"
    elif (result.error or "").startswith(INFEASIBLE):
        read.infeasible = True
    else:
        read.error = result.error or "failed"
    return read


def _e2e(out: Outcome, phase: Phase, rss_mb: float, setups: SetupClock) -> None:
    adjusted = [r.latency_ms * r.speed for r in phase.reads]
    lat = [r.latency_ms for r in phase.reads]
    out.e2e.update(
        setup_s=median(setups.adjusted),
        read_p50_adj_ms=percentile(adjusted, 50.0),
        read_p90_adj_ms=percentile(adjusted, 90.0),
        rss_mb=rss_mb,
    )
    # Printed, not gated: too noisy on a shared host to bound (README.md).
    out.info.update(
        setup_raw_s=median(setups.raw),
        read_p50_ms=percentile(lat, 50.0),
        read_p90_ms=percentile(lat, 90.0),
        read_p99_ms=percentile(lat, 99.0),
        host_speed=median([r.speed for r in phase.reads]),
        ops_s=len(phase.reads + phase.writes_ms) / phase.wall if phase.wall else 0.0,
        reads=float(len(lat)),
    )


def _finish(out: Outcome) -> Outcome:
    t = out.tally
    out.layers["checks.fail_frac"] = t.failed / t.attempted if t.attempted else 0.0
    out.layers["checks.wrong_frac"] = t.wrong / t.answered if t.answered else 0.0
    return out


def _counters_per_query(service: QueryService) -> Dict[str, float]:
    algos = service.metrics_dict()["algorithms"]
    executed = sum(a["executed"] for a in algos.values())
    out = {}
    for name in ("circle_scans", "binary_steps", "candidate_circles", "pruned_poles", "anchors"):
        total = sum(a["counters"].get(name, 0.0) for a in algos.values())
        out[f"core.{name}"] = total / executed if executed else 0.0
    return out


def _hit_ratio(reads: Sequence[Read]) -> float:
    answered = [r for r in reads if r.error is None and not r.infeasible]
    return sum(r.cache_hit for r in answered) / len(answered) if answered else 0.0


class _Tracing:
    """The program's tracer, attached through ``tracer=`` and globally (the
    live and replication layers record on the process-global tracer), and
    switched off during the untraced phase of a traced run."""

    def __init__(self, enabled: bool):
        self.tracer = Tracer(enabled=False) if enabled else None
        self.ledger = Ledger(self.tracer) if enabled else None
        if self.tracer is not None:
            set_tracer(self.tracer)

    def wrap(self, engine):
        if self.tracer is None:
            return engine
        return TimedEngine(engine, self.tracer, self.ledger.on_engine_call)

    def phases(self, cfg: Config, run_phase) -> Tuple[Phase, Optional[Phase]]:
        """Trace 0: one untraced phase.  Trace 1: untraced, then traced."""
        plain = run_phase()
        if not cfg.trace:
            return plain, None
        self.tracer.enabled = True
        try:
            traced = run_phase()
        finally:
            self.tracer.enabled = False
        return plain, traced

    def layers(self, plain: Phase, traced: Phase, over_http: bool) -> Dict[str, float]:
        out = self.ledger.layers(
            [(r.trace_id, r.latency_ms) for r in traced.reads if r.trace_id],
            over_http=over_http,
        )
        # Host-speed adjusted: the two phases run at different times.
        p50_plain = median([r.latency_ms * r.speed for r in plain.reads])
        p50_traced = median([r.latency_ms * r.speed for r in traced.reads])
        out["observability.trace_overhead_frac"] = (
            p50_traced / p50_plain - 1.0 if p50_plain > 0 else 0.0
        )
        return out

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.enabled = False
            self.ledger.close()
            set_tracer(None)


# --------------------------------------------------------------------- #
# http-distinct
# --------------------------------------------------------------------- #


def _http_post(conn: http.client.HTTPConnection, keywords, algorithm):
    body = json.dumps(
        {"keywords": list(keywords), "algorithm": algorithm, "epsilon": EPSILON}
    ).encode()
    conn.request(
        "POST", "/query", body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    return response.status, response.read()


def _http_read(cfg, records, item, status, payload, latency_ms, speed) -> Read:
    read = Read(item[0], item[1], latency_ms, speed)
    try:
        doc = json.loads(payload)
    except ValueError:
        read.error = f"HTTP {status}: {payload[:200]!r}"
        return read
    read.trace_id = doc.get("trace_id", "")
    if status == 200:
        read.oids = list(doc["object_ids"])
        read.objects = _resolve(
            cfg, read.oids, lambda o: records[o] if 0 <= o < len(records) else None
        )
        read.diameter = float(doc["diameter"])
        read.quality = doc.get("quality", "")
        read.cache_hit = bool(doc.get("cache_hit"))
        if doc.get("degraded"):
            read.error = "degraded answer"
    elif status == 422 and doc.get("error", "").startswith(INFEASIBLE):
        read.infeasible = True
    else:
        read.error = f"HTTP {status}: {doc.get('error', '')}"
    return read


class _HttpStack:
    """``mck serve`` in-process: process pool for EXACT and SKECa+, GKG
    inline, admission capacity and cache size at the CLI defaults, flight
    recorder off so the untraced run records no spans."""

    def __init__(self, records, tracing: _Tracing):
        dataset = Dataset.from_records(records, name="NY-like")
        self.service = QueryService(
            tracing.wrap(MCKEngine(dataset)),
            admission_capacity=1024,
            cache_size=1024,
            process_algorithms=("EXACT", "SKECa+"),
            tracer=tracing.tracer,
        )
        self.server = MCKServer(self.service, port=0)
        self.handle = self.server.run_in_thread()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=300
        )

    def close(self) -> None:
        self.handle.stop()
        self.service.close()


def http_distinct(cfg: Config) -> Outcome:
    out = Outcome()
    dataset, records = common.make_records(cfg.scale)
    warm = common.distinct_queries(dataset, HTTP_M, 5 * cfg.setups, seed=cfg.seed + 7919)
    budget = int(cfg.seconds * 150) + 50
    measured = common.distinct_queries(
        dataset, HTTP_M, budget * (2 if cfg.trace else 1), seed=cfg.seed, exclude=warm
    )
    del dataset
    items = iter(common.assign_algorithms(measured, HTTP_MIX))
    tracing = _Tracing(cfg.trace)
    setups = SetupClock()
    pool_starts: List[float] = []

    def setup(warm_sets) -> _HttpStack:
        # From handing the records to the program to the first warm answer:
        # index build, pool fork and each algorithm's first run included.
        setups.start()
        stack = _HttpStack(records, tracing)
        conn = stack.connect()
        try:
            for i, (kw, algo) in enumerate(zip(warm_sets, ("GKG", "EXACT", "SKECa+", "EXACT", "SKECa+"))):
                t = time.perf_counter()
                status, payload = _http_post(conn, kw, algo)
                if status != 200:
                    raise RuntimeError(f"warm-up query failed: HTTP {status} {payload[:200]!r}")
                if i == 1:  # first pool-routed query: forks the workers
                    pool_starts.append(time.perf_counter() - t)
        finally:
            conn.close()
        setups.stop()
        return stack

    baseline = baseline_mb()
    stack = setup(warm[:5])
    memory = PeakMemory()

    def run_phase() -> Phase:
        # Raw replies only; they are parsed and resolved after the phase,
        # outside the memory window.
        raw: List[tuple] = []
        host = HostSpeed()
        conn = stack.connect()
        started = time.perf_counter()
        deadline = started + cfg.seconds
        try:
            while time.perf_counter() < deadline:
                item = next(items, None)
                if item is None:
                    break
                t = time.perf_counter()
                try:
                    status, payload = _http_post(conn, *item)
                except (OSError, http.client.HTTPException) as err:
                    conn.close()
                    status, payload = 0, repr(err).encode()
                latency_ms = (time.perf_counter() - t) * 1e3
                raw.append((item, status, payload, latency_ms, host.factor()))
                if len(raw) == HTTP_MEMORY_READS:
                    memory.freeze()
        finally:
            conn.close()
        return Phase(raw, time.perf_counter() - started)

    with memory:
        plain, traced = tracing.phases(cfg, run_phase)
    for phase in (plain, traced) if traced is not None else (plain,):
        phase.reads = [_http_read(cfg, records, *r) for r in phase.reads]
    if traced is not None:
        out.layers.update(tracing.layers(plain, traced, over_http=True))
        out.layers.update(_counters_per_query(stack.service))
        out.layers["serving.cache_hit_ratio"] = _hit_ratio(plain.reads + traced.reads)
    stack.close()
    tracing.close()
    for i in range(1, cfg.setups):
        setup(warm[5 * i: 5 * i + 5]).close()

    reads = plain.reads + (traced.reads if traced else [])
    ref = Reference(records)
    ref.solve(r.keywords for r in reads)
    for read in reads:
        _judge(out, read, ref.optimum(read.keywords))

    _e2e(out, plain, memory.peak_total - baseline, setups)
    if traced is not None:
        out.layers["serving.pool_start_s"] = median(pool_starts)
        out.layers["serving.worker_pss_mb"] = memory.peak_children
        out.layers["index.build_s"] = _index_build_s(records)
    return _finish(out)


def _index_build_s(records) -> float:
    """The benchmark's own timed call into the index layer: the spatial
    index and columnar store a fresh dataset builds on first use."""
    times = []
    for _ in range(3):
        dataset = Dataset.from_records(records, name="index-probe")
        t = time.perf_counter()
        dataset.brtree()
        dataset.columns
        times.append(time.perf_counter() - t)
    return median(times)


# --------------------------------------------------------------------- #
# live-mixed
# --------------------------------------------------------------------- #


def _prepare_live(records, path: str, rng: random.Random) -> Dict[int, tuple]:
    """Untimed: a checkpointed store plus a WAL tail; returns its live set."""
    engine = LiveMCKEngine.from_records(records, name="NY-like", data_dir=path)
    try:
        live = {oid: rec for oid, rec in enumerate(records)}
        for _ in range(LIVE_WAL_TAIL // 16):
            batch = [_near(records, rng, records[rng.randrange(len(records))][2][:1]) for _ in range(16)]
            for oid, rec in zip(engine.apply_batch(inserts=batch), batch):
                live[oid] = rec
        engine.flush()
    finally:
        engine.close()
    return live


def _near(records, rng: random.Random, keywords) -> tuple:
    x, y, _ = records[rng.randrange(len(records))]
    return (x + rng.gauss(0.0, 300.0), y + rng.gauss(0.0, 300.0), tuple(sorted(keywords)))


def live_mixed(cfg: Config) -> Outcome:
    out = Outcome()
    rng = random.Random(cfg.seed)
    dataset, records = common.make_records(cfg.scale)
    warm = common.distinct_queries(dataset, LIVE_M, 3 * cfg.setups, seed=cfg.seed + 7919)
    pool = common.assign_algorithms(
        common.distinct_queries(dataset, LIVE_M, LIVE_POOL, seed=cfg.seed, exclude=warm),
        MEASURED,
    )
    del dataset
    weights = [1.0 / (rank + 1) ** LIVE_ZIPF for rank in range(len(pool))]
    prepared = os.path.join(cfg.workdir, "live-prepared")
    live = _prepare_live(records, prepared, random.Random(cfg.seed + 1))
    tracing = _Tracing(cfg.trace)
    setups = SetupClock()
    recoveries: List[Tuple[float, int]] = []

    def setup(i: int) -> Tuple[LiveMCKEngine, QueryService]:
        path = os.path.join(cfg.workdir, f"live-{i}")
        shutil.copytree(prepared, path)
        # Restart: segment load plus WAL tail replay, then the first
        # answers warm (lazy index builds included).
        setups.start()
        engine = LiveMCKEngine.open(path, name="NY-like")
        service = QueryService(
            tracing.wrap(engine), admission_capacity=1024, cache_size=1024,
            tracer=tracing.tracer,
        )
        for kw, algo in zip(warm[3 * i: 3 * i + 3], MIXED):  # GKG warms too
            result = service.query(kw, algo)
            if not result.ok:
                raise RuntimeError(f"warm-up query failed: {result.error}")
        setups.stop()
        report = engine.recovery_report
        recoveries.append((report.seconds, report.wal_records_replayed))
        return engine, service

    baseline = baseline_mb()
    engine, service = setup(0)
    memory = PeakMemory()
    own: List[int] = []  # live oids this workload inserted
    pool_keywords = [kw for kw, _ in pool]

    def run_phase() -> Phase:
        phase = Phase([], 0.0)
        host = HostSpeed()
        started = time.perf_counter()
        deadline = started + cfg.seconds
        while time.perf_counter() < deadline:
            if rng.random() < LIVE_WRITE_SHARE:
                inserts = [
                    _near(records, rng, rng.sample(pool_keywords[rng.randrange(len(pool))], rng.randint(1, 2)))
                    for _ in range(LIVE_BATCH_INSERTS)
                ]
                deletes = []
                if len(own) >= 4 * LIVE_BATCH_DELETES:
                    for _ in range(LIVE_BATCH_DELETES):
                        deletes.append(own.pop(rng.randrange(len(own))))
                t = time.perf_counter()
                try:
                    oids = service.submit_mutation(inserts, deletes).result()
                except QueryRejected as err:
                    phase.writes_ms.append((time.perf_counter() - t) * 1e3)
                    out.tally.attempted += 1
                    out.tally.fail(f"write rejected: {err}")
                    own.extend(deletes)
                    continue
                phase.writes_ms.append((time.perf_counter() - t) * 1e3)
                out.tally.attempted += 1
                for oid in deletes:
                    del live[oid]
                for oid, rec in zip(oids, inserts):
                    live[oid] = rec
                own.extend(oids)
                continue
            kw, algo = rng.choices(pool, weights)[0]
            t = time.perf_counter()
            try:
                result = service.query(kw, algo)
            except QueryRejected as err:
                read = Read(kw, algo, (time.perf_counter() - t) * 1e3, error=f"rejected: {err}")
            else:
                read = _served(Read(kw, algo, (time.perf_counter() - t) * 1e3), result, cfg, live.get)
            read.speed = host.factor()
            phase.reads.append(read)
            if len(phase.reads) == LIVE_MEMORY_READS:
                memory.freeze()
        phase.wall = time.perf_counter() - started
        return phase

    compactions0 = engine.compactor.compactions
    invalidations0 = service.cache.stats()["invalidations"]
    with memory:
        plain, traced = tracing.phases(cfg, run_phase)
    reads = plain.reads + (traced.reads if traced else [])
    writes = plain.writes_ms + (traced.writes_ms if traced else [])
    for read in reads:  # during the run: coverage, diameter, liveness
        _judge(out, read, None, bounded=False)
    # After the run: the most-read pool queries again, against a fresh
    # sealed engine built from the final live set (stale cache entries).
    ref = Reference(live.values())
    counts: Dict[Tuple[str, ...], int] = {}
    for read in reads:
        counts[read.keywords] = counts.get(read.keywords, 0) + 1
    hot = sorted(pool, key=lambda item: -counts.get(item[0], 0))[:LIVE_VERIFY]
    ref.solve(kw for kw, _ in hot)
    for kw, algo in hot:
        t = time.perf_counter()
        read = _served(Read(kw, algo, 0.0), service.query(kw, algo), cfg, live.get)
        read.latency_ms = (time.perf_counter() - t) * 1e3
        _judge(out, read, ref.optimum(kw))

    if traced is not None:
        out.layers.update(tracing.layers(plain, traced, over_http=False))
        out.layers.update(_counters_per_query(service))
        out.layers["serving.cache_hit_ratio"] = _hit_ratio(reads)
        out.layers["serving.cache_invalidations_per_write"] = (
            (service.cache.stats()["invalidations"] - invalidations0) / len(writes)
            if writes else 0.0
        )
        out.layers["live.compactions"] = float(engine.compactor.compactions - compactions0)
        out.layers["live.delta_size_mean"] = mean(
            [r.delta_size for r in reads if r.oids and not r.cache_hit]
        )
        out.layers["live.write_p50_ms"] = percentile(writes, 50.0)
        out.layers["live.write_p99_ms"] = percentile(writes, 99.0)
    service.close()
    engine.close()
    tracing.close()
    for i in range(1, cfg.setups):
        extra_engine, extra_service = setup(i)
        extra_service.close()
        extra_engine.close()

    _e2e(out, plain, memory.peak_total - baseline, setups)
    if traced is not None:
        out.layers["live.recovery_s"] = median([r[0] for r in recoveries])
        out.layers["live.wal_records_replayed"] = float(recoveries[0][1])
    return _finish(out)


# --------------------------------------------------------------------- #
# sharded-exact
# --------------------------------------------------------------------- #


def sharded_exact(cfg: Config) -> Outcome:
    out = Outcome()
    dataset, records = common.make_records(cfg.scale)
    warm = common.distinct_queries(dataset, SHARD_M, 2 * cfg.setups, seed=cfg.seed + 7919)
    budget = int(cfg.seconds * 200) + 50
    measured = common.distinct_queries(
        dataset, SHARD_M, budget * (2 if cfg.trace else 1), seed=cfg.seed, exclude=warm
    )
    del dataset
    items = iter(common.assign_algorithms(measured, MEASURED))
    known = {(x, y, frozenset(kw)): (x, y, kw) for x, y, kw in records}
    tracing = _Tracing(cfg.trace)
    setups = SetupClock()
    bootstraps: List[float] = []

    def setup(i: int) -> Tuple[ReplicatedShardRouter, QueryService]:
        # `mck serve --shards 4 --replicas 1`, dir kept inside the checkout.
        started = setups.start()
        router = ReplicatedShardRouter(
            [(x, y, list(kw)) for x, y, kw in records],
            n_shards=4,
            replicas_per_shard=1,
            dir=os.path.join(cfg.workdir, f"router-{i}"),
            name="NY-like",
            replication_interval=0.05,
        )
        bootstraps.append(time.perf_counter() - started)
        service = QueryService(
            tracing.wrap(router), admission_capacity=1024, cache_size=1024,
            tracer=tracing.tracer,
        )
        for kw, algo in zip(warm[2 * i: 2 * i + 2], ("EXACT", "SKECa+")):
            result = service.query(kw, algo)
            if not result.ok:
                raise RuntimeError(f"warm-up query failed: {result.error}")
        setups.stop()
        return router, service

    baseline = baseline_mb()
    router, service = setup(0)
    memory = PeakMemory()

    def lookup(oid: int):
        obj = router.dataset.get(oid)
        if obj is None:
            return None
        return known.get((obj.x, obj.y, frozenset(obj.keywords)))

    def run_phase() -> Phase:
        phase = Phase([], 0.0)
        host = HostSpeed()
        started = time.perf_counter()
        deadline = started + cfg.seconds
        while time.perf_counter() < deadline:
            item = next(items, None)
            if item is None:
                break
            t = time.perf_counter()
            try:
                result = service.query(*item)
            except QueryRejected as err:
                read = Read(*item, (time.perf_counter() - t) * 1e3, error=f"rejected: {err}")
            else:
                read = _served(Read(*item, (time.perf_counter() - t) * 1e3), result, cfg, lookup)
            read.speed = host.factor()
            phase.reads.append(read)
            if len(phase.reads) == SHARD_MEMORY_READS:
                memory.freeze()
        phase.wall = time.perf_counter() - started
        return phase

    with memory:
        plain, traced = tracing.phases(cfg, run_phase)
    reads = plain.reads + (traced.reads if traced else [])

    ref = Reference(records)
    ref.solve(r.keywords for r in reads)
    for read in reads:
        optimum = ref.optimum(read.keywords)
        if _judge(out, read, optimum) is None or optimum is None:
            continue
        # The documented cross-shard gap: a well-formed answer (or an
        # infeasible verdict) that misses an optimal group straddling a
        # shard boundary, which no single shard can find.
        well_formed = read.infeasible or _judge(Outcome(), read, None, bounded=False) is None
        if well_formed and len({router.route(x, y) for x, y in optimum[1]}) > 1:
            out.known_gap += 1
            out.tally.reasons[-1] += " [cross-shard gap]"

    if traced is not None:
        out.layers.update(tracing.layers(plain, traced, over_http=False))
        out.layers.update(_counters_per_query(service))
        out.layers["replication.partial_merges"] = float(
            sum(1 for r in reads if r.quality == "partial")
        )
        out.layers["replication.infeasible"] = float(sum(r.infeasible for r in reads))
    service.close()
    router.close()
    tracing.close()
    for i in range(1, cfg.setups):
        extra_router, extra_service = setup(i)
        extra_service.close()
        extra_router.close()

    _e2e(out, plain, memory.peak_total - baseline, setups)
    if traced is not None:
        out.layers["replication.bootstrap_s"] = median(bootstraps)
    return _finish(out)


WORKLOADS = {
    "http-distinct": http_distinct,
    "live-mixed": live_mixed,
    "sharded-exact": sharded_exact,
}
