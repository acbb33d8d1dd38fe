"""The ``mck bench`` driver: one workload harness for every serving stack.

It has four parts:

* **Stack.** :func:`run` builds a sealed :class:`~repro.Dataset`, a
  :class:`~repro.live.LiveMCKEngine` or a
  :class:`~repro.replication.ReplicatedShardRouter`, and always serves it
  through a :class:`~repro.serving.QueryService`.
* **Operation stream.** :meth:`Workload.draw` draws one seeded stream.
  Each operation reads a keyword set from the pool (paper §6.1: m
  keywords drawn by frequency) or, with probability ``write_ratio``,
  writes: an insert, or the delete of an earlier insert.
* **Schedule.** :func:`drive` issues the stream closed-loop (one
  operation in flight: each waits for the one before) or open-loop:
  Poisson arrival times are drawn up front, each operation is issued at
  its time whether or not earlier ones came back, and its latency runs
  from that time, so client-side waiting is not hidden.  Only an open
  loop shows overload; a closed loop slows down with the server.
* **Transport.** Every operation goes through one ``send`` callable that
  returns a future of its :class:`Reply`.  :func:`service_send` submits
  to the service in process without blocking, so admission control sees
  every arrival; :class:`HTTPSend` posts to ``/query`` or ``/mutate`` of
  an :class:`~repro.server.MCKServer` from a pool of client threads, one
  keep-alive connection each.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exceptions import QueryError, QueryRejected, ReproError

__all__ = [
    "STACKS", "HTTPSend", "Op", "Reply", "Tally", "UsageError", "Workload",
    "drive", "percentile", "run", "service_send",
]

STACKS = ("sealed", "live", "sharded")
#: Share of writes that delete an earlier insert (when one is left).
DELETE_SHARE = 0.4
#: Client threads (so open connections) of the HTTP transport.
CLIENT_THREADS = 32
#: The live stack's compaction threshold unless --compact-threshold.
COMPACT_THRESHOLD = 64
#: Socket timeout (seconds) of one HTTP request.
REQUEST_TIMEOUT = 30.0
#: Flags that only apply to some stacks: argparse dest -> stacks.
_STACK_ONLY = {
    "wal": ("live",),
    "compact_threshold": ("live",),
    "split_threshold": ("sharded",),
    "kill_primary_at": ("sharded",),
}


class UsageError(ValueError):
    """A flag combination the driver cannot run."""


class Op(NamedTuple):
    """One operation: a ``read``, an ``insert`` or a ``delete``."""

    kind: str
    keywords: Tuple[str, ...]
    algorithm: str = ""
    x: float = 0.0
    y: float = 0.0
    oid: int = -1


class Reply(NamedTuple):
    """What ``send`` reports for one operation."""

    #: ``ok``, ``degraded``, ``rejected`` or ``failed``.
    outcome: str
    #: Object ids an insert produced.
    oids: Tuple[int, ...] = ()
    #: HTTP status (0 for a transport error); None in process.
    status: Optional[int] = None
    #: The ``Retry-After`` of an HTTP 429.
    retry_after: Optional[int] = None
    #: ``time.perf_counter()`` when the operation finished.
    finished: float = 0.0


Send = Callable[[Op], "Future[Reply]"]
ANSWERED = ("ok", "degraded")


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1]); None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Workload:
    """What the operation stream is drawn from."""

    #: Keyword sets the reads pick from, uniformly.
    pool: Sequence[Sequence[str]]
    algorithms: Sequence[str] = ("SKECa+",)
    write_ratio: float = 0.0
    #: ``(x_lo, y_lo, x_hi, y_hi)``: the box inserts land in, uniformly.
    extent: Tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)

    def draw(self, count: int, seed: int = 0) -> List[Op]:
        rng = random.Random(seed)
        # Writes reuse the reads' keywords so they collide with cached
        # answers; otherwise cache revalidation never fires.
        terms = sorted({k for keywords in self.pool for k in keywords})
        x_lo, y_lo, x_hi, y_hi = self.extent
        ops = []
        for _ in range(max(0, count)):
            if rng.random() < self.write_ratio:
                kind = "delete" if rng.random() < DELETE_SHARE else "insert"
                keywords = rng.sample(terms, min(len(terms), rng.randint(1, 3)))
                ops.append(Op(
                    kind, tuple(keywords),
                    x=rng.uniform(x_lo, x_hi), y=rng.uniform(y_lo, y_hi),
                ))
            else:
                ops.append(Op(
                    "read", tuple(rng.choice(self.pool)),
                    rng.choice(self.algorithms),
                ))
        return ops


@dataclass
class Tally:
    """Outcome of one driven stream."""

    offered: int = 0
    seconds: float = 0.0
    #: ``(kind, outcome)`` -> count; kind is read, insert or delete.
    counts: Counter = field(default_factory=Counter)
    #: Latencies (seconds) of answered operations, by ``read``/``write``.
    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"read": [], "write": []}
    )
    #: HTTP status -> count (0 for transport errors); HTTP only.
    status_counts: Counter = field(default_factory=Counter)
    #: Retry-After values seen on HTTP 429s.
    retry_after: List[int] = field(default_factory=list)

    def count(self, kind: Optional[str] = None, outcome: Optional[str] = None) -> int:
        return sum(
            n for (k, o), n in self.counts.items()
            if kind in (None, k) and outcome in (None, o)
        )

    @property
    def completed(self) -> int:
        return self.count(outcome="ok") + self.degraded

    @property
    def degraded(self) -> int:
        return self.count(outcome="degraded")

    @property
    def rejected(self) -> int:
        return self.count(outcome="rejected")

    @property
    def errors(self) -> int:
        return self.count(outcome="failed")

    def percentile(self, q: float, kind: str = "read") -> Optional[float]:
        return percentile(self.latencies[kind], q)

    def as_dict(self) -> Dict:
        """The transport summary (the report's ``http`` block)."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "degraded": self.degraded,
            "duration_seconds": self.seconds,
            "achieved_rate_ops": self.offered / self.seconds if self.seconds else 0.0,
            "latency_p50_seconds": self.percentile(0.50),
            "latency_p95_seconds": self.percentile(0.95),
            "latency_p99_seconds": self.percentile(0.99),
            "status_counts": {
                str(s): n for s, n in sorted(self.status_counts.items())
            },
            "retry_after_max": max(self.retry_after, default=None),
        }


def drive(
    ops: Sequence[Op],
    send: Send,
    arrival_rate: Optional[float] = None,
    seed: int = 0,
    before: Optional[Callable[[int], None]] = None,
) -> Tally:
    """Issue ``ops`` through ``send``; closed-loop unless ``arrival_rate``.

    ``before(i)`` runs on the scheduling thread just before operation
    ``i`` is issued (the sharded stack's replication, kill and split
    events).  A delete takes a random earlier insert that has finished;
    with none it inserts.  The schedule and the delete picks come from
    their own stream, not the one :meth:`Workload.draw` used.
    """
    rng = random.Random(f"{seed}:schedule")
    tally = Tally(offered=len(ops))
    inserted: List[int] = []
    arrivals: Optional[List[float]] = None
    if arrival_rate is not None:
        # Drawn up front: the schedule must not depend on how the stack
        # responds (that is what "open loop" means).
        arrivals, t = [], 0.0
        for _ in ops:
            t += rng.expovariate(arrival_rate)
            arrivals.append(t)

    def settle(entries: List[Tuple[Op, float, "Future[Reply]"]]) -> List:
        """Record the finished operations; return the others."""
        waiting = []
        for entry in entries:
            op, issued, future = entry
            if not future.done():
                waiting.append(entry)
                continue
            reply = future.result()
            tally.counts[op.kind, reply.outcome] += 1
            if reply.outcome in ANSWERED:
                kind = "read" if op.kind == "read" else "write"
                tally.latencies[kind].append(reply.finished - issued)
            if reply.status is not None:
                tally.status_counts[reply.status] += 1
            if reply.retry_after is not None:
                tally.retry_after.append(reply.retry_after)
            if op.kind == "insert":
                inserted.extend(reply.oids)
        return waiting

    pending: List[Tuple[Op, float, "Future[Reply]"]] = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if arrivals is not None:
            delay = start + arrivals[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        if before is not None:
            before(i)
        if op.kind == "delete":
            pending = settle(pending)
            if inserted:
                op = op._replace(oid=inserted.pop(rng.randrange(len(inserted))))
            else:
                op = op._replace(kind="insert")
        issued = time.perf_counter() if arrivals is None else start + arrivals[i]
        future = send(op)
        pending.append((op, issued, future))
        if arrivals is None:
            future.result()
            pending = settle(pending)
    wait([future for _, _, future in pending])
    tally.seconds = time.perf_counter() - start
    settle(pending)
    return tally


def service_send(service, timeout: Optional[float] = None) -> Send:
    """Submit operations to a :class:`~repro.serving.QueryService`.

    Never blocks on an answer: each call returns once admission control
    has taken or shed the operation.
    """

    def submit(op: Op) -> Future:
        if op.kind == "read":
            return service.submit(op.keywords, op.algorithm, timeout=timeout)
        if op.kind == "insert":
            return service.submit_mutation(inserts=[(op.x, op.y, op.keywords)])
        return service.submit_mutation(deletes=[op.oid])

    def settle(reply: "Future[Reply]", op: Op, done: Future) -> None:
        try:
            value = done.result()
        except QueryRejected:
            outcome = Reply("rejected")
        except ReproError:
            outcome = Reply("failed")
        except BaseException as exc:  # not an outcome: drive re-raises it
            reply.set_exception(exc)
            return
        else:
            if op.kind != "read":
                outcome = Reply("ok", tuple(value))
            elif not value.ok:
                outcome = Reply("failed")
            else:
                outcome = Reply("degraded" if value.degraded else "ok")
        reply.set_result(outcome._replace(finished=time.perf_counter()))

    def send(op: Op) -> "Future[Reply]":
        try:
            done = submit(op)
        except ReproError as exc:  # shed at the door
            done = Future()
            done.set_exception(exc)
        reply: "Future[Reply]" = Future()
        done.add_done_callback(lambda d: settle(reply, op, d))
        return reply

    return send


class HTTPSend:
    """Issue operations as ``POST /query`` and ``POST /mutate`` requests.

    Requests run on :data:`CLIENT_THREADS` client threads, one keep-alive
    connection each; past that many in flight they wait client-side,
    which an open loop's latencies (timed from each arrival) include.
    ``timeout`` (the per-query time budget) rides inside the request
    body.  Use as a context manager, or :meth:`close` it.
    """

    def __init__(self, host: str, port: int, timeout: Optional[float] = None):
        self.host, self.port, self.timeout = host, port, timeout
        self._local = threading.local()
        self._pool = ThreadPoolExecutor(
            max_workers=CLIENT_THREADS, thread_name_prefix="mck-bench"
        )

    def __call__(self, op: Op) -> "Future[Reply]":
        return self._pool.submit(self._send, op)

    def _post(self, path: str, body: dict) -> Tuple[int, dict, Optional[int]]:
        """Returns (status, JSON body, Retry-After); status 0 = transport error."""
        conn = getattr(self._local, "connection", None)
        try:
            if conn is None:
                conn = self._local.connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=REQUEST_TIMEOUT
                )
            conn.request(
                "POST", path, body=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            # Drop the connection so the next request on this thread
            # reconnects instead of inheriting a poisoned socket.
            if conn is not None:
                conn.close()
            self._local.connection = None
            return 0, {}, None
        try:
            document = json.loads(payload)
        except ValueError:
            document = {}
        header = response.getheader("Retry-After")
        retry_after = int(header) if header is not None and header.isdigit() else None
        return response.status, document, retry_after

    def _send(self, op: Op) -> Reply:
        if op.kind == "read":
            path = "/query"
            body = {"keywords": list(op.keywords), "algorithm": op.algorithm}
            if self.timeout is not None:
                body["timeout"] = self.timeout
        elif op.kind == "insert":
            path, body = "/mutate", {"inserts": [[op.x, op.y, list(op.keywords)]]}
        else:
            path, body = "/mutate", {"deletes": [op.oid]}
        status, document, retry_after = self._post(path, body)
        if 200 <= status < 300:
            outcome = "degraded" if document.get("degraded") else "ok"
            reply = Reply(outcome, tuple(document.get("oids", ())), status)
        elif status == 429:
            reply = Reply("rejected", status=status, retry_after=retry_after)
        else:
            reply = Reply("failed", status=status)
        return reply._replace(finished=time.perf_counter())

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "HTTPSend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _check(args) -> List[str]:
    """Reject unusable flag combinations; returns the canonical algorithms."""
    from .core.engine import canonical_algorithm

    for dest, stacks in _STACK_ONLY.items():
        if getattr(args, dest) is not None and args.stack not in stacks:
            flag = "--" + dest.replace("_", "-")
            raise UsageError(f"{flag} needs --stack {' or '.join(stacks)}")
    if not 0.0 <= args.write_ratio <= 1.0:
        raise UsageError("--write-ratio must be in [0, 1]")
    if args.write_ratio > 0 and args.stack == "sealed":
        raise UsageError("the sealed stack takes no writes; drop --write-ratio")
    if args.arrival_rate is not None and args.arrival_rate <= 0:
        raise UsageError("--arrival-rate must be positive")
    if args.admission_capacity < 0:
        raise UsageError("--admission-capacity must be >= 0")
    if args.shards < 1:
        raise UsageError("--shards must be >= 1")
    try:
        return [canonical_algorithm(a) for a in args.algorithms]
    except QueryError as exc:
        raise UsageError(str(exc)) from exc


def _live_block(source, cache: dict) -> Dict:
    if source.kind == "scatter":  # the router: sum over shard primaries
        engines = [g.primary_engine for g in source.live_groups()]
    else:
        engines = [source]
    wals = [e.wal.records_written for e in engines if e.wal is not None]
    return {
        "epoch": source.epoch,
        "delta_size": sum(e.delta_size for e in engines),
        "compactions": sum(e.compactor.compactions for e in engines),
        "compaction_failures": sum(e.compactor.failures for e in engines),
        "wal_records": sum(wals) if wals else None,
        "cache_invalidations": cache["invalidations"],
    }


def _latency_block(tally: Tally) -> Dict:
    return {
        kind: {
            "count": len(values),
            "p50_seconds": percentile(values, 0.50),
            "p95_seconds": percentile(values, 0.95),
            "p99_seconds": percentile(values, 0.99),
        }
        for kind, values in tally.latencies.items()
    }


class _Shards:
    """The sharded stack's mid-stream events and its report blocks."""

    def __init__(self, router, kill_primary_at: Optional[int]):
        self.router = router
        self.kill_primary_at = kill_primary_at
        self.killed_at: Optional[int] = None
        self.splits: List[Dict] = []
        self.sizes_before = router.shard_sizes()
        self.failovers_before = self._failovers()

    def _failovers(self) -> int:
        return sum(g.failovers for g in self.router.live_groups())

    def before(self, op: int) -> None:
        router = self.router
        # Ship every write to the replicas before the next operation, so
        # which replica a read lands on cannot change its answer.
        router.sync_replicas()
        if op == self.kill_primary_at:
            # SIGKILL-style (no final WAL group-commit): the next write to
            # the shard must fail over to a replica.
            sizes = router.shard_sizes()
            hottest = max(sizes, key=lambda g: (sizes[g], -g))
            router.groups[hottest].crash_primary()
            self.killed_at = op
        split = router.maybe_split()
        if split is not None:
            self.splits.append(split.as_dict())

    def report(self, replicas: int) -> Dict:
        router = self.router
        router.sync_replicas()
        sizes_after = router.shard_sizes()
        return {
            "topology": {
                "shards_initial": len(self.sizes_before),
                "shards_final": len(sizes_after),
                "replicas_per_shard": replicas,
                "sizes_before": {str(k): v for k, v in self.sizes_before.items()},
                "sizes_after": {str(k): v for k, v in sizes_after.items()},
            },
            "splits": self.splits,
            "failover": {
                "killed_at_op": self.killed_at,
                "failovers": self._failovers() - self.failovers_before,
            },
            "replication_lag": {
                str(gid): [
                    {"replica": rid, "records": recs, "seconds": secs}
                    for rid, recs, secs in router.groups[gid].lag_watermarks()
                ]
                for gid in router.live_shard_ids()
            },
        }


def run(dataset, args) -> Tuple[Dict, str]:
    """Build the stack, drive the stream, return (report, Prometheus text).

    ``args`` carries the ``mck bench`` flags.  Only the operation stream
    is timed (``wall_seconds``, ``throughput_ops``); building the stack,
    the service and the server is ``setup_seconds``.  Raises
    :class:`UsageError` for flag combinations the driver cannot run.
    """
    from .datasets.queries import generate_queries
    from .live import LiveMCKEngine
    from .observability.profiler import StackProfiler
    from .observability.slo import SLOTracker, default_objectives
    from .replication import ReplicatedShardRouter
    from .server import MCKServer
    from .serving import QueryService
    from .serving.stats import MetricsRegistry
    from .testing import faults

    algorithms = _check(args)
    pool = [
        q.keywords
        for q in generate_queries(dataset, m=args.m, count=args.queries, seed=args.seed)
    ]
    coords = dataset.coords
    workload = Workload(
        pool,
        algorithms,
        args.write_ratio,
        extent=(
            float(coords[:, 0].min()), float(coords[:, 1].min()),
            float(coords[:, 0].max()), float(coords[:, 1].max()),
        ),
    )
    ops = workload.draw(args.operations, args.seed)
    slo = SLOTracker(default_objectives(latency_target=args.slo_target))
    profiler = StackProfiler(interval=0.01) if args.profile else None

    with ExitStack() as stack:
        stack.callback(faults.reset)
        try:
            for spec in args.inject_fault:
                faults.arm_spec(spec)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

        started = time.perf_counter()
        shards = None
        if args.stack == "sealed":
            source = dataset
        elif args.stack == "live":
            source = stack.enter_context(LiveMCKEngine.from_dataset(
                dataset,
                wal_path=args.wal,
                compact_threshold=(
                    COMPACT_THRESHOLD if args.compact_threshold is None
                    else args.compact_threshold
                ),
            ))
        else:
            source = stack.enter_context(ReplicatedShardRouter(
                [(o.x, o.y, o.keywords) for o in dataset],
                n_shards=args.shards,
                replicas_per_shard=args.replicas,
                name=dataset.name,
                split_threshold=args.split_threshold,
            ))
            shards = _Shards(source, args.kill_primary_at)
        service = stack.enter_context(QueryService(
            source,
            max_workers=args.workers,
            admission_capacity=args.admission_capacity or None,
            shed_policy=args.shed_policy,
            cache_size=args.cache_size,
            strict_timeouts=args.strict_timeouts,
            slo=slo,
            metrics=MetricsRegistry.default(),
        ))
        if args.http:
            server = stack.enter_context(MCKServer(service).run_in_thread())
            send = stack.enter_context(
                HTTPSend(server.host, server.port, timeout=args.timeout)
            )
        else:
            send = service_send(service, timeout=args.timeout)
        setup = time.perf_counter() - started

        if profiler is not None:
            profiler.start()
            stack.callback(profiler.stop)
        tally = drive(
            ops,
            send,
            args.arrival_rate,
            args.seed,
            before=shards.before if shards is not None else None,
        )

        cache = service.cache.stats()
        report = {
            "workload": {
                "stack": args.stack,
                "dataset": dataset.name,
                "objects_initial": len(dataset),
                "objects_final": len(service.engine.dataset),
                "m": args.m,
                "distinct_queries": len(pool),
                "algorithms": algorithms,
                "write_ratio": args.write_ratio,
                "arrival_rate": args.arrival_rate,
                "requests_total": tally.offered,
                "reads": tally.count("read"),
                "inserts": tally.count("insert"),
                "deletes": tally.count("delete"),
                "failures": tally.errors,
                "degraded": tally.degraded,
                "rejected": tally.rejected,
                "admission_capacity": args.admission_capacity or None,
                "shed_policy": args.shed_policy,
                "strict_timeouts": args.strict_timeouts,
                "injected_faults": list(args.inject_fault),
                "setup_seconds": setup,
                "wall_seconds": tally.seconds,
                "throughput_ops": (
                    tally.offered / tally.seconds if tally.seconds > 0 else None
                ),
            },
            "latency": _latency_block(tally),
            "admission": service.admission_dict(),
            "metrics": service.metrics_dict(),
            "slo": slo.as_dict(),
            "cache": cache,
        }
        if args.stack != "sealed":
            report["live"] = _live_block(source, cache)
        if shards is not None:
            report.update(shards.report(args.replicas))
        if args.http:
            report["http"] = tally.as_dict()
        prom = service.metrics.to_prometheus()

    if profiler is not None:
        profiler.write_collapsed(args.profile)
        report["profile"] = profiler.stats()
    return report, prom
