"""Command-line interface: ``python -m repro`` or the ``mck`` script.

Subcommands
-----------
``generate``    write a synthetic NY/LA/TW-like dataset to JSON-lines
``query``       answer one mCK query over a dataset file
``experiment``  regenerate a paper table/figure (table1, fig7 ... fig14)
``stats``       print Table-1-style statistics for a dataset file
``serve``       serve mCK queries over HTTP: the asyncio JSON API of
                :mod:`repro.server` over a :class:`~repro.serving.QueryService`
                with a worker-process pool for the hot loops
                (``--shards N`` scales out: a replicated shard router
                fans queries across N shard groups with WAL-shipped read
                replicas and automatic failover)
``serve-bench`` replay a query workload through the batched
                :class:`~repro.serving.QueryService` and dump JSON metrics
                (``--http`` drives the real socket tier with open-loop
                Poisson load instead)
``live-bench``  drive a mixed read/write Poisson workload against a
                :class:`~repro.live.LiveMCKEngine`-backed service and dump
                JSON metrics (epochs, delta size, compactions, WAL records,
                cache invalidations and revalidations)
``shard-bench`` drive a skewed read/write workload against the
                scale-out tier (replicated shard router): scatter-gather
                queries, WAL-shipped replicas, optional mid-workload
                primary kill (failover) and hot-shard splitting; dump a
                JSON report
``trace``       serve a small workload with the span tracer attached and
                write a Chrome trace-event JSON (plus optional Prometheus
                text exposition of the latency histograms)
``explain``     answer one query through the full serving stack and print
                its EXPLAIN report (span tree, kernel mode, cache and
                admission outcome, pruning counters, phase latencies)
``metrics``     run a nested ``mck`` command, then pretty-print the
                process-wide :class:`~repro.serving.stats.MetricsRegistry`
                (``--format json|prom``)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.engine import MCKEngine
from .datasets.io import load_jsonl, save_jsonl
from .datasets.stats import table1_stats
from .datasets.synthetic import make_la_like, make_ny_like, make_tw_like
from .experiments import figures
from .experiments.report import render_rows

_EXPERIMENTS = {
    "table1": lambda args: _render_table1(args),
    "fig7": lambda args: figures.fig7_vary_epsilon(scale=args.scale),
    "fig8": lambda args: figures.fig8_vary_keywords(scale=args.scale),
    "fig9": lambda args: figures.fig9_skec_vs_skecaplus(scale=args.scale),
    "fig10": lambda args: figures.fig10_vary_diameter(scale=args.scale),
    "fig11": lambda args: figures.fig11_vary_timeout(scale=args.scale),
    "fig12": lambda args: figures.fig12_vary_frequency(scale=args.scale),
    "fig13": lambda args: figures.fig13_scalability(),
    "fig14": lambda args: figures.fig14_vary_epsilon_ny_tw(scale=args.scale),
    "distributed": lambda args: figures.ext_distributed_scaling(scale=args.scale),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mck",
        description="mCK query reproduction (SIGMOD 2015) command-line tools",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("preset", choices=["NY", "LA", "TW"])
    gen.add_argument("output", help="output JSON-lines path")
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(handler=_cmd_generate)

    query = sub.add_parser("query", help="answer one mCK query")
    query.add_argument("dataset", help="JSON-lines dataset path")
    query.add_argument("keywords", nargs="+", help="the m query keywords")
    query.add_argument(
        "--algorithm",
        default="SKECa+",
        choices=["GKG", "SKEC", "SKECa", "SKECa+", "EXACT"],
    )
    query.add_argument("--epsilon", type=float, default=0.01)
    query.add_argument("--timeout", type=float, default=None)
    query.set_defaults(handler=_cmd_query)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    exp.add_argument("--scale", type=float, default=0.05)
    exp.add_argument(
        "--save-json",
        metavar="PATH",
        default=None,
        help="also write the figure series to a JSON document",
    )
    exp.set_defaults(handler=_cmd_experiment)

    stats = sub.add_parser("stats", help="Table-1-style dataset statistics")
    stats.add_argument("dataset", help="JSON-lines dataset path")
    stats.set_defaults(handler=_cmd_stats)

    serve = sub.add_parser(
        "serve-bench",
        help="replay a workload through the batched QueryService, dump JSON metrics",
    )
    serve.add_argument(
        "--dataset", default=None, help="JSON-lines dataset path (overrides --preset)"
    )
    serve.add_argument("--preset", choices=["NY", "LA", "TW"], default="NY")
    serve.add_argument("--scale", type=float, default=0.02)
    serve.add_argument("--m", type=int, default=4, help="keywords per query")
    serve.add_argument(
        "--queries", type=int, default=50, help="distinct queries in the workload"
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="times the workload is replayed (exercises the result cache)",
    )
    serve.add_argument(
        "--algorithms",
        nargs="+",
        default=["SKECa+"],
        metavar="ALGO",
        help="algorithms to serve (GKG, SKEC, SKECa, SKECa+, EXACT)",
    )
    serve.add_argument("--epsilon", type=float, default=0.01)
    serve.add_argument("--timeout", type=float, default=None)
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        metavar="QPS",
        help="open-loop mode: submit the workload as a Poisson arrival "
        "process at this rate (queries/s) instead of replaying it "
        "closed-loop; overloads are shed, not queued without bound",
    )
    serve.add_argument(
        "--admission-capacity",
        type=int,
        default=1024,
        help="bounded admission queue capacity; 0 = unbounded",
    )
    serve.add_argument(
        "--shed-policy",
        default="reject-newest",
        choices=["reject-newest", "reject-oldest", "deadline-aware"],
        help="load-shedding policy applied when the admission queue fills",
    )
    serve.add_argument("--cache-size", type=int, default=1024)
    serve.add_argument("--cache-ttl", type=float, default=None)
    serve.add_argument(
        "--process-algorithms",
        nargs="+",
        default=None,
        metavar="ALGO",
        help="run these algorithms on the worker-process pool (off the "
        "GIL), e.g. --process-algorithms EXACT",
    )
    serve.add_argument(
        "--http",
        action="store_true",
        help="open-loop mode over a real socket: boot the asyncio HTTP "
        "tier and drive it with the Poisson load generator; reports "
        "wire p50/p95 latencies and HTTP 429 rejections",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--output", default=None, help="write the JSON dump here instead of stdout"
    )
    serve.add_argument(
        "--strict-timeouts",
        action="store_true",
        help="fail queries on an expired deadline (paper §6.2.3) instead of "
        "returning the best feasible incumbent as a degraded answer",
    )
    serve.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="arm a fault for the run, e.g. slow-scan:delay=0.2, "
        "clock-skew:after=50, pool-reject:times=2, worker-crash "
        "(repeatable; see repro.testing.faults)",
    )
    serve.add_argument(
        "--prom-out",
        default=None,
        help="also write Prometheus text exposition of the service metrics here",
    )
    serve.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="sample stacks during the run and write collapsed stacks "
        "(flamegraph.pl / speedscope format) here",
    )
    serve.add_argument(
        "--slo-target",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="latency SLO target used for the dump's slo block",
    )
    serve.set_defaults(handler=_cmd_serve_bench)

    srv = sub.add_parser(
        "serve",
        help="serve mCK queries over HTTP (asyncio front end, "
        "worker-process pool for the hot loops)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8080, help="0 picks a free port"
    )
    srv.add_argument(
        "--dataset", default=None, help="JSON-lines dataset path (overrides --preset)"
    )
    srv.add_argument("--preset", choices=["NY", "LA", "TW"], default="NY")
    srv.add_argument("--scale", type=float, default=0.02)
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument(
        "--live",
        action="store_true",
        help="front a mutable LiveMCKEngine (enables POST /mutate); "
        "implies in-process execution — the worker-process pool needs "
        "a sealed dataset",
    )
    srv.add_argument(
        "--wal", default=None, metavar="PATH",
        help="write-ahead log path (with --live): mutations are durable "
        "and replayed on restart",
    )
    srv.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="checkpointed durable store (with --live, instead of --wal): "
        "compactions persist CRC-checksummed segments so a restart is a "
        "segment load plus short WAL tail replay, verified before /readyz "
        "reports ready",
    )
    srv.add_argument("--workers", type=int, default=None)
    srv.add_argument(
        "--admission-capacity",
        type=int,
        default=1024,
        help="bounded admission queue capacity; 0 = unbounded",
    )
    srv.add_argument(
        "--shed-policy",
        default="reject-newest",
        choices=["reject-newest", "reject-oldest", "deadline-aware"],
    )
    srv.add_argument("--cache-size", type=int, default=1024)
    srv.add_argument(
        "--process-algorithms",
        nargs="+",
        default=None,
        metavar="ALGO",
        help="run these algorithms on the worker-process pool, off the "
        "GIL (static datasets only; default: EXACT and SKECa+)",
    )
    srv.add_argument(
        "--ready-fraction",
        type=float,
        default=0.8,
        help="queue-depth fraction of the admission capacity at which "
        "/readyz flips unready (shed at the balancer before 429s)",
    )
    srv.add_argument(
        "--flight-traces",
        type=int,
        default=256,
        help="tail-latency flight recorder retention (0 disables)",
    )
    srv.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="scale out: front a replicated shard router fanning queries "
        "across N shard groups (implies mutable in-process execution; "
        "needs neither --live nor --wal)",
    )
    srv.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="WAL-shipped read replicas per shard (with --shards)",
    )
    srv.set_defaults(handler=_cmd_serve)

    live = sub.add_parser(
        "live-bench",
        help="drive a mixed read/write workload against a live (mutable) "
        "engine, dump JSON metrics",
    )
    live.add_argument(
        "--dataset", default=None, help="JSON-lines dataset path (overrides --preset)"
    )
    live.add_argument("--preset", choices=["NY", "LA", "TW"], default="NY")
    live.add_argument("--scale", type=float, default=0.02)
    live.add_argument("--m", type=int, default=4, help="keywords per query")
    live.add_argument(
        "--queries", type=int, default=25, help="distinct queries in the read mix"
    )
    live.add_argument(
        "--operations",
        type=int,
        default=200,
        help="total operations (reads + writes) to drive",
    )
    live.add_argument(
        "--write-ratio",
        type=float,
        default=0.3,
        help="fraction of operations that are mutations (inserts/deletes)",
    )
    live.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        metavar="OPS",
        help="open-loop mode: Poisson arrivals at this rate (operations/s); "
        "omitted = closed loop (each mutation completes before the next op)",
    )
    live.add_argument(
        "--algorithm",
        default="SKECa+",
        choices=["GKG", "SKEC", "SKECa", "SKECa+", "EXACT"],
    )
    live.add_argument("--epsilon", type=float, default=0.01)
    live.add_argument("--timeout", type=float, default=None)
    live.add_argument("--workers", type=int, default=None)
    live.add_argument("--cache-size", type=int, default=1024)
    live.add_argument(
        "--wal", default=None, metavar="PATH",
        help="write-ahead-log path (durability across restarts)",
    )
    live.add_argument(
        "--compact-threshold",
        type=int,
        default=64,
        help="delta size (adds + tombstones) that triggers compaction",
    )
    live.add_argument("--seed", type=int, default=0)
    live.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="arm a fault for the run, e.g. compaction-fail:times=2, "
        "slow-scan:delay=0.2 (repeatable; see repro.testing.faults)",
    )
    live.add_argument(
        "--output", default=None, help="write the JSON dump here instead of stdout"
    )
    live.add_argument(
        "--prom-out",
        default=None,
        help="also write Prometheus text exposition of the service metrics here",
    )
    live.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="sample stacks during the run and write collapsed stacks "
        "(flamegraph.pl / speedscope format) here",
    )
    live.add_argument(
        "--slo-target",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="latency SLO target used for the dump's slo block",
    )
    live.set_defaults(handler=_cmd_live_bench)

    shard = sub.add_parser(
        "shard-bench",
        help="drive a skewed read/write workload against the replicated "
        "shard router (scatter-gather, failover, live splits), dump JSON",
    )
    shard.add_argument("--shards", type=int, default=4)
    shard.add_argument(
        "--replicas", type=int, default=1, help="read replicas per shard"
    )
    shard.add_argument(
        "--objects", type=int, default=400, help="bootstrap object count"
    )
    shard.add_argument(
        "--operations", type=int, default=300, help="reads + writes to drive"
    )
    shard.add_argument(
        "--write-ratio",
        type=float,
        default=0.5,
        help="fraction of operations that are mutations",
    )
    shard.add_argument(
        "--hot-fraction",
        type=float,
        default=0.7,
        help="fraction of inserts clustered on the hot spot (drives one "
        "shard past --split-threshold)",
    )
    shard.add_argument(
        "--split-threshold",
        type=int,
        default=None,
        metavar="N",
        help="arm live rebalancing: split any shard that grows past N "
        "objects (omitted = no splits)",
    )
    shard.add_argument(
        "--kill-primary-at",
        type=int,
        default=None,
        metavar="OP",
        help="crash the hottest shard's primary after OP operations "
        "(exercises automatic failover)",
    )
    shard.add_argument(
        "--algorithm",
        default="SKECa+",
        choices=["GKG", "SKEC", "SKECa", "SKECa+", "EXACT"],
    )
    shard.add_argument("--m", type=int, default=3, help="keywords per query")
    shard.add_argument("--timeout", type=float, default=None)
    shard.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="router data directory (omitted = private tempdir)",
    )
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument(
        "--output", default=None, help="write the JSON dump here instead of stdout"
    )
    shard.add_argument(
        "--prom-out",
        default=None,
        help="also write Prometheus text exposition of the metrics here",
    )
    shard.set_defaults(handler=_cmd_shard_bench)

    trace = sub.add_parser(
        "trace",
        help="trace a small served workload; write Chrome trace JSON",
    )
    trace.add_argument(
        "--dataset", default=None, help="JSON-lines dataset path (overrides --preset)"
    )
    trace.add_argument("--preset", choices=["NY", "LA", "TW"], default="NY")
    trace.add_argument("--scale", type=float, default=0.01)
    trace.add_argument("--m", type=int, default=4, help="keywords per query")
    trace.add_argument(
        "--queries", type=int, default=5, help="distinct queries in the workload"
    )
    trace.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="workload replays (>=2 exercises both cache hit and miss paths)",
    )
    trace.add_argument(
        "--algorithm",
        default="SKECa+",
        choices=["GKG", "SKEC", "SKECa", "SKECa+", "EXACT"],
    )
    trace.add_argument("--epsilon", type=float, default=0.01)
    trace.add_argument("--timeout", type=float, default=None)
    trace.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="fraction of root spans to record (0..1)",
    )
    trace.add_argument(
        "--trace-out",
        default="mck-trace.json",
        help="Chrome trace-event JSON output path (open in Perfetto)",
    )
    trace.add_argument(
        "--prom-out",
        default=None,
        help="also write Prometheus text exposition of the metrics here",
    )
    trace.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs (with correlation ids) to stderr",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.set_defaults(handler=_cmd_trace)

    explain = sub.add_parser(
        "explain",
        help="answer one query through the serving stack, print its EXPLAIN",
    )
    explain.add_argument(
        "keywords",
        nargs="*",
        help="query keywords (omitted = auto-generate a feasible query)",
    )
    explain.add_argument(
        "--dataset", default=None, help="JSON-lines dataset path (overrides --preset)"
    )
    explain.add_argument("--preset", choices=["NY", "LA", "TW"], default="NY")
    explain.add_argument("--scale", type=float, default=0.01)
    explain.add_argument(
        "--m", type=int, default=4, help="keywords per auto-generated query"
    )
    explain.add_argument(
        "--algorithm",
        default="SKECa+",
        choices=["GKG", "SKEC", "SKECa", "SKECa+", "EXACT"],
    )
    explain.add_argument("--epsilon", type=float, default=0.01)
    explain.add_argument("--timeout", type=float, default=None)
    explain.add_argument(
        "--live",
        action="store_true",
        help="serve through a live (mutable) engine instead of a sealed one",
    )
    explain.add_argument(
        "--repeat",
        type=int,
        default=1,
        help=">=2 prints one report per run; the second shows the cache hit",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="print the raw EXPLAIN dict as JSON instead of the text report",
    )
    explain.add_argument("--seed", type=int, default=0)
    explain.set_defaults(handler=_cmd_explain)

    met = sub.add_parser(
        "metrics",
        help="run a nested mck command, then pretty-print the default metrics registry",
    )
    met.add_argument(
        "--format",
        choices=["json", "prom"],
        default=None,
        help="output format (prom = Prometheus text exposition)",
    )
    met.add_argument(
        "--prometheus",
        action="store_true",
        help="deprecated alias for --format prom",
    )
    met.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        metavar="COMMAND",
        help="nested mck command executed before the registry is printed",
    )
    met.set_defaults(handler=_cmd_metrics)
    return parser


def _cmd_generate(args) -> int:
    maker = {"NY": make_ny_like, "LA": make_la_like, "TW": make_tw_like}[args.preset]
    dataset = maker(scale=args.scale, seed=args.seed)
    save_jsonl(dataset, args.output)
    print(
        f"wrote {len(dataset)} objects "
        f"({dataset.unique_word_count()} unique words) to {args.output}"
    )
    return 0


def _cmd_query(args) -> int:
    dataset = load_jsonl(args.dataset)
    engine = MCKEngine(dataset)
    group = engine.query(
        args.keywords,
        algorithm=args.algorithm,
        epsilon=args.epsilon,
        timeout=args.timeout,
    )
    print(f"algorithm : {args.algorithm}")
    print(f"diameter  : {group.diameter:.6g}")
    print(f"elapsed   : {group.elapsed_seconds * 1000:.2f} ms")
    print(f"group     : {len(group)} objects")
    for obj in group.objects(dataset):
        kws = ", ".join(sorted(obj.keywords))
        print(f"  #{obj.oid} at ({obj.x:.1f}, {obj.y:.1f}) [{kws}]")
    return 0


def _cmd_experiment(args) -> int:
    result = _EXPERIMENTS[args.name](args)
    if isinstance(result, str):
        print(result)
        return 0
    for figure in result:
        print(figure.render())
        print()
    if args.save_json:
        from .experiments.persistence import save_figures

        save_figures(result, args.save_json)
        print(f"saved {len(result)} figure(s) to {args.save_json}")
    return 0


def _render_table1(args) -> str:
    text, _stats = figures.table1_datasets(scale=args.scale)
    return text


def _cmd_serve_bench(args) -> int:
    import json
    import time as _time

    from .core.engine import canonical_algorithm
    from .datasets.queries import generate_queries
    from .exceptions import QueryError, QueryRejected
    from .serving import QueryRequest, QueryService
    from .testing import faults

    try:
        algorithms = [canonical_algorithm(a) for a in args.algorithms]
    except QueryError as exc:
        print(f"serve-bench: {exc}", file=sys.stderr)
        return 2
    try:
        for spec in args.inject_fault:
            faults.arm_spec(spec)
    except ValueError as exc:
        print(f"serve-bench: {exc}", file=sys.stderr)
        return 2
    if args.cache_ttl is not None and args.cache_ttl <= 0:
        print("serve-bench: --cache-ttl must be positive", file=sys.stderr)
        return 2
    if args.arrival_rate is not None and args.arrival_rate <= 0:
        print("serve-bench: --arrival-rate must be positive", file=sys.stderr)
        return 2
    if args.admission_capacity < 0:
        print(
            "serve-bench: --admission-capacity must be >= 0", file=sys.stderr
        )
        return 2
    admission_capacity = args.admission_capacity or None

    if args.dataset:
        dataset = load_jsonl(args.dataset)
    else:
        maker = {"NY": make_ny_like, "LA": make_la_like, "TW": make_tw_like}[
            args.preset
        ]
        dataset = maker(scale=args.scale, seed=args.seed)

    workload = generate_queries(
        dataset, m=args.m, count=args.queries, seed=args.seed
    )
    requests = [
        QueryRequest(
            keywords=q.keywords,
            algorithm=algorithm,
            epsilon=args.epsilon,
            timeout=args.timeout,
        )
        for algorithm in algorithms
        for q in workload
    ]

    from .observability.profiler import StackProfiler
    from .observability.slo import SLOTracker, default_objectives

    slo = SLOTracker(default_objectives(latency_target=args.slo_target))
    profiler = StackProfiler(interval=0.01) if args.profile else None
    started = _time.perf_counter()
    if profiler is not None:
        profiler.start()
    try:
        with QueryService(
            dataset,
            max_workers=args.workers,
            admission_capacity=admission_capacity,
            shed_policy=args.shed_policy,
            cache_size=args.cache_size,
            cache_ttl=args.cache_ttl,
            process_algorithms=args.process_algorithms,
            strict_timeouts=args.strict_timeouts,
            slo=slo,
        ) as service:
            failures = 0
            degraded = 0
            rejected = 0
            rounds = max(1, args.repeat)
            http_load = None
            if args.http:
                # Over-the-wire open loop: boot the asyncio HTTP tier on
                # a free port and drive it with Poisson arrivals through
                # real sockets, so the numbers include wire framing and
                # admission rejections surface as HTTP 429s.
                from .server import MCKServer
                from .server.loadgen import run_http_load

                rate = args.arrival_rate or 50.0
                duration = len(requests) * rounds / rate
                handle = MCKServer(service).run_in_thread()
                try:
                    http_load = run_http_load(
                        handle.host,
                        handle.port,
                        [list(q.keywords) for q in workload],
                        rate=rate,
                        duration=duration,
                        algorithm=algorithms,
                        epsilon=args.epsilon,
                        timeout=args.timeout,
                        seed=args.seed,
                    )
                finally:
                    handle.stop()
                failures = http_load.errors
                degraded = http_load.degraded
                rejected = http_load.rejected
            elif args.arrival_rate is not None:
                # Open loop: arrivals do not wait for completions, so a
                # slow service sees a growing queue — exactly the regime
                # admission control and shedding are for.
                import random as _random

                rng = _random.Random(args.seed)
                futures = []
                for _round in range(rounds):
                    for request in requests:
                        _time.sleep(rng.expovariate(args.arrival_rate))
                        try:
                            futures.append(service.submit(request))
                        except QueryRejected:
                            rejected += 1
                for future in futures:
                    try:
                        result = future.result()
                    except QueryRejected:
                        rejected += 1
                        continue
                    if not result.ok:
                        failures += 1
                    elif result.degraded:
                        degraded += 1
            else:
                for _round in range(rounds):
                    for result in service.query_many(requests):
                        if result.rejected:
                            rejected += 1
                        elif not result.ok:
                            failures += 1
                        elif result.degraded:
                            degraded += 1
            wall = _time.perf_counter() - started
            dump = {
                "workload": {
                    "dataset": dataset.name,
                    "objects": len(dataset),
                    "m": args.m,
                    "distinct_queries": len(workload),
                    "algorithms": algorithms,
                    "repeat": rounds,
                    "requests_total": len(requests) * rounds,
                    "failures": failures,
                    "degraded": degraded,
                    "rejected": rejected,
                    "arrival_rate": args.arrival_rate,
                    "admission_capacity": admission_capacity,
                    "shed_policy": args.shed_policy,
                    "strict_timeouts": args.strict_timeouts,
                    "injected_faults": list(args.inject_fault),
                    "wall_seconds": wall,
                    "throughput_qps": len(requests) * rounds / wall
                    if wall > 0
                    else None,
                },
                "admission": service.admission_dict(),
                "metrics": service.metrics_dict(),
                "slo": slo.as_dict(),
            }
            if http_load is not None:
                dump["http"] = http_load.as_dict()
                dump["workload"]["requests_total"] = http_load.offered
                p50, p95 = http_load.percentile(0.5), http_load.percentile(0.95)
                print(
                    "serve-bench --http: offered={} completed={} rejected(429)={} "
                    "errors={} p50={} p95={}".format(
                        http_load.offered,
                        http_load.completed,
                        http_load.rejected,
                        http_load.errors,
                        f"{p50 * 1e3:.1f}ms" if p50 is not None else "n/a",
                        f"{p95 * 1e3:.1f}ms" if p95 is not None else "n/a",
                    ),
                    file=sys.stderr,
                )
            prom_text = service.metrics.to_prometheus() if args.prom_out else None
    finally:
        if profiler is not None:
            profiler.stop()
        faults.reset()
    if profiler is not None:
        profiler.write_collapsed(args.profile)
        dump["profile"] = profiler.stats()

    text = json.dumps(dump, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote serve-bench metrics to {args.output}")
    else:
        print(text)
    if args.prom_out:
        with open(args.prom_out, "w") as fh:
            fh.write(prom_text)
        print(f"wrote Prometheus exposition to {args.prom_out}")
    if profiler is not None:
        print(f"wrote collapsed stacks to {args.profile}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .core.engine import canonical_algorithm
    from .exceptions import QueryError
    from .live import LiveMCKEngine
    from .observability.flight import FlightRecorder
    from .server import MCKServer
    from .serving import QueryService

    if args.admission_capacity < 0:
        print("serve: --admission-capacity must be >= 0", file=sys.stderr)
        return 2
    if args.shards < 0:
        print("serve: --shards must be >= 0", file=sys.stderr)
        return 2
    if args.shards and (args.live or args.wal or args.data_dir):
        print(
            "serve: --shards manages its own live engines and durability; "
            "drop --live/--wal/--data-dir",
            file=sys.stderr,
        )
        return 2
    if args.shards and args.process_algorithms:
        print(
            "serve: --process-algorithms needs a sealed dataset; "
            "drop --shards",
            file=sys.stderr,
        )
        return 2
    if args.wal and not args.live:
        print("serve: --wal needs --live", file=sys.stderr)
        return 2
    if args.data_dir and not args.live:
        print("serve: --data-dir needs --live", file=sys.stderr)
        return 2
    if args.data_dir and args.wal:
        print(
            "serve: --data-dir manages its own WAL; drop --wal",
            file=sys.stderr,
        )
        return 2
    if args.live and args.process_algorithms:
        print(
            "serve: --process-algorithms needs a sealed dataset "
            "(pool workers hold a frozen copy); drop --live",
            file=sys.stderr,
        )
        return 2

    if args.dataset:
        dataset = load_jsonl(args.dataset)
    else:
        maker = {"NY": make_ny_like, "LA": make_la_like, "TW": make_tw_like}[
            args.preset
        ]
        dataset = maker(scale=args.scale, seed=args.seed)

    if args.shards:
        from .replication import ReplicatedShardRouter

        source = ReplicatedShardRouter(
            [(obj.x, obj.y, obj.keywords) for obj in dataset],
            n_shards=args.shards,
            replicas_per_shard=max(0, args.replicas),
            name=dataset.name,
            replication_interval=0.05,
        )
        process_algorithms = None
    elif args.live:
        source = LiveMCKEngine.from_records(
            ((obj.x, obj.y, obj.keywords) for obj in dataset),
            name=dataset.name,
            wal_path=args.wal,
            data_dir=args.data_dir,
        )
        process_algorithms = None
    else:
        source = dataset
        try:
            process_algorithms = [
                canonical_algorithm(a)
                for a in (args.process_algorithms or ["EXACT", "SKECa+"])
            ]
        except QueryError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2

    flight = (
        FlightRecorder(max_traces=args.flight_traces)
        if args.flight_traces > 0
        else None
    )
    service = QueryService(
        source,
        max_workers=args.workers,
        admission_capacity=args.admission_capacity or None,
        shed_policy=args.shed_policy,
        cache_size=args.cache_size,
        process_algorithms=process_algorithms,
        flight=flight,
    )
    server = MCKServer(
        service,
        host=args.host,
        port=args.port,
        ready_fraction=args.ready_fraction,
        owns_service=True,
    )

    async def _main() -> None:
        await server.start()
        if args.shards:
            # The routing grid is square, so the live shard count is
            # floor(sqrt(--shards))^2 — report what actually runs.
            mode = (
                f"scatter: {len(source.live_groups())} shard(s) x "
                f"{max(0, args.replicas)} replica(s)"
            )
        elif args.live:
            mode = "live (mutable)"
        else:
            mode = f"sealed, process pool for {', '.join(process_algorithms)}"
        print(
            f"mck serve: http://{server.host}:{server.port} "
            f"[{dataset.name}: {len(dataset)} objects; {mode}]",
            flush=True,
        )
        await server.serve_until_stopped()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("mck serve: interrupted, shutting down", file=sys.stderr)
        service.close()
    return 0


def _cmd_live_bench(args) -> int:
    import json
    import random as _random
    import time as _time

    from .datasets.queries import generate_queries
    from .exceptions import QueryRejected, ReproError
    from .live import LiveMCKEngine
    from .serving import QueryRequest, QueryService
    from .testing import faults

    try:
        for spec in args.inject_fault:
            faults.arm_spec(spec)
    except ValueError as exc:
        print(f"live-bench: {exc}", file=sys.stderr)
        return 2
    if not 0.0 <= args.write_ratio <= 1.0:
        print("live-bench: --write-ratio must be in [0, 1]", file=sys.stderr)
        return 2
    if args.arrival_rate is not None and args.arrival_rate <= 0:
        print("live-bench: --arrival-rate must be positive", file=sys.stderr)
        return 2

    if args.dataset:
        dataset = load_jsonl(args.dataset)
    else:
        maker = {"NY": make_ny_like, "LA": make_la_like, "TW": make_tw_like}[
            args.preset
        ]
        dataset = maker(scale=args.scale, seed=args.seed)

    workload = generate_queries(
        dataset, m=args.m, count=args.queries, seed=args.seed
    )
    # Mutations reuse the workload's keywords so writes actually collide
    # with cached reads — otherwise the revalidation path never fires.
    terms = sorted({k for q in workload for k in q.keywords})
    coords = dataset.coords
    x_lo, y_lo = float(coords[:, 0].min()), float(coords[:, 1].min())
    x_hi, y_hi = float(coords[:, 0].max()), float(coords[:, 1].max())

    from .observability.profiler import StackProfiler
    from .observability.slo import SLOTracker, default_objectives

    rng = _random.Random(args.seed)
    reads = writes = inserts = deletes = 0
    failures = degraded = rejected = mutation_errors = 0
    inserted_oids: List[int] = []
    slo = SLOTracker(default_objectives(latency_target=args.slo_target))
    profiler = StackProfiler(interval=0.01) if args.profile else None
    started = _time.perf_counter()
    engine = LiveMCKEngine.from_dataset(
        dataset,
        wal_path=args.wal,
        compact_threshold=args.compact_threshold,
    )
    if profiler is not None:
        profiler.start()
    try:
        with QueryService(
            engine,
            max_workers=args.workers,
            cache_size=args.cache_size,
            slo=slo,
        ) as service:
            futures = []
            for _op in range(max(0, args.operations)):
                if args.arrival_rate is not None:
                    _time.sleep(rng.expovariate(args.arrival_rate))
                if rng.random() < args.write_ratio:
                    writes += 1
                    try:
                        if inserted_oids and rng.random() < 0.4:
                            oid = inserted_oids.pop(
                                rng.randrange(len(inserted_oids))
                            )
                            service.submit_mutation(deletes=[oid]).result()
                            deletes += 1
                        else:
                            kws = rng.sample(
                                terms, min(len(terms), rng.randint(1, 3))
                            )
                            oids = service.submit_mutation(
                                inserts=[(
                                    rng.uniform(x_lo, x_hi),
                                    rng.uniform(y_lo, y_hi),
                                    kws,
                                )]
                            ).result()
                            inserted_oids.extend(oids)
                            inserts += 1
                    except QueryRejected:
                        rejected += 1
                    except ReproError:
                        mutation_errors += 1
                else:
                    reads += 1
                    q = workload[rng.randrange(len(workload))]
                    request = QueryRequest(
                        keywords=q.keywords,
                        algorithm=args.algorithm,
                        epsilon=args.epsilon,
                        timeout=args.timeout,
                    )
                    try:
                        futures.append(service.submit(request))
                    except QueryRejected:
                        rejected += 1
            for future in futures:
                try:
                    result = future.result()
                except QueryRejected:
                    rejected += 1
                    continue
                if not result.ok:
                    failures += 1
                elif result.degraded:
                    degraded += 1
            wall = _time.perf_counter() - started
            cache_stats = service.cache.stats()
            dump = {
                "workload": {
                    "dataset": dataset.name,
                    "objects_initial": len(dataset),
                    "objects_final": len(engine),
                    "m": args.m,
                    "operations": args.operations,
                    "reads": reads,
                    "writes": writes,
                    "inserts": inserts,
                    "deletes": deletes,
                    "write_ratio": args.write_ratio,
                    "arrival_rate": args.arrival_rate,
                    "failures": failures,
                    "degraded": degraded,
                    "rejected": rejected,
                    "mutation_errors": mutation_errors,
                    "injected_faults": list(args.inject_fault),
                    "wall_seconds": wall,
                    "throughput_ops": args.operations / wall if wall > 0 else None,
                },
                "live": {
                    "epoch": engine.epoch,
                    "delta_size": engine.delta_size,
                    "compactions": engine.compactor.compactions,
                    "compaction_failures": engine.compactor.failures,
                    "wal_records": (
                        engine.wal.records_written
                        if engine.wal is not None
                        else None
                    ),
                    "cache_invalidations": cache_stats["invalidations"],
                },
                "cache": cache_stats,
                "admission": service.admission_dict(),
                "metrics": service.metrics_dict(),
                "slo": slo.as_dict(),
            }
            prom_text = service.metrics.to_prometheus() if args.prom_out else None
    finally:
        if profiler is not None:
            profiler.stop()
        engine.close()
        faults.reset()
    if profiler is not None:
        profiler.write_collapsed(args.profile)
        dump["profile"] = profiler.stats()

    text = json.dumps(dump, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote live-bench metrics to {args.output}")
    else:
        print(text)
    if args.prom_out:
        with open(args.prom_out, "w") as fh:
            fh.write(prom_text)
        print(f"wrote Prometheus exposition to {args.prom_out}")
    if profiler is not None:
        print(f"wrote collapsed stacks to {args.profile}")
    return 0


def _cmd_shard_bench(args) -> int:
    import json

    from .replication.bench import run_shard_bench
    from .serving.stats import MetricsRegistry

    if not 0.0 <= args.write_ratio <= 1.0:
        print("shard-bench: --write-ratio must be in [0, 1]", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("shard-bench: --shards must be >= 1", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    report = run_shard_bench(
        n_shards=args.shards,
        replicas=args.replicas,
        objects=args.objects,
        operations=args.operations,
        write_ratio=args.write_ratio,
        hot_fraction=args.hot_fraction,
        split_threshold=args.split_threshold,
        kill_primary_at=args.kill_primary_at,
        algorithm=args.algorithm,
        m=args.m,
        timeout=args.timeout,
        dir=args.dir,
        metrics=registry,
        seed=args.seed,
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote shard-bench report to {args.output}")
    else:
        print(text)
    if args.prom_out:
        with open(args.prom_out, "w") as fh:
            fh.write(registry.to_prometheus())
        print(f"wrote Prometheus exposition to {args.prom_out}")
    return 0


def _cmd_trace(args) -> int:
    import json
    from collections import Counter as _Counter

    from .datasets.queries import generate_queries
    from .observability.exporters import write_chrome_trace
    from .observability.logging import configure_logging
    from .observability.tracer import Tracer, set_tracer
    from .serving import QueryRequest, QueryService
    from .serving.stats import MetricsRegistry

    if not 0.0 <= args.sample_rate <= 1.0:
        print("trace: --sample-rate must be in [0, 1]", file=sys.stderr)
        return 2
    if args.log_json:
        import logging as _logging

        configure_logging(level=_logging.DEBUG)

    if args.dataset:
        dataset = load_jsonl(args.dataset)
    else:
        maker = {"NY": make_ny_like, "LA": make_la_like, "TW": make_tw_like}[
            args.preset
        ]
        dataset = maker(scale=args.scale, seed=args.seed)

    workload = generate_queries(
        dataset, m=args.m, count=args.queries, seed=args.seed
    )
    requests = [
        QueryRequest(
            keywords=q.keywords,
            algorithm=args.algorithm,
            epsilon=args.epsilon,
            timeout=args.timeout,
        )
        for q in workload
    ]

    tracer = Tracer(sample_rate=args.sample_rate)
    # Install globally so index builds and any code outside the service's
    # explicit wiring land in the same trace.
    set_tracer(tracer)
    registry = MetricsRegistry()
    failures = 0
    try:
        with QueryService(dataset, metrics=registry, tracer=tracer) as service:
            for _round in range(max(1, args.repeat)):
                for result in service.query_many(requests):
                    if not result.ok:
                        failures += 1
            registry.record_cache(service.cache.stats())
    finally:
        set_tracer(None)

    events = write_chrome_trace(tracer, args.trace_out)
    by_name = _Counter(span["name"] for span in tracer.finished_spans())
    print(f"served {len(requests) * max(1, args.repeat)} requests "
          f"({failures} failed) over {len(dataset)} objects")
    print(f"wrote {events} trace events to {args.trace_out}")
    for name, count in sorted(by_name.items()):
        print(f"  {name:32s} {count}")
    if args.prom_out:
        with open(args.prom_out, "w") as fh:
            fh.write(registry.to_prometheus())
        print(f"wrote Prometheus metrics to {args.prom_out}")
    else:
        summary = registry.as_dict()["histograms"].get(
            "mck_query_latency_seconds", {}
        )
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_metrics(args) -> int:
    from .serving.stats import MetricsRegistry

    rest = [arg for arg in args.rest if arg != "--"]
    if not rest:
        print(
            "metrics: a nested mck command is required "
            "(e.g. mck metrics experiment table1)",
            file=sys.stderr,
        )
        return 2
    if rest[0] == "metrics":
        print("metrics: cannot nest the metrics command", file=sys.stderr)
        return 2
    rc = main(rest)
    registry = MetricsRegistry.default()
    fmt = args.format or ("prom" if args.prometheus else "json")
    if fmt == "prom":
        print(registry.to_prometheus(), end="")
    else:
        print(registry.to_json())
    return rc


def _cmd_explain(args) -> int:
    import json

    from .datasets.queries import generate_queries
    from .exceptions import QueryRejected
    from .observability.explain import render_explain
    from .observability.flight import FlightRecorder
    from .observability.tracer import Tracer
    from .serving import QueryService
    from .serving.stats import MetricsRegistry

    if args.repeat < 1:
        print("explain: --repeat must be >= 1", file=sys.stderr)
        return 2
    if args.dataset:
        dataset = load_jsonl(args.dataset)
    else:
        maker = {"NY": make_ny_like, "LA": make_la_like, "TW": make_tw_like}[
            args.preset
        ]
        dataset = maker(scale=args.scale, seed=args.seed)

    keywords = list(args.keywords)
    if not keywords:
        workload = generate_queries(dataset, m=args.m, count=1, seed=args.seed)
        keywords = list(workload[0].keywords)
        print(f"auto-generated query: {', '.join(keywords)}", file=sys.stderr)

    source = dataset
    engine = None
    if args.live:
        from .live import LiveMCKEngine

        engine = LiveMCKEngine.from_dataset(dataset)
        source = engine

    tracer = Tracer()
    flight = FlightRecorder(boring_keep_rate=1.0)
    reports = []
    try:
        with QueryService(
            source,
            metrics=MetricsRegistry(),
            tracer=tracer,
            flight=flight,
        ) as service:
            for run in range(args.repeat):
                try:
                    result = service.query(
                        keywords,
                        algorithm=args.algorithm,
                        epsilon=args.epsilon,
                        timeout=args.timeout,
                        explain=True,
                    )
                except QueryRejected as exc:
                    print(f"explain: rejected ({exc})", file=sys.stderr)
                    return 1
                if result.explain is None:
                    print("explain: no report produced", file=sys.stderr)
                    return 1
                reports.append(result.explain)
    finally:
        if engine is not None:
            engine.close()

    if args.json:
        payload = reports[0] if len(reports) == 1 else reports
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for run, report in enumerate(reports, start=1):
            if len(reports) > 1:
                print(f"--- run {run}/{len(reports)} ---")
            print(render_explain(report))
    return 0


def _cmd_stats(args) -> int:
    dataset = load_jsonl(args.dataset)
    rows = [
        (s.name, s.n_objects, s.unique_words, s.total_words, round(s.words_per_object, 2))
        for s in table1_stats([dataset])
    ]
    print(
        render_rows(
            "Dataset statistics",
            ["Dataset", "Objects", "Unique words", "Total words", "Words/object"],
            rows,
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
