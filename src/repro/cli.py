"""Command-line interface: ``python -m repro`` or the ``mck`` script.

Subcommands
-----------
``generate``    write a synthetic NY/LA/TW-like dataset to JSON-lines
``query``       answer one mCK query over a dataset file
``experiment``  regenerate a paper table/figure (table1, fig7 ... fig14)
``stats``       print Table-1-style statistics for a dataset file
``serve``       serve mCK queries over HTTP (:mod:`repro.server`); ``--live``
                takes writes, ``--shards N`` fronts a replicated shard router
``bench``       drive one seeded read/write workload through a serving
                stack and dump a JSON report (:mod:`repro.bench`)
``trace``       serve a small workload traced; write a Chrome trace JSON
``explain``     answer one query through the serving stack, print EXPLAIN
``metrics``     run a nested ``mck`` command, then print the process-wide
                :class:`~repro.serving.stats.MetricsRegistry`
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import STACKS
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
_PRESETS = {"NY": make_ny_like, "LA": make_la_like, "TW": make_tw_like}


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
    gen.add_argument("preset", choices=list(_PRESETS))
    gen.add_argument("output", help="output JSON-lines path")
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(handler=_cmd_generate)

    query = sub.add_parser(
        "query", parents=[_query_flags()], help="answer one mCK query"
    )
    query.add_argument("dataset", help="JSON-lines dataset path")
    query.add_argument("keywords", nargs="+", help="the m query keywords")
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

    srv = sub.add_parser(
        "serve",
        parents=[_dataset_flags(scale=0.02), _service_flags()],
        help="serve mCK queries over HTTP (asyncio front end, "
        "worker-process pool for the hot loops)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8080, help="0 picks a free port"
    )
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

    bench = sub.add_parser(
        "bench",
        parents=[_dataset_flags(scale=0.02), _service_flags()],
        help="drive a seeded read/write workload through one serving stack, "
        "dump a JSON report",
    )
    bench.add_argument(
        "--stack", choices=STACKS, default="sealed",
        help="what QueryService serves: a sealed dataset, a live (mutable) "
        "engine or a replicated shard router",
    )
    bench.add_argument(
        "--http", action="store_true",
        help="send every operation over a socket to an in-process HTTP "
        "server (wire latencies; rejections arrive as HTTP 429)",
    )
    bench.add_argument("--m", type=int, default=4, help="keywords per query")
    bench.add_argument(
        "--queries", type=int, default=50,
        help="distinct keyword sets the reads draw from",
    )
    bench.add_argument(
        "--operations", type=int, default=200,
        help="operations (reads + writes) in the stream",
    )
    bench.add_argument(
        "--write-ratio", type=float, default=0.0,
        help="fraction of operations that write (insert or delete); "
        "the sealed stack takes none",
    )
    bench.add_argument(
        "--arrival-rate", type=float, default=None, metavar="OPS",
        help="open loop: Poisson arrivals at this rate (operations/s), drawn "
        "up front (omitted = closed loop: one operation in flight at a time)",
    )
    bench.add_argument(
        "--algorithms", nargs="+", default=["SKECa+"], metavar="ALGO",
        help="algorithms the reads draw from (GKG, SKEC, SKECa, SKECa+, EXACT)",
    )
    bench.add_argument("--timeout", type=float, default=None)
    bench.add_argument(
        "--strict-timeouts", action="store_true",
        help="fail queries on an expired deadline (paper §6.2.3) instead of "
        "returning the best feasible incumbent as a degraded answer",
    )
    bench.add_argument(
        "--inject-fault", action="append", default=[], metavar="SPEC",
        help="arm a fault for the run, e.g. slow-scan:delay=0.2 or "
        "compaction-fail:times=2 (repeatable; see repro.testing.faults)",
    )
    bench.add_argument(
        "--wal", default=None, metavar="PATH",
        help="write-ahead-log path of the live stack",
    )
    bench.add_argument(
        "--compact-threshold", type=int, default=None, metavar="N",
        help="live stack: delta size (adds + tombstones) that compacts the "
        "engine (default 64; shards keep the engine default, as mck serve)",
    )
    bench.add_argument(
        "--shards", type=int, default=4, help="shard groups (sharded stack)",
    )
    bench.add_argument(
        "--replicas", type=int, default=1, help="read replicas per shard",
    )
    bench.add_argument(
        "--split-threshold", type=int, default=None, metavar="N",
        help="sharded stack: split any shard that grows past N objects",
    )
    bench.add_argument(
        "--kill-primary-at", type=int, default=None, metavar="OP",
        help="sharded stack: crash the largest shard's primary before "
        "operation OP (exercises automatic failover)",
    )
    bench.add_argument(
        "--output", default=None,
        help="write the JSON report here instead of stdout",
    )
    bench.add_argument(
        "--prom-out", default=None,
        help="also write Prometheus text exposition of the service metrics here",
    )
    bench.add_argument(
        "--profile", default=None, metavar="PATH",
        help="sample stacks during the operation stream and write collapsed "
        "stacks (flamegraph.pl / speedscope format) here",
    )
    bench.add_argument(
        "--slo-target", type=float, default=0.25, metavar="SECONDS",
        help="latency SLO target used for the report's slo block",
    )
    bench.set_defaults(handler=_cmd_bench)

    trace = sub.add_parser(
        "trace",
        parents=[_dataset_flags(scale=0.01), _query_flags()],
        help="trace a small served workload; write Chrome trace JSON",
    )
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
    trace.set_defaults(handler=_cmd_trace)

    explain = sub.add_parser(
        "explain",
        parents=[_dataset_flags(scale=0.01), _query_flags()],
        help="answer one query through the serving stack, print its EXPLAIN",
    )
    explain.add_argument(
        "keywords",
        nargs="*",
        help="query keywords (omitted = auto-generate a feasible query)",
    )
    explain.add_argument(
        "--m", type=int, default=4, help="keywords per auto-generated query"
    )
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


def _dataset_flags(scale: float) -> argparse.ArgumentParser:
    """The ``--dataset/--preset/--scale/--seed`` flags, as a parent parser."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--dataset", default=None, help="JSON-lines dataset path (overrides --preset)"
    )
    flags.add_argument("--preset", choices=list(_PRESETS), default="NY")
    flags.add_argument("--scale", type=float, default=scale)
    flags.add_argument("--seed", type=int, default=0)
    return flags


def _query_flags() -> argparse.ArgumentParser:
    """The ``--algorithm/--epsilon/--timeout`` flags of one-algorithm commands."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--algorithm",
        default="SKECa+",
        choices=["GKG", "SKEC", "SKECa", "SKECa+", "EXACT"],
    )
    flags.add_argument("--epsilon", type=float, default=0.01)
    flags.add_argument("--timeout", type=float, default=None)
    return flags


def _service_flags() -> argparse.ArgumentParser:
    """The QueryService flags ``serve`` and ``bench`` share, as a parent parser."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--workers", type=int, default=None)
    flags.add_argument(
        "--admission-capacity",
        type=int,
        default=1024,
        help="bounded admission queue capacity; 0 = unbounded",
    )
    flags.add_argument(
        "--shed-policy",
        default="reject-newest",
        choices=["reject-newest", "reject-oldest", "deadline-aware"],
        help="load-shedding policy applied when the admission queue fills",
    )
    flags.add_argument("--cache-size", type=int, default=1024)
    return flags


def _load_dataset(args):
    if args.dataset:
        return load_jsonl(args.dataset)
    return _PRESETS[args.preset](scale=args.scale, seed=args.seed)


def _cmd_generate(args) -> int:
    dataset = _PRESETS[args.preset](scale=args.scale, seed=args.seed)
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


def _cmd_serve(args) -> int:
    import asyncio

    from .core.engine import canonical_algorithm
    from .exceptions import QueryError
    from .live import LiveMCKEngine
    from .observability.flight import FlightRecorder
    from .server import MCKServer
    from .serving import QueryService
    from .serving.stats import MetricsRegistry

    usage_errors = [
        (args.admission_capacity < 0, "--admission-capacity must be >= 0"),
        (args.shards < 0, "--shards must be >= 0"),
        (
            args.shards and (args.live or args.wal or args.data_dir),
            "--shards manages its own live engines and durability; "
            "drop --live/--wal/--data-dir",
        ),
        (
            args.shards and args.process_algorithms,
            "--process-algorithms needs a sealed dataset; drop --shards",
        ),
        (args.wal and not args.live, "--wal needs --live"),
        (args.data_dir and not args.live, "--data-dir needs --live"),
        (args.data_dir and args.wal, "--data-dir manages its own WAL; drop --wal"),
        (
            args.live and args.process_algorithms,
            "--process-algorithms needs a sealed dataset "
            "(pool workers hold a frozen copy); drop --live",
        ),
    ]
    for failed, message in usage_errors:
        if failed:
            print(f"serve: {message}", file=sys.stderr)
            return 2

    dataset = _load_dataset(args)

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
        metrics=MetricsRegistry.default(),
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


def _cmd_bench(args) -> int:
    import json

    from . import bench

    try:
        report, prom = bench.run(_load_dataset(args), args)
    except bench.UsageError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote bench report to {args.output}")
    else:
        print(text)
    if args.prom_out:
        with open(args.prom_out, "w") as fh:
            fh.write(prom)
        print(f"wrote Prometheus exposition to {args.prom_out}")
    if args.profile:
        print(f"wrote collapsed stacks to {args.profile}")
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

    dataset = _load_dataset(args)

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
    registry = MetricsRegistry.default()
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
    dataset = _load_dataset(args)

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
            metrics=MetricsRegistry.default(),
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
