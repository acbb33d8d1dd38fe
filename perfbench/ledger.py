"""Per-layer ledger of a traced run: where a read's time goes.

The program's existing :class:`~repro.observability.tracer.Tracer` is
attached through public parameters; a sink keeps the spans at the layer
boundaries (serving, engine, index, live) as compact tuples.  The
benchmark adds its own clocks around each call it makes: the client call
(HTTP or in-process) and, through :class:`common.TimedEngine`, the call
into the engine layer.  :meth:`Ledger.layers` turns both into the
per-layer metrics and a reconciliation of outside clocks against spans.
"""

from __future__ import annotations

import bisect
import os
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from common import mean, median, percentile

KEEP = frozenset(
    {
        "serve.request",
        "serve.queue",
        "serve.execute",
        "serve.cache_probe",
        "serve.cache_store",
        "engine.query",
        "engine.context_compile",
        "engine.algorithm",
        "index.pole_cache_build",
        "index.cover_radii_columnar",
        "live.apply",
        "live.compact",
        "live.checkpoint",
    }
)

#: Span names whose duration is charged to ``index.*`` per executed read.
INDEX_SPANS = {
    "index.pole_cache_build": "index.pole_cache_ms",
    "index.cover_radii_columnar": "index.cover_radii_ms",
}

ALGORITHM_KEYS = {"GKG": "gkg", "SKECa+": "skecaplus", "EXACT": "exact"}

#: Stated tolerance: an outside clock and the span for the same call
#: must agree to this share of the call's duration (median over reads).
RECONCILE_TOLERANCE = 0.05

_NS_PER_MS = 1e6


class _Span:
    __slots__ = ("name", "trace", "sid", "parent", "start", "end", "pid", "algo")

    def __init__(self, record: dict):
        self.name = record["name"]
        self.trace = record["trace_id"]
        self.sid = record["span_id"]
        self.parent = record["parent_id"]
        self.start = record["start_ns"]
        self.end = record["end_ns"]
        self.pid = record["pid"]
        self.algo = (record.get("attributes") or {}).get("algorithm")

    @property
    def ms(self) -> float:
        return (self.end - self.start) / _NS_PER_MS


def _covered(start: int, end: int, children: Sequence[_Span]) -> int:
    """Nanoseconds of ``[start, end]`` covered by the children's union."""
    spans = sorted(
        (max(c.start, start), min(c.end, end)) for c in children if c.end > start
    )
    total, cursor = 0, start
    for lo, hi in spans:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Ledger:
    """Collects spans and outside timings for one traced phase."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.pid = os.getpid()
        self.spans: List[_Span] = []
        #: trace id -> (start_ns, end_ns) of the benchmark's engine call.
        self.engine_calls: Dict[str, Tuple[int, int]] = {}
        self._seen = 0
        tracer.add_sink(self._sink)

    def close(self) -> None:
        self.tracer.remove_sink(self._sink)

    def _sink(self, record: dict) -> None:
        self._seen += 1
        if self._seen % 20000 == 0:
            # Sinks see every span; the tracer's own bounded buffer is not
            # needed and would start dropping ingested worker spans.
            self.tracer.reset()
        if record["name"] in KEEP:
            self.spans.append(_Span(record))

    def on_engine_call(self, trace_id: Optional[str], start: int, end: int) -> None:
        if trace_id:
            self.engine_calls[trace_id] = (start, end)

    # ------------------------------------------------------------------ #

    def layers(
        self,
        reads: Sequence[Tuple[str, float]],
        over_http: bool,
    ) -> Dict[str, float]:
        """Per-layer metrics from ``(trace_id, client latency ms)`` reads."""
        by_trace: Dict[str, List[_Span]] = defaultdict(list)
        for sp in self.spans:
            by_trace[sp.trace].append(sp)
        out: Dict[str, float] = {}

        http_tax, self_ms, queue, pool_tax, service_err = [], [], [], [], []
        executes: List[Tuple[int, int]] = []
        executed_reads = 0
        for trace_id, client_ms in reads:
            spans = by_trace.get(trace_id, ())
            req = next(
                (s for s in spans if s.name == "serve.request" and s.pid == self.pid),
                None,
            )
            if req is None:
                continue
            q = next((s for s in spans if s.name == "serve.queue"), None)
            began = q.start if q is not None else req.start
            served_ms = (req.end - began) / _NS_PER_MS
            if q is not None:
                queue.append(q.ms)
            if over_http:
                http_tax.append(client_ms - served_ms)
            else:
                service_err.append(abs(client_ms - served_ms) / client_ms)
            children = [s for s in spans if s.parent == req.sid]
            self_ms.append(
                (req.end - req.start - _covered(req.start, req.end, children))
                / _NS_PER_MS
            )
            ex = next((s for s in children if s.name == "serve.execute"), None)
            if ex is None:
                continue
            executed_reads += 1
            executes.append((ex.start, ex.end))
            worker = next(
                (s for s in spans if s.name == "engine.query" and s.pid != self.pid),
                None,
            )
            if worker is not None:
                pool_tax.append(ex.ms - worker.ms)

        out["server.http_tax_ms"] = median(http_tax)
        out["serving.self_ms"] = median(self_ms)
        out["serving.queue_wait_p99_ms"] = percentile(queue, 99.0)
        out["serving.pool_tax_ms"] = median(pool_tax)

        def durations(name: str) -> List[float]:
            return [s.ms for s in self.spans if s.name == name]

        out["engine.context_compile_ms"] = median(durations("engine.context_compile"))
        for span_name, metric in INDEX_SPANS.items():
            total = sum(durations(span_name))
            out[metric] = total / executed_reads if executed_reads else 0.0
        for algo, key in ALGORITHM_KEYS.items():
            out[f"core.algorithm_ms.{key}"] = median(
                [
                    s.ms
                    for s in self.spans
                    if s.name == "engine.algorithm" and s.algo == algo
                ]
            )
        out["live.apply_ms"] = median(durations("live.apply"))
        out["live.compact_ms"] = mean(durations("live.compact"))
        out["live.checkpoint_ms"] = mean(durations("live.checkpoint"))

        # Scatter-gather: shard engine calls run on the router's threads as
        # root spans of their own; one client means each lies inside
        # exactly one request's serve.execute window.
        read_traces = {t for t, _ in reads}
        shard_calls = [
            s
            for s in self.spans
            if s.name == "engine.query"
            and s.parent is None
            and s.pid == self.pid
            and s.trace not in read_traces
        ]
        fanout_tax, shard_ms = [], []
        if shard_calls and executes:
            executes.sort()
            starts = [e[0] for e in executes]
            inside: List[List[_Span]] = [[] for _ in executes]
            for s in shard_calls:
                i = bisect.bisect_right(starts, s.start) - 1
                if i >= 0 and s.end <= executes[i][1]:
                    inside[i].append(s)
                    shard_ms.append(s.ms)
            # Router time with no shard computing: scatter, gather, merge.
            fanout_tax = [
                (end - start - _covered(start, end, calls)) / _NS_PER_MS
                for (start, end), calls in zip(executes, inside)
                if calls
            ]
        out["replication.fanout_tax_ms"] = median(fanout_tax)
        out["replication.shard_query_ms"] = median(shard_ms)

        # Reconciliation: the benchmark's clock around its call into the
        # engine layer against the span that layer records for that call
        # (engine.query; serve.execute for the router, whose fan-out
        # records no span of its own).
        engine_err = []
        for trace_id, (start, end) in self.engine_calls.items():
            spans = by_trace.get(trace_id, ())
            inner = next(
                (s for s in spans if s.name == "engine.query" and s.pid == self.pid),
                None,
            ) or next((s for s in spans if s.name == "serve.execute"), None)
            if inner is not None and end > start:
                engine_err.append(abs((end - start) - (inner.end - inner.start)) / (end - start))
        out["observability.reconcile_err_frac"] = max(
            median(engine_err), median(service_err)
        )
        return out
