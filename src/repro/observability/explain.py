"""Per-query EXPLAIN: one request's plan and fate, assembled post-hoc.

An EXPLAIN report answers, for a single query, the questions the
aggregate dashboards cannot: which algorithm ran, did
the cache probe hit (and against which keyword-generation stamp), how
long did admission hold the request and under what limiter state, how
hard did the pruning work (``candidate_circles`` / ``pruned_poles``),
which snapshot epoch served a live read, and where inside the request
the time actually went (per-phase breakdown plus the span tree).

The report is a plain JSON-able dict built by :func:`build_explain` from
two inputs that already exist everywhere in the stack — the request's
span dicts and its :class:`~repro.core.common.Instrumentation` counters
— so any layer can produce one: ``MCKEngine.query(explain=True)``,
``QueryService.submit(explain=True)``, or the ``mck explain`` CLI.
:func:`render_explain` turns it into the human-readable block the CLI
prints.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["build_explain", "render_explain", "collect_trace_spans"]

#: Pruning/search counters surfaced prominently (everything else still
#: appears under ``counters``).
_KEY_COUNTERS = (
    "circle_scans",
    "binary_steps",
    "candidate_circles",
    "pruned_poles",
    "property1_skips",
    "poles_scanned",
    "anchors",
    "coalesced",
)

#: Counters that are really metadata, not work (excluded from the
#: counters table; surfaced in their own fields).
_META_COUNTERS = frozenset(
    {"epoch", "delta_size", "degraded", "alpha"}
)


def collect_trace_spans(tracer, trace_id: Optional[str]) -> List[Dict[str, Any]]:
    """All finished spans of one trace currently in a tracer's buffer."""
    if tracer is None or not trace_id:
        return []
    return [
        sp for sp in tracer.finished_spans() if sp.get("trace_id") == trace_id
    ]


def build_explain(
    *,
    keywords: Sequence[str],
    algorithm: str,
    epsilon: float,
    timeout: Optional[float] = None,
    spans: Optional[List[Dict[str, Any]]] = None,
    counters: Optional[Dict[str, float]] = None,
    timings: Optional[Dict[str, float]] = None,
    engine_kind: str = "sealed",
    status: str = "ok",
    quality: str = "",
    diameter: Optional[float] = None,
    group_size: int = 0,
    object_ids: Sequence[int] = (),
    error: Optional[str] = None,
    cache_hit: Optional[bool] = None,
    trace_id: str = "",
    correlation_id: str = "",
) -> Dict[str, Any]:
    """Assemble the EXPLAIN report dict (see module docstring).

    ``spans`` may be empty (untraced runs still get counters, timings and
    outcome); span-derived sections then degrade to ``None``/defaults.
    """
    spans = spans or []
    counters = dict(counters or {})
    timings = dict(timings or {})

    by_id = {sp["span_id"]: sp for sp in spans if sp.get("span_id")}
    tree = _span_tree(spans, by_id)
    phases = _phase_breakdown(spans, by_id)

    cache = _cache_section(spans, cache_hit)
    admission = _admission_section(spans)
    epoch = counters.get("epoch")
    delta_size = counters.get("delta_size")

    if diameter is not None and isinstance(diameter, float) and math.isnan(diameter):
        diameter = None

    work = {
        name: counters[name] for name in _KEY_COUNTERS if name in counters
    }
    other = {
        name: value
        for name, value in sorted(counters.items())
        if name not in work and name not in _META_COUNTERS
    }

    return {
        "query": {
            "keywords": [str(k) for k in keywords],
            "m": len(keywords),
            "algorithm": algorithm,
            "epsilon": epsilon,
            "timeout": timeout,
        },
        "outcome": {
            "status": status,
            "quality": quality,
            "diameter": diameter,
            "group_size": group_size,
            "object_ids": [int(o) for o in object_ids],
            "error": error,
        },
        "execution": {
            "engine": engine_kind,
            "cache": cache,
            "admission": admission,
            "epoch": int(epoch) if epoch is not None else None,
            "delta_size": int(delta_size) if delta_size is not None else None,
        },
        "counters": {"key": work, "other": other},
        "timings": {
            "context_seconds": timings.get("context_seconds"),
            "algorithm_seconds": timings.get("algorithm_seconds"),
            "total_seconds": timings.get("total_seconds"),
        },
        "phases": phases,
        "tree": tree,
        "ids": {"trace_id": trace_id or "", "correlation_id": correlation_id or ""},
        "span_count": len(spans),
    }


# --------------------------------------------------------------------- #
# Span-derived sections
# --------------------------------------------------------------------- #


def _span_tree(
    spans: List[Dict[str, Any]], by_id: Dict[str, Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Nested ``{name, duration_ms, attributes, children}`` span forest.

    A span whose parent is missing from the set (e.g. the tracer's buffer
    rotated, or a worker root pinned to the request's trace id) becomes a
    root — the forest is always complete over the given spans.
    """
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for sp in spans:
        parent = sp.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(sp)
    for bucket in children.values():
        bucket.sort(key=lambda s: s.get("start_ns", 0))

    def node(sp: Dict[str, Any]) -> Dict[str, Any]:
        duration_ms = max(0, sp.get("end_ns", 0) - sp.get("start_ns", 0)) / 1e6
        return {
            "name": sp.get("name", "?"),
            "duration_ms": duration_ms,
            "pid": sp.get("pid"),
            "attributes": dict(sp.get("attributes", {})),
            "children": [
                node(child) for child in children.get(sp.get("span_id"), [])
            ],
        }

    return [node(sp) for sp in children.get(None, [])]


def _phase_breakdown(
    spans: List[Dict[str, Any]], by_id: Dict[str, Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Aggregate spans by name: count, total time, self time.

    Self time subtracts only *direct* children, so the sum of self times
    over all phases equals the root wall time (no double counting).
    """
    child_total_ns: Dict[str, int] = {}
    for sp in spans:
        parent = sp.get("parent_id")
        if parent and parent in by_id:
            dur = max(0, sp.get("end_ns", 0) - sp.get("start_ns", 0))
            child_total_ns[parent] = child_total_ns.get(parent, 0) + dur
    agg: Dict[str, Dict[str, float]] = {}
    for sp in spans:
        name = sp.get("name", "?")
        dur = max(0, sp.get("end_ns", 0) - sp.get("start_ns", 0))
        self_ns = max(0, dur - child_total_ns.get(sp.get("span_id", ""), 0))
        entry = agg.setdefault(
            name, {"count": 0, "total_ns": 0, "self_ns": 0, "max_ns": 0}
        )
        entry["count"] += 1
        entry["total_ns"] += dur
        entry["self_ns"] += self_ns
        entry["max_ns"] = max(entry["max_ns"], dur)
    return [
        {
            "name": name,
            "count": int(entry["count"]),
            "total_seconds": entry["total_ns"] / 1e9,
            "self_seconds": entry["self_ns"] / 1e9,
            "max_seconds": entry["max_ns"] / 1e9,
        }
        for name, entry in sorted(
            agg.items(), key=lambda kv: -kv[1]["total_ns"]
        )
    ]


def _cache_section(
    spans: List[Dict[str, Any]], cache_hit: Optional[bool]
) -> Dict[str, Any]:
    probe = _first_span(spans, "serve.cache_probe")
    if probe is None:
        outcome = (
            "bypass" if cache_hit is None else ("hit" if cache_hit else "miss")
        )
        return {"outcome": outcome, "stamp": None}
    attrs = probe.get("attributes", {})
    hit = attrs.get("hit")
    if cache_hit is not None:
        hit = cache_hit
    return {
        "outcome": "hit" if hit else "miss",
        "stamp": attrs.get("stamp"),
    }


def _admission_section(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    queue = _first_span(spans, "serve.queue")
    admission = _first_span(spans, "serve.admission")
    rejected = _first_span(spans, "serve.rejected")
    wait = None
    if queue is not None:
        wait = max(0, queue.get("end_ns", 0) - queue.get("start_ns", 0)) / 1e9
    attrs = (admission or rejected or {}).get("attributes", {})
    return {
        "wait_seconds": wait,
        "policy": attrs.get("policy"),
        "queue_depth": attrs.get("queue_depth"),
        "concurrency_limit": attrs.get("concurrency_limit"),
        "rejected_reason": attrs.get("reason") if rejected is not None else None,
    }


def _first_span(
    spans: List[Dict[str, Any]], name: str
) -> Optional[Dict[str, Any]]:
    for sp in spans:
        if sp.get("name") == name:
            return sp
    return None


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #

#: Tree-rendering caps: children per node / total tree lines.
_MAX_CHILDREN = 8
_MAX_TREE_LINES = 48


def render_explain(report: Dict[str, Any]) -> str:
    """Human-readable EXPLAIN block (the ``mck explain`` output)."""
    q = report["query"]
    o = report["outcome"]
    x = report["execution"]
    t = report["timings"]
    ids = report["ids"]
    lines: List[str] = []
    head = f"EXPLAIN {ids['correlation_id'] or '(no correlation id)'}"
    if ids["trace_id"]:
        head += f"  trace={ids['trace_id']}"
    lines.append(head)
    lines.append(
        f"query      : {', '.join(q['keywords'])} (m={q['m']})  "
        f"algorithm={q['algorithm']}  epsilon={q['epsilon']:g}"
        + (f"  timeout={q['timeout']:g}s" if q["timeout"] else "")
    )
    outcome_bits = [o["status"]]
    if o["quality"]:
        outcome_bits.append(f"quality={o['quality']}")
    if o["diameter"] is not None:
        outcome_bits.append(f"diameter={o['diameter']:.6g}")
    if o["group_size"]:
        ids_text = ", ".join(str(i) for i in o["object_ids"][:8])
        if len(o["object_ids"]) > 8:
            ids_text += ", ..."
        outcome_bits.append(f"group={o['group_size']} [{ids_text}]")
    if o["error"]:
        outcome_bits.append(f"error={o['error']}")
    lines.append(f"outcome    : {'  '.join(outcome_bits)}")
    engine_text = x["engine"]
    if x["epoch"] is not None:
        engine_text += f" (epoch {x['epoch']}"
        if x["delta_size"] is not None:
            engine_text += f", delta {x['delta_size']}"
        engine_text += ")"
    lines.append(f"engine     : {engine_text}")
    cache = x["cache"]
    cache_text = cache["outcome"]
    if cache["stamp"] is not None:
        cache_text += f" (stamp {cache['stamp']})"
    lines.append(f"cache      : {cache_text}")
    adm = x["admission"]
    adm_bits = []
    if adm["wait_seconds"] is not None:
        adm_bits.append(f"waited {adm['wait_seconds'] * 1000:.2f} ms")
    if adm["policy"]:
        adm_bits.append(f"policy={adm['policy']}")
    if adm["queue_depth"] is not None:
        adm_bits.append(f"depth={adm['queue_depth']}")
    if adm["concurrency_limit"] is not None:
        adm_bits.append(f"limit={adm['concurrency_limit']}")
    if adm["rejected_reason"]:
        adm_bits.append(f"rejected={adm['rejected_reason']}")
    if not adm_bits:
        # A cache hit is answered before admission; nothing queued it.
        hit = cache["outcome"] == "hit"
        adm_bits.append("bypassed (cache hit)" if hit else "(untracked)")
    lines.append(f"admission  : {'  '.join(adm_bits)}")
    timing_bits = []
    for label, key in (
        ("total", "total_seconds"),
        ("context", "context_seconds"),
        ("algorithm", "algorithm_seconds"),
    ):
        value = t.get(key)
        if value is not None:
            timing_bits.append(f"{label}={value * 1000:.2f}ms")
    if timing_bits:
        lines.append(f"timings    : {'  '.join(timing_bits)}")
    key_counters = report["counters"]["key"]
    if key_counters:
        counter_text = "  ".join(
            f"{name}={_fmt_count(value)}" for name, value in key_counters.items()
        )
        lines.append(f"counters   : {counter_text}")
    other = report["counters"]["other"]
    if other:
        other_text = "  ".join(
            f"{name}={_fmt_count(value)}" for name, value in sorted(other.items())
        )
        lines.append(f"             {other_text}")
    if report["tree"]:
        lines.append("phases     :")
        budget = [_MAX_TREE_LINES]
        for root in report["tree"]:
            _render_node(root, 0, lines, budget)
    elif report["phases"]:
        lines.append("phases     : (flat; span parents unavailable)")
        for phase in report["phases"][:12]:
            lines.append(
                f"  {phase['name']:<32s} x{phase['count']:<4d} "
                f"{phase['total_seconds'] * 1000:9.2f} ms"
            )
    return "\n".join(lines)


def _render_node(
    node: Dict[str, Any], depth: int, lines: List[str], budget: List[int]
) -> None:
    if budget[0] <= 0:
        return
    budget[0] -= 1
    indent = "  " * (depth + 1)
    label = f"{indent}{node['name']}"
    pid = node.get("pid")
    attrs = node.get("attributes", {})
    suffix = ""
    if attrs.get("error"):
        suffix += f"  error={attrs['error']}"
    lines.append(f"{label:<44s} {node['duration_ms']:9.2f} ms{suffix}")
    children = node.get("children", [])
    shown = sorted(children, key=lambda c: -c["duration_ms"])[:_MAX_CHILDREN]
    # Re-sort the survivors back into start order for readability.
    shown_set = {id(c) for c in shown}
    ordered = [c for c in children if id(c) in shown_set]
    for child in ordered:
        _render_node(child, depth + 1, lines, budget)
    hidden = len(children) - len(ordered)
    if hidden > 0 and budget[0] > 0:
        budget[0] -= 1
        lines.append(f"{'  ' * (depth + 2)}... (+{hidden} more)")


def _fmt_count(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:g}"
