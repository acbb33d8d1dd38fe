"""High-level facade: build once, query with any algorithm.

:class:`MCKEngine` owns a :class:`~repro.core.objects.Dataset`, compiles
queries to :class:`~repro.core.query.QueryContext` objects (with a small
LRU so repeated benchmarking of one query does not rebuild the virtual
tree), and answers through :func:`run_query`, the one compile → run →
degrade → explain pipeline the live engine shares.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..exceptions import AlgorithmTimeout, InfeasibleQueryError, QueryError
from ..observability import tracer as _tracing
from ..observability.explain import build_explain, collect_trace_spans
from .common import Deadline, Instrumentation, instrumentation_span
from .exact import exact
from .gkg import gkg
from .objects import Dataset
from .query import MCKQuery, QueryContext, QueryRows, compile_query, query_rows
from .result import Group
from .skec import skec
from .skeca import DEFAULT_EPSILON, skeca
from .skecaplus import skeca_plus

__all__ = [
    "MCKEngine",
    "ALGORITHMS",
    "ShardAnswer",
    "attach_explain",
    "canonical_algorithm",
    "run_query",
    "run_shard_query",
]

#: Canonical algorithm names, as used in the paper's figures.
ALGORITHMS = ("GKG", "SKEC", "SKECa", "SKECa+", "EXACT")

#: Accepted spellings (after stripping whitespace/underscores/dashes and
#: uppercasing) mapped to the canonical paper name.
_CANONICAL = {
    "GKG": "GKG",
    "SKEC": "SKEC",
    "SKECA": "SKECa",
    "SKECA+": "SKECa+",
    "SKECAPLUS": "SKECa+",
    "EXACT": "EXACT",
}


def canonical_algorithm(algorithm: str) -> str:
    """Normalise an algorithm spelling to its canonical paper name.

    Accepts any case, surrounding whitespace, and ``-``/``_`` separators —
    ``"skeca_plus"``, ``" EXACT "`` and ``"SKECa+"`` all resolve.  Raises
    :class:`~repro.exceptions.QueryError` for unknown names.
    """
    key = str(algorithm).strip().upper().replace("_", "").replace("-", "")
    try:
        return _CANONICAL[key]
    except KeyError:
        raise QueryError(
            f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}"
        ) from None


#: ``(context, epsilon, deadline) -> Group`` runner per canonical name.
_RUNNERS: Dict[str, Callable[[QueryContext, float, Deadline], Group]] = {
    "GKG": lambda ctx, eps, dl: gkg(ctx, dl),
    "SKEC": lambda ctx, eps, dl: skec(ctx, dl),
    "SKECa": skeca,
    "SKECa+": skeca_plus,
    "EXACT": exact,
}


def run_query(
    compile_context: Callable[[Sequence[str]], QueryContext],
    keywords: Sequence[str],
    algorithm: str,
    epsilon: float,
    timeout: Optional[float],
    instrumentation: Optional[Instrumentation],
    degrade_on_timeout: bool,
    explain: bool,
    engine_kind: str,
    stats: Optional[Dict[str, float]] = None,
    compile_attrs: Optional[Callable[[QueryContext], Dict[str, Any]]] = None,
    **span_attrs,
) -> Group:
    """The one query pipeline every engine runs: compile, run, degrade, explain.

    ``compile_context(keywords)`` returns the
    :class:`~repro.core.query.QueryContext` to answer on — the sealed
    engine's LRU lookup, or the live engine's compile against a pinned
    snapshot.  ``stats`` are stamped onto the answer's ``group.stats``
    before they are merged into the instrumentation, ``span_attrs`` go
    onto the ``engine.algorithm`` span, and ``compile_attrs(context)``
    (called only when that span records) onto ``engine.context_compile``.
    See :meth:`MCKEngine.query` for the meaning of the remaining
    parameters.
    """
    canonical = canonical_algorithm(algorithm)
    runner = _RUNNERS[canonical]
    explain_tracer = None
    detach_tracer = False
    if explain:
        if instrumentation is None:
            instrumentation = Instrumentation()
        explain_tracer = instrumentation.tracer or _tracing.get_tracer()
        if explain_tracer is None:
            explain_tracer = _tracing.Tracer()
            instrumentation.tracer = explain_tracer
            detach_tracer = True
    try:
        with instrumentation_span(
            instrumentation, "engine.query", algorithm=canonical
        ) as root_span:
            compile_started = time.perf_counter()
            with instrumentation_span(
                instrumentation, "engine.context_compile"
            ) as compile_span:
                ctx = compile_context(keywords)
                recording = compile_span is not _tracing.NULL_SPAN
                if compile_attrs is not None and recording:
                    for key, value in compile_attrs(ctx).items():
                        compile_span.set_attribute(key, value)
            compile_seconds = time.perf_counter() - compile_started
            deadline = Deadline(algorithm, timeout, instrumentation)
            started = time.perf_counter()
            try:
                with instrumentation_span(
                    instrumentation,
                    "engine.algorithm",
                    algorithm=canonical,
                    **span_attrs,
                ):
                    group = runner(ctx, epsilon, deadline)
            except AlgorithmTimeout as err:
                if not degrade_on_timeout or err.incumbent is None:
                    raise
                group = err.incumbent
                group.algorithm = canonical
                group.quality = err.quality
                group.stats["degraded"] = 1.0
                if instrumentation is not None:
                    instrumentation.count("degraded")
            finally:
                elapsed = time.perf_counter() - started
                if instrumentation is not None:
                    instrumentation.timings["context_seconds"] = compile_seconds
                    instrumentation.timings["algorithm_seconds"] = elapsed
    finally:
        if detach_tracer:
            instrumentation.tracer = None
    group.elapsed_seconds = elapsed
    if stats:
        group.stats.update(stats)
    if instrumentation is not None:
        instrumentation.merge_group_stats(group.stats)
    if explain:
        attach_explain(
            group, keywords, canonical, epsilon, timeout, instrumentation,
            engine_kind, compile_seconds + elapsed, explain_tracer,
            getattr(root_span, "trace_id", None),
        )
    return group


class ShardAnswer(NamedTuple):
    """A shard's own answer (``None`` when it misses a keyword) and its
    relevant rows: the holders of any query keyword it answered on."""

    group: Optional[Group]
    rows: QueryRows


def run_shard_query(
    compile_context: Callable[[Sequence[str]], QueryContext],
    dataset,
    keywords: Sequence[str],
    algorithm: str,
    epsilon: float,
    timeout: Optional[float],
    degrade_on_timeout: bool,
    engine_kind: str,
    **run_kwargs,
) -> ShardAnswer:
    """:func:`run_query` for one shard of a scatter-gather.

    The rows come from the context the answer was compiled on, or, when
    the compile finds a keyword missing, from :func:`query_rows` over
    ``dataset``, the store ``compile_context`` reads.
    """
    contexts: List[QueryContext] = []

    def compile_and_keep(kw: Sequence[str]) -> QueryContext:
        contexts.append(compile_context(kw))
        return contexts[-1]

    try:
        group = run_query(
            compile_and_keep, keywords, algorithm, epsilon, timeout, None,
            degrade_on_timeout, False, engine_kind, **run_kwargs,
        )
    except InfeasibleQueryError:
        return ShardAnswer(None, query_rows(dataset, keywords))
    return ShardAnswer(group, contexts[-1].rows())


def attach_explain(
    group: Group,
    keywords: Sequence[str],
    algorithm: str,
    epsilon: float,
    timeout: Optional[float],
    instrumentation: Instrumentation,
    engine_kind: str,
    total_seconds: float,
    tracer=None,
    trace_id: Optional[str] = None,
) -> None:
    """Set ``group.explain_report`` from an answered query's instrumentation.

    The EXPLAIN tail of :func:`run_query`, shared with the scatter-gather
    router; spans come from ``tracer``'s buffer for ``trace_id``.
    """
    timings = dict(instrumentation.timings)
    timings.setdefault("total_seconds", total_seconds)
    group.explain_report = build_explain(
        keywords=[str(k) for k in keywords],
        algorithm=algorithm,
        epsilon=epsilon,
        timeout=timeout,
        spans=collect_trace_spans(tracer, trace_id),
        counters=instrumentation.counters,
        timings=timings,
        engine_kind=engine_kind,
        status="degraded" if group.stats.get("degraded") else "ok",
        quality=group.quality or "",
        diameter=group.diameter,
        group_size=len(group.object_ids),
        object_ids=group.object_ids,
        trace_id=trace_id or "",
    )


class MCKEngine:
    """Answer mCK queries over one dataset with the paper's algorithms.

    Example
    -------
    >>> dataset = Dataset.from_records([(0, 0, ["hotel"]), (1, 1, ["shop"])])
    >>> engine = MCKEngine(dataset)
    >>> group = engine.query(["hotel", "shop"], algorithm="EXACT")
    >>> sorted(group.object_ids)
    [0, 1]
    """

    #: Which engine flavour answers: ``"sealed"`` here, ``"live"`` on
    #: :class:`~repro.live.engine.LiveMCKEngine` and ``"scatter"`` on the
    #: shard router.  EXPLAIN reports carry it, and the serving layer
    #: reads it to decide whether the engine takes mutations.
    kind = "sealed"

    def __init__(self, dataset: Dataset, context_cache_size: int = 16):
        dataset.finalize()
        self.dataset = dataset
        self._cache_size = max(0, context_cache_size)
        self._contexts: "OrderedDict[Tuple[str, ...], QueryContext]" = OrderedDict()

    # ------------------------------------------------------------------ #

    def context(self, query) -> QueryContext:
        """Compile (or fetch from cache) a query context."""
        if not isinstance(query, MCKQuery):
            query = MCKQuery(query)
        key = query.keywords
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = compile_query(self.dataset, query)
            if self._cache_size:
                self._contexts[key] = ctx
                while len(self._contexts) > self._cache_size:
                    self._contexts.popitem(last=False)
        else:
            self._contexts.move_to_end(key)
        return ctx

    def query(
        self,
        keywords: Sequence[str],
        algorithm: str = "SKECa+",
        epsilon: float = DEFAULT_EPSILON,
        timeout: Optional[float] = None,
        instrumentation: Optional[Instrumentation] = None,
        degrade_on_timeout: bool = False,
        explain: bool = False,
    ) -> Group:
        """Answer one mCK query.

        Parameters
        ----------
        keywords:
            The m query keywords.
        algorithm:
            One of ``GKG``, ``SKEC``, ``SKECa``, ``SKECa+``, ``EXACT``.
        epsilon:
            Binary-search tolerance for the SKECa family (paper default 0.01).
        timeout:
            Optional wall-clock budget in seconds; exceeding it raises
            :class:`~repro.exceptions.AlgorithmTimeout`.
        instrumentation:
            Optional :class:`~repro.core.common.Instrumentation` sink; when
            given, the context-compile and algorithm times plus the
            algorithm's live pruning/search counters are recorded on it
            (even if the query times out).
        degrade_on_timeout:
            When True and the budget expires while the algorithm holds a
            feasible incumbent, return that incumbent as a degraded
            answer — ``stats["degraded"] == 1.0``, ``quality`` set to its
            certificate tag — instead of raising.  The default (False)
            keeps the paper's strict §6.2.3 fail-hard semantics.  A
            timeout with no incumbent raises either way.
        explain:
            When True, attach a per-query EXPLAIN report (the dict built
            by :func:`repro.observability.explain.build_explain`) to the
            returned group as ``group.explain_report``.  A private tracer
            is used when neither the instrumentation nor the process has
            one, so explain works standalone with zero setup.
        """
        return run_query(
            self.context,
            keywords,
            algorithm,
            epsilon,
            timeout,
            instrumentation,
            degrade_on_timeout,
            explain,
            self.kind,
        )
