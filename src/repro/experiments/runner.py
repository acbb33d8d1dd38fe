"""Timed execution of algorithm suites over query workloads.

:class:`ExperimentRunner` is the workhorse behind every reproduced figure:
it compiles each query once, runs each requested algorithm under an
optional wall-clock threshold (converting
:class:`~repro.exceptions.AlgorithmTimeout` into a failed sample, exactly
the paper's §6.2.3 censoring), and attaches the exact optimal diameter as
the approximation-ratio reference.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..baselines.asgk import asgk, asgka
from ..baselines.brtree_method import brtree_method
from ..baselines.bruteforce import brute_force_optimal
from ..baselines.virbr import virbr
from ..core.common import Deadline, Instrumentation
from ..core.engine import MCKEngine
from ..core.exact import exact
from ..core.gkg import gkg
from ..core.objects import Dataset
from ..core.query import MCKQuery, QueryContext
from ..core.result import Group
from ..core.skec import skec
from ..core.skeca import skeca
from ..core.skecaplus import skeca_plus
from ..exceptions import AlgorithmTimeout, QueryError
from ..observability.logging import correlation_scope, get_logger
from .metrics import QueryMeasurement

__all__ = ["ExperimentRunner", "ALL_ALGORITHMS"]

_log = get_logger("experiments")

#: Every runnable algorithm name, paper methods plus baselines.
ALL_ALGORITHMS = (
    "GKG",
    "SKEC",
    "SKECa",
    "SKECa+",
    "EXACT",
    "VirbR",
    "bR",
    "ASGK",
    "ASGKa",
    "BRUTE",
)


class ExperimentRunner:
    """Run algorithm suites over query sets with timeouts and references."""

    def __init__(
        self,
        dataset: Dataset,
        epsilon: float = 0.01,
        reference_algorithm: str = "EXACT",
        reference_timeout: Optional[float] = None,
        metrics=None,
    ):
        self.dataset = dataset
        self.engine = MCKEngine(dataset)
        self.epsilon = epsilon
        self.reference_algorithm = reference_algorithm
        self.reference_timeout = reference_timeout
        if metrics is None:
            # Shared process-wide registry so figure functions that build
            # their own runners still report through one sink (the
            # benchmark suite and `mck bench` dump it as JSON).
            from ..serving.stats import MetricsRegistry

            metrics = MetricsRegistry.default()
        self.metrics = metrics
        self._dispatch: Dict[str, Callable[[QueryContext, Deadline], Group]] = {
            "GKG": lambda ctx, dl: gkg(ctx, dl),
            "SKEC": lambda ctx, dl: skec(ctx, dl),
            "SKECA": lambda ctx, dl: skeca(ctx, self.epsilon, dl),
            "SKECA+": lambda ctx, dl: skeca_plus(ctx, self.epsilon, dl),
            "EXACT": lambda ctx, dl: exact(ctx, self.epsilon, dl),
            "VIRBR": lambda ctx, dl: virbr(ctx, dl),
            "BR": lambda ctx, dl: brtree_method(ctx, dl),
            "ASGK": lambda ctx, dl: asgk(ctx, dl),
            "ASGKA": lambda ctx, dl: asgka(ctx, dl),
            "BRUTE": lambda ctx, dl: brute_force_optimal(ctx, dl),
        }

    # ------------------------------------------------------------------ #

    def run_suite(
        self,
        algorithms: Sequence[str],
        queries: Iterable,
        timeout: Optional[float] = None,
        with_reference: bool = True,
    ) -> List[QueryMeasurement]:
        """Run every algorithm on every query.

        ``timeout`` may be a scalar applied to all algorithms or a mapping
        from algorithm name to budget.  When ``with_reference`` is set, the
        exact optimum is computed once per query (without counting towards
        any algorithm's runtime) so ratios are available.
        """
        measurements: List[QueryMeasurement] = []
        for query in queries:
            keywords = query.keywords if isinstance(query, MCKQuery) else tuple(query)
            ctx = self.engine.context(keywords)
            optimal = self._reference_diameter(ctx) if with_reference else None
            for algorithm in algorithms:
                budget = self._budget_for(algorithm, timeout)
                measurements.append(
                    self.run_single(ctx, algorithm, budget, optimal)
                )
        return measurements

    def run_single(
        self,
        ctx: QueryContext,
        algorithm: str,
        timeout: Optional[float] = None,
        optimal_diameter: Optional[float] = None,
    ) -> QueryMeasurement:
        """One timed (algorithm, query) sample."""
        runner = self._runner_for(algorithm)
        # Instrumentation without an explicit tracer falls back to the
        # process-global one, so `mck trace` / set_tracer() also cover
        # experiment suites.
        instr = Instrumentation()
        deadline = Deadline(algorithm, timeout, instr)
        with correlation_scope():
            with instr.span(
                "experiment.sample",
                algorithm=algorithm,
                m=len(ctx.query.keywords),
            ):
                started = time.perf_counter()
                try:
                    group = runner(ctx, deadline)
                    elapsed = time.perf_counter() - started
                    instr.merge_group_stats(group.stats)
                    measurement = QueryMeasurement(
                        algorithm=algorithm,
                        query_keywords=ctx.query.keywords,
                        elapsed_seconds=elapsed,
                        diameter=group.diameter,
                        success=True,
                        optimal_diameter=optimal_diameter,
                    )
                except AlgorithmTimeout:
                    elapsed = time.perf_counter() - started
                    measurement = QueryMeasurement(
                        algorithm=algorithm,
                        query_keywords=ctx.query.keywords,
                        elapsed_seconds=elapsed,
                        diameter=float("inf"),
                        success=False,
                        optimal_diameter=optimal_diameter,
                    )
                    _log.warning(
                        "sample.timeout",
                        algorithm=algorithm,
                        keywords=list(ctx.query.keywords),
                        timeout=timeout,
                    )
            _log.debug(
                "sample.done",
                algorithm=algorithm,
                elapsed_seconds=elapsed,
                success=measurement.success,
            )
        self._record_metrics(measurement, instr)
        return measurement

    # ------------------------------------------------------------------ #

    def _record_metrics(self, m: QueryMeasurement, instr: Instrumentation) -> None:
        from ..serving.stats import QueryStats

        self.metrics.record(
            QueryStats(
                keywords=tuple(m.query_keywords),
                algorithm=m.algorithm,
                epsilon=self.epsilon,
                context_seconds=instr.timings.get("context_seconds", 0.0),
                algorithm_seconds=m.elapsed_seconds,
                total_seconds=m.elapsed_seconds,
                success=m.success,
                diameter=m.diameter if m.success else float("nan"),
                counters=dict(instr.counters),
            )
        )

    def _runner_for(self, algorithm: str) -> Callable:
        key = algorithm.strip().upper().replace("-", "").replace("_", "")
        if key == "SKECAPLUS":
            key = "SKECA+"
        try:
            return self._dispatch[key]
        except KeyError:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; pick from {ALL_ALGORITHMS}"
            ) from None

    @staticmethod
    def _budget_for(
        algorithm: str, timeout: Union[None, float, Dict[str, float]]
    ) -> Optional[float]:
        if timeout is None or isinstance(timeout, (int, float)):
            return timeout
        return timeout.get(algorithm)

    def _reference_diameter(self, ctx: QueryContext) -> Optional[float]:
        """Exact optimum for ratio computation, or None when it times out."""
        sample = self.run_single(
            ctx, self.reference_algorithm, self.reference_timeout
        )
        return sample.diameter if sample.success else None
