"""A simulated worker node: a partition-local mCK solver.

Each worker owns a sub-dataset (its partition's core objects, under
their global ids), answers mCK queries on it with any of the library's
algorithms as one shard of a scatter-gather, and accounts its own compute
time so the coordinator can report a simulated makespan (the distributed
wall-clock is the slowest worker, since workers run in parallel).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.engine import MCKEngine, run_shard_query
from ..core.objects import Dataset
from ..core.query import QueryRows
from ..core.result import Group
from ..observability.logging import correlation_scope, get_logger
from ..observability.tracer import span as _trace_span
from ..testing import faults as _faults
from .partition import Partition

__all__ = ["Worker", "LocalAnswer"]

_log = get_logger("distributed.worker")


@dataclass
class LocalAnswer:
    """One worker's reply to a query round."""

    worker_id: int
    #: Group in *global* object ids, or None when locally infeasible.
    group: Optional[Group]
    compute_seconds: float
    #: The relevant rows the worker answered on.
    rows: QueryRows

    @property
    def diameter(self) -> float:
        return self.group.diameter if self.group is not None else float("inf")


class Worker:
    """Holds a partition's objects and answers queries locally."""

    def __init__(self, partition: Partition, dataset: Dataset):
        self.worker_id = partition.worker_id
        self.partition = partition
        self.local_dataset: Optional[Dataset] = None
        self.engine: Optional[MCKEngine] = None
        if partition.core_ids:
            objects = map(dataset.__getitem__, partition.core_ids)
            self.local_dataset = Dataset.seal(
                ((o.oid, o.x, o.y, o.keywords) for o in objects),
                name=f"worker-{self.worker_id}",
            )
            self.engine = MCKEngine(self.local_dataset)

    def __len__(self) -> int:
        return len(self.partition)

    def answer(
        self,
        keywords: Sequence[str],
        algorithm: str,
        epsilon: float = 0.01,
        timeout: Optional[float] = None,
        correlation_id: str = "",
    ) -> LocalAnswer:
        """Run one local query; infeasible partitions answer 'no group'.

        The answer carries the relevant rows it was computed on.
        ``correlation_id`` models the id a real RPC would carry: the worker
        re-enters the coordinator's correlation scope so its log events and
        spans join the originating query.
        """
        # Fault site: a crash here models the worker process dying before
        # (or while) computing — the coordinator sees the raised error
        # exactly as it would see a dead RPC peer.
        _faults.fire(
            "distributed.worker.answer",
            worker_id=self.worker_id,
            algorithm=algorithm,
        )
        started = time.perf_counter()
        if self.engine is None:
            return LocalAnswer(self.worker_id, None, 0.0, QueryRows.empty())
        with correlation_scope(correlation_id or None):
            with _trace_span(
                "dist.worker", worker_id=self.worker_id, algorithm=algorithm
            ):
                group, rows = run_shard_query(
                    self.engine.context, self.local_dataset, keywords,
                    algorithm, epsilon, timeout, False, self.engine.kind,
                )
        if group is None:
            _log.debug("worker.infeasible", worker_id=self.worker_id)
        else:
            group.algorithm = f"{group.algorithm}@w{self.worker_id}"
        return LocalAnswer(self.worker_id, group, time.perf_counter() - started, rows)
