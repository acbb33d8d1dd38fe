"""Grid partitioning for the simulated distributed setting (paper §8).

:class:`GridPartitioner` assigns every object to the cell of a
:class:`~repro.core.scatter.Tiling` grid that owns it, one cell per
worker; the shard router starts from the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.objects import Dataset
from ..core.scatter import Tiling
from ..exceptions import ExperimentError

__all__ = ["GridPartitioner", "Partition"]


@dataclass
class Partition:
    """One worker's share of the data."""

    worker_id: int
    #: Core rectangle (x1, y1, x2, y2): this worker owns objects inside it.
    core: Tuple[float, float, float, float]
    #: Object ids inside the core.
    core_ids: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.core_ids)


class GridPartitioner:
    """Tile a dataset into a square grid of cells, one per worker."""

    def __init__(self, dataset: Dataset, n_workers: int):
        if n_workers < 1:
            raise ExperimentError("need at least one worker")
        self.dataset = dataset
        coords = dataset.coords
        if len(coords) == 0:
            raise ExperimentError("cannot partition an empty dataset")
        self.tiling = Tiling.grid(coords[:, 0], coords[:, 1], n_workers)

    @property
    def n_workers(self) -> int:
        return len(self.tiling.regions)

    def worker_for(self, x: float, y: float) -> int:
        """The worker id owning a point (row-major over the grid)."""
        return self.tiling.route(x, y)

    def partitions(self) -> List[Partition]:
        """Assign every object to the one core cell that owns it."""
        parts = [
            Partition(worker_id=i, core=(r.x1, r.y1, r.x2, r.y2))
            for i, r in enumerate(self.tiling.regions)
        ]
        owners = self.tiling.owners(self.dataset.coords).tolist()
        for oid, owner in zip(self.dataset.columns.oids.tolist(), owners):
            parts[owner].core_ids.append(oid)
        return parts
