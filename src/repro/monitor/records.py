"""Per-iteration monitoring records.

One :class:`IterationRecord` is the data content of EASYPAP's two
monitoring windows for one animation frame: the Activity Monitor
(per-CPU load + cumulated idleness history) and the Tiling window
(tile → thread map, or task-duration heat map).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sched.timeline import idleness

__all__ = ["IterationRecord"]


@dataclass
class IterationRecord:
    """Monitoring snapshot for one iteration.

    Attributes
    ----------
    iteration:
        1-based iteration number.
    span:
        Duration of the iteration (virtual seconds).
    busy:
        Per-CPU time spent in tile computations during the iteration.
    tiling:
        ``(rows, cols)`` int array mapping each tile to the CPU that
        computed it; ``-1`` marks tiles not computed this iteration
        (the lazy Game-of-Life case, paper Fig. 13).
    heat:
        ``(rows, cols)`` float array of per-tile computation time
        (the heat-map mode, paper Fig. 9).
    stolen:
        ``(rows, cols)`` bool array marking tiles executed by a thief
        (nonmonotonic:dynamic).
    ntasks:
        Number of task executions recorded.
    """

    iteration: int
    span: float
    busy: list[float]
    tiling: np.ndarray
    heat: np.ndarray
    stolen: np.ndarray
    ntasks: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def ncpus(self) -> int:
        return len(self.busy)

    def load_percent(self) -> list[float]:
        """Per-CPU load = busy / span (the Activity Monitor gauges)."""
        if self.span <= 0:
            return [0.0] * self.ncpus
        return [min(100.0 * b / self.span, 100.0) for b in self.busy]

    def idleness(self) -> float:
        """Total idle CPU-time during the iteration."""
        return idleness(self.busy, self.span)

    def computed_fraction(self) -> float:
        """Fraction of tiles computed this iteration (lazy kernels < 1)."""
        total = self.tiling.size
        return float((self.tiling >= 0).sum()) / total if total else 0.0

    def cpu_tiles(self, cpu: int) -> np.ndarray:
        """Boolean mask of tiles computed by ``cpu`` (coverage map)."""
        return self.tiling == cpu
