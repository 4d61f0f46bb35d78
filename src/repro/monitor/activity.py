"""The run-time monitor: accumulates timelines into per-iteration records.

Plays the role of EASYPAP's ``--monitoring`` machinery: while the kernel
runs, the telemetry bus feeds it every region timeline (whichever
backend produced it); at each iteration boundary a snapshot is taken
for the Activity Monitor and Tiling windows.
"""

from __future__ import annotations

import numpy as np

from repro.core.tiling import Tile, TileGrid
from repro.monitor.records import IterationRecord
from repro.sched.timeline import TaskExec, Timeline

__all__ = ["Monitor"]


class Monitor:
    """Collects task executions and produces :class:`IterationRecord` s."""

    def __init__(self, ncpus: int, grid: TileGrid | None = None):
        self.ncpus = ncpus
        self.grid = grid
        self.records: list[IterationRecord] = []
        #: running total of idle CPU-time (the history diagram at the
        #: bottom of the Activity Monitor window)
        self.idleness_history: list[float] = []
        self._cumulated_idleness = 0.0
        self._pending: list[TaskExec] = []
        self._iter_start: float = 0.0

    # -- telemetry-bus consumer hooks ----------------------------------------
    def on_region(self, timeline: Timeline, footprints) -> None:
        self.record_timeline(timeline)

    def on_iteration_mark(self, iteration: int, now: float) -> None:
        self.end_iteration(iteration, now)

    # -- feeding ------------------------------------------------------------
    def record_timeline(self, timeline: Timeline) -> None:
        self._pending.extend(timeline.execs)

    def end_iteration(self, iteration: int, now: float) -> IterationRecord:
        """Close the current iteration, which spans [previous now, now)."""
        span = max(now - self._iter_start, 0.0)
        rows = self.grid.rows if self.grid else 0
        cols = self.grid.cols if self.grid else 0
        tiling = np.full((rows, cols), -1, dtype=np.int32)
        heat = np.zeros((rows, cols), dtype=np.float64)
        stolen = np.zeros((rows, cols), dtype=bool)
        busy = [0.0] * self.ncpus
        for e in self._pending:
            if 0 <= e.cpu < self.ncpus:
                busy[e.cpu] += e.duration
            item = e.item
            # irregular domains (quadtree refinements, wavefront tasks)
            # map several items onto one coarse cell, or none at all;
            # out-of-grid coordinates are simply not charted
            if (
                isinstance(item, Tile)
                and 0 <= item.row < rows
                and 0 <= item.col < cols
            ):
                tiling[item.row, item.col] = e.cpu
                heat[item.row, item.col] += e.duration
                if e.meta.get("stolen"):
                    stolen[item.row, item.col] = True
        rec = IterationRecord(
            iteration=iteration,
            span=span,
            busy=busy,
            tiling=tiling,
            heat=heat,
            stolen=stolen,
            ntasks=len(self._pending),
        )
        self.records.append(rec)
        self._cumulated_idleness += rec.idleness()
        self.idleness_history.append(self._cumulated_idleness)
        self._pending.clear()
        self._iter_start = now
        return rec

    # -- aggregate queries ----------------------------------------------------
    @property
    def cumulated_idleness(self) -> float:
        return self._cumulated_idleness

    def mean_load(self) -> list[float]:
        """Average per-CPU load over all recorded iterations."""
        if not self.records:
            return [0.0] * self.ncpus
        acc = [0.0] * self.ncpus
        for rec in self.records:
            for c, v in enumerate(rec.load_percent()):
                acc[c] += v
        return [v / len(self.records) for v in acc]

    def load_imbalance(self) -> float:
        """max/mean of per-CPU busy time summed over the run (>= 1)."""
        acc = [0.0] * self.ncpus
        for rec in self.records:
            for c, v in enumerate(rec.busy):
                acc[c] += v
        mean = sum(acc) / len(acc) if acc else 0.0
        return max(acc) / mean if mean > 0 else 1.0
