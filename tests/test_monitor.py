"""Tests for the Monitor and IterationRecord."""

import numpy as np
import pytest

from repro.core.tiling import TileGrid
from repro.monitor.activity import Monitor
from repro.monitor.records import IterationRecord
from repro.sched.timeline import Timeline


def timeline(rows, ncpus, stolen=()):
    """A timeline of ``(item, cpu, start, end)`` rows, one item each;
    ``stolen`` names row positions."""
    items, cpus, starts, ends = zip(*rows)
    return Timeline(items, range(len(items)), cpus, starts, ends, ncpus=ncpus,
                    meta={"iteration": 1}, stolen=set(stolen))


def grid_timeline(grid, assignments, start=0.0, dur=1.0, stolen_idx=()):
    """assignments: list of (tile_index, cpu)."""
    rows = [(grid[tile_i], cpu, start + k * dur, start + (k + 1) * dur)
            for k, (tile_i, cpu) in enumerate(assignments)]
    stolen = [k for k, (tile_i, _) in enumerate(assignments) if tile_i in stolen_idx]
    return timeline(rows, 4, stolen)


class TestMonitor:
    def test_end_iteration_snapshot(self):
        grid = TileGrid(32, 16)
        mon = Monitor(4, grid)
        tl = grid_timeline(grid, [(0, 0), (1, 1), (2, 2), (3, 3)])
        mon.record_timeline(tl)
        rec = mon.end_iteration(1, now=4.0)
        assert rec.iteration == 1
        assert rec.span == 4.0
        assert rec.ntasks == 4
        assert rec.tiling.tolist() == [[0, 1], [2, 3]]

    def test_uncomputed_tiles_marked_minus_one(self):
        grid = TileGrid(32, 16)
        mon = Monitor(4, grid)
        mon.record_timeline(grid_timeline(grid, [(0, 0)]))
        rec = mon.end_iteration(1, now=1.0)
        assert rec.tiling[0, 0] == 0
        assert (rec.tiling == -1).sum() == 3
        assert rec.computed_fraction() == pytest.approx(0.25)

    def test_heat_accumulates_duration(self):
        grid = TileGrid(32, 16)
        mon = Monitor(4, grid)
        mon.record_timeline(grid_timeline(grid, [(0, 0)], dur=2.5))
        rec = mon.end_iteration(1, now=2.5)
        assert rec.heat[0, 0] == pytest.approx(2.5)
        assert rec.heat[1, 1] == 0.0

    def test_stolen_marked(self):
        grid = TileGrid(32, 16)
        mon = Monitor(4, grid)
        mon.record_timeline(grid_timeline(grid, [(0, 0), (1, 1)], stolen_idx={1}))
        rec = mon.end_iteration(1, now=2.0)
        assert not rec.stolen[0, 0]
        assert rec.stolen[0, 1]

    def test_idleness_history_is_cumulative(self):
        grid = TileGrid(32, 16)
        mon = Monitor(2, grid)
        mon.record_timeline(timeline([(grid[0], 0, 0.0, 1.0)], 2))
        mon.end_iteration(1, now=1.0)  # cpu1 idle 1.0
        mon.record_timeline(timeline([(grid[1], 0, 1.0, 2.0)], 2))
        mon.end_iteration(2, now=2.0)  # cpu1 idle again
        assert mon.idleness_history == pytest.approx([1.0, 2.0])
        assert mon.cumulated_idleness == pytest.approx(2.0)

    def test_spans_are_consecutive(self):
        grid = TileGrid(32, 16)
        mon = Monitor(2, grid)
        mon.end_iteration(1, now=3.0)
        rec = mon.end_iteration(2, now=5.0)
        assert rec.span == pytest.approx(2.0)

    def test_mean_load_and_imbalance(self):
        grid = TileGrid(32, 16)
        mon = Monitor(2, grid)
        tl = timeline([(grid[0], 0, 0, 3.0), (grid[1], 1, 0, 1.0)], 2)
        mon.record_timeline(tl)
        mon.end_iteration(1, now=3.0)
        assert mon.mean_load() == pytest.approx([100.0, 100.0 / 3])
        assert mon.load_imbalance() == pytest.approx(1.5)

    def test_gridless_monitor(self):
        mon = Monitor(2, grid=None)
        mon.record_timeline(timeline([("x", 0, 0, 1.0)], 2))
        rec = mon.end_iteration(1, now=1.0)
        assert rec.tiling.size == 0
        assert rec.busy[0] == 1.0


class TestIterationRecord:
    def _rec(self, span=2.0, busy=(2.0, 1.0)):
        return IterationRecord(
            iteration=1,
            span=span,
            busy=list(busy),
            tiling=np.array([[0, 1]]),
            heat=np.zeros((1, 2)),
            stolen=np.zeros((1, 2), dtype=bool),
        )

    def test_load_percent_capped_at_100(self):
        rec = self._rec(span=1.0, busy=(1.5, 0.5))
        assert rec.load_percent() == [100.0, 50.0]

    def test_zero_span(self):
        rec = self._rec(span=0.0)
        assert rec.load_percent() == [0.0, 0.0]

    def test_idleness(self):
        rec = self._rec(span=2.0, busy=(2.0, 1.0))
        assert rec.idleness() == pytest.approx(1.0)

    def test_cpu_tiles_mask(self):
        rec = self._rec()
        assert rec.cpu_tiles(0).tolist() == [[True, False]]
