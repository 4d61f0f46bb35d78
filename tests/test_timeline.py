"""Tests for the Timeline data model and the per-CPU accounting helpers."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.monitor.records import IterationRecord
from repro.sched.timeline import TaskExec, Timeline, cpu_busy, idleness, imbalance


def mk(item, cpu, start, end):
    return (item, cpu, start, end)


def record(span, busy):
    return IterationRecord(1, span, busy, np.zeros((0, 0), np.int32),
                           np.zeros((0, 0)), np.zeros((0, 0), bool))


def timeline(rows, ncpus=None, **kw):
    """A timeline of ``(item, cpu, start, end)`` rows, one item each."""
    items, cpus, starts, ends = zip(*rows) if rows else ((),) * 4
    return Timeline(items, range(len(items)), cpus, starts, ends, ncpus=ncpus, **kw)


class TestBasics:
    def test_empty(self):
        tl = Timeline()
        assert tl.makespan == 0.0
        assert len(tl) == 0
        assert tl.busy_per_cpu() == []

    def test_ncpus_inferred(self):
        tl = timeline([mk("a", 2, 0, 1)])
        assert tl.ncpus == 3

    def test_makespan_and_busy(self):
        tl = timeline([mk("a", 0, 0, 2), mk("b", 1, 0, 1), mk("c", 1, 1, 4)])
        assert tl.makespan == 4.0
        assert tl.busy_per_cpu() == [2.0, 4.0]

    def test_duration(self):
        assert TaskExec("x", 0, 1.5, 4.0).duration == 2.5

    def test_columns_of_one_length(self):
        with pytest.raises(SimulationError, match="length"):
            Timeline(["a"], [0], [0], [0.0], [])


class TestRows:
    def test_rows_index_the_region_items(self):
        tl = Timeline(["a", "b", "c"], [2, 0], [1, 0], [0.0, 0.0], [1.0, 2.0],
                      meta={"region": 4})
        assert [(e.item, e.cpu, e.meta) for e in tl] == [
            ("c", 1, {"region": 4, "index": 2}),
            ("a", 0, {"region": 4, "index": 0}),
        ]

    def test_sparse_columns_in_order(self):
        tl = Timeline("ab", [1, 0], [0, 0], [0.0, 1.0], [1.0, 2.0], meta={"kind": "tile"},
                      stolen={1}, preds=[[], {0}], columns={"work": [5, 6]})
        assert [list(e.meta.items()) for e in tl] == [
            [("kind", "tile"), ("index", 1), ("stolen", True), ("tid", 1),
             ("preds", [0]), ("work", 6)],
            [("kind", "tile"), ("index", 0), ("tid", 0), ("preds", []), ("work", 5)],
        ]

    def test_task_rows_carry_node_meta_instead_of_index(self):
        nodes = [{"work": 2.0}, {"work": 3.0}]
        tl = Timeline("ab", [0, 1], [0, 1], [0.0, 0.0], [1.0, 1.0], meta={"region": 0},
                      preds=[set(), {0}], tasks=nodes)
        assert [e.meta for e in tl] == [
            {"region": 0, "work": 2.0, "tid": 0, "preds": []},
            {"region": 0, "work": 3.0, "tid": 1, "preds": [0]},
        ]

    def test_index_keeps_a_place_the_meta_names(self):
        tl = Timeline("a", [0], [0], [0.0], [1.0], meta={"index": None, "region": 0})
        assert list(next(iter(tl)).meta) == ["index", "region"]


class TestMetrics:
    """The per-CPU accounting helpers every consumer shares."""

    def test_cpu_busy_sums_per_cpu_and_skips_foreign_cpus(self):
        rows = [(0, 0.0, 2.0), (1, 0.0, 1.0), (1, 1.0, 4.0), (5, 0.0, 9.0)]
        assert cpu_busy(rows, 2) == [2.0, 4.0]

    def test_load_percent(self):
        rec = record(span=4.0, busy=[4.0, 2.0])
        assert rec.load_percent() == pytest.approx([100.0, 50.0])

    def test_load_percent_custom_span(self):
        assert record(span=8.0, busy=[2.0]).load_percent() == pytest.approx([25.0])

    def test_idle_and_cumulated_idleness(self):
        assert idleness([4.0, 1.0], 4.0) == pytest.approx(3.0)
        assert idleness([5.0], 4.0) == 0.0
        assert record(span=4.0, busy=[4.0, 1.0]).idleness() == pytest.approx(3.0)

    def test_imbalance(self):
        assert imbalance([2.0, 2.0]) == pytest.approx(1.0)
        assert imbalance([3.0, 1.0]) == pytest.approx(1.5)
        assert imbalance([]) == imbalance([0.0, 0.0]) == 1.0

    def test_speedup_vs(self):
        tl = timeline([mk("a", 0, 0, 2)], ncpus=1)
        assert tl.speedup_vs(8.0) == pytest.approx(4.0)


class TestStructure:
    def test_lanes_sorted(self):
        tl = timeline([mk("b", 0, 2, 3), mk("a", 0, 0, 1), mk("c", 1, 0, 2)])
        lanes = tl.lanes()
        assert [e.item for e in lanes[0]] == ["a", "b"]
        assert [e.item for e in lanes[1]] == ["c"]


class TestValidate:
    def test_valid_passes(self):
        tl = timeline([mk("a", 0, 0, 1), mk("b", 0, 1, 2), mk("c", 1, 0.5, 1.5)])
        tl.validate()

    def test_overlap_on_same_cpu_rejected(self):
        tl = timeline([mk("a", 0, 0, 2), mk("b", 0, 1, 3)])
        with pytest.raises(SimulationError):
            tl.validate()

    def test_negative_interval_rejected(self):
        tl = timeline([mk("a", 0, 2, 1)])
        with pytest.raises(SimulationError):
            tl.validate()

    def test_negative_start_rejected(self):
        tl = timeline([mk("a", 0, -1, 1)])
        with pytest.raises(SimulationError):
            tl.validate()

    def test_overlap_on_distinct_cpus_allowed(self):
        tl = timeline([mk("a", 0, 0, 2), mk("b", 1, 0, 2)])
        tl.validate()
