"""The telemetry bus: event protocol, dispatch, lazy consumer attachment.

Covers the ISSUE-5 tentpole contract: per-producer sequence numbers,
region publication with footprint pairing, counter aggregation, and
the single-place fastpath-eligibility decision (consumers are attached
lazily; an uninstrumented run constructs neither Monitor nor
TraceRecorder).
"""

from __future__ import annotations

import pytest

from repro.core.access import Footprint
from repro.core.engine import run
from repro.sched.timeline import TaskExec, Timeline
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.events import (
    MASTER_PRODUCER,
    AnnotationEvent,
    CounterEvent,
    IterationMarkEvent,
    TileExecEvent,
)
from tests.conftest import make_config


class Sink:
    """A consumer implementing every hook, recording what it sees."""

    def __init__(self):
        self.execs = []
        self.regions = []
        self.marks = []
        self.annos = []
        self.counts = []

    def on_tile_exec(self, ev):
        self.execs.append(ev)

    def on_region_end(self, tl):
        self.regions.append(tl)

    def on_iteration_mark(self, ev):
        self.marks.append(ev)

    def on_annotation(self, ev):
        self.annos.append(ev)

    def on_counter(self, ev):
        self.counts.append(ev)


def timeline_of(n: int, region: int = 0) -> Timeline:
    tl = Timeline(ncpus=2)
    for i in range(n):
        meta = {"iteration": 1, "kind": "tile", "index": i, "region": region}
        tl.append(TaskExec(f"item{i}", i % 2, float(i), float(i + 1), meta))
    return tl


class TestDispatch:
    def test_per_producer_sequence_numbers(self):
        bus = TelemetryBus()
        sink = bus.attach(Sink())
        bus.publish_region(timeline_of(3))
        bus.publish_region(timeline_of(2), producer=7)
        by_prod = {}
        for ev in sink.execs:
            by_prod.setdefault(ev.producer, []).append(ev.seq)
        assert by_prod[MASTER_PRODUCER] == [0, 1, 2]
        assert by_prod[7] == [0, 1]

    def test_sequences_interleave_independently(self):
        bus = TelemetryBus()
        sink = bus.attach(Sink())
        for producer in (0, 1, 0, 1, 0):
            bus.publish(TileExecEvent(exec=timeline_of(1).execs[0]), producer)
        seqs = [(e.producer, e.seq) for e in sink.execs]
        assert seqs == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]

    def test_region_end_sees_whole_timeline(self):
        bus = TelemetryBus()
        sink = bus.attach(Sink())
        tl = timeline_of(4)
        bus.publish_region(tl)
        assert sink.regions == [tl]
        assert len(sink.execs) == 4

    def test_footprint_pairing_by_index(self):
        bus = TelemetryBus()
        sink = bus.attach(Sink())
        fps = [
            Footprint(writes=(("cur", i, 0, 1, 1),)) for i in range(3)
        ]
        bus.publish_region(timeline_of(3), footprints=fps)
        got = [ev.footprint.writes[0][1] for ev in sink.execs]
        assert got == [0, 1, 2]

    def test_inline_meta_footprint_fallback(self):
        # DAG regions attach the footprint in the exec meta instead
        bus = TelemetryBus()
        sink = bus.attach(Sink())
        fp = Footprint(reads=(("cur", 0, 0, 4, 4),))
        tl = Timeline(ncpus=1)
        tl.append(TaskExec("t", 0, 0.0, 1.0, {"kind": "task", "footprint": fp}))
        bus.publish_region(tl)
        assert sink.execs[0].footprint is fp

    def test_iteration_mark_and_annotation(self):
        bus = TelemetryBus()
        sink = bus.attach(Sink())
        bus.iteration_mark(3, 1.5)
        bus.annotate(clock="wall", backend="procs")
        (mark,) = sink.marks
        assert isinstance(mark, IterationMarkEvent)
        assert (mark.iteration, mark.now) == (3, 1.5)
        (anno,) = sink.annos
        assert isinstance(anno, AnnotationEvent)
        assert anno.data == {"clock": "wall", "backend": "procs"}

    def test_detach(self):
        bus = TelemetryBus()
        sink = bus.attach(Sink())
        bus.detach(sink)
        bus.publish_region(timeline_of(2))
        assert sink.execs == []


class TestCounters:
    def test_counters_aggregate_without_consumers(self):
        bus = TelemetryBus()
        bus.counter("steals", 3)
        bus.counter("steals", 2)
        assert bus.counters["steals"] == 5

    def test_counter_events_reach_consumers(self):
        bus = TelemetryBus()
        sink = bus.attach(Sink())
        bus.counter("steals", 4)
        (ev,) = sink.counts
        assert isinstance(ev, CounterEvent)
        assert (ev.name, ev.value) == ("steals", 4)

    def test_dropped_events_accounting(self):
        bus = TelemetryBus()
        assert bus.dropped_events == 0
        bus.record_dropped(0)  # no-op, no counter entry
        assert "dropped_events" not in bus.counters
        bus.record_dropped(7)
        bus.record_dropped(5)
        assert bus.dropped_events == 12

    def test_region_counter_always_maintained(self):
        bus = TelemetryBus()
        bus.publish_region(timeline_of(2))
        bus.publish_region(timeline_of(2))
        assert bus.counters["regions"] == 2


class TestLazyAttachment:
    """Satellite: consumer attachment is lazy and fastpath eligibility is
    decided in one place (``ExecutionContext.instrumented``)."""

    def test_uninstrumented_run_constructs_no_consumers(self):
        res = run(make_config())
        assert res.monitor is None
        assert res.trace is None
        assert res.context._monitor is None
        assert res.context._tracer is None
        assert res.context.bus.consumers == ()

    def test_uninstrumented_sim_run_uses_fastpath(self):
        res = run(make_config(kernel="mandel", variant="omp_tiled"))
        assert res.fastpath_regions > 0

    def test_trace_disables_fastpath_and_attaches_recorder(self):
        res = run(make_config(trace=True))
        assert res.fastpath_regions == 0
        assert res.trace is not None and len(res.trace.events) > 0

    def test_monitoring_attaches_monitor_only(self):
        res = run(make_config(monitoring=True))
        assert res.monitor is not None and res.monitor.records
        assert res.trace is None
        assert res.fastpath_regions == 0

    @pytest.mark.parametrize("overrides, active", [
        pytest.param({}, True, id="sim-default"),
        pytest.param({"backend": "threads"}, False, id="real-backend"),
        pytest.param({"monitoring": True}, False, id="monitoring"),
        pytest.param({"fastpath": "off"}, False, id="fastpath-off"),
    ])
    def test_fastpath_eligibility(self, overrides, active):
        from repro.core.context import ExecutionContext

        assert ExecutionContext(make_config(**overrides)).fastpath_active() is active

    def test_external_consumer_disables_fastpath(self):
        from repro.core.context import ExecutionContext

        ctx = ExecutionContext(make_config())
        assert ctx.fastpath_active()
        sink = ctx.bus.attach(Sink())
        assert ctx.instrumented()
        assert not ctx.fastpath_active()
        ctx.sequential_for(lambda item: 1.0, items=["a", "b"])
        assert len(sink.execs) == 2

    def test_observer_without_exec_hooks_keeps_fastpath(self):
        from repro.core.context import ExecutionContext

        class CounterOnly:
            def on_counter(self, ev):
                pass

        ctx = ExecutionContext(make_config())
        ctx.bus.attach(CounterOnly())
        assert not ctx.instrumented()
        assert ctx.fastpath_active()


class TestRunResultCounters:
    def test_regions_counter_surfaces(self):
        res = run(make_config(trace=True))
        assert res.counters["regions"] == res.completed_iterations
        assert res.dropped_events == 0

    def test_steals_counter_on_steal_schedule(self):
        # mandel's imbalanced tiles actually provoke steals; uniform
        # kernels would make this check vacuous (0 == 0)
        res = run(
            make_config(
                kernel="mandel", schedule="nonmonotonic:dynamic,1",
                trace=True, nthreads=4,
            )
        )
        stolen = sum(1 for e in res.trace.events if e.extra.get("stolen"))
        assert stolen > 0
        assert res.counters["steals"] == stolen


class TestGoldenCompat:
    def test_sim_trace_events_unchanged_by_bus(self):
        """The bus is a transport refactor: sim trace events keep the
        exact shape the golden fixtures pin (extra, reads, writes)."""
        res = run(make_config(trace=True))
        e = res.trace.events[0]
        assert e.kind == "tile"
        assert "region" in e.extra and "rmode" in e.extra and "index" in e.extra
        assert "footprint" not in e.extra
        assert res.trace.meta.extra == {}
