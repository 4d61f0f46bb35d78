"""The telemetry bus: consumer hooks, counters, lazy consumer attachment.

Covers the bus contract: a region reaches ``on_region`` whole (the
trace recorder pairs its footprints), iteration marks and annotations
reach their hooks, counters aggregate without dispatch, and the
timeline and fastpath-eligibility decisions (consumers are attached
lazily; an uninstrumented run constructs neither Monitor nor
TraceRecorder; consumers keep the fast path, footprints do not).
"""

from __future__ import annotations

import pytest

from repro.core.access import Footprint
from repro.core.engine import run
from repro.sched.timeline import Timeline
from repro.telemetry.bus import TelemetryBus
from repro.trace.recorder import TraceRecorder
from tests.conftest import make_config


class Sink:
    """A consumer implementing every hook, recording what it sees."""

    def __init__(self):
        self.regions = []
        self.marks = []
        self.annos = []

    def on_region(self, tl, footprints):
        self.regions.append((tl, footprints))

    def on_iteration_mark(self, iteration, now):
        self.marks.append((iteration, now))

    def on_annotation(self, data):
        self.annos.append(data)


def timeline_of(n: int, region: int = 0, index=None) -> Timeline:
    index = range(n) if index is None else index
    return Timeline(
        [f"item{i}" for i in range(n)], index, [i % 2 for i in index],
        [float(i) for i in index], [float(i + 1) for i in index],
        ncpus=2, meta={"iteration": 1, "kind": "tile", "region": region},
    )


class TestDispatch:
    def test_region_end_sees_whole_timeline(self):
        bus = TelemetryBus()
        sink = bus.attach(Sink())
        tl = timeline_of(4)
        fps = [None] * 4
        bus.publish_region(tl, fps)
        assert sink.regions == [(tl, fps)]

    def test_footprint_pairing_by_index(self):
        bus = TelemetryBus()
        rec = bus.attach(TraceRecorder())
        fps = [
            Footprint(writes=(("cur", i, 0, 1, 1),)) for i in range(3)
        ]
        # the recorder pairs by meta["index"], not by position
        tl = timeline_of(3, index=[2, 1, 0])
        bus.publish_region(tl, footprints=fps)
        got = [(ev.extra["index"], ev.writes[0][1]) for ev in rec.events]
        assert got == [(2, 2), (1, 1), (0, 0)]

    def test_inline_meta_footprint_fallback(self):
        # DAG regions attach the footprint in the exec meta instead
        bus = TelemetryBus()
        rec = bus.attach(TraceRecorder())
        fp = Footprint(reads=(("cur", 0, 0, 4, 4),))
        tl = Timeline(["t"], [0], [0], [0.0], [1.0], ncpus=1,
                      tasks=[{"kind": "task", "footprint": fp}])
        bus.publish_region(tl)
        (ev,) = rec.events
        assert ev.reads == fp.reads and ev.writes == ()
        assert "footprint" not in ev.extra

    def test_iteration_mark_and_annotation(self):
        bus = TelemetryBus()
        sink = bus.attach(Sink())
        bus.iteration_mark(3, 1.5)
        bus.annotate(clock="wall", backend="procs")
        assert sink.marks == [(3, 1.5)]
        assert sink.annos == [{"clock": "wall", "backend": "procs"}]


class TestCounters:
    def test_counters_aggregate_without_consumers(self):
        bus = TelemetryBus()
        bus.counter("steals", 3)
        bus.counter("steals", 2)
        assert bus.counters["steals"] == 5

    def test_region_counter_always_maintained(self):
        bus = TelemetryBus()
        bus.publish_region(timeline_of(2))
        bus.publish_region(timeline_of(2))
        assert bus.counters["regions"] == 2


class TestLazyAttachment:
    """Consumer attachment is lazy; ``ExecutionContext.instrumented``
    decides whether regions publish timelines and
    ``ExecutionContext.fastpath_active`` whether frames may run (every
    consumer keeps the fast path, footprints do not)."""

    def test_uninstrumented_run_constructs_no_consumers(self):
        res = run(make_config())
        assert res.monitor is None
        assert res.trace is None
        assert res.context._monitor is None
        assert res.context._tracer is None
        assert res.context.bus._consumers == []

    def test_uninstrumented_sim_run_uses_fastpath(self):
        res = run(make_config(kernel="mandel", variant="omp_tiled"))
        assert res.fastpath_regions > 0

    def test_trace_keeps_fastpath_and_attaches_recorder(self):
        res = run(make_config(trace=True))
        assert res.fastpath_regions > 0
        assert res.trace is not None and len(res.trace.events) > 0

    def test_monitoring_attaches_monitor_only(self):
        res = run(make_config(monitoring=True))
        assert res.monitor is not None and res.monitor.records
        assert res.trace is None
        assert res.fastpath_regions > 0

    @pytest.mark.parametrize("overrides, active", [
        pytest.param({}, True, id="sim-default"),
        pytest.param({"backend": "threads"}, False, id="real-backend"),
        pytest.param({"monitoring": True}, True, id="monitoring"),
        pytest.param({"footprints": True}, False, id="footprints"),
        pytest.param({"fastpath": "off"}, False, id="fastpath-off"),
    ])
    def test_fastpath_eligibility(self, overrides, active):
        from repro.core.context import ExecutionContext

        assert ExecutionContext(make_config(**overrides)).fastpath_active() is active

    def test_external_consumer_keeps_fastpath(self):
        from repro.core.context import ExecutionContext

        ctx = ExecutionContext(make_config())
        sink = ctx.bus.attach(Sink())
        assert ctx.instrumented()
        assert ctx.fastpath_active()
        ctx.sequential_for(lambda item: 1.0, items=["a", "b"],
                           frame=lambda ctx, items: [1.0] * len(items))
        assert ctx.fastpath_regions == 1
        ((tl, _fps),) = sink.regions
        assert [e.item for e in tl] == ["a", "b"]

    def test_observer_without_exec_hooks_keeps_fastpath(self):
        from repro.core.context import ExecutionContext

        class AnnotationsOnly:
            def on_annotation(self, data):
                pass

        ctx = ExecutionContext(make_config())
        ctx.bus.attach(AnnotationsOnly())
        assert not ctx.instrumented()
        assert ctx.fastpath_active()


class TestRunResultCounters:
    def test_regions_counter_surfaces(self):
        res = run(make_config(trace=True))
        assert res.counters["regions"] == res.completed_iterations
        # every tile of every region reached the trace (64/16 grid)
        tiles = [e for e in res.trace if e.kind == "tile"]
        assert len(tiles) == 16 * res.completed_iterations

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


class TestFootprintPairingEndToEnd:
    """The trace recorder pairs each task with its own footprint on every
    backend: worksharing regions by ``meta["index"]``, task regions by the
    footprint inlined in the exec meta."""

    @pytest.mark.parametrize("backend", ["sim", "threads", "procs"])
    def test_blur_tiles_write_own_rect_and_read_own_halo(self, backend):
        dim = 64
        res = run(make_config(
            kernel="blur", variant="omp_tiled", dim=dim, tile_w=16, tile_h=16,
            iterations=1, footprints=True, trace=True, backend=backend,
        ))
        events = [e for e in res.trace.events if e.kind == "tile"]
        assert len(events) == (dim // 16) ** 2
        for e in events:
            x0, y0 = max(e.x - 1, 0), max(e.y - 1, 0)
            x1, y1 = min(e.x + e.w + 1, dim), min(e.y + e.h + 1, dim)
            assert e.writes == (("next", e.x, e.y, e.w, e.h),)
            assert e.reads == (("cur", x0, y0, x1 - x0, y1 - y0),)

    def test_task_region_events_carry_their_footprints(self):
        res = run(make_config(
            kernel="cc", variant="omp_task", dim=64, tile_w=16, tile_h=16,
            iterations=1, footprints=True, trace=True,
        ))
        events = res.trace.events
        assert events and all(e.has_tile for e in events)
        for e in events:
            # each task writes exactly its own tile
            assert e.writes == (("cur", e.x, e.y, e.w, e.h),)
            assert e.reads and e.reads[0] == ("cur", e.x, e.y, e.w, e.h)
