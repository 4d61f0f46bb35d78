"""The telemetry bus: one stream, many consumers.

The bus is the single attachment point between whatever executes work
(sim scheduler, threads team, procs pool, task DAGs, MPI ranks) and
whatever observes it (trace recorder, activity monitor, race analyzer,
expTools metrics).  Producers call :meth:`TelemetryBus.publish_region`
/ :meth:`counter` / :meth:`iteration_mark` / :meth:`annotate`; each
event is stamped with its producer id and a per-producer sequence
number and dispatched synchronously, in publish order, to every
attached consumer.

A consumer is any object implementing a subset of:

``on_tile_exec(event)``
    one :class:`~repro.telemetry.events.TileExecEvent` per executed
    task, in region order;
``on_region_end(timeline)``
    the full region :class:`~repro.sched.timeline.Timeline` after its
    tile events were dispatched (the monitor's heatmaps want whole
    regions);
``on_iteration_mark(event)``
    iteration boundaries;
``on_annotation(event)``
    run metadata;
``on_counter(event)``
    counter increments (the bus also aggregates these itself — see
    :attr:`TelemetryBus.counters` — so most consumers skip this).

Dispatch is synchronous and allocation-light on purpose: with no
consumers attached, ``publish_region`` is a counter bump and an early
return, which is what keeps the perf-mode fastpath viable.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.access import Footprint
from repro.sched.timeline import Timeline
from repro.telemetry.events import (
    MASTER_PRODUCER,
    AnnotationEvent,
    CounterEvent,
    IterationMarkEvent,
    TelemetryEvent,
    TileExecEvent,
)

__all__ = ["TelemetryBus"]


class TelemetryBus:
    """Synchronous in-process telemetry channel.

    Remote producers (procs workers) do not hold a bus: they write
    fixed-width records into a shared-memory ring
    (:mod:`repro.telemetry.ring`) which the master decodes and
    re-publishes here, so consumers see one uniform stream regardless
    of where the work ran.
    """

    def __init__(self) -> None:
        self._consumers: list[Any] = []
        self._seq: dict[int, int] = {}
        #: aggregated counters; always maintained, even with no consumers
        self.counters: dict[str, float] = {}

    # -- consumer management ----------------------------------------------

    def attach(self, consumer: Any) -> Any:
        if consumer not in self._consumers:
            self._consumers.append(consumer)
        return consumer

    def detach(self, consumer: Any) -> None:
        if consumer in self._consumers:
            self._consumers.remove(consumer)

    @property
    def consumers(self) -> Sequence[Any]:
        return tuple(self._consumers)

    @property
    def wants_timelines(self) -> bool:
        """True when at least one attached consumer observes executions.

        This is *the* fastpath-eligibility question: a region may skip
        per-tile execution (and therefore per-tile events) only when
        nobody is listening.
        """
        return any(
            hasattr(c, "on_tile_exec") or hasattr(c, "on_region_end")
            for c in self._consumers
        )

    # -- stamping & dispatch ----------------------------------------------

    def _stamp(self, event: TelemetryEvent, producer: int) -> TelemetryEvent:
        seq = self._seq.get(producer, 0)
        event.producer = producer
        event.seq = seq
        self._seq[producer] = seq + 1
        return event

    def publish(self, event: TelemetryEvent, producer: int = MASTER_PRODUCER) -> None:
        """Stamp one event and dispatch it to every attached consumer."""
        self._stamp(event, producer)
        if isinstance(event, TileExecEvent):
            hook = "on_tile_exec"
        elif isinstance(event, IterationMarkEvent):
            hook = "on_iteration_mark"
        elif isinstance(event, AnnotationEvent):
            hook = "on_annotation"
        elif isinstance(event, CounterEvent):
            self.counters[event.name] = self.counters.get(event.name, 0) + event.value
            hook = "on_counter"
        else:  # pragma: no cover - protocol extension point
            hook = "on_event"
        for c in self._consumers:
            fn = getattr(c, hook, None)
            if fn is not None:
                fn(event)

    # -- producer-facing conveniences --------------------------------------

    def publish_region(
        self,
        timeline: Timeline | Iterable,
        footprints: Sequence[Footprint | None] | None = None,
        producer: int = MASTER_PRODUCER,
    ) -> None:
        """Publish one executed region: a TileExecEvent per task, then
        the whole timeline to ``on_region_end`` consumers.

        ``footprints``, when given, is indexed by each event's
        ``meta["index"]`` (the per-region task index), matching how the
        schedulers number tasks.  Events without an index fall back to
        a footprint already carried in their meta (task-DAG regions
        attach it inline).
        """
        self.count_region()
        if not self._consumers:
            return
        for e in timeline:
            fp = None
            if footprints is not None:
                idx = e.meta.get("index")
                if idx is not None and idx < len(footprints):
                    fp = footprints[idx]
            if fp is None:
                fp = e.meta.get("footprint")
            ev = TileExecEvent(exec=e, footprint=fp)
            self._stamp(ev, producer)
            for c in self._consumers:
                fn = getattr(c, "on_tile_exec", None)
                if fn is not None:
                    fn(ev)
        for c in self._consumers:
            fn = getattr(c, "on_region_end", None)
            if fn is not None:
                fn(timeline)

    def count_region(self) -> None:
        """Count one executed region; :meth:`publish_region` calls this,
        paths that publish no timeline (the perf-mode fast path) call it
        directly."""
        self.counters["regions"] = self.counters.get("regions", 0) + 1

    def counter(self, name: str, value: float = 1, producer: int = MASTER_PRODUCER) -> None:
        self.publish(CounterEvent(name=name, value=value), producer)

    def iteration_mark(self, iteration: int, now: float) -> None:
        self.publish(IterationMarkEvent(iteration=iteration, now=now))

    def annotate(self, **data: Any) -> None:
        self.publish(AnnotationEvent(data=data))

    # -- loss accounting ----------------------------------------------------

    @property
    def dropped_events(self) -> int:
        return int(self.counters.get("dropped_events", 0))

    def record_dropped(self, count: int, producer: int = MASTER_PRODUCER) -> None:
        if count:
            self.counter("dropped_events", count, producer)
