"""The telemetry bus: executed regions in, consumer hooks out.

The bus is the single attachment point between whatever executes work
(sim scheduler, threads team, procs pool, task DAGs, MPI ranks) and
whatever observes it: the activity monitor, the trace recorder, or
any object attached with :meth:`TelemetryBus.attach`.  A consumer
implements any of three hooks, called synchronously in attach order:

``on_region(timeline, footprints)``
    one executed region: its :class:`~repro.sched.timeline.Timeline`,
    the columnar record every producer fills (per-task item index, CPU,
    start and end, region-wide meta, sparse per-task columns), and, for
    a footprinted worksharing region, the per-task footprints indexed
    by item position, as the ``index`` column numbers them (else None;
    a task region's nodes carry theirs in their meta's ``footprint``);
``on_iteration_mark(iteration, now)``
    an iteration boundary at clock time ``now``;
``on_annotation(data)``
    run metadata, as a dict.

Counters are not dispatched: :meth:`TelemetryBus.counter` only adds
to :attr:`TelemetryBus.counters`, which the engine surfaces as
``RunResult.counters``.  With no ``on_region`` consumer attached, sim
regions skip building a timeline and only count themselves.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.access import Footprint
from repro.sched.timeline import Timeline

__all__ = ["TelemetryBus"]


class TelemetryBus:
    """Synchronous in-process telemetry channel.

    Remote producers (procs workers) do not hold a bus: they return
    their execution records and footprints in their region reply, which
    the master decodes (:mod:`repro.telemetry.ring`) into the columns of
    a region timeline and publishes here, so consumers see the same
    regions regardless of where the work ran.
    """

    def __init__(self) -> None:
        self._consumers: list[Any] = []
        #: aggregated counters; always maintained, even with no consumers
        self.counters: dict[str, float] = {}

    def attach(self, consumer: Any) -> Any:
        if consumer not in self._consumers:
            self._consumers.append(consumer)
        return consumer

    @property
    def wants_timelines(self) -> bool:
        """True when at least one attached consumer observes executions.

        :meth:`~repro.core.context.ExecutionContext.instrumented` asks
        this so that :func:`~repro.omp.parallel.close_region` expands
        and publishes a region's timeline only when someone reads it.
        It does not gate the whole-frame fast path: a fast region's
        timeline is the reference one.
        """
        return any(hasattr(c, "on_region") for c in self._consumers)

    def _dispatch(self, hook: str, *args: Any) -> None:
        for c in self._consumers:
            fn = getattr(c, hook, None)
            if fn is not None:
                fn(*args)

    def publish_region(
        self,
        timeline: Timeline,
        footprints: Sequence[Footprint | None] | None = None,
    ) -> None:
        """Count one executed region and hand it to ``on_region``."""
        self.count_region()
        self._dispatch("on_region", timeline, footprints)

    def count_region(self) -> None:
        """Count one executed region; :meth:`publish_region` calls this,
        sim regions nobody observes publish no timeline and call it
        directly."""
        self.counter("regions")

    def counter(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def iteration_mark(self, iteration: int, now: float) -> None:
        self._dispatch("on_iteration_mark", iteration, now)

    def annotate(self, **data: Any) -> None:
        self._dispatch("on_annotation", data)
