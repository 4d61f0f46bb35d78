"""Trace recorder: turns published regions into trace events."""

from __future__ import annotations

from repro.core.tiling import Tile
from repro.trace.events import Trace, TraceEvent, TraceMeta

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Accumulates :class:`TraceEvent` s during a run.

    A consumer on the telemetry bus: the bus hands it every executed
    region (with the region's footprints, when collected) plus run
    annotations; the engine hands the final :class:`Trace` to the
    writer (``--trace``) or directly to EASYVIEW.
    """

    def __init__(self, meta: TraceMeta | None = None):
        self.meta = meta or TraceMeta()
        self.events: list[TraceEvent] = []

    # -- telemetry-bus consumer hooks ---------------------------------------

    def on_annotation(self, data: dict) -> None:
        """Attach free-form metadata to the trace (``meta.extra``).

        The real backends tag their traces with ``clock="wall"`` +
        the backend name so EASYVIEW can distinguish measured Gantt
        charts from simulated ones; sim runs leave ``extra`` untouched,
        keeping their ``.evt`` files byte-identical to golden fixtures.
        """
        self.meta.extra.update(data)

    def on_region(self, timeline, footprints) -> None:
        """Record one trace event per row of the region's timeline.

        A worksharing region's ``footprints`` are indexed by each row's
        item position (its ``index``); a task region's rows carry their
        own in their node meta's ``footprint``.
        """
        meta = timeline.meta
        iteration = int(meta.get("iteration", 0))
        kind = str(meta.get("kind", "tile"))
        base = {k: v for k, v in meta.items() if k not in ("iteration", "kind", "footprint")}
        tasks = timeline.tasks is not None
        items = timeline.items
        nfp = -1 if footprints is None else len(footprints)
        append = self.events.append
        for i, cpu, start, end, extra in zip(
            timeline.index, timeline.cpu, timeline.start, timeline.end,
            timeline.annotations(base),
        ):
            fp = footprints[i] if i < nfp else None
            it, k = iteration, kind
            if tasks:  # a node's meta may hold its footprint, iteration or kind
                fp = extra.pop("footprint", None)
                it = int(extra.pop("iteration", it))
                k = str(extra.pop("kind", k))
            item = items[i]
            x, y, w, h = item.as_rect() if isinstance(item, Tile) else (-1, -1, -1, -1)
            append(TraceEvent(it, cpu, start, end, x, y, w, h, k, extra,
                              *((fp.reads, fp.writes) if fp is not None else ())))

    def to_trace(self) -> Trace:
        return Trace(self.meta, sorted(self.events, key=lambda e: (e.start, e.cpu)))
