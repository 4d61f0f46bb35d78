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
        """Record one trace event per exec of the region.

        A worksharing region's ``footprints`` are indexed by each
        exec's ``meta["index"]`` (the per-region task index, as the
        schedulers number tasks); a task-DAG exec carries its own in
        ``meta["footprint"]``.
        """
        for e in timeline:
            fp = None
            if footprints is not None:
                idx = e.meta.get("index")
                if idx is not None and idx < len(footprints):
                    fp = footprints[idx]
            if fp is None:
                fp = e.meta.get("footprint")
            item = e.item
            if isinstance(item, Tile):
                x, y, w, h = item.as_rect()
            else:
                x = y = w = h = -1
            extra = {
                k: v
                for k, v in e.meta.items()
                if k not in ("iteration", "kind", "footprint")
            }
            self.events.append(
                TraceEvent(
                    iteration=int(e.meta.get("iteration", 0)),
                    cpu=e.cpu,
                    start=e.start,
                    end=e.end,
                    x=x,
                    y=y,
                    w=w,
                    h=h,
                    kind=str(e.meta.get("kind", "tile")),
                    extra=extra,
                    reads=fp.reads if fp is not None else (),
                    writes=fp.writes if fp is not None else (),
                )
            )

    def to_trace(self) -> Trace:
        return Trace(self.meta, sorted(self.events, key=lambda e: (e.start, e.cpu)))
