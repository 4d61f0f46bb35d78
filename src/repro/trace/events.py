"""Trace data model.

The ``--trace`` option records tile-related profiling events (start/end
time, tile coordinates, CPU) into a trace file explored off-line with
EASYVIEW.  :class:`TraceEvent` is one such event; :class:`Trace` is a
full recording with its run metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Iterator

__all__ = ["TraceEvent", "TraceMeta", "Trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One task execution, as stored in a trace file.

    ``x, y, w, h`` locate the tile in the image (all -1 for events not
    tied to a tile); ``kind`` distinguishes tile computations from tasks
    and other instrumented sections.

    ``reads`` and ``writes`` are the task's memory-access footprint:
    tuples of ``(buf, x, y, w, h)`` regions, recorded only when the run
    enables footprint collection (``--check-races``).  They are omitted
    from serialized events when empty, and readers must ignore any
    further keys they do not know, so traces stay loadable both ways
    across versions.
    """

    iteration: int
    cpu: int
    start: float
    end: float
    x: int = -1
    y: int = -1
    w: int = -1
    h: int = -1
    kind: str = "tile"
    extra: dict = field(default_factory=dict)
    reads: tuple = ()
    writes: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def has_tile(self) -> bool:
        return self.x >= 0 and self.y >= 0

    def to_dict(self) -> dict:
        """The event as a JSON-ready dict, keys in field order.

        Empty ``extra``/``reads``/``writes`` are omitted and regions
        become lists.  ``extra`` is copied one level deep, so editing
        the result cannot edit this (frozen) event; its values are
        handed to the encoder as they are.
        """
        d = {
            "iteration": self.iteration, "cpu": self.cpu,
            "start": self.start, "end": self.end,
            "x": self.x, "y": self.y, "w": self.w, "h": self.h,
            "kind": self.kind,
        }
        if self.extra:
            d["extra"] = dict(self.extra)
        if self.reads:
            d["reads"] = [list(r) for r in self.reads]
        if self.writes:
            d["writes"] = [list(r) for r in self.writes]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEvent":
        # Deliberately picks known keys only: events written by newer
        # versions may carry extra fields, which old readers must skip.
        return cls(
            iteration=int(d["iteration"]),
            cpu=int(d["cpu"]),
            start=float(d["start"]),
            end=float(d["end"]),
            x=int(d.get("x", -1)),
            y=int(d.get("y", -1)),
            w=int(d.get("w", -1)),
            h=int(d.get("h", -1)),
            kind=str(d.get("kind", "tile")),
            extra=dict(d.get("extra", {})),
            reads=_regions(d.get("reads", ())),
            writes=_regions(d.get("writes", ())),
        )


def _regions(raw) -> tuple:
    """Normalize serialized footprint regions to ``(buf, x, y, w, h)``
    tuples, preserving the optional ``(z, d)`` depth extent of 3D
    regions (see :mod:`repro.core.access`)."""
    return tuple(
        (str(r[0]),) + tuple(int(v) for v in r[1:7]) for r in raw
    )


@dataclass
class TraceMeta:
    """Run configuration stored in the trace header (and shown by EASYVIEW)."""

    kernel: str = "?"
    variant: str = "?"
    dim: int = 0
    tile_w: int = 0
    tile_h: int = 0
    ncpus: int = 0
    schedule: str = ""
    iterations: int = 0
    label: str = ""
    machine: str = "virtual"
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TraceMeta":
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in d.items() if k in known}
        return cls(**kwargs)


class Trace:
    """A recorded run: metadata + chronologically ordered events."""

    def __init__(self, meta: TraceMeta | None = None, events: list[TraceEvent] | None = None):
        self.meta = meta or TraceMeta()
        self.events: list[TraceEvent] = list(events or [])

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def ncpus(self) -> int:
        if self.meta.ncpus:
            return self.meta.ncpus
        return 1 + max((e.cpu for e in self.events), default=-1)

    @property
    def iterations(self) -> list[int]:
        return sorted({e.iteration for e in self.events})

    @property
    def duration(self) -> float:
        return max((e.end for e in self.events), default=0.0)

    def iteration_events(self, iteration: int) -> list[TraceEvent]:
        return [e for e in self.events if e.iteration == iteration]

    def iteration_range(self, lo: int, hi: int) -> list[TraceEvent]:
        """Events of iterations in [lo, hi] (EASYVIEW's selectable range)."""
        return [e for e in self.events if lo <= e.iteration <= hi]

    def cpu_events(self, cpu: int) -> list[TraceEvent]:
        return sorted((e for e in self.events if e.cpu == cpu), key=lambda e: e.start)

    def sorted(self) -> "Trace":
        return Trace(self.meta, sorted(self.events, key=lambda e: (e.start, e.cpu)))
