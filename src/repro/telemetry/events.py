"""The telemetry event protocol.

Every observable fact a run produces — a tile execution, a memory
footprint, a counter bump, an iteration boundary, a metadata
annotation — is one structured event.  Producers (the scheduling
simulator, the threads team, procs pool workers) emit events; the
:class:`~repro.telemetry.bus.TelemetryBus` stamps each one with its
producer id and a per-producer sequence number and fans it out to the
attached consumers (trace recorder, monitor, analyzer, expTools
metrics).

The protocol is transport-agnostic: in-process producers publish the
dataclasses below directly, while procs workers serialize the same
facts as fixed-width numeric records through the shared-memory ring
(:mod:`repro.telemetry.ring`) and the master re-publishes them on
drain.  Sequence numbers make loss observable: a gap between
consecutive events of one producer is a dropped event, never silent
corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.access import Footprint
from repro.sched.timeline import TaskExec

__all__ = [
    "MASTER_PRODUCER",
    "TelemetryEvent",
    "TileExecEvent",
    "CounterEvent",
    "IterationMarkEvent",
    "AnnotationEvent",
]

#: producer id of the master process / main thread (pool workers use
#: their worker rank, MPI ranks their rank offset by the team size)
MASTER_PRODUCER = -1


@dataclass
class TelemetryEvent:
    """Base event: producer identity + per-producer sequence number.

    Both fields are stamped by the bus (or the ring writer) at publish
    time; constructors of concrete events never set them.
    """

    producer: int = field(default=MASTER_PRODUCER, init=False)
    seq: int = field(default=-1, init=False)


@dataclass
class TileExecEvent(TelemetryEvent):
    """One task execution (a tile body, a task, an instrumented section).

    ``exec`` carries the scheduled item, the (virtual) CPU and the
    start/end times; ``footprint`` the read/write regions recorded
    while the body ran, when footprint collection was active.
    """

    exec: TaskExec = None  # type: ignore[assignment]
    footprint: Footprint | None = None


@dataclass
class CounterEvent(TelemetryEvent):
    """A monotonic counter increment (steals, regions, dropped events)."""

    name: str = ""
    value: float = 1


@dataclass
class IterationMarkEvent(TelemetryEvent):
    """An iteration boundary: the monitor closes its per-iteration
    snapshot when this arrives."""

    iteration: int = 0
    now: float = 0.0


@dataclass
class AnnotationEvent(TelemetryEvent):
    """Free-form run metadata (``clock="wall"``, dropped-event totals);
    the trace consumer folds it into ``meta.extra``."""

    data: dict[str, Any] = field(default_factory=dict)
