"""Decoding of one procs worker's telemetry reply.

A procs worker returns its telemetry in the ``done`` reply of a
region: ``execs``, one ``(pos, start, end)`` triple per task it ran
(``pos`` indexes the region's items, the times are the worker's
``perf_counter``), and, when the run collects footprints,
``footprints``, one ``(pos, Footprint)`` pair per task.  The pipe
carries Python objects, so buffer names, 3D ``(z, d)`` extents and
every region of every task arrive intact; nothing is dropped.

The module and function keep their names from the shared-memory ring
this decoding replaced: the perfbench span layer times
:func:`drain_lane` by name and reports it as ``procs.drain.s``.
"""

from __future__ import annotations

from typing import Sequence

from repro.sched.timeline import TaskExec, Timeline

__all__ = ["drain_lane"]


def drain_lane(
    reply: dict,
    rank: int,
    items: Sequence,
    meta: dict,
    clock: float,
    t0: float,
    timeline: Timeline,
    footprints: list | None,
) -> None:
    """Decode worker ``rank``'s ``done`` reply into the region.

    Each executed task becomes a :class:`TaskExec` on ``timeline``,
    placed at ``clock`` plus its offset from the master's dispatch time
    ``t0`` and carrying ``meta`` plus its ``index``; when ``footprints``
    is a list, each task's footprint lands at its item position.
    """
    for pos, start, end in reply["execs"]:
        m = dict(meta)
        m["index"] = pos
        timeline.append(
            TaskExec(items[pos], rank, clock + (start - t0), clock + (end - t0), m)
        )
    if footprints is not None:
        for pos, fp in reply["footprints"]:
            footprints[pos] = fp
