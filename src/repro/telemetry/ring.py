"""Decoding of one procs worker's telemetry reply into the columns of
the region's :class:`~repro.sched.timeline.Timeline`.

A procs worker returns its telemetry in the ``done`` reply of a
region: ``execs``, one ``(pos, start, end)`` triple per task it ran
(``pos`` indexes the region's items, the times are the worker's
``perf_counter``), ``stolen``, one ``(lo, hi)`` position range per
chunk it stole (empty unless the schedule steals), and, when the run
collects footprints, ``footprints``, one ``(pos, Footprint)`` pair per
task.  The pipe carries Python objects, so buffer names, 3D ``(z, d)``
extents and every region of every task arrive intact; nothing is
dropped.

The module and function keep their names from the shared-memory ring
this decoding replaced: the perfbench span layer times
:func:`drain_lane` by name and reports it as ``procs.drain.s``.
"""

from __future__ import annotations

from repro.sched.timeline import Timeline

__all__ = ["drain_lane"]


def drain_lane(
    reply: dict,
    rank: int,
    clock: float,
    t0: float,
    timeline: Timeline,
    footprints: list | None,
) -> None:
    """Decode worker ``rank``'s ``done`` reply into the region.

    The reply's tasks extend the columns of ``timeline``, the region's
    record, which already holds its items and meta: each task's item
    position, ``rank`` as its CPU, and its times placed at ``clock``
    plus their offset from the master's dispatch time ``t0``; the
    positions of its stolen chunks join the ``stolen`` column.  When ``footprints`` is a
    list, each task's footprint lands at its item position.
    """
    execs = reply["execs"]
    timeline.index.extend(pos for pos, _, _ in execs)
    timeline.cpu.extend([rank] * len(execs))
    timeline.start.extend(clock + (start - t0) for _, start, _ in execs)
    timeline.end.extend(clock + (end - t0) for _, _, end in execs)
    for lo, hi in reply["stolen"]:
        timeline.stolen.update(range(lo, hi))
    if footprints is not None:
        for pos, fp in reply["footprints"]:
            footprints[pos] = fp
