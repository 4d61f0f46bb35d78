"""Reference vector clocks for the happens-before relation of a region.

This is the textbook model of a task graph's ordering: a task's clock
is the join of its predecessors' clocks plus its own tick, and two
tasks are concurrent iff their clocks are incomparable.  It shares no
code with :mod:`repro.analyze.hb`, which reads the same relation off
ancestor bitsets — which is what makes it a useful oracle:
``tests/test_analyze_races.py`` requires ``concurrency_of`` and
``check_races`` to agree with this model on generated regions.
"""

from __future__ import annotations

from unittest import mock

from repro.analyze.footprint import RegionTasks
from repro.analyze.races import RaceCheckResult, check_races
from repro.trace.events import Trace


class VectorClock:
    """A sparse vector clock over task ids."""

    __slots__ = ("_c",)

    def __init__(self, components: dict[int, int] | None = None):
        self._c: dict[int, int] = dict(components or {})

    def tick(self, tid: int) -> "VectorClock":
        c = dict(self._c)
        c[tid] = c.get(tid, 0) + 1
        return VectorClock(c)

    def join(self, other: "VectorClock") -> "VectorClock":
        c = dict(self._c)
        for k, v in other._c.items():
            if v > c.get(k, 0):
                c[k] = v
        return VectorClock(c)

    def __le__(self, other: "VectorClock") -> bool:
        return all(v <= other._c.get(k, 0) for k, v in self._c.items())

    def concurrent(self, other: "VectorClock") -> bool:
        return not (self <= other) and not (other <= self)


def region_clocks(region: RegionTasks) -> dict[int, VectorClock]:
    """Vector clocks of a ``dag`` region's tasks, keyed by task id
    (ascending tid is a topological order; an absent pred adds nothing)."""
    clocks: dict[int, VectorClock] = {}
    for node in region.tasks:
        vc = VectorClock()
        for p in node.preds:
            pvc = clocks.get(p)
            if pvc is not None:
                vc = vc.join(pvc)
        clocks[node.tid] = vc.tick(node.tid)
    return clocks


def oracle_concurrency_of(region: RegionTasks):
    """``repro.analyze.hb.concurrency_of`` by vector clocks."""
    if region.rmode == "seq":
        return lambda a, b: False
    if region.rmode == "dag":
        clocks = region_clocks(region)

        def dag_concurrent(a: int, b: int) -> bool:
            ca, cb = clocks.get(a), clocks.get(b)
            if ca is None or cb is None:
                return True
            return ca.concurrent(cb)

        return dag_concurrent
    return lambda a, b: a != b


def oracle_check_races(trace: Trace) -> RaceCheckResult:
    """``check_races`` with the vector-clock relation in place of the
    bitset one."""
    with mock.patch("repro.analyze.races.concurrency_of", oracle_concurrency_of):
        return check_races(trace)
