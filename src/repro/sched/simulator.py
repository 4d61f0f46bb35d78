"""Simulation of OpenMP loop scheduling: one routine for every policy.

Given per-item costs and a :class:`~repro.sched.policies.SchedulePolicy`,
:func:`simulate` computes the exact timeline a pool of ``ncpus`` virtual
CPUs would produce under every policy of the paper's Fig. 4, and
:func:`simulate_makespan` its makespan.  Both run the same routine,
:func:`_schedule`, which emits the chunk grabs
``(cpu, start, lo, hi, stolen, end)`` in hand-out order.  Which chunk a
CPU gets is decided by :func:`repro.sched.claim.claim`, the claim rule
the ``threads`` and ``procs`` backends run too, which computes its
bounds from a few ints; the simulator only decides *when* each CPU
asks:

* **static** CPUs ask in CPU order, each until its own range is spent;
* **dynamic, guided and nonmonotonic** run one loop in which the
  earliest-free CPU (lowest index on ties, as a barrier-released team
  racing in rank order) asks next: for the iterations under the shared
  cursor, or — for ``nonmonotonic:dynamic`` — the front of its own
  block or a steal from the back of a victim's.  A CPU that gets
  nothing leaves the team.

A chunk's end time is its start plus its item costs summed strictly
left to right (:func:`_fold`), so the makespan is the largest grab end
and the per-task timeline is the grabs expanded item by item into the
columns of a :class:`~repro.sched.timeline.Timeline` — expanded only
when :attr:`SimResult.timeline` is first read, so perf mode builds no
per-task record at all.

Work stealing (Fig. 4c): *"tiles are first distributed in a static
manner, but work-stealing is eventually used to correct load
imbalance"*.  A grab starts after ``model.steal_overhead`` when it was
stolen and after ``model.dispatch_overhead`` otherwise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sched.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sched.claim import claim, plan
from repro.sched.policies import SchedulePolicy, StaticSchedule
from repro.sched.timeline import Timeline

__all__ = ["simulate", "simulate_makespan", "SimResult", "ChunkGrab"]

#: one chunk hand-out: ``(cpu, start, lo, hi, stolen, end)``
Grab = tuple[int, float, int, int, bool, float]


@dataclass(frozen=True)
class ChunkGrab:
    """One chunk hand-out: who got which range, when, and how."""

    cpu: int
    time: float
    lo: int
    hi: int
    stolen: bool = False

    @property
    def size(self) -> int:
        return self.hi - self.lo


class SimResult:
    """Timeline plus scheduler-level bookkeeping.

    ``timeline`` is the region's :class:`Timeline` or a function that
    builds it, called the first time it is read.  Results of
    :func:`simulate` keep the raw chunk grabs, from which their
    :class:`ChunkGrab` list and makespan come.
    """

    def __init__(self, timeline, steals: int = 0, *, makespan: float | None = None,
                 raw: list[Grab] | None = None):
        self._timeline = timeline
        self.steals = steals
        self._makespan = makespan
        self._raw = raw
        self._grabs: list[ChunkGrab] | None = None

    @property
    def timeline(self) -> Timeline:
        if callable(self._timeline):
            self._timeline = self._timeline()
        return self._timeline

    @property
    def grabs(self) -> list[ChunkGrab]:
        if self._grabs is None:
            self._grabs = [
                ChunkGrab(cpu, t, lo, hi, stolen)
                for cpu, t, lo, hi, stolen, _ in self._raw or ()
            ]
        return self._grabs

    @property
    def makespan(self) -> float:
        return self.timeline.makespan if self._makespan is None else self._makespan

    def chunk_sizes(self) -> list[int]:
        """Chunk sizes in grab order (guided: non-increasing, Fig. 4d)."""
        ordered = sorted(self.grabs, key=lambda g: (g.time, g.cpu))
        return [g.size for g in ordered]


def simulate(
    costs: Sequence[float],
    policy: SchedulePolicy,
    ncpus: int,
    *,
    items: Sequence[Any] | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
    meta: dict | None = None,
) -> SimResult:
    """Simulate scheduling ``len(costs)`` independent iterations.

    Parameters
    ----------
    costs:
        Virtual-seconds cost of each iteration of the collapsed loop.
    items:
        Objects attached to each iteration in the resulting timeline
        (defaults to the integer indices).
    model:
        Supplies dispatch/steal overheads (conversion from work units
        must already have been applied to ``costs``).
    meta:
        The region-wide annotations of the timeline.
    """
    if items is not None and len(items) != len(costs):
        raise SimulationError(f"{len(items)} items for {len(costs)} costs")
    raw = _schedule(costs, policy, ncpus, model, start_time)
    meta = dict(meta or {})
    return SimResult(lambda: _expand(raw, costs, items, ncpus, meta),
                     sum(g[4] for g in raw), makespan=_makespan(raw), raw=raw)


def simulate_makespan(
    costs: Sequence[float],
    policy: SchedulePolicy,
    ncpus: int,
    *,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
) -> float:
    """Makespan of :func:`simulate` (the largest chunk-grab end), without
    the timeline; ``0.0`` for an empty loop."""
    return _makespan(_schedule(costs, policy, ncpus, model, start_time))


def _makespan(raw: list[Grab]) -> float:
    return max((g[5] for g in raw), default=0.0)


def _expand(
    raw: list[Grab],
    costs: Sequence[float],
    items: Sequence[Any] | None,
    ncpus: int,
    meta: dict,
) -> Timeline:
    """The per-task timeline of ``raw``: each grab's items back-to-back
    on its CPU, ``t = t + cost`` from the grab's start, in Python floats
    whatever the type of ``costs``."""
    cl = np.asarray(costs, dtype=np.float64).tolist()
    index, cpus, starts, ends, stolen = [], [], [], [], set()
    for cpu, t, lo, hi, took, _ in raw:
        index.extend(range(lo, hi))
        cpus.extend([cpu] * (hi - lo))
        if took:
            stolen.update(range(lo, hi))
        for cost in cl[lo:hi]:
            starts.append(t)
            t += cost
            ends.append(t)
    return Timeline(
        range(len(cl)) if items is None else items, index, cpus, starts, ends,
        ncpus=ncpus, meta=meta, stolen=stolen,
    )


#: below this chunk size a plain Python loop beats building a NumPy array;
#: both produce bit-identical sums, so the cutoff is purely a speed knob
_ACCUMULATE_CUTOFF = 32


def _fold(c: np.ndarray, cl: list[float], t: float, lo: int, hi: int) -> float:
    """``t`` plus ``c[lo:hi]`` summed strictly left to right.

    ``np.add.accumulate`` does not reassociate, so it is bit-identical
    to the ``t = t + cost`` loop it replaces on long chunks.
    """
    if hi - lo >= _ACCUMULATE_CUTOFF:
        seg = np.empty(hi - lo + 1)
        seg[0] = t
        seg[1:] = c[lo:hi]
        return float(np.add.accumulate(seg)[-1])
    for cost in cl[lo:hi]:
        t += cost
    return t


def _schedule(
    costs: Sequence[float],
    policy: SchedulePolicy,
    ncpus: int,
    model: CostModel,
    start_time: float,
) -> list[Grab]:
    """The chunk grabs of ``policy`` in hand-out order."""
    if ncpus < 1:
        raise SimulationError(f"need at least one cpu, got {ncpus}")
    n = len(costs)
    c = np.ascontiguousarray(costs, dtype=np.float64)
    cl = c.tolist()
    d, s = model.dispatch_overhead, model.steal_overhead
    rule, state = plan(policy, n, ncpus)
    grabs: list[Grab] = []
    if isinstance(policy, StaticSchedule):
        for cpu in range(ncpus):
            t = start_time
            while (got := claim(rule, state, cpu)) is not None:
                lo, hi, _ = got
                t += d
                end = _fold(c, cl, t, lo, hi)
                grabs.append((cpu, t, lo, hi, False, end))
                t = end
        return grabs
    # (free_time, cpu) in increasing order is already a valid heap
    free = [(start_time, cpu) for cpu in range(ncpus)]
    while free:
        t, cpu = heapq.heappop(free)
        got = claim(rule, state, cpu)
        if got is None:
            continue  # nothing left for this CPU: it leaves the team
        lo, hi, stolen = got
        t += s if stolen else d
        end = _fold(c, cl, t, lo, hi)
        grabs.append((cpu, t, lo, hi, stolen, end))
        heapq.heappush(free, (end, cpu))
    return grabs
