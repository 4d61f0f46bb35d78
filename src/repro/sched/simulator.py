"""Simulation of OpenMP loop scheduling: one decision routine per policy.

Given per-item costs and a :class:`~repro.sched.policies.SchedulePolicy`,
:func:`simulate` computes the exact timeline a pool of ``ncpus`` virtual
CPUs would produce under every policy of the paper's Fig. 4, and
:func:`simulate_makespan` its makespan.  Both run the same routine,
:func:`_schedule`, which emits the chunk grabs
``(cpu, start, lo, hi, stolen, end)`` in hand-out order:

* **static** walks the fixed per-CPU assignment in CPU order;
* **dynamic, guided and nonmonotonic** run one loop in which the
  earliest-free CPU (lowest index on ties, as a barrier-released team
  racing in rank order) asks the policy for its next chunk: the head
  of the central chunk queue, or — for ``nonmonotonic:dynamic`` — the
  front of its own block or a steal from the back of a victim's.

A chunk's end time is its start plus its item costs summed strictly
left to right (:func:`_fold`), so the makespan is the largest grab end
and the per-task timeline is the grabs expanded item by item — expanded
only when :attr:`SimResult.timeline` is first read, so perf mode never
allocates a :class:`TaskExec`.

Work stealing (Fig. 4c): *"tiles are first distributed in a static
manner, but work-stealing is eventually used to correct load
imbalance"*.  Each CPU owns a contiguous block of the iteration space
and consumes it from the front in chunks of ``k``; a CPU whose block is
exhausted steals from the *back* of the block of the victim with the
most remaining iterations (lowest index on ties), or half the victim's
block with ``steal_half=True`` — the ABL2 ablation knob.  A CPU that
finds nothing left to steal leaves the team.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sched.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sched.policies import (
    Chunk,
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    SchedulePolicy,
    StaticSchedule,
)
from repro.sched.timeline import TaskExec, Timeline

__all__ = ["simulate", "simulate_makespan", "SimResult", "ChunkGrab"]

#: one chunk hand-out: ``(cpu, start, lo, hi, stolen, end)``
Grab = tuple[int, float, int, int, bool, float]


@dataclass(frozen=True)
class ChunkGrab:
    """One chunk hand-out: who got which range, when, and how."""

    cpu: int
    time: float
    chunk: Chunk
    stolen: bool = False

    @property
    def size(self) -> int:
        return len(self.chunk)


class SimResult:
    """Timeline plus scheduler-level bookkeeping.

    Results of :func:`simulate` keep the raw chunk grabs; the
    :class:`ChunkGrab` list and the per-task timeline are expanded from
    them the first time they are read.
    """

    def __init__(
        self,
        timeline: Timeline | None,
        grabs: list[ChunkGrab] | None = None,
        steals: int = 0,
    ):
        self._timeline = timeline
        self._grabs = grabs
        self.steals = steals
        self._raw: list[Grab] | None = None
        self._source: tuple = ()

    @classmethod
    def _of_grabs(
        cls,
        raw: list[Grab],
        costs: Sequence[float],
        items: Sequence[Any] | None,
        ncpus: int,
        meta: dict,
    ) -> "SimResult":
        res = cls(None, steals=sum(g[4] for g in raw))
        res._raw = raw
        res._source = (costs, items, ncpus, meta)
        return res

    @property
    def timeline(self) -> Timeline:
        if self._timeline is None:
            self._timeline = _expand(self._raw, *self._source)
        return self._timeline

    @property
    def grabs(self) -> list[ChunkGrab]:
        if self._grabs is None:
            self._grabs = [
                ChunkGrab(cpu, t, Chunk(lo, hi), stolen)
                for cpu, t, lo, hi, stolen, _ in self._raw or ()
            ]
        return self._grabs

    @property
    def makespan(self) -> float:
        if self._raw is not None:
            return _makespan(self._raw)
        return self.timeline.makespan

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
        Extra annotations copied into every :class:`TaskExec`.
    """
    if items is not None and len(items) != len(costs):
        raise SimulationError(f"{len(items)} items for {len(costs)} costs")
    raw = _schedule(costs, policy, ncpus, model, start_time)
    return SimResult._of_grabs(raw, costs, items, ncpus, dict(meta or {}))


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
    on its CPU, ``t = t + cost`` from the grab's start."""
    timeline = Timeline(ncpus=ncpus)
    for cpu, t, lo, hi, stolen, _ in raw:
        for idx in range(lo, hi):
            end = t + costs[idx]
            m = dict(meta)
            m["index"] = idx
            if stolen:
                m["stolen"] = True
            timeline.append(TaskExec(idx if items is None else items[idx], cpu, t, end, m))
            t = end
    return timeline


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


class _Block:
    """A [lo, hi) range consumed from both ends (owner: front, thief: back)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    @property
    def remaining(self) -> int:
        return max(self.hi - self.lo, 0)

    def take_front(self, k: int) -> tuple[int, int]:
        lo = self.lo
        self.lo = min(lo + k, self.hi)
        return lo, self.lo

    def take_back(self, k: int) -> tuple[int, int]:
        hi = self.hi
        self.hi = max(hi - k, self.lo)
        return self.hi, hi


#: a policy's next chunk for an idle CPU: ``(lo, hi, stolen, overhead)``,
#: or None when nothing is left for it
NextChunk = Callable[[int], "tuple[int, int, bool, float] | None"]


def _queue_head(queue: list[Chunk], dispatch: float) -> NextChunk:
    """dynamic/guided: every CPU takes the head of the central queue."""
    it = iter(queue)

    def head(cpu: int):
        chunk = next(it, None)
        return None if chunk is None else (chunk.lo, chunk.hi, False, dispatch)

    return head


def _stealing(policy: NonMonotonicDynamic, n: int, ncpus: int, model: CostModel) -> NextChunk:
    """nonmonotonic:dynamic: own block's front, else steal a victim's back."""
    blocks = [_Block(b.lo, b.hi) for b in policy.initial_blocks(n, ncpus)]
    k = policy.chunk

    def next_chunk(cpu: int):
        own = blocks[cpu]
        if own.remaining > 0:
            return (*own.take_front(k), False, model.dispatch_overhead)
        victim = blocks[max(range(ncpus), key=lambda c: (blocks[c].remaining, -c))]
        if victim.remaining == 0:
            return None
        amount = max(victim.remaining // 2, k) if policy.steal_half else k
        return (*victim.take_back(amount), True, model.steal_overhead)

    return next_chunk


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
    d = model.dispatch_overhead
    grabs: list[Grab] = []
    if isinstance(policy, StaticSchedule):
        for cpu, chunks in enumerate(policy.assignment(n, ncpus)):
            t = start_time
            for chunk in chunks:
                t += d
                end = _fold(c, cl, t, chunk.lo, chunk.hi)
                grabs.append((cpu, t, chunk.lo, chunk.hi, False, end))
                t = end
        return grabs
    if isinstance(policy, NonMonotonicDynamic):
        next_chunk = _stealing(policy, n, ncpus, model)
    elif isinstance(policy, (DynamicSchedule, GuidedSchedule)):
        next_chunk = _queue_head(policy.chunk_queue(n, ncpus), d)
    else:
        raise SimulationError(f"unsupported policy {policy!r}")
    # (free_time, cpu) in increasing order is already a valid heap
    free = [(start_time, cpu) for cpu in range(ncpus)]
    while free:
        t, cpu = heapq.heappop(free)
        got = next_chunk(cpu)
        if got is None:
            continue  # nothing left for this CPU: it leaves the team
        lo, hi, stolen, overhead = got
        t += overhead
        end = _fold(c, cl, t, lo, hi)
        grabs.append((cpu, t, lo, hi, stolen, end))
        heapq.heappush(free, (end, cpu))
    return grabs
