"""Reference heapq event loop for the loop-scheduling policies.

This is the straightforward event-driven model of an OpenMP team: a
min-heap of ``(free_time, cpu)`` hands the next chunk to the earliest
free CPU (lowest index on ties), and each chunk's iterations are
appended to the timeline one by one with ``t = t + cost``.  It shares
no scheduling code with :mod:`repro.sched.simulator` or
:mod:`repro.sched.claim` — it builds each policy's chunks as lists
(:func:`assignment`, :func:`chunk_queue`, :func:`initial_blocks`)
where the claim rule computes them from a cursor — which is what makes
it a useful oracle: ``tests/test_simulator.py`` requires the
simulator's grabs, timeline, steal count and makespan to equal this
loop's exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.sched.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sched.policies import (
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    SchedulePolicy,
    StaticSchedule,
)
from repro.sched.simulator import ChunkGrab
from repro.sched.timeline import Timeline


#: a chunk: the iterations ``[lo, hi)``
Chunk = tuple[int, int]


def initial_blocks(n: int, ncpus: int) -> list[Chunk]:
    """Per-CPU contiguous blocks (may be empty): plain static's chunks
    and the stealing family's initial blocks; the first ``n % ncpus``
    CPUs get one iteration more (LLVM/GCC static)."""
    base, extra = divmod(n, ncpus)
    blocks = []
    lo = 0
    for cpu in range(ncpus):
        size = base + (1 if cpu < extra else 0)
        blocks.append((lo, lo + size))
        lo += size
    return blocks


def assignment(policy: StaticSchedule, n: int, ncpus: int) -> list[list[Chunk]]:
    """Per-CPU ordered chunk lists of a static policy."""
    if policy.chunk is None:
        return [[b] if b[1] > b[0] else [] for b in initial_blocks(n, ncpus)]
    k = policy.chunk
    per_cpu: list[list[Chunk]] = [[] for _ in range(ncpus)]
    for i, lo in enumerate(range(0, n, k)):
        per_cpu[i % ncpus].append((lo, min(lo + k, n)))
    return per_cpu


def chunk_queue(policy: DynamicSchedule | GuidedSchedule, n: int, ncpus: int) -> list[Chunk]:
    """The chunks of the central queue in hand-out order."""
    out: list[Chunk] = []
    lo = 0
    while lo < n:
        size = policy.chunk
        if isinstance(policy, GuidedSchedule):
            size = max(-(-(n - lo) // (2 * ncpus)), size)
        out.append((lo, min(lo + size, n)))
        lo = out[-1][1]
    return out


@dataclass
class OracleResult:
    timeline: Timeline
    grabs: list[ChunkGrab] = field(default_factory=list)
    steals: int = 0

    @property
    def makespan(self) -> float:
        return self.timeline.makespan


def oracle_simulate(
    costs: Sequence[float],
    policy: SchedulePolicy,
    ncpus: int,
    *,
    items: Sequence[Any] | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
    meta: dict | None = None,
) -> OracleResult:
    n = len(costs)
    items = list(range(n)) if items is None else items
    timeline = Timeline(items, [], [], [], [], ncpus=ncpus, meta=dict(meta or {}),
                        stolen=set())
    res = OracleResult(timeline)

    def run_chunk(chunk: Chunk, cpu: int, t: float, stolen: bool = False) -> float:
        res.grabs.append(ChunkGrab(cpu, t, *chunk, stolen))
        for idx in range(*chunk):
            end = t + costs[idx]
            timeline.index.append(idx)
            timeline.cpu.append(cpu)
            timeline.start.append(t)
            timeline.end.append(end)
            if stolen:
                timeline.stolen.add(idx)
            t = end
        return t

    if isinstance(policy, StaticSchedule):
        for cpu, chunks in enumerate(assignment(policy, n, ncpus)):
            t = start_time
            for chunk in chunks:
                t = run_chunk(chunk, cpu, t + model.dispatch_overhead)
        return res

    heap: list[tuple[float, int]] = [(start_time, cpu) for cpu in range(ncpus)]
    heapq.heapify(heap)
    if isinstance(policy, (DynamicSchedule, GuidedSchedule)):
        for chunk in chunk_queue(policy, n, ncpus):
            t, cpu = heapq.heappop(heap)
            t = run_chunk(chunk, cpu, t + model.dispatch_overhead)
            heapq.heappush(heap, (t, cpu))
        return res

    assert isinstance(policy, NonMonotonicDynamic), policy
    # each CPU consumes its own block from the front; an idle CPU steals
    # from the back of the largest remaining block (lowest index on ties)
    blocks = [list(b) for b in initial_blocks(n, ncpus)]
    k = policy.chunk
    done = 0
    while done < n:
        t, cpu = heapq.heappop(heap)
        own = blocks[cpu]
        if own[1] > own[0]:
            lo = own[0]
            own[0] = min(lo + k, own[1])
            chunk = (lo, own[0])
            t = run_chunk(chunk, cpu, t + model.dispatch_overhead)
        else:
            victim = max(range(ncpus), key=lambda c: (blocks[c][1] - blocks[c][0], -c))
            vb = blocks[victim]
            remaining = vb[1] - vb[0]
            if remaining <= 0:
                continue  # nothing left anywhere: this CPU is done
            amount = max(remaining // 2, k) if policy.steal_half else k
            hi = vb[1]
            vb[1] = max(hi - amount, vb[0])
            chunk = (vb[1], hi)
            res.steals += 1
            t = run_chunk(chunk, cpu, t + model.steal_overhead, stolen=True)
        done += chunk[1] - chunk[0]
        heapq.heappush(heap, (t, cpu))
    return res
