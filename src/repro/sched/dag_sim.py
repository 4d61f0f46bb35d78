"""List scheduling of task graphs on virtual CPUs.

This is the runtime model behind ``#pragma omp task``: ready tasks are
assigned to idle threads in FIFO submission order.  The resulting
timeline lets EASYVIEW show the diagonal *wave* of connected-components
tasks sweeping the image (paper Fig. 12).

:func:`simulate_dag_policy` extends the model to *worksharing over a
dependency-carrying domain* (wavefront :class:`~repro.core.domains.WorkDomain`
regions): the same per-item loop a schedule policy would chunk, except
items must additionally wait for their predecessors.  ``static``
policies keep their fixed CPU assignment — a CPU simply idles until its
next item's predecessors finish, which is exactly where static loses to
the dynamic family on wavefront DAGs.  The dynamic/guided/stealing
policies all collapse to greedy FIFO list scheduling (a central ready
queue *is* what makes them dynamic; chunking is moot when readiness,
not contiguity, gates execution) — the one list scheduler that also
runs :func:`simulate_dag`.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Sequence

from repro.errors import SimulationError
from repro.sched.claim import claim, plan
from repro.sched.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sched.policies import SchedulePolicy, StaticSchedule
from repro.sched.taskgraph import TaskGraph
from repro.sched.timeline import Timeline

__all__ = ["simulate_dag", "simulate_dag_policy", "dag_policy_makespan"]


def simulate_dag(
    graph: TaskGraph,
    ncpus: int,
    *,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
    meta: dict | None = None,
) -> Timeline:
    """Simulate FIFO list scheduling of ``graph`` on ``ncpus`` CPUs.

    Invariants guaranteed (and exploited by tests):

    * a task never starts before all its predecessors have finished;
    * a CPU runs at most one task at a time;
    * no CPU stays idle while a ready task is pending (greediness).

    Tasks appear in the timeline in dispatch order.
    """
    nodes = graph.nodes
    preds = [node.preds for node in nodes]
    _check_dag(len(nodes), preds, ncpus)
    slots, order = _list_schedule(
        [node.cost for node in nodes], preds, ncpus, model.dispatch_overhead, start_time
    )
    cpus, starts, ends = zip(*[slots[tid] for tid in order]) if order else ((),) * 3
    return Timeline(
        [node.item for node in nodes], order, cpus, starts, ends, ncpus=ncpus,
        meta=dict(meta or {}), preds=preds, tasks=[node.meta for node in nodes],
    )


def _check_dag(n: int, preds: Sequence[Iterable[int]], ncpus: int) -> None:
    """Reject empty teams and preds that break enumeration order.

    ``preds[i]`` must only name lower indices (enumeration order is a
    topological order — the :class:`~repro.core.domains.WorkDomain`
    contract, and what :class:`TaskGraph` builds), which is what makes
    the single forward passes below exact.
    """
    if ncpus < 1:
        raise SimulationError(f"need at least one cpu, got {ncpus}")
    if len(preds) != n:
        raise SimulationError(f"{len(preds)} pred lists for {n} costs")
    for i, ps in enumerate(preds):
        for p in ps:
            if not 0 <= p < i:
                raise SimulationError(f"pred {p} of task {i} violates topological order")


def _list_schedule(
    costs: Sequence[float],
    preds: Sequence[Iterable[int]],
    ncpus: int,
    dispatch: float,
    start_time: float,
) -> tuple[list[tuple[int, float, float]], list[int]]:
    """Greedy FIFO list scheduling off a central ready queue, one
    dispatch per task: per-task ``(cpu, start, finish)`` and the order
    in which tasks were dispatched."""
    n = len(costs)
    succs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, ps in enumerate(preds):
        for p in ps:
            succs[p].append(i)
            indeg[i] += 1
    # ready: min-heap on (release_time, index) — FIFO among simultaneously
    # released tasks; idle CPUs: min-heap on (free_time, cpu)
    ready = [(start_time, i) for i in range(n) if indeg[i] == 0]
    cpus = [(start_time, c) for c in range(ncpus)]
    finish = [0.0] * n
    slots: list[tuple[int, float, float]] = [(0, start_time, start_time)] * n
    order: list[int] = []
    while ready:
        rel, i = heapq.heappop(ready)
        free_t, cpu = heapq.heappop(cpus)
        t0 = max(rel, free_t) + dispatch
        t1 = t0 + costs[i]
        finish[i] = t1
        slots[i] = (cpu, t0, t1)
        order.append(i)
        heapq.heappush(cpus, (t1, cpu))
        for s in succs[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, (max(finish[p] for p in preds[s]), s))
    return slots, order


def _schedule_policy(
    costs: Sequence[float],
    preds: Sequence[Sequence[int]],
    policy: SchedulePolicy,
    ncpus: int,
    model: CostModel,
    start_time: float,
) -> list[tuple[int, float, float]]:
    """Per-task ``(cpu, start, finish)`` of policy-aware DAG scheduling."""
    n = len(costs)
    _check_dag(n, preds, ncpus)
    d = model.dispatch_overhead
    if not isinstance(policy, StaticSchedule):
        # dynamic family (dynamic/guided/nonmonotonic)
        return _list_schedule(costs, preds, ncpus, d, start_time)[0]

    # fixed assignment: each CPU runs its chunks in order, paying the
    # dispatch once per chunk and *idling* until the next item's
    # predecessors finish.  One pass in increasing global index is
    # exact: preds and same-CPU predecessors in program order both have
    # lower indices.
    cpu_of = [0] * n
    chunk_head = [False] * n
    rule, state = plan(policy, n, ncpus)
    for cpu in range(ncpus):
        while (got := claim(rule, state, cpu)) is not None:
            lo, hi, _ = got
            cpu_of[lo:hi] = [cpu] * (hi - lo)
            chunk_head[lo] = True
    free = [start_time] * ncpus
    finish = [0.0] * n
    out: list[tuple[int, float, float]] = []
    for i in range(n):
        cpu = cpu_of[i]
        t0 = free[cpu] + (d if chunk_head[i] else 0.0)
        for p in preds[i]:
            if finish[p] > t0:
                t0 = finish[p]
        t1 = t0 + costs[i]
        finish[i] = t1
        free[cpu] = t1
        out.append((cpu, t0, t1))
    return out


def simulate_dag_policy(
    costs: Sequence[float],
    preds: Sequence[Sequence[int]],
    policy: SchedulePolicy,
    ncpus: int,
    *,
    items: Sequence[Any] | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
    meta: dict | None = None,
) -> Timeline:
    """Timeline of a schedule policy driving a dependency-carrying region.

    Same invariants as :func:`simulate_dag` (no task before its preds,
    one task per CPU at a time) plus policy semantics: ``static`` keeps
    its fixed chunk assignment (idling on unmet dependencies), the
    dynamic family greedily dispatches whatever is ready.
    """
    slots = _schedule_policy(costs, preds, policy, ncpus, model, start_time)
    if items is None:
        items = range(len(costs))
    elif len(items) != len(costs):
        raise SimulationError(f"{len(items)} items for {len(costs)} costs")
    cpus, starts, ends = zip(*slots) if slots else ((),) * 3
    return Timeline(
        items, range(len(slots)), cpus, starts, ends, ncpus=ncpus,
        meta=dict(meta or {}), preds=preds,
    )


def dag_policy_makespan(
    costs: Sequence[float],
    preds: Sequence[Sequence[int]],
    policy: SchedulePolicy,
    ncpus: int,
    *,
    model: CostModel = DEFAULT_COST_MODEL,
    start_time: float = 0.0,
) -> float:
    """Makespan of :func:`simulate_dag_policy` without the timeline.

    Runs the identical forward pass (same float operations in the same
    order), so the value is bit-identical — the replay memo and the
    perf path lean on that equality.
    """
    slots = _schedule_policy(costs, preds, policy, ncpus, model, start_time)
    return max((t1 for _, _, t1 in slots), default=0.0)
