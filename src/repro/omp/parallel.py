"""``parallel_for``, ``parallel_reduce`` and ``sequential_for``: the
OpenMP worksharing loop, its ``reduction`` clause and the single-CPU
loop.

The default (``sim``) backend executes bodies sequentially — measuring
deterministic *work units* — then replays the loop through the
scheduling simulator to obtain the timeline a real thread team would
produce under the requested ``schedule(...)`` clause.  The ``threads``
backend runs a real ``ThreadPoolExecutor`` team and records wall-clock
times (useful to sanity-check shapes against genuine parallelism; NumPy
tile bodies release the GIL in their inner loops).  The ``procs``
backend (:mod:`repro.omp.procs`) dispatches the same worksharing loops
onto a persistent shared-memory process pool — wall-clock times with
true parallelism even for pure-Python tile bodies.

Every sim-backend region — these three loops, the policy-aware DAG of
a wavefront domain and :class:`repro.omp.tasks.TaskRegion` — ends in
:func:`close_region`, the one place that logs, perturbs, schedules,
advances the clock and publishes a region; the real backends end in its
publish half, :func:`publish_region`.  ``parallel_reduce`` is the
``parallel_for`` region plus an item-order fold of the per-item values.

Perf-mode fast path
-------------------
A kernel may pass any of the three loops ``frame=`` — a whole-frame
batch implementation with signature ``frame(ctx, items) -> works``
(``parallel_reduce``: ``frame(ctx, items) -> (works, value)``).  The
frame performs every side effect the per-item bodies would (image/data
writes, change flags) in one vectorized shot and returns the per-item
work vector;
``None`` declines (e.g. an item subset the frame cannot prove safe),
falling back to the reference path.  The fast path engages only when
:meth:`ExecutionContext.fastpath_active` holds — no monitoring, no
tracing, no footprints — and is bit-identical to the reference in every
remaining observable: final images, kernel state, the virtual clock
(both paths run the same chunk grabs; the fast path just never expands
them into a timeline), the ``steals``/``regions`` counters — for
reductions too, since both paths close through :func:`close_region` —
the region log, and the jitter RNG stream.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core import access
from repro.errors import ScheduleError
from repro.sched.costmodel import perturb
from repro.sched.policies import (
    DynamicSchedule,
    GuidedSchedule,
    NonMonotonicDynamic,
    SchedulePolicy,
    StaticSchedule,
    parse_schedule,
)
from repro.sched.dag_sim import simulate_dag_policy
from repro.sched.simulator import SimResult, simulate
from repro.sched.timeline import TaskExec, Timeline

__all__ = ["parallel_for", "parallel_reduce", "sequential_for"]


def _resolve_policy(ctx, schedule: SchedulePolicy | str | None) -> SchedulePolicy:
    if schedule is None:
        return ctx.policy
    if isinstance(schedule, SchedulePolicy):
        return schedule
    return parse_schedule(schedule)


def parallel_for(
    ctx,
    body: Callable[[Any], float],
    items: Sequence[Any] | None = None,
    *,
    schedule: SchedulePolicy | str | None = None,
    kind: str = "tile",
    frame: Callable | None = None,
) -> SimResult:
    """Distribute ``items`` over the virtual team.

    ``body(item)`` performs the computation and returns its cost in
    *work units* (deterministic, e.g. loop iterations executed); items
    default to the tile grid in collapse(2) order.  ``frame`` is the
    optional whole-frame batch implementation (see the module
    docstring); it replaces the per-item bodies when the perf-mode fast
    path is active.

    Returns the :class:`SimResult` for the region; the context's clock
    advances past the simulated makespan + fork/join overhead.

    When ``items`` is omitted and the context's work domain carries
    dependency edges (wavefront domains), the region is scheduled as a
    policy-aware DAG instead of an independent loop: bodies run in
    enumeration order — a valid topological order by the
    :class:`WorkDomain` contract — on *every* backend, exactly like
    ``task_region`` bodies, which is what makes wavefront results
    bit-identical across sim/threads/procs.  Explicit item lists
    (subsets, reordered items) always take the independent-loop path,
    since domain edges are defined on whole-domain enumeration order.
    """
    return _worksharing(ctx, body, items, schedule, kind, frame)


def parallel_reduce(
    ctx,
    body: Callable[[Any], tuple[float, Any]],
    items: Sequence[Any] | None = None,
    *,
    combine: Callable[[Any, Any], Any],
    init: Any,
    schedule: SchedulePolicy | str | None = None,
    kind: str = "tile",
    frame: Callable | None = None,
):
    """``parallel for reduction(op: acc)``: the race-free way to fold a
    value across a worksharing loop.

    ``body(item)`` returns ``(work_units, value)``.  The region runs
    exactly like :func:`parallel_for`; the per-item values are then
    folded with ``combine`` in item order on every backend (real OpenMP
    reductions are unordered — our determinism is strictly stronger,
    which tests rely on).  Returns ``(sim_result, accumulated)``.

    ``frame(ctx, items)`` may return ``(works, value)`` where ``value``
    is the reduction of all items' values (associativity is already a
    requirement of the construct); the fast path then returns
    ``combine(init, value)``.

    This is the construct kernels should use instead of mutating shared
    state from tile bodies (the "changed" flags of Life/heat) — in real
    OpenMP that mutation needs ``atomic``/``critical``; here the
    reduction expresses the intent.
    """
    values: list = []
    result = _worksharing(ctx, body, items, schedule, kind, frame, values)
    return result, functools.reduce(combine, values, init)


def sequential_for(
    ctx,
    body: Callable[[Any], float],
    items: Iterable[Any] | None = None,
    *,
    kind: str = "tile",
    frame: Callable | None = None,
) -> float:
    """Run ``body`` over items on virtual CPU 0, back-to-back; returns
    the clock after the region.

    This is what ``seq``/``tiled`` (single-thread) variants use; it
    still feeds monitoring and traces, so heat maps work in sequential
    mode too.  ``frame`` is the whole-frame batch implementation, as
    for :func:`parallel_for`.
    """
    items = list(ctx.domain) if items is None else list(items)
    works, footprints, fast = _execute(ctx, body, items, frame)

    def schedule(costs, start, meta):
        return _Sequential(costs, items, start, ctx.nthreads, meta)

    close_region(ctx, "seq", works, schedule, kind=kind, rmode="seq",
                 footprints=footprints, fast=fast)
    return ctx.vclock


def _worksharing(ctx, body, items, schedule, kind, frame, values=None) -> SimResult:
    """The region of :func:`parallel_for`; with ``values`` (a reduction)
    bodies return ``(work, value)`` and ``values`` receives the values
    in item order — one per item, or the frame's single folded value."""
    whole_domain = items is None
    items = list(ctx.domain) if items is None else list(items)
    policy = _resolve_policy(ctx, schedule)
    deps = ctx.domain.dependencies() if whole_domain else None
    rmode = "par" if values is None else "reduce"
    if values is not None:
        values[:] = [None] * len(items)
    if deps is None and ctx.backend != "sim":
        meta = {
            "iteration": ctx.iteration, "kind": kind,
            "region": ctx.next_region(), "rmode": rmode,
        }
        if ctx.backend == "threads":
            return _threads_parallel_for(ctx, body, items, policy, meta, values)
        from repro.omp.procs import procs_parallel_for

        return procs_parallel_for(ctx, body, items, policy, meta, values)
    if deps is not None:
        works, footprints = _measure(ctx, body, items, values)

        def schedule_dag(costs, start, meta):
            return SimResult(simulate_dag_policy(
                costs, deps, policy, ctx.nthreads,
                items=items, model=ctx.model, start_time=start, meta=meta,
            ))

        return close_region(ctx, "dagp", works, schedule_dag, kind=kind, rmode="dag",
                            deps=deps, footprints=footprints)
    works, footprints, fast = _execute(ctx, body, items, frame, values)

    def schedule_loop(costs, start, meta):
        return simulate(
            costs, policy, ctx.nthreads,
            items=items, model=ctx.model, start_time=start, meta=meta,
        )

    return close_region(ctx, "par", works, schedule_loop, kind=kind, rmode=rmode,
                        footprints=footprints, fast=fast)


def close_region(
    ctx,
    log_kind: str,
    works,
    schedule: Callable,
    *,
    kind: str,
    rmode: str,
    deps: Sequence[Iterable[int]] | None = None,
    footprints: list | None = None,
    fast: bool = False,
):
    """The bookkeeping every sim-backend region ends in.

    Appends the region-log entry (``(log_kind, works[, preds])``, raw
    works before noise), perturbs the costs once, schedules them with
    ``schedule(costs, start_time, meta)`` — which returns a
    :class:`SimResult`-like object with ``makespan``, ``steals`` and
    ``timeline`` — advances the clock past the makespan (plus fork/join
    overhead, except for a sequential region), then publishes: a
    whole-frame ``fast`` region only counts itself, every other region
    publishes its timeline.
    """
    if ctx.region_log is not None:
        logged = works.tolist() if isinstance(works, np.ndarray) else works
        entry = (log_kind, logged)
        if deps is not None:
            entry += ([sorted(p) for p in deps],)
        ctx.region_log.append(entry)
    meta = {
        "iteration": ctx.iteration, "kind": kind,
        "region": ctx.next_region(), "rmode": rmode,
    }
    result = schedule(_costs(ctx, works), ctx.vclock, meta)
    join = 0.0 if rmode == "seq" else ctx.model.fork_join_overhead
    ctx.vclock = max(result.makespan, ctx.vclock) + join
    if fast:
        ctx.fastpath_regions += 1
    publish_region(ctx, None if fast else result.timeline, result.steals, footprints)
    return result


def publish_region(ctx, timeline: Timeline | None, steals: int = 0, footprints=None) -> None:
    """Publish one executed region on the context's telemetry bus: the
    ``steals`` counter, then the timeline (or, without one, just the
    region count).  Every backend's regions end here."""
    if steals:
        ctx.bus.counter("steals", steals)
    if timeline is None:
        ctx.bus.count_region()
    else:
        ctx.bus.publish_region(timeline, footprints)


def _costs(ctx, works):
    """Per-item virtual seconds of ``works`` under the run's noise model
    (a frame's work vector stays an array unless noise is applied)."""
    if ctx.config.jitter > 0:
        return perturb(ctx.model.times_of(works), ctx.jitter_rng, ctx.config.jitter)
    if isinstance(works, np.ndarray):
        return works * ctx.model.seconds_per_unit
    return ctx.model.times_of(works)


def _execute(ctx, body, items, frame, values=None):
    """Run one region's bodies: the whole-frame ``frame`` when the fast
    path is active and the frame accepts the items, else the per-item
    bodies.  Returns ``(works, footprints, fast)``."""
    if frame is not None and ctx.fastpath_active():
        out = frame(ctx, items)
        if out is not None:
            if values is not None:
                out, value = out
                values[:] = [value]
            return np.asarray(out, dtype=np.float64), None, True
    works, footprints = _measure(ctx, body, items, values)
    return works, footprints, False


def _measure(ctx, body, items, values=None):
    """Run bodies sequentially, measuring work units (and, when the run
    collects footprints, each body's read/write regions).  With
    ``values``, bodies return ``(work, value)`` and the value of item
    ``i`` is stored at ``values[i]``."""
    works: list[float] = []
    footprints: list | None = [] if ctx.collect_footprints else None
    for i, item in enumerate(items):
        if footprints is None:
            work = body(item)
        else:
            with access.collect() as col:
                work = body(item)
            footprints.append(col.freeze())
        if values is not None:
            work, values[i] = work
        works.append(float(work or 0.0))
    return works, footprints


class _Sequential:
    """The schedule of a sequential region: every item back-to-back on
    CPU 0 from ``start`` — one left fold, whose prefix sums are the
    item bounds; the timeline is built only when read."""

    steals = 0

    def __init__(self, costs, items, start: float, ncpus: int, meta: dict):
        seg = np.empty(len(costs) + 1)
        seg[0] = start
        seg[1:] = costs
        self._bounds = np.add.accumulate(seg)
        self.makespan = float(self._bounds[-1])
        self._source = (items, ncpus, meta)

    @property
    def timeline(self) -> Timeline:
        items, ncpus, meta = self._source
        bounds = self._bounds.tolist()
        timeline = Timeline(ncpus=ncpus)
        for i, item in enumerate(items):
            m = {"iteration": meta["iteration"], "kind": meta["kind"], "index": i,
                 "region": meta["region"], "rmode": meta["rmode"]}
            timeline.append(TaskExec(item, 0, bounds[i], bounds[i + 1], m))
        return timeline


# --------------------------------------------------------------------------
# Real-thread backend
# --------------------------------------------------------------------------


def _threads_parallel_for(ctx, body, items, policy, meta, values=None) -> SimResult:
    """Run a real thread team; record wall-clock start/end per item (a
    reduction's values land at their item's index in ``values``).

    Scheduling semantics: ``static`` uses the precomputed assignment;
    every dynamic family policy (dynamic, guided, nonmonotonic) shares a
    central chunk queue — real stealing cannot be faithfully observed
    under the GIL (see DESIGN.md), so the dynamic behaviour is the
    honest common denominator.
    """
    n = len(items)
    nthreads = ctx.nthreads
    records: list[list[tuple[int, float, float]]] = [[] for _ in range(nthreads)]
    # the active footprint collector is thread-local, so each team member
    # records its own tasks; every idx runs exactly once, so the slot
    # writes below never contend
    fps: list | None = [None] * n if ctx.collect_footprints else None

    def run_item(idx: int) -> None:
        if fps is None:
            ret = body(items[idx])
        else:
            with access.collect() as col:
                ret = body(items[idx])
            fps[idx] = col.freeze()
        if values is not None:
            values[idx] = ret[1]

    t0 = time.perf_counter()

    if isinstance(policy, StaticSchedule):
        assignments = policy.assignment(n, nthreads)

        def worker_static(rank: int) -> None:
            recs = records[rank]
            for chunk in assignments[rank]:
                for idx in chunk.indices():
                    s = time.perf_counter() - t0
                    run_item(idx)
                    e = time.perf_counter() - t0
                    recs.append((idx, s, e))

        target, args_of = worker_static, lambda r: (r,)
    else:
        if isinstance(policy, NonMonotonicDynamic):
            policy = DynamicSchedule(policy.chunk)
        elif not isinstance(policy, (DynamicSchedule, GuidedSchedule)):
            raise ScheduleError(f"unsupported policy {policy!r}")  # pragma: no cover
        queue = policy.chunk_queue(n, nthreads)
        lock = threading.Lock()
        state = {"next": 0}

        def worker_dynamic(rank: int) -> None:
            recs = records[rank]
            while True:
                with lock:
                    qi = state["next"]
                    if qi >= len(queue):
                        return
                    state["next"] = qi + 1
                for idx in queue[qi].indices():
                    s = time.perf_counter() - t0
                    run_item(idx)
                    e = time.perf_counter() - t0
                    recs.append((idx, s, e))

        target, args_of = worker_dynamic, lambda r: (r,)

    threads = [
        threading.Thread(target=target, args=args_of(r), name=f"easypap-{r}")
        for r in range(nthreads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0

    timeline = Timeline(ncpus=nthreads)
    for rank, recs in enumerate(records):
        for idx, s, e in recs:
            m = dict(meta)
            m["index"] = idx
            timeline.append(TaskExec(items[idx], rank, ctx.vclock + s, ctx.vclock + e, m))
    ctx.vclock += elapsed
    publish_region(ctx, timeline, footprints=fps)
    return SimResult(timeline, grabs=[], steals=0)
