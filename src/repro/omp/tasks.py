"""``task`` / ``taskwait``: OpenMP tasks with dependencies.

The connected-components assignment (paper Fig. 11) spawns one task per
tile with ``depend(in: left, up) depend(inout: self)`` clauses.  A
:class:`TaskRegion` reproduces this: tasks are submitted with the data
tokens they read and write; bodies run immediately (submission order is
always a valid topological order, since OpenMP dependencies only point
backwards in program order), and on region exit the dependency graph is
replayed through the DAG list scheduler to obtain the parallel
timeline — the wave of Fig. 12.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

from repro.errors import DependencyError
from repro.omp.parallel import _measure, close_region
from repro.sched.dag_sim import simulate_dag
from repro.sched.simulator import SimResult
from repro.sched.taskgraph import TaskGraph
from repro.sched.timeline import Timeline

__all__ = ["TaskRegion"]


class TaskRegion:
    """A ``#pragma omp parallel / single`` region spawning dependent tasks.

    Usage::

        with ctx.task_region() as tr:
            for tile in ctx.grid:
                tr.task(lambda t=tile: do_tile(ctx, t),
                        item=tile,
                        reads=[(tile.row - 1, tile.col), (tile.row, tile.col - 1)],
                        writes=[(tile.row, tile.col)])
        # on exit: the region's timeline is simulated and recorded

    Unknown read tokens (e.g. out-of-grid neighbours, like OpenMP's
    ``tile[i-1][j]`` with ``i == 0``) are simply never produced, hence
    create no edge — matching OpenMP semantics where a ``depend(in:)``
    on an address nobody wrote yet is a no-op.
    """

    def __init__(self, ctx, *, kind: str = "task"):
        self.ctx = ctx
        self.kind = kind
        self.graph = TaskGraph()
        self.timeline: Timeline | None = None
        self._closed = False

    # -- submission ---------------------------------------------------------
    def task(
        self,
        body: Callable[[], float],
        *,
        item: Any = None,
        reads: Sequence[Hashable] = (),
        writes: Sequence[Hashable] = (),
        meta: dict | None = None,
    ) -> int:
        """Submit one task; executes its body now, returns the task id."""
        if self._closed:
            raise DependencyError("task region already closed")
        (work,), footprints = _measure(self.ctx, lambda _: body(), (item,))
        cost = self.ctx.model.time_of(work)
        node_meta = dict(meta or {})
        node_meta["work"] = work
        if footprints is not None:
            node_meta["footprint"] = footprints[0]
            node_meta["depend_in"] = [str(t) for t in reads]
            node_meta["depend_out"] = [str(t) for t in writes]
        return self.graph.add_task(
            item, cost, reads=reads, writes=writes, meta=node_meta
        )

    def taskloop(
        self,
        body: Callable[[Any], float],
        items: Sequence[Any],
        *,
        grainsize: int = 1,
        meta: dict | None = None,
    ) -> list[int]:
        """``#pragma omp taskloop grainsize(k)``: spawn one independent
        task per chunk of ``grainsize`` items; ``body(item)`` returns the
        item's work.  Returns the created task ids."""
        if grainsize < 1:
            raise DependencyError(f"grainsize must be >= 1, got {grainsize}")
        tids = []
        for lo in range(0, len(items), grainsize):
            chunk = list(items[lo : lo + grainsize])

            def chunk_body(chunk=chunk):
                return sum(float(body(item) or 0.0) for item in chunk)

            tids.append(
                self.task(
                    chunk_body,
                    item=chunk[0] if len(chunk) == 1 else tuple(chunk),
                    meta=meta,
                )
            )
        return tids

    # -- region lifecycle -------------------------------------------------------
    def __enter__(self) -> "TaskRegion":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._closed = True
            return
        self.close()

    def close(self) -> Timeline:
        """Simulate the region (implicit ``taskwait`` + join)."""
        if self._closed:
            raise DependencyError("task region already closed")
        self._closed = True
        nodes = self.graph.nodes

        def schedule(costs, start, meta):
            for node, cost in zip(nodes, costs):
                node.cost = cost
            return SimResult(simulate_dag(
                self.graph, self.ctx.nthreads,
                model=self.ctx.model, start_time=start, meta=meta,
            ))

        result = close_region(
            self.ctx, "dag", [n.meta.get("work", 0.0) for n in nodes], schedule,
            kind=self.kind, rmode="dag", deps=[n.preds for n in nodes],
        )
        self.timeline = result.timeline
        return self.timeline
