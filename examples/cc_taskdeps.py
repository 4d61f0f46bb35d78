#!/usr/bin/env python3
"""The connected-components assignment (paper §III-C): task dependencies.

1. run the sequential algorithm (alternating down-right / up-left max
   propagation) until it stabilizes;
2. run the OpenMP-task version whose dependencies mirror Fig. 11 —
   a tile waits for its left and upper neighbours — and check it needs
   *no extra iterations*;
3. visualize the wave of tasks sweeping the image (Fig. 12);
4. reproduce the classic student bug: over-constrained dependencies
   serialize the whole phase.

Run:  python examples/cc_taskdeps.py
"""

import numpy as np

from repro import RunConfig, run
from repro.core.context import ExecutionContext
from repro.trace.gantt import GanttChart

CFG = dict(kernel="cc", dim=128, tile_w=16, tile_h=16, iterations=64, seed=4,
           nthreads=8)


def main() -> None:
    seq = run(RunConfig(variant="seq", **CFG))
    task = run(RunConfig(variant="omp_task", trace=True, **CFG))
    assert np.array_equal(seq.image, task.image)
    labels = len(set(task.image[task.image != 0].tolist()))
    print(f"sequential : converged at iteration {seq.early_stop}, "
          f"{labels} components")
    print(f"omp_task   : converged at iteration {task.early_stop} "
          "(same — correct dependencies add no iterations)")
    print(f"speedup    : x{seq.elapsed / task.elapsed:.2f} on 8 virtual CPUs")

    print("\nthe wave of tasks (Fig. 12), down-right phase of iteration 1:")
    events = [e for e in task.trace.events
              if e.kind == "task_dr" and e.iteration == 1]
    waves: dict[int, int] = {}
    for e in events:
        waves[e.y // 16 + e.x // 16] = waves.get(e.y // 16 + e.x // 16, 0) + 1
    for d in sorted(waves):
        print(f"  anti-diagonal {d:2d}: {'#' * waves[d]}")
    print("\nGantt chart of the first iteration:")
    print(GanttChart(task.trace, 1, 1).to_ascii(width=72))

    # --- the student bug ----------------------------------------------------
    print("\nover-constraining the problem (every task depends on the "
          "previous one):")
    ctx = ExecutionContext(RunConfig(kernel="none", variant="seq", dim=128,
                                     tile_w=16, tile_h=16, nthreads=8))
    with ctx.task_region() as tr:
        prev_token = None
        for t in ctx.grid:
            reads = [prev_token] if prev_token else []
            tr.task(lambda: 100.0, item=t, reads=reads,
                    writes=[(t.row, t.col)])
            prev_token = (t.row, t.col)
    tl, graph = tr.timeline, tr.graph
    # the FIFO list scheduler still deals the chain over all the CPUs,
    # but never runs two of its tasks at once
    chain = sum(n.cost for n in graph) + len(graph) * ctx.model.dispatch_overhead
    print(f"  {len(tl)} tasks on {ctx.nthreads} CPUs, but the critical path is "
          f"{graph.depth()} tasks deep: the makespan, {tl.makespan * 1e6:.1f} us, "
          f"is the chain's summed cost, {chain * 1e6:.1f} us with one dispatch "
          "per task (paper: 'they end up with a sequential execution of "
          "tasks').")


if __name__ == "__main__":
    main()
